"""End-to-end CLI behavior through subprocesses (in-process where a test
patches the library): formats, exit codes, headers, and byte-level
determinism."""

import errno
import json
import os
import re
import resource
import signal
import stat
import subprocess
import sys
import time

import pytest

from loopnet import (FamilyParameterError, build_circulant, cli, metrics, oracle,
                     theorem_lab, verify_instance)
from loopnet.theorem_lab import plan_sweep


def run_cli(*args, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "LOOPNET_SEED"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "loopnet", *args],
                          capture_output=True, text=True, env=env)


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert re.fullmatch(r"loopnet \d+\.\d+\.\d+\n", r.stdout)


def test_diameter_text():
    r = run_cli("diameter", "--family", "circulant", "--n", "17",
                "--gens", "1,2,5,8")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("# loopnet ")
    assert "seed=0" in lines[0]
    assert "label C17(1,2,5,8)" in lines
    assert "diameter 2" in lines


def test_diameter_json():
    r = run_cli("diameter", "--family", "ggpg", "--n", "14",
                "--chords", "3,4", "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["label"] == "GGPG14(3,4)"
    assert data["diameter"] == 4
    assert data["header"]["tool"] == "loopnet"


def test_diameter_csv_distance_dump():
    r = run_cli("diameter", "--family", "circulant", "--n", "9",
                "--gens", "1,2", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[1] == "family,n,gens,source,vertex,dist"
    assert lines[2] == "circulant,9,1-2,0,0,0"
    assert len(lines) == 2 + 9


def test_diameter_paranoid():
    r = run_cli("diameter", "--family", "circulant", "--n", "17",
                "--gens", "1,2,5,8", "--paranoid")
    assert r.returncode == 0
    assert "--paranoid" in r.stdout.splitlines()[0]


@pytest.mark.parametrize("argv,sources", [
    (("--family", "circulant", "--n", "9", "--gens", "1,2"), 1),  # from 0
    (("--family", "ggpg", "--n", "9", "--chords", "2"), 2),       # from u_0 and v_0
], ids=["circulant", "ggpg"])
def test_a_distance_dump_searches_each_orbit_source_once(tmp_path, monkeypatch, argv, sources):
    # the dump writes no diameter, so only --paranoid's all-source check
    # (and its shortcut) adds searches to the dump's own
    real, calls = oracle.bfs, []
    monkeypatch.setattr(oracle, "bfs", lambda g, src: calls.append(src) or real(g, src))
    vertices, dumps = 9 * sources, []
    for extra in ((), ("--paranoid",)):
        calls.clear()
        out = tmp_path / f"dump{len(dumps)}.csv"
        assert cli.main(["diameter", *argv, "--format", "csv", "--out", str(out), *extra]) == 0
        dumps.append(out.read_text().split("\n", 1))
        assert len(calls) == (sources if not extra else 2 * sources + vertices)
    assert dumps[0][1] == dumps[1][1]  # the rows; the headers differ by --paranoid
    assert dumps[0][1].count("\n") == 1 + sources * vertices


def test_gens_canonicalization_warns():
    r = run_cli("diameter", "--family", "circulant", "--n", "9",
                "--gens", "2,1,2")
    assert r.returncode == 0
    assert "canonicalized to 1,2" in r.stderr
    assert "label C9(1,2)" in r.stdout


# a single-instance command given its generators or chords but no --n
MISSING_N = [
    ("verify", "--gens", "1,2"),
    ("diameter", "--family", "circulant", "--gens", "1,2"),
    ("diameter", "--family", "ggpg", "--chords", "2"),
    ("export", "--family", "circulant", "--gens", "1,2"),
    ("export", "--family", "ggpg", "--chords", "2"),
]

# options that would each be dropped without a word: the flags named (and,
# for --counterexamples-out, where the gap-1 rows go without --out)
CONFLICTS = {
    ("verify", "--n", "7", "--m", "2", "--gens", "1,2"): ("--gens", "--m"),
    ("verify", "--n", "5", "--gens", "1,2", "--preset", "beenker-vanlint"):
        ("--gens", "--preset"),
    ("verify", "--preset", "beenker-vanlint", "--m", "3", "--n", "5..6"):
        ("--preset", "--m"),
    ("sweep", "--n", "5..8", "--m", "2", "--counterexamples-out", "X.csv"):
        ("--counterexamples-out", "--out", "the gap-1 rows stay in the stdout report, "
         "and stderr names each on a '# counterexample' line"),
}

# a value or an absence each flag refuses, and the flag (or variable) named;
# a leading NAME=value item sets that environment variable
BAD_VALUES = {
    ("diameter", "--n", "9", "--gens", "a,b"): ("--gens",),
    ("diameter", "--n", "9", "--gens", ","): ("--gens",),
    ("diameter", "--n", "9", "--gens", "0,1"): ("--gens",),
    ("sweep", "--n", "5..x", "--m", "2"): ("--n",),
    ("sweep", "--n", "x", "--m", "2"): ("--n",),
    ("LOOPNET_SEED=x", "sweep", "--n", "5..8", "--m", "2"): ("LOOPNET_SEED",),
    ("diameter", "--family", "circulant", "--n", "9"): ("--gens",),
    ("diameter", "--family", "ggpg", "--n", "9"): ("--chords",),
    ("verify", "--n", "9", "--gens", "1"): ("--gens",),
    ("sweep", "--n", "5..8", "--m", "2", "--jobs", "0"): ("--jobs",),
}


@pytest.mark.parametrize("args", [
    ("diameter", "--family", "circulant", "--n", "4", "--gens", "1"),
    ("diameter", "--family", "circulant", "--n", "9", "--gens", "1,5"),
    ("diameter", "--family", "circulant", "--n", "9", "--chords", "2"),
    ("diameter", "--family", "ggpg", "--n", "9", "--chords", "1,2"),
    ("diameter", "--family", "ggpg", "--n", "9", "--gens", "1,2"),
    ("diameter", "--family", "circulant", "--n", "5..9", "--gens", "1"),
    ("verify", "--n", "5..9"),
    ("verify", "--n", "5..9", "--m", "1"),
    ("verify", "--n", "9", "--gens", "2,3"),
    ("verify", "--n", "5..9", "--m", "2", "--theorems", "4.9"),
    ("verify", "--preset", "unknown-family"),
    ("sweep", "--n", "9..5", "--m", "2"),
    ("sweep", "--n", "5..9"),
    ("export", "--family", "circulant", "--n", "9", "--gens", "1,2",
     "--format", "csv"),
    *MISSING_N,
    *CONFLICTS,
    *BAD_VALUES,
])
def test_parameter_errors_exit_2(args):
    env = dict([args[0].split("=", 1)]) if "=" in args[0] else {}
    r = run_cli(*args[len(env):], env_extra=env)
    assert r.returncode == 2, r.stderr
    assert r.stderr != "" and "Traceback" not in r.stderr
    named = ("--n",) if args in MISSING_N else CONFLICTS.get(args) or BAD_VALUES.get(args, ())
    if named:
        (line,) = [x for x in r.stderr.splitlines() if x.startswith("error: ")]
        assert all(name in line for name in named), line


@pytest.mark.parametrize("args", [
    ("verify", "--n", "7", "--gens", "1,2", "--out", "{bad}"),
    ("sweep", "--n", "5..8", "--m", "2", "--out", "{bad}"),
    ("sweep", "--n", "5..8", "--m", "2", "--out", "{ok}",
     "--counterexamples-out", "{bad}"),
    ("diameter", "--n", "7", "--gens", "1,2", "--out", "{bad}"),
    ("export", "--n", "7", "--gens", "1,2", "--out", "{bad}"),
    ("sweep", "--n", "5..8", "--m", "2", "--out", "{dir}"),
    ("diameter", "--n", "7", "--gens", "1,2", "--out", "{dir}"),
    ("export", "--n", "7", "--gens", "1,2", "--out", "{dir}"),
    ("verify", "--n", "7", "--gens", "1,2", "--out", "{dir}"),
    ("sweep", "--n", "5..8", "--m", "2", "--out", "{fifo}"),
    ("export", "--n", "7", "--gens", "1,2", "--out", "{fifo}"),
])
def test_unwritable_output_path_exits_2(tmp_path, args):
    # {bad} is in a missing directory, {dir} an existing directory, {fifo} a
    # FIFO, which a report would replace rather than write
    paths = {"bad": str(tmp_path / "missing" / "x.csv"), "dir": str(tmp_path),
             "ok": str(tmp_path / "ok.csv"), "fifo": str(tmp_path / "pipe.csv")}
    os.mkfifo(paths["fifo"])
    r = run_cli(*(a.format(**paths) for a in args))
    flag, key = args[-2], args[-1][1:-1]  # the unwritable path comes last
    reason = {"bad": os.strerror(errno.ENOENT), "dir": "not a file path",
              "fifo": "not a regular file"}[key]
    assert r.returncode == 2, r.stderr
    assert r.stderr == f"error: {flag}: cannot write '{paths[key]}': {reason}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "pipe.csv"]  # no partial file
    assert stat.S_ISFIFO(os.stat(paths["fifo"]).st_mode)  # still the FIFO


def test_an_output_symlink_is_written_through(tmp_path):
    # the link stays, and the file it names takes the report
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target.name)
    r = run_cli("sweep", "--n", "5..7", "--m", "2", "--out", str(link))
    assert r.returncode == 0, r.stderr
    assert os.readlink(link) == "target.csv"
    assert target.read_text() == run_cli("sweep", "--n", "5..7", "--m", "2").stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.counterexamples.csv", "link.csv", "target.csv"]


def test_bad_output_path_fails_before_any_row(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a row ran before every output path was checked")

    bad = tmp_path / "missing" / "x.csv"
    argv = ["sweep", "--n", "5..8", "--m", "2", "--out", str(tmp_path / "ok.csv")]
    with monkeypatch.context() as m:
        m.setattr(theorem_lab, "_verify_row", refuse)
        assert cli.main([*argv, "--counterexamples-out", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: --counterexamples-out: cannot write '{bad}': {os.strerror(errno.ENOENT)}\n")
    assert list(tmp_path.iterdir()) == []  # no ok.csv, no temporary file
    assert cli.main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ok.counterexamples.csv", "ok.csv"]


def test_outputs_naming_one_file_are_refused(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a row ran before every output path was checked")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    with monkeypatch.context() as m:
        m.setattr(theorem_lab, "_verify_row", refuse)
        for other in ("x.csv", "sub/../x.csv", str(tmp_path / "x.csv")):
            assert cli.main(["sweep", "--n", "5..9", "--m", "2", "--out", "x.csv",
                             "--counterexamples-out", other]) == 2
            assert capsys.readouterr().err == (
                f"error: --counterexamples-out: cannot write '{other}': "
                "another output names the same file\n")
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]  # no report, no temporary file


def strict_json(text):
    """json.loads rejecting the non-standard NaN/Infinity literals it
    otherwise accepts."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_diameter_json_disconnected_is_valid_json():
    r = run_cli("diameter", "--n", "10", "--gens", "2,4", "--format", "json")
    assert r.returncode == 0, r.stderr
    assert strict_json(r.stdout)["diameter"] == "inf"


def test_sample_size_above_cell_clamps_to_whole_cell():
    r = run_cli("sweep", "--n", "20..22", "--m", "3", "--sample-cap", "10",
                "--sample-size", "50")
    whole = run_cli("sweep", "--n", "20..22", "--m", "3")
    assert r.returncode == 0, r.stderr
    # same rows; only the header's flag list differs
    assert r.stdout.splitlines()[1:] == whole.stdout.splitlines()[1:]


@pytest.mark.parametrize("flag,value", [("--sample-size", "0"),
                                        ("--sample-size", "-3"),
                                        ("--sample-cap", "-1")])
def test_out_of_range_sample_flags_are_named(flag, value):
    for cmd in ("sweep", "verify"):
        r = run_cli(cmd, "--n", "20..22", "--m", "3", flag, value)
        assert r.returncode == 2
        assert flag in r.stderr and "Traceback" not in r.stderr


def test_export_dot_round_trip():
    r = run_cli("export", "--family", "ggpg", "--n", "9", "--chords", "2")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("// loopnet ")
    body = "\n".join(r.stdout.splitlines()[1:]) + "\n"
    edges = set(re.findall(r"^  (\w+) -- (\w+);$", body, re.M))
    g = build_circulant(9, [1, 2])
    # 27 edges for GPG-like: 9 outer + 9 inner + 9 spokes
    assert len(edges) == 27
    assert ("u0", "v0") in edges


def test_verify_single_instance_clean():
    r = run_cli("verify", "--n", "9", "--gens", "1,2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[1].startswith("n,gens,chords,")
    assert lines[2].startswith("9,1-2,1,2,4,2,")


def test_verify_findings_exit_4(tmp_path):
    out = tmp_path / "report.csv"
    r = run_cli("verify", "--n", "5..8", "--m", "2", "--out", str(out))
    assert r.returncode == 4
    assert "findings" in r.stderr
    report = out.read_text()
    assert report.splitlines()[1].startswith("n,gens,")
    findings_path = tmp_path / "report.findings.json"
    data = json.loads(findings_path.read_text())
    assert data["findings"], "inconsistencies at n=5 and n=7 expected"
    tags = {f["anomaly"].split(":")[0] for f in data["findings"]}
    assert tags <= {"thm43", "thm44"}
    assert all(f["witness"] is not None for f in data["findings"]
               if f["anomaly"].startswith("thm43"))


def test_verify_theorem_filter_masks_findings():
    r = run_cli("verify", "--n", "5..8", "--m", "2",
                "--theorems", "4.1,4.2")
    assert r.returncode == 0, r.stderr


def test_verify_preset_single_chord_family():
    r = run_cli("verify", "--preset", "beenker-vanlint", "--n", "5..10",
                "--theorems", "4.2")
    assert r.returncode == 0, r.stderr
    lines = [l for l in r.stdout.splitlines() if not l.startswith(("#", "n,"))]
    # every single-chord instance for n in 5..10
    assert len(lines) == sum(max(0, (n - 1) // 2 - 1) for n in range(5, 11))
    assert "--preset beenker-vanlint" in r.stdout.splitlines()[0]


def test_verify_preset_honours_the_sample_flags():
    # a 1 498-set cell over --sample-cap 10 is sampled to --sample-size 3;
    # the verify header records neither flag, as for a --m grid
    r = run_cli("verify", "--preset", "beenker-vanlint", "--n", "3000",
                "--sample-cap", "10", "--sample-size", "3")
    assert r.returncode == 0, r.stderr
    head, columns, *rows = r.stdout.splitlines()
    assert head.split(" | ")[1:] == [
        "verify --preset beenker-vanlint --n 3000 --theorems 4.1,4.2,4.3,4.4 --format csv",
        "seed=0"]
    assert columns.startswith("n,gens,")
    assert len(rows) == 3 and all(row.startswith("3000,1-") for row in rows)


def test_verify_json_format():
    # gap=1 here, but thm43/44 are consistent and conj45 is not in the
    # default theorem set, so the run is clean
    r = run_cli("verify", "--n", "12", "--gens", "1,5", "--format", "json")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    rec = data["reports"][0]
    assert rec["gap"] == 1
    assert rec["thm43_consistent"] is True
    assert "conj45" in rec["witnesses"]


def test_verify_selecting_conj45_flags_gap1_rows():
    r = run_cli("verify", "--n", "12", "--gens", "1,5", "--theorems", "4.5")
    assert r.returncode == 4


@pytest.mark.parametrize("argv", [("verify", "--n", "9", "--gens", "1,2"),
                                  ("sweep", "--n", "9", "--m", "2")])
def test_proved_violation_exits_3_before_writing(argv, tmp_path, monkeypatch,
                                                 capsys):
    real = theorem_lab._verify_row

    def broken(*args):
        return real(*args)._replace(thm41=False)

    monkeypatch.setattr(theorem_lab, "_verify_row", broken)
    assert cli.main([*argv, "--out", str(tmp_path / "report.csv")]) == 3
    captured = capsys.readouterr()
    assert "theorem violation" in captured.err
    assert captured.out == ""
    # no report, findings or counterexamples file
    assert list(tmp_path.iterdir()) == []


def wrong_route(monkeypatch):
    real = metrics._level_sets
    monkeypatch.setattr(metrics, "_level_sets",
                        lambda n, chords: real(n, chords)._replace(v_dc=(1,)))


def wrong_kernel(monkeypatch):
    real = oracle.instance_distances

    def doctored(g):
        dist = real(g)
        dist.chord_only[3] = 99
        return dist

    monkeypatch.setattr(oracle, "instance_distances", doctored)


def wrong_conditions(monkeypatch):
    real = metrics._summarize

    def flipped(*args):  # the one verdict rule flips cond_outer
        facts = real(*args)
        return facts._replace(cond_outer=not facts.cond_outer)

    monkeypatch.setattr(metrics, "_summarize", flipped)


def wrong_walk(monkeypatch):
    real = metrics.diametral_path
    monkeypatch.setattr(metrics, "diametral_path", lambda *args: real(*args)[:-1])


def wrong_shortcut(monkeypatch):  # the last source sees one step farther
    real = oracle.bfs
    monkeypatch.setattr(oracle, "bfs", lambda g, src: tuple(
        d + (src == g.num_vertices - 1) for d in real(g, src)))


VERIFY_12 = ("verify", "--n", "12", "--gens", "1,5", "--theorems", "4.5", "--paranoid")


@pytest.mark.parametrize("argv,fault,message", [
    (VERIFY_12, wrong_route, r"route mismatch on C12\(1,5\): level sets "),
    (VERIFY_12, wrong_kernel, r"kernel mismatch on C12\(1,5\) chord-only from 0: vertex 3 "),
    (VERIFY_12, wrong_conditions,
     r"verdict mismatch on C12\(1,5\) \(cond_outer, cond_inner, near\): "
     r"summary \(False, True, \(\)\), list BFS \(True, True, \(\)\)"),
    (VERIFY_12, wrong_walk, r"witness mismatch on C12\(1,5\): walk "),
    (("sweep", "--n", "11..12", "--m", "2", "--paranoid", "--jobs", "2"), wrong_walk,
     r"witness mismatch on C12\(1,5\): walk "),  # the second worker's block
    (("diameter", "--n", "12", "--gens", "1,5", "--paranoid"), wrong_shortcut,
     r"symmetry shortcut mismatch on C12\(1,5\): ecc\(0\) = 3, all-source diameter = 4"),
], ids=["route", "kernel", "conditions", "walk", "walk at --jobs 2", "shortcut"])
def test_a_paranoid_mismatch_exits_3_with_one_line_and_no_file(argv, fault, message,
                                                               tmp_path, monkeypatch,
                                                               capsys, cores):
    cores(2)
    fault(monkeypatch)
    for out in (["--out", str(tmp_path / "report.out")], []):
        assert cli.main([*argv, *out]) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(f"theorem violation: {message}[^\n]*\n", captured.err), \
            captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


def reference_report(fmt, head, reports):
    """The report bytes as one in-memory document: the CSV rows, or a
    single json.dumps of the whole payload, from verify_instance rows."""
    if fmt == "json":
        payload = {"header": head, "reports": [r.json_record() for r in reports]}
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=list) + "\n"
    return "".join([f"{head}\n", ",".join(theorem_lab.REPORT_COLUMNS), "\n",
                    *(r.csv_line() for r in reports)])


STREAMED_RUNS = [
    # gap-1 rows, so conj45 witnesses in JSON
    (("sweep", "--n", "5..24", "--m", "2,3"),
     plan_sweep(range(5, 25), [2, 3])),
    # sampled m = 3 and m = 4 cells, with thm43 findings
    (("verify", "--n", "60..61", "--m", "3,4", "--sample-cap", "100",
      "--sample-size", "30", "--seed", "9", "--theorems", "4.3,4.5"),
     plan_sweep(range(60, 62), [3, 4], sample_cap=100, sample_size=30, seed=9)),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,instances", STREAMED_RUNS)
def test_streamed_reports_equal_the_whole_document(fmt, argv, instances, tmp_path,
                                                   capsys):
    want = [verify_instance(n, c) for n, c in instances]
    assert any(r.gap == 1 for r in want)
    texts = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.{fmt}"
        code = cli.main([*argv, "--format", fmt, "--jobs", jobs, "--out", str(out)])
        capsys.readouterr()
        texts.append(out.read_text())
        assert cli.main([*argv, "--format", fmt, "--jobs", jobs]) == code
        texts.append(capsys.readouterr().out)
    assert texts[1:] == texts[:-1]
    head = (json.loads(texts[0])["header"] if fmt == "json"
            else texts[0].splitlines()[0])
    assert texts[0] == reference_report(fmt, head, want)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,instances", STREAMED_RUNS)
def test_blocks_across_ring_lengths_give_the_same_bytes(fmt, argv, instances,
                                                         tmp_path, monkeypatch,
                                                         capsys, cores):
    # with 7-row blocks, some blocks span ring lengths and some ring
    # lengths span several blocks; every file stays the default run's
    want = [verify_instance(n, c) for n, c in instances]
    cores(2)
    runs = []
    for rows, jobs in ((theorem_lab.BLOCK_ROWS, "1"), (7, "1"), (7, "2")):
        monkeypatch.setattr(theorem_lab, "BLOCK_ROWS", rows)
        out = tmp_path / f"{rows}-j{jobs}" / f"report.{fmt}"
        out.parent.mkdir()
        code = cli.main([*argv, "--format", fmt, "--jobs", jobs, "--out", str(out)])
        capsys.readouterr()
        runs.append((code, {p.name: p.read_bytes() for p in out.parent.iterdir()}))
    blocks = list(theorem_lab._blocks(instances))
    assert any(b[0][0] != b[-1][0] for b in blocks)
    assert any(a[-1][0] == b[0][0] == b[-1][0] for a, b in zip(blocks, blocks[1:]))
    assert runs[1:] == runs[:-1] and len(runs[0][1]) == 2
    text = runs[0][1][f"report.{fmt}"].decode()
    head = json.loads(text)["header"] if fmt == "json" else text.splitlines()[0]
    assert text == reference_report(fmt, head, want)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_violation_inside_a_block_exits_3_naming_its_row(jobs, tmp_path,
                                                            monkeypatch, capsys, cores):
    monkeypatch.setattr(theorem_lab, "BLOCK_ROWS", 7)
    cores(2)
    inst = plan_sweep(range(5, 25), [2, 3])
    first, later = inst[7 * 4 + 3], inst[7 * 9 + 5]  # mid-block rows
    real = theorem_lab._verify_row

    def broken(*args):
        r = real(*args)
        return r._replace(thm41=False) if (r.n, r.gens[1:]) in (first, later) else r

    monkeypatch.setattr(theorem_lab, "_verify_row", broken)
    n, chords = first
    for out in (["--out", str(tmp_path / "report.csv")], []):
        assert cli.main(["sweep", "--n", "5..24", "--m", "2,3", "--jobs", jobs, *out]) == 3
        captured = capsys.readouterr()
        assert f"violated on n={n} gens={(1,) + chords}:" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv", [("verify", "--n", "5..40", "--m", "2,3"),
                                  ("sweep", "--n", "5..40", "--m", "2,3",
                                   "--format", "json")])
def test_late_violation_exits_3_with_no_report_byte(argv, jobs, tmp_path,
                                                    monkeypatch, capsys):
    real = theorem_lab._verify_row
    last = plan_sweep(range(5, 41), [2, 3])[-1]

    def broken(*args):
        r = real(*args)
        return r._replace(thm42=False) if (r.n, r.gens[1:]) == last else r

    monkeypatch.setattr(theorem_lab, "_verify_row", broken)
    for out in (["--out", str(tmp_path / "report.out")], []):
        assert cli.main([*argv, "--jobs", jobs, *out]) == 3
        captured = capsys.readouterr()
        assert "theorem violation" in captured.err and "n=40" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_ring_too_large_for_memory_exits_2_with_no_file(jobs, tmp_path, monkeypatch,
                                                          capsys, cores):
    # a route that runs out of memory on the last ring length, in this
    # process or in a worker, which pickles the error back
    real = metrics._level_sets

    def starved(n, chords):
        if n == 40:
            raise MemoryError
        return real(n, chords)

    monkeypatch.setattr(metrics, "_level_sets", starved)
    cores(2)
    for out in (["--out", str(tmp_path / "report.csv")], []):
        assert cli.main(["verify", "--n", "5..40", "--m", "2,3", "--jobs", jobs, *out]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory: a ring is too large for this machine\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


def test_bad_ring_length_exits_2_before_any_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--n", "3..10", "--m", "2", "--out", str(out)]) == 2
    assert "ring length must be >= 5, got 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv", [("sweep", "--n", "3..10", "--m", "2"),
                                  ("verify", "--preset", "beenker-vanlint", "--n", "3..8")],
                         ids=["sweep", "preset"])
def test_a_bad_ring_length_exits_2_with_no_file_at_any_jobs(argv, jobs, tmp_path, capsys,
                                                            cores):
    # the refusal rises as the first ring is planned: at --jobs 2, while
    # run_instances pulls its first rows, before any worker is forked
    cores(2)
    for out in (["--out", str(tmp_path / "x.csv")], []):
        assert cli.main([*argv, "--jobs", jobs, *out]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: ring length must be >= 5, got 3\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


# a ring length or range end past sys.maxsize (n >= 10**20 only: there the
# shift and the list refuse before they allocate, a ring near 10**12 may not)
HUGE = str(10 ** 20)
TOO_LARGE = f"error: a ring is past this machine's index size (sys.maxsize = {sys.maxsize})\n"


@pytest.mark.parametrize("command", ["diameter", "export", "verify"])
def test_a_range_past_the_index_size_is_refused_as_one_n(command, capsys):
    assert cli.main([command, "--n", f"5..{HUGE}", "--gens", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: this subcommand takes a single --n, got '5..{HUGE}'\n"
    assert captured.out == ""


def test_a_range_past_the_index_size_keeps_its_text():
    # a sweep's header names its range by its ends, never its length
    assert cli._n_text(range(5, 10 ** 20 + 1)) == f"5..{HUGE}"
    assert cli._n_text(range(10 ** 20, 10 ** 20 + 1)) == HUGE


@pytest.mark.parametrize("argv", [
    # the ring bound skips the level loop: the list kernel's [INF] * n
    ("verify", "--n", HUGE, "--gens", "1,2,3"),
    # long chords enter the level loop: its 1 << n
    ("verify", "--n", HUGE, "--gens", "1,30000000000000000000,40000000000000000000"),
    ("diameter", "--n", HUGE, "--gens", "1,2"),             # list BFS's [INF] * n
    ("verify", "--n", HUGE, "--m", "2", "--sample-size", "2"),  # unranking bisects a range
], ids=["list-kernel", "level-loop", "list-bfs", "sampled-cell"])
def test_a_ring_past_the_index_size_exits_2_with_one_line(argv, tmp_path, capsys):
    for out in (["--out", str(tmp_path / "x.out")], []):
        assert cli.main([*argv, *out]) == 2
        captured = capsys.readouterr()
        assert captured.err == TOO_LARGE and captured.out == ""
        assert list(tmp_path.iterdir()) == []


def test_a_lattice_row_past_the_index_size_still_answers(capsys):
    # the double loop's lattice route holds no n-sized object
    argv = ["verify", "--n", HUGE, "--gens", f"1,{10 ** 20 // 2 - 1}", "--theorems", "4.5"]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == "findings: 1 (see report anomalies column)\n"
    assert captured.out.splitlines()[2].startswith(f"{HUGE},1-{10 ** 20 // 2 - 1},1,")


OUT_OF_MEMORY = "error: out of memory: a ring is too large for this machine\n"


@pytest.mark.parametrize("n, gens, err", [
    (HUGE, f"1,{10 ** 20 // 2 - 1}", TOO_LARGE),   # the lattice row above
    (str(10 ** 9), f"1,{10 ** 9 // 2 - 1}", OUT_OF_MEMORY),  # a 16 GB table
], ids=["index-size", "out-of-memory"])
def test_paranoid_past_the_oracle_reach_exits_2_at_once(n, gens, err):
    # the default run answers both rows on the lattice, but --paranoid's
    # oracle.Adjacency needs a table of 2n slots: it allocates them as one
    # list before the first neighbors() call, so the row fails at that
    # allocation with one line.  Before, the table grew a vertex at a time
    # until memory ran out, so the child runs under an address-space limit
    # of its own and a timeout
    limit = 1 << 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = [sys.executable, "-m", "loopnet", "verify", "--n", n, "--gens", gens, "--paranoid"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          preexec_fn=cap) as child:
        try:
            out, got = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    assert (child.returncode, got, out) == (2, err, "")


def refuse_rows(*args, **kwargs):
    raise AssertionError("a row ran before its parameters were checked")


BAD_GENS = {("9", "1,5"): "generators must be <= floor((n-1)/2) = 4 for n = 9, got 5",
            ("4", "1,2"): "ring length must be an integer >= 5, got 4"}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("n,gens", BAD_GENS)
def test_a_bad_gens_row_exits_2_before_any_file(n, gens, jobs, tmp_path, monkeypatch,
                                                capsys):
    # the row is checked where it runs (metrics.row_facts), so it never
    # reaches the record builder, whatever the jobs
    argv = ["verify", "--n", n, "--gens", gens, "--jobs", jobs,
            "--out", str(tmp_path / "report.csv")]
    r = run_cli(*argv)
    assert r.returncode == 2 and r.stderr == f"error: {BAD_GENS[n, gens]}\n"
    assert list(tmp_path.iterdir()) == []  # no report, no findings file
    with monkeypatch.context() as m:
        m.setattr(theorem_lab, "_verify_row", refuse_rows)
        assert cli.main(argv) == 2
    assert capsys.readouterr().err == r.stderr
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(FamilyParameterError, match=re.escape(BAD_GENS[n, gens])):
        verify_instance(int(n), tuple(map(int, gens.split(",")))[1:])


def test_a_json_sweep_without_an_extension_writes_json_counterexamples(tmp_path, capsys):
    report = tmp_path / "report"
    assert cli.main(["sweep", "--n", "5..12", "--m", "2", "--format", "json",
                     "--out", str(report)]) == 0
    cx = tmp_path / "report.counterexamples.json"
    assert capsys.readouterr().out.endswith(f"counterexamples 4 -> {cx}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report", cx.name]
    assert len(json.loads(cx.read_text())["reports"]) == 4


def test_sweep_deterministic_and_counterexamples(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ("sweep", "--n", "5..14", "--m", "2", "--out", str(out))
    r1 = run_cli(*args)
    assert r1.returncode == 0, r1.stderr
    first = out.read_text()
    cx = (tmp_path / "sweep.counterexamples.csv").read_text()
    r2 = run_cli(*args)
    assert out.read_text() == first
    assert r1.stdout == r2.stdout
    assert "gap distribution" in r1.stdout
    # known gap-1 rows in this window: (5,2), (7,2), (7,3), (12,5), (13,5)?
    cx_rows = [l for l in cx.splitlines() if not l.startswith(("#", "n,"))]
    assert any(l.startswith("5,1-2,") for l in cx_rows)
    assert any(l.startswith("12,1-5,") for l in cx_rows)
    for line in cx_rows:
        assert line.split(",")[5] == "1"  # gap column
    gaps = [l.split(",")[5] for l in first.splitlines()[2:]]
    assert r1.stdout.splitlines()[:2] == [
        f"rows {len(gaps)}",
        f"gap distribution 1:{gaps.count('1')} 2:{gaps.count('2')}"]
    assert gaps.count("1") == len(cx_rows)


def test_sweep_jobs_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run_cli("sweep", "--n", "5..13", "--m", "2,3", "--out", str(a))
    r2 = run_cli("sweep", "--n", "5..13", "--m", "2,3", "--out", str(b),
                 "--jobs", "3")
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_text() == b.read_text()
    # header records the semantic flags, not the job count
    assert "--jobs" not in a.read_text().splitlines()[0]


def test_sweep_json_witnesses_do_not_depend_on_jobs(tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.json"
        r = run_cli("sweep", "--n", "5..30", "--m", "2,3", "--format", "json",
                    "--out", str(out), "--jobs", jobs)
        assert r.returncode == 0, r.stderr
        outs.append((out.read_bytes(),
                     (tmp_path / f"j{jobs}.counterexamples.json").read_bytes()))
    assert outs[0] == outs[1]
    cx = strict_json(outs[0][1].decode())["reports"]
    assert cx and all(rec["witnesses"]["conj45"]["ggpg_diametral_path"] for rec in cx)


def test_sweep_stdout_mode():
    r = run_cli("sweep", "--n", "5..7", "--m", "2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("# loopnet ")
    assert not any(l.startswith("#") for l in lines[1:])  # the report alone
    summary = r.stderr.splitlines()
    assert summary[0].startswith("# gap distribution")
    assert summary[1].startswith("# counterexamples ")
    assert any(l.startswith("# counterexample n=5") for l in summary)


def test_sweep_stdout_holds_only_the_report(tmp_path):
    # without --out, stdout is the bytes --out writes, in both formats (so a
    # JSON one loads), and the summary, a line per gap-1 row, is on stderr
    argv, stderr = ("sweep", "--n", "5..7", "--m", "2"), []
    for fmt in ("csv", "json"):
        out = tmp_path / f"sweep.{fmt}"
        assert run_cli(*argv, "--format", fmt, "--out", str(out)).returncode == 0
        r = run_cli(*argv, "--format", fmt)
        assert r.returncode == 0 and r.stdout == out.read_text(), fmt
        stderr.append(r.stderr)
    reports = json.loads(r.stdout)["reports"]
    gaps = [rec["gap"] for rec in reports]
    gap1 = [rec for rec in reports if rec["gap"] == 1]
    assert gap1 and stderr == 2 * ["".join([
        f"# gap distribution 1:{gaps.count(1)} 2:{gaps.count(2)}\n",
        f"# counterexamples {len(gap1)}\n",
        *(f"# counterexample n={rec['n']} gens={'-'.join(map(str, rec['gens']))}\n"
          for rec in gap1)])]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ("diameter", "--n", "40", "--family", "ggpg", "--chords", "3,7", "--format", "csv"),
    ("export", "--n", "9", "--family", "ggpg", "--chords", "2"),
    ("verify", "--n", "5..12", "--m", "2"),
    ("sweep", "--n", "5..12", "--m", "2", "--format", "json"),
    ("sweep", "--n", "5..12", "--m", "2", "--out", "{tmp}/r.csv"),
], ids=["diameter", "export", "verify", "sweep", "sweep-out"])
def test_an_unwritable_stdout_exits_2_with_one_line(argv, tmp_path):
    # the staged stdout file is made in TMPDIR and closed when the copy out
    # fails: an unclosed one would add an "Exception ignored" ResourceWarning.
    # stdout is block-buffered, as on a pipe or a file, so an output shorter
    # than the buffer fails only when flushed: that must happen before exit.
    # sweep --out leaves neither of its files behind
    env = {k: v for k, v in os.environ.items()
           if k not in ("LOOPNET_SEED", "PYTHONUNBUFFERED")}
    argv = [a.format(tmp=tmp_path) for a in argv]
    with open("/dev/full", "w") as full:
        r = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                            "-m", "loopnet", *argv], stdout=full, stderr=subprocess.PIPE,
                           text=True, env=dict(env, TMPDIR=str(tmp_path)))
    assert r.returncode == 2
    assert r.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert list(tmp_path.iterdir()) == []


def test_seed_env_fallback_and_flag_override():
    r = run_cli("sweep", "--n", "5..6", "--m", "2",
                env_extra={"LOOPNET_SEED": "7"})
    assert "seed=7" in r.stdout.splitlines()[0]
    r = run_cli("sweep", "--n", "5..6", "--m", "2", "--seed", "3",
                env_extra={"LOOPNET_SEED": "7"})
    assert "seed=3" in r.stdout.splitlines()[0]


def test_verify_paranoid_small_grid():
    r = run_cli("verify", "--n", "5..8", "--m", "2", "--paranoid",
                "--theorems", "4.1,4.2")
    assert r.returncode == 0, r.stderr
    assert "--paranoid" in r.stdout.splitlines()[0]


def test_a_large_ring_length_goes_out_in_bounded_blocks(tmp_path, monkeypatch, fork_log, cores):
    # n = 2100 holds 1 048 double loops: at --jobs 1 and 2 they go out in
    # blocks of at most BLOCK_ROWS rows, with the same bytes; at --jobs 2 the
    # last 24 rows are split between the workers, and worker k renders
    # blocks k, k + 2.  The counterexamples file is written, in this
    # process, as one block of its rows
    real = theorem_lab._render_rows

    def recording(reports, fmt):
        reports = list(reports)
        fork_log.log("render", len(reports))
        return real(reports, fmt)

    monkeypatch.setattr(theorem_lab, "_render_rows", recording)
    cores(2)
    outs, sizes = [], []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.csv"
        assert cli.main(["sweep", "--n", "2100", "--m", "2", "--jobs", jobs,
                         "--out", str(out)]) == 0
        assert len(fork_log.pids) == {"1": 0, "2": 2}[jobs]
        sizes += fork_log.in_turn("render") + fork_log.entries("render")
        fork_log.clear()
        outs.append((out.read_bytes(),
                     (tmp_path / f"j{jobs}.counterexamples.csv").read_bytes()))
    cx = outs[0][1].count(b"\n") - 2  # below the header and column names
    assert theorem_lab.BLOCK_ROWS == 512 and 0 < cx < 512
    assert sizes == [512, 512, 24, cx, 512, 512, 12, 12, cx]
    assert outs[0] == outs[1]


def run_patched(patch: str, *argv, output=subprocess.PIPE):
    """`loopnet argv` in a fresh interpreter, after running patch (source
    that may rebind names of theorem_lab) with os, signal, cli and
    theorem_lab in scope and two cores reported."""
    script = ("import os, signal, sys\nfrom loopnet import cli, theorem_lab\n"
              "os.cpu_count = lambda: 2\nos.sched_getaffinity = lambda pid: {0, 1}\n"
              + patch + "\nsys.exit(cli.main(sys.argv[1:]))\n")
    env = {k: v for k, v in os.environ.items() if k != "LOOPNET_SEED"}
    return subprocess.run([sys.executable, "-c", script, *argv], stdout=output,
                          stderr=output, text=True, env=env, timeout=120)


# each worker kills itself on its second block
_DYING = """
real, calls = theorem_lab._verify_block, []
def dying(block, paranoid, fmt):
    calls.append(block)
    if os.getpid() != PARENT and len(calls) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(block, paranoid, fmt)
theorem_lab._verify_block = dying
"""


@pytest.mark.parametrize("to_file", [True, False])
def test_a_dead_worker_fails_the_run_and_leaves_nothing(to_file, tmp_path, monkeypatch,
                                                        capsys, deadline, cores):
    monkeypatch.setattr(theorem_lab, "BLOCK_ROWS", 7)
    cores(2)
    scope = {"os": os, "signal": signal, "theorem_lab": theorem_lab,
             "PARENT": os.getpid()}
    exec(_DYING, scope)
    monkeypatch.setattr(theorem_lab, "_verify_block", scope["dying"])
    out = ["--out", str(tmp_path / "report.csv")] if to_file else []
    argv = ["sweep", "--n", "5..24", "--m", "2,3", "--jobs", "2", *out]
    with deadline(60), pytest.raises(
            RuntimeError, match=r"worker 0 \(pid \d+\) ended with exit status -9 "
                                r"before it sent block 2"):
        cli.main(argv)
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)
    # the same run as a command exits nonzero, names the status, leaves nothing
    r = run_patched("theorem_lab.BLOCK_ROWS = 7\nPARENT = os.getpid()\n" + _DYING, *argv)
    assert r.returncode == 1 and r.stdout == ""
    assert "ended with exit status -9 before it sent block 2" in r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("to_file", [True, False])
def test_a_worker_violation_is_reported_once_by_the_command(to_file, tmp_path):
    # a worker never returns into cli.main: its violation reaches stderr once
    n, chords = plan_sweep(range(5, 25), [2, 3])[7 * 5 + 3]
    patch = (f"real = theorem_lab._verify_row\n"
             f"def broken(*args):\n"
             f"    r = real(*args)\n"
             f"    return r._replace(thm41=False) if (r.n, r.gens[1:]) == {(n, chords)!r} else r\n"
             f"theorem_lab._verify_row = broken\n"
             f"theorem_lab.BLOCK_ROWS = 7\n")
    out = ["--out", str(tmp_path / "report.csv")] if to_file else []
    r = run_patched(patch, "sweep", "--n", "5..24", "--m", "2,3", "--jobs", "2", *out)
    assert r.returncode == 3 and r.stdout == ""
    (line,) = r.stderr.splitlines()
    assert line.startswith(f"theorem violation: pairwise sandwich violated on n={n} "
                           f"gens={(1,) + chords}:")
    assert list(tmp_path.iterdir()) == []


def test_workers_of_a_killed_run_end_at_their_next_write(tmp_path):
    # the parent dies after its first block; a worker holds no read end of
    # its own pipe, so its next write fails and it exits instead of
    # blocking on a full pipe for good
    log = tmp_path / "workers"
    patch = (f"from loopnet import forking\n"
             f"theorem_lab.BLOCK_ROWS, forking.PIPE_BYTES = 16, 4096\n"
             f"real_block, real_run = theorem_lab._verify_block, cli.run_instances\n"
             f"def logged(block, paranoid, fmt):\n"
             f"    with open({str(log)!r}, 'a') as fh:\n"
             f"        fh.write(f'{{os.getpid()}}\\n')\n"
             f"    return real_block(block, paranoid, fmt)\n"
             f"def dying(*args, **kwargs):\n"
             f"    for i, result in enumerate(real_run(*args, **kwargs)):\n"
             f"        if i == 1:\n"
             f"            os.kill(os.getpid(), signal.SIGKILL)\n"
             f"        yield result\n"
             f"theorem_lab._verify_block, cli.run_instances = logged, dying\n")

    def workers():
        return set(map(int, log.read_text().split())) if log.exists() else set()

    def running(pid):  # neither gone nor a zombie
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    try:
        r = run_patched(patch, "sweep", "--n", "5..60", "--m", "2,3", "--jobs", "2",
                        "--out", str(tmp_path / "report.csv"), output=subprocess.DEVNULL)
        assert r.returncode == -signal.SIGKILL and len(workers()) == 2
        deadline = time.monotonic() + 30
        while any(map(running, workers())) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers()))
    finally:
        for pid in filter(running, workers()):
            os.kill(pid, signal.SIGKILL)
