"""End-to-end CLI behavior through subprocesses (in-process where a test
patches the library): formats, exit codes, headers, and byte-level
determinism."""

import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest

from loopnet import build_circulant, cli, theorem_lab, verify_instance
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

# options that would each be dropped without a word: the flags named
CONFLICTS = {
    ("verify", "--n", "7", "--m", "2", "--gens", "1,2"): ("--gens", "--m"),
    ("verify", "--n", "5", "--gens", "1,2", "--preset", "beenker-vanlint"):
        ("--gens", "--preset"),
    ("verify", "--preset", "beenker-vanlint", "--m", "3", "--n", "5..6"):
        ("--preset", "--m"),
    ("sweep", "--n", "5..8", "--m", "2", "--counterexamples-out", "X.csv"):
        ("--counterexamples-out", "--out"),
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
])
def test_parameter_errors_exit_2(args):
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert r.stderr != "" and "Traceback" not in r.stderr
    if args in MISSING_N:
        assert "--n" in r.stderr
    for flag in CONFLICTS.get(args, ()):
        assert flag in r.stderr


@pytest.mark.parametrize("args", [
    ("verify", "--n", "7", "--gens", "1,2", "--out", "{bad}"),
    ("sweep", "--n", "5..8", "--m", "2", "--out", "{bad}"),
    ("sweep", "--n", "5..8", "--m", "2", "--out", "{ok}",
     "--counterexamples-out", "{bad}"),
    ("diameter", "--n", "7", "--gens", "1,2", "--out", "{bad}"),
    ("export", "--n", "7", "--gens", "1,2", "--out", "{bad}"),
])
def test_unwritable_output_path_exits_2(tmp_path, args):
    bad = str(tmp_path / "missing" / "x.csv")
    r = run_cli(*(a.format(bad=bad, ok=tmp_path / "ok.csv") for a in args))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and bad in r.stderr
    assert "Traceback" not in r.stderr


def test_bad_output_path_fails_before_any_row(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a row ran before every output path was checked")

    bad = tmp_path / "missing" / "x.csv"
    argv = ["sweep", "--n", "5..8", "--m", "2", "--out", str(tmp_path / "ok.csv")]
    with monkeypatch.context() as m:
        m.setattr(theorem_lab, "verify_instance", refuse)
        assert cli.main([*argv, "--counterexamples-out", str(bad)]) == 2
    assert f"cannot write {bad}" in capsys.readouterr().err
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
        m.setattr(theorem_lab, "verify_instance", refuse)
        for other in ("x.csv", "sub/../x.csv", str(tmp_path / "x.csv")):
            assert cli.main(["sweep", "--n", "5..9", "--m", "2", "--out", "x.csv",
                             "--counterexamples-out", other]) == 2
            assert f"cannot write {other}: another output names the same file" \
                in capsys.readouterr().err
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
    real = theorem_lab.verify_instance

    def broken(n, chords, **kwargs):
        return real(n, chords)._replace(thm41_ok=False)

    monkeypatch.setattr(theorem_lab, "verify_instance", broken)
    assert cli.main([*argv, "--out", str(tmp_path / "report.csv")]) == 3
    captured = capsys.readouterr()
    assert "theorem violation" in captured.err
    assert captured.out == ""
    # no report, findings or counterexamples file
    assert list(tmp_path.iterdir()) == []


def reference_report(fmt, head, reports):
    """The report bytes as one in-memory document: the CSV rows, or a
    single json.dumps of the whole payload, from verify_instance rows."""
    if fmt == "json":
        payload = {"header": head, "reports": [r.json_record() for r in reports]}
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    buf = io.StringIO()
    buf.write(f"{head}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(theorem_lab.REPORT_COLUMNS)
    writer.writerows(r.csv_cells() for r in reports)
    return buf.getvalue()


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
        stdout = capsys.readouterr().out
        if argv[0] == "sweep":  # the summary follows the report
            stdout = stdout[:stdout.index("# gap distribution")]
        texts.append(stdout)
    assert texts[1:] == texts[:-1]
    head = (json.loads(texts[0])["header"] if fmt == "json"
            else texts[0].splitlines()[0])
    assert texts[0] == reference_report(fmt, head, want)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,instances", STREAMED_RUNS)
def test_blocks_across_ring_lengths_give_the_same_bytes(fmt, argv, instances,
                                                         tmp_path, monkeypatch,
                                                         capsys):
    # with 7-row blocks, some blocks span ring lengths and some ring
    # lengths span several blocks; every file stays the default run's
    want = [verify_instance(n, c) for n, c in instances]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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
                                                            monkeypatch, capsys):
    monkeypatch.setattr(theorem_lab, "BLOCK_ROWS", 7)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    inst = plan_sweep(range(5, 25), [2, 3])
    first, later = inst[7 * 4 + 3], inst[7 * 9 + 5]  # mid-block rows
    real = theorem_lab.verify_instance

    def broken(n, chords, **kwargs):
        r = real(n, chords, **kwargs)
        return r._replace(thm41_ok=False) if (n, chords) in (first, later) else r

    monkeypatch.setattr(theorem_lab, "verify_instance", broken)
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
    real = theorem_lab.verify_instance
    last = plan_sweep(range(5, 41), [2, 3])[-1]

    def broken(n, chords, **kwargs):
        r = real(n, chords, **kwargs)
        return r._replace(thm42_ok=False) if (n, chords) == last else r

    monkeypatch.setattr(theorem_lab, "verify_instance", broken)
    for out in (["--out", str(tmp_path / "report.out")], []):
        assert cli.main([*argv, "--jobs", jobs, *out]) == 3
        captured = capsys.readouterr()
        assert "theorem violation" in captured.err and "n=40" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


def test_bad_ring_length_exits_2_before_any_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--n", "3..10", "--m", "2", "--out", str(out)]) == 2
    assert "ring length must be >= 5, got 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    assert any(l.startswith("# gap distribution") for l in lines)
    assert any(l.startswith("# counterexamples ") for l in lines)
    assert any(l.startswith("# counterexample n=5") for l in lines)


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


def test_a_large_ring_length_goes_out_in_bounded_blocks(tmp_path, monkeypatch):
    # n = 2100 holds 1 048 double loops: at --jobs 1 and 2 they go out in
    # blocks of at most BLOCK_ROWS rows, with the same bytes; at --jobs 2 the
    # last 24 rows are split between the workers.  The counterexamples file
    # is written as one block of its rows
    real, sizes = theorem_lab._blocks, []

    def recording(instances, workers=1):
        for block in real(instances, workers):
            sizes.append(len(block))
            yield block

    monkeypatch.setattr(theorem_lab, "_blocks", recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.csv"
        assert cli.main(["sweep", "--n", "2100", "--m", "2", "--jobs", jobs,
                         "--out", str(out)]) == 0
        outs.append((out.read_bytes(),
                     (tmp_path / f"j{jobs}.counterexamples.csv").read_bytes()))
    cx = outs[0][1].count(b"\n") - 2  # below the header and column names
    assert theorem_lab.BLOCK_ROWS == 512 and 0 < cx < 512
    assert sizes == [512, 512, 24, cx, 512, 512, 12, 12, cx]
    assert outs[0] == outs[1]
