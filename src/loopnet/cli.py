"""Command line front end: diameter queries, instance verification,
conjecture sweeps, and DOT export.

verify and sweep share one runner, _run_checked, whose memory does not
grow with the row count: the grid is planned one ring length at a time,
and theorem_lab.run_instances verifies, checks (enforce_proven) and
renders it in blocks of rows, in workers under --jobs.  This process only
writes each block's text into a staged report, keeping gap counts and the
gap-1 rows or findings.  Both create an empty temporary sibling of every
file they write before the first row runs, so an unwritable path fails at
once, and move each into place only at the end; a stdout report is staged
in an anonymous temporary file and copied out after the last row.  A run
that exits 2 or 3 leaves none of its files behind and prints no report
byte.

Exit codes: 0 clean, 2 parameter error or unwritable output path, 3
proved-statement violation (witness on stderr), 4 findings present
(inconsistencies or gap=1 rows under verify).  Output files start with a
header line recording the tool version, the semantic flag set, and the
seed -- never a timestamp, so a rerun with the same flags is
byte-identical.  --out and --jobs are I/O plumbing and stay out of the
header; determinism is independent of both.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import shutil
import sys
import tempfile

from . import __version__
from .graph_core import (
    FamilyParameterError,
    build_circulant,
    build_ggpg,
    to_dot,
)
from .metrics import (
    INF,
    diameter_circulant,
    diameter_ggpg,
    distance_dump_rows,
)
from .theorem_lab import (
    TheoremViolation,
    _plan,
    _write_document,
    run_instances,
    write_report_csv,
    write_report_json,
)

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_VIOLATION = 3
EXIT_FINDINGS = 4

_THEOREM_TAGS = {"4.1": "thm41", "4.2": "thm42", "4.3": "thm43",
                 "4.4": "thm44", "4.5": "conj45"}


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated ints, sorted and deduped (warning when that changed
    anything), rejecting non-positive entries."""
    try:
        vals = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")
    if not vals:
        raise ValueError(f"{flag} got no values")
    if any(v <= 0 for v in vals):
        raise ValueError(f"{flag} entries must be positive, got {text!r}")
    canon = sorted(set(vals))
    if canon != vals:
        print(f"note: {flag} canonicalized to {','.join(map(str, canon))}",
              file=sys.stderr)
    return canon


def _parse_n_range(text: str) -> range:
    """Either a single ring length ("17") or an inclusive span ("5..30")."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError(f"--n range expects A..B with integers, got {text!r}")
        if lo > hi:
            raise ValueError(f"--n range is empty: {text!r}")
        return range(lo, hi + 1)
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"--n expects an integer or A..B range, got {text!r}")
    return range(n, n + 1)


def _single_n(text: str | None) -> int:
    if text is None:
        raise ValueError("this subcommand needs a single --n")
    r = _parse_n_range(text)
    if len(r) != 1:
        raise ValueError(f"this subcommand takes a single --n, got {text!r}")
    return r[0]


def _n_text(r: range) -> str:
    return str(r[0]) if len(r) == 1 else f"{r[0]}..{r[-1]}"


def _default_seed() -> int:
    env = os.environ.get("LOOPNET_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"LOOPNET_SEED must be an integer, got {env!r}")


def _header(flags: str, seed: int) -> str:
    return f"loopnet {__version__} | {flags} | seed={seed}"


def _header_meta(flags: str, seed: int) -> dict:
    return {"tool": "loopnet", "version": __version__, "flags": flags, "seed": seed}


def _flags(args, spec: str) -> str:
    """The header's semantic flag string for this subcommand."""
    return (f"{args.command} {spec} --format {args.format}"
            + (" --paranoid" if args.paranoid else ""))


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _sibling(path: str, tag: str, ext: str | None = None) -> str:
    root, old_ext = os.path.splitext(path)
    return f"{root}.{tag}{ext if ext is not None else (old_ext or '.csv')}"


def _build_graph(args):
    if args.family == "circulant":
        if args.chords:
            raise ValueError("--chords applies to --family ggpg; use --gens")
        if not args.gens:
            raise ValueError("--family circulant requires --gens")
        return build_circulant(_single_n(args.n),
                               _parse_int_list(args.gens, "--gens"))
    if args.gens:
        raise ValueError("--gens applies to --family circulant; use --chords")
    if not args.chords:
        raise ValueError("--family ggpg requires --chords")
    return build_ggpg(_single_n(args.n), _parse_int_list(args.chords, "--chords"))


def _spec_flags(g, args) -> str:
    if g.family == "circulant":
        vals = ",".join(str(s) for s in g.gens)
        spec = f"--family circulant --n {g.n} --gens {vals}"
    else:
        vals = ",".join(str(s) for s in g.chords)
        spec = f"--family ggpg --n {g.n} --chords {vals}"
    return _flags(args, spec)


# --- subcommands ---

def cmd_diameter(args) -> int:
    g = _build_graph(args)
    seed = args.seed
    flags = _spec_flags(g, args)
    head = _header(flags, seed)
    if g.family == "circulant":
        diam = diameter_circulant(g, paranoid=args.paranoid)
    else:
        diam = diameter_ggpg(g, paranoid=args.paranoid)

    if args.format == "text":
        lines = [f"# {head}",
                 f"label {g.label()}",
                 f"vertices {g.num_vertices}",
                 f"edges {g.num_edges}",
                 f"diameter {diam}"]
        _write_text(args.out, "\n".join(lines) + "\n")
    elif args.format == "json":
        payload = {"header": _header_meta(flags, seed),
                   "family": g.family,
                   "label": g.label(),
                   "n": g.n,
                   "num_vertices": g.num_vertices,
                   "num_edges": g.num_edges,
                   "diameter": "inf" if diam == INF else diam}
        if g.family == "circulant":
            payload["gens"] = list(g.gens)
        else:
            payload["chords"] = list(g.chords)
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True,
                                         allow_nan=False) + "\n")
    elif args.format == "csv":
        lines = [f"# {head}", "family,n,gens,source,vertex,dist"]
        for row in distance_dump_rows(g):
            lines.append(",".join(str(c) for c in row))
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        raise ValueError(f"diameter does not emit --format {args.format}")
    return EXIT_OK


def cmd_export(args) -> int:
    if args.format != "dot":
        raise ValueError(f"export emits DOT only, got --format {args.format}")
    g = _build_graph(args)
    flags = _spec_flags(g, args)
    text = f"// {_header(flags, args.seed)}\n" + to_dot(g)
    _write_text(args.out, text)
    return EXIT_OK


def _parse_theorems(text: str) -> list[str]:
    tags = []
    for part in text.split(","):
        part = part.strip()
        if part not in _THEOREM_TAGS:
            raise ValueError(
                f"--theorems entries must come from "
                f"{sorted(_THEOREM_TAGS)}, got {part!r}")
        tags.append(part)
    return sorted(set(tags))


def _grid_plan(args):
    """The --n/--m grid's instances, planned lazily, plus its spec for the
    header."""
    n_range = _parse_n_range(args.n)
    m_set = _parse_int_list(args.m, "--m")
    if m_set[0] < 2:
        raise ValueError(
            "--m counts generators including the ring step; the chordless "
            "m=1 family has no spoke expansion (see verify --preset "
            "beenker-vanlint for the single-chord family)")
    instances = _plan(n_range, m_set, sample_cap=args.sample_cap,
                      sample_size=args.sample_size, seed=args.seed)
    spec = f"--n {_n_text(n_range)} --m {','.join(map(str, m_set))}"
    return instances, spec


def _verify_plan(args):
    """Instances (planned lazily for a grid) plus the canonical flag
    string for the header."""
    given = [flag for flag, value in (("--gens", args.gens), ("--preset", args.preset),
                                      ("--m", args.m)) if value is not None]
    if len(given) > 1:
        raise ValueError(f"{' and '.join(given)} each choose the instances; give one")
    if args.gens is not None:
        gens = _parse_int_list(args.gens, "--gens")
        if gens[0] != 1:
            raise ValueError(
                "verify pairs C_n(1,...) with its spoke expansion; "
                "--gens must start at 1")
        if len(gens) < 2:
            raise ValueError("--gens needs at least one chord besides 1")
        n = _single_n(args.n)
        instances = [(n, tuple(gens[1:]))]
        spec = f"--n {n} --gens {','.join(map(str, gens))}"
        return instances, spec
    if args.preset is not None:
        if args.preset != "beenker-vanlint":
            raise ValueError(f"unknown preset {args.preset!r}")
        n_range = _parse_n_range(args.n) if args.n else range(5, 41)
        instances = _plan(n_range, [2], seed=args.seed)
        spec = f"--preset beenker-vanlint --n {_n_text(n_range)}"
        return instances, spec
    if args.n is None or args.m is None:
        raise ValueError("verify needs --gens, --preset, or both --n and --m")
    return _grid_plan(args)


def _write_reports(reports, fh, fmt: str, flags: str, seed: int) -> None:
    if fmt == "csv":
        write_report_csv(reports, fh, _header(flags, seed))
    else:
        write_report_json(reports, fh, _header_meta(flags, seed))


@contextlib.contextmanager
def _staged(paths):
    """Map each output path to an empty temporary sibling, all created on
    entry (two paths naming one file are refused); on a normal exit move
    each into place, on an exception delete them all.  The runner streams
    rows into a sibling as they pass, so a file appears at its path only
    once it is whole."""
    staged = {}
    try:
        for path in paths:
            if not os.path.basename(path) or os.path.isdir(path):
                raise IsADirectoryError(f"cannot write {path!r}: not a file path")
            if os.path.realpath(path) in map(os.path.realpath, staged):
                raise ValueError(f"cannot write {path}: another output names the same file")
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                open(tmp, "x").close()
            except OSError as exc:
                raise OSError(f"cannot write {path}: {exc.strerror}") from exc
            staged[path] = tmp
        yield staged
    except BaseException:
        for tmp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
    for path, tmp in staged.items():
        os.replace(tmp, path)


def _run_checked(instances, args, flags: str, out, keep) -> tuple[dict, list]:
    """Write every instance's report, block by block, into out: a staged
    path, or None for stdout (staged in an anonymous temporary file, copied
    out after the last row).  Returns the gap distribution and the rows
    keep(row) selects among the rows with an anomaly, the only ones sent."""
    gaps, kept = collections.Counter(), []

    def texts():
        for text, block_gaps, flagged in run_instances(
                instances, paranoid=args.paranoid, jobs=args.jobs, fmt=args.format):
            gaps.update(block_gaps)
            kept.extend(filter(keep, flagged))
            yield text

    header = (_header if args.format == "csv" else _header_meta)(flags, args.seed)
    with tempfile.TemporaryFile("w+") if out is None else open(out, "w") as fh:
        _write_document(texts(), fh, args.format, header)
        if out is None:
            fh.seek(0)
            shutil.copyfileobj(fh, sys.stdout)
    return dict(sorted(gaps.items())), kept


def cmd_verify(args) -> int:
    theorems = _parse_theorems(args.theorems)
    instances, spec = _verify_plan(args)
    flags = _flags(args, f"{spec} --theorems {','.join(theorems)}")
    wanted = {_THEOREM_TAGS[t] for t in theorems}

    def notes(r):
        return [note for note in r.anomalies if note.split(":", 1)[0] in wanted]

    found = args.out and _sibling(args.out, "findings", ".json")
    with _staged([] if args.out is None else [args.out, found]) as staged:
        _, flagged = _run_checked(instances, args, flags, staged.get(args.out), notes)
        findings = [{"n": r.n, "gens": list(r.gens), "anomaly": note,
                     "witness": r.witnesses.get(note.split(":", 1)[0])}
                    for r in flagged for note in notes(r)]
        if args.out:
            payload = {"header": _header_meta(flags, args.seed), "findings": findings}
            _write_text(staged[found],
                        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
                        + "\n")
    if findings:
        print(f"findings: {len(findings)} (see "
              f"{'findings file' if args.out else 'report anomalies column'})",
              file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.n is None or args.m is None:
        raise ValueError("sweep needs both --n and --m")
    if args.counterexamples_out and not args.out:
        raise ValueError("--counterexamples-out needs --out (without it the "
                         "gap-1 rows go to stdout)")
    instances, spec = _grid_plan(args)
    flags = _flags(args, f"{spec} --sample-cap {args.sample_cap} "
                         f"--sample-size {args.sample_size}")
    cx_path = args.out and (args.counterexamples_out
                            or _sibling(args.out, "counterexamples"))
    with _staged([] if args.out is None else [args.out, cx_path]) as staged:
        dist, counterexamples = _run_checked(instances, args, flags,
                                             staged.get(args.out),
                                             lambda r: r.gap == 1)
        if args.out:
            with open(staged[cx_path], "w") as fh:
                _write_reports(counterexamples, fh, args.format,
                               flags + " [counterexamples]", args.seed)

    dist_text = " ".join(f"{g}:{c}" for g, c in dist.items()) or "none"
    if args.out:
        print(f"rows {sum(dist.values())}")
        print(f"gap distribution {dist_text}")
        print(f"counterexamples {len(counterexamples)} -> {cx_path}")
    else:
        print(f"# gap distribution {dist_text}")
        print(f"# counterexamples {len(counterexamples)}")
        for r in counterexamples:
            print(f"# counterexample n={r.n} gens={'-'.join(map(str, r.gens))}")
    return EXIT_OK


# --- parser wiring ---

def _add_common(p, *, graph: bool = False, sweepish: bool = False) -> None:
    p.add_argument("--n", help="ring length, or inclusive range A..B")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--seed", type=int, default=None,
                   help="sampling seed (default: LOOPNET_SEED or 0)")
    p.add_argument("--paranoid", action="store_true",
                   help="recompute via all-source sweeps and literal "
                        "all-pairs checks")
    if graph:
        p.add_argument("--family", choices=("circulant", "ggpg"),
                       default="circulant")
        p.add_argument("--gens", help="circulant generators, e.g. 1,2,5,8")
        p.add_argument("--chords", help="ggpg chord lengths, e.g. 3,4")
    if sweepish:
        p.add_argument("--m", help="generator counts, e.g. 2 or 2,3")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (row order is fixed regardless)")
        p.add_argument("--sample-cap", type=int, default=100_000,
                       help="max chord sets per (n,m) cell before sampling")
        p.add_argument("--sample-size", type=int, default=1000,
                       help="sampled chord sets per oversized cell")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopnet",
        description="Diameters and diameter-gap verification for multi-loop "
                    "(circulant) networks and their GGPG spoke expansions.")
    parser.add_argument("--version", action="version",
                        version=f"loopnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diameter", help="diameter of one graph instance")
    _add_common(p, graph=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text",
                   help="csv dumps per-vertex distances from canonical sources")
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("verify", help="run the statement checks on instances")
    _add_common(p, sweepish=True)
    p.add_argument("--gens", help="verify one instance: generators incl. 1")
    p.add_argument("--theorems", default="4.1,4.2,4.3,4.4",
                   help="comma list from 4.1,4.2,4.3,4.4,4.5")
    p.add_argument("--preset", help="named instance family: beenker-vanlint")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="conjecture sweep over an instance grid")
    _add_common(p, sweepish=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--counterexamples-out",
                   help="path for gap=1 rows (default: derived from --out)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="emit a graph as DOT")
    _add_common(p, graph=True)
    p.add_argument("--format", choices=("dot",), default="dot")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("--jobs must be >= 1")
        if getattr(args, "sample_size", 1) < 1:
            raise ValueError("--sample-size must be >= 1")
        if getattr(args, "sample_cap", 0) < 0:
            raise ValueError("--sample-cap must be >= 0")
        return args.func(args)
    except (FamilyParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
