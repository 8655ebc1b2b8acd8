"""Command line front end: diameter queries, instance verification,
conjecture sweeps, and DOT export.

verify and sweep share one runner, _run_checked, whose memory does not
grow with the row count: the grid is planned one ring length at a time,
and theorem_lab.run_instances verifies, checks (enforce_proven) and
renders it in blocks of rows; under --jobs, in forked workers that each
walk their own copy of the plan and pipe back their blocks' results.
This process only writes each block's text into a staged report, keeping
gap counts and the gap-1 rows or findings.  Every command writes through
one output path, _staged: it creates an empty temporary sibling of every
file the command writes before its work starts, so an unwritable path
fails at once with a line naming its flag, and moves each into place only
at the end; every command's stdout output is staged in an anonymous
temporary file and copied out at the end, and stdout holds nothing else
(without --out, sweep's summary goes to stderr).  A run that exits 2 or 3
leaves none of its files behind and prints no output byte.

Exit codes: 0 clean, 2 parameter error, unwritable output path, a ring
too large for memory or one past the index size (sys.maxsize), each
named by its own error line, 3 proved-statement
violation, or under --paranoid a route, kernel, verdict condition,
witness or symmetry shortcut that disagrees with list BFS (one stderr line), 4 findings
present (inconsistencies or gap=1 rows under verify).  Output files
start with a header line recording the tool version, the semantic flag
set, and the seed -- never a timestamp, so a rerun with the same flags is
byte-identical.  --out and --jobs are I/O plumbing and stay out of the
header; determinism is independent of both.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import os
import shutil
import sys
import tempfile

from . import __version__
from .graph_core import (
    build_circulant,
    build_ggpg,
    to_dot,
)
from .metrics import INF
from .theorem_lab import (
    TheoremViolation,
    _json_text,
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
    if r[0] != r[-1]:
        raise ValueError(f"this subcommand takes a single --n, got {text!r}")
    return r[0]


def _n_text(r: range) -> str:
    return str(r[0]) if r[0] == r[-1] else f"{r[0]}..{r[-1]}"


def _default_seed() -> int:
    env = os.environ.get("LOOPNET_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"LOOPNET_SEED must be an integer, got {env!r}")


def _header(flags: str, seed: int, fmt: str):
    """The header recording the version, the flags and the seed: the dict a
    JSON document holds, or one line for any other format."""
    if fmt == "json":
        return {"tool": "loopnet", "version": __version__, "flags": flags, "seed": seed}
    return f"loopnet {__version__} | {flags} | seed={seed}"


def _flags(args, spec: str) -> str:
    """The header's semantic flag string for this subcommand."""
    return (f"{args.command} {spec} --format {args.format}"
            + (" --paranoid" if args.paranoid else ""))


def _sibling(path: str, tag: str, ext: str) -> str:
    """path with .tag and ext in place of its own extension."""
    return f"{os.path.splitext(path)[0]}.{tag}{ext}"


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
    # the step field's name (gens or chords) is also its flag's
    steps = ",".join(map(str, g[1]))
    return _flags(args, f"--family {g.family} --n {g.n} --{g._fields[1]} {steps}")


# --- subcommands ---

def cmd_diameter(args) -> int:
    # list BFS; compiled only by this command and by paranoid rows
    from .oracle import diameter_circulant, diameter_ggpg, distance_dump_rows

    g = _build_graph(args)
    head = _header(_spec_flags(g, args), args.seed, args.format)
    diameter = diameter_circulant if g.family == "circulant" else diameter_ggpg
    with _staged(("--out", args.out)) as (fh,):  # an unwritable --out fails first
        if args.format != "csv" or args.paranoid:  # the dump writes no diameter
            diam = diameter(g, paranoid=args.paranoid)
        if args.format == "text":
            fh.write(f"# {head}\n"
                     f"label {g.label()}\n"
                     f"vertices {g.num_vertices}\n"
                     f"edges {g.num_edges}\n"
                     f"diameter {diam}\n")
        elif args.format == "json":
            payload = {"header": head,
                       "family": g.family,
                       "label": g.label(),
                       "n": g.n,
                       "num_vertices": g.num_vertices,
                       "num_edges": g.num_edges,
                       "diameter": "inf" if diam == INF else diam,
                       g._fields[1]: list(g[1])}
            fh.write(_json_text(payload) + "\n")
        else:  # csv, each row written as it is drawn
            fh.write(f"# {head}\nfamily,n,gens,source,vertex,dist\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in distance_dump_rows(g))
    return EXIT_OK


def cmd_export(args) -> int:
    g = _build_graph(args)
    flags = _spec_flags(g, args)
    with _staged(("--out", args.out)) as (fh,):
        fh.write(f"// {_header(flags, args.seed, args.format)}\n" + to_dot(g))
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
    string for the header.  A --gens row is checked where it runs, as every
    row is (metrics.row_facts)."""
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
        instances = _plan(n_range, [2], sample_cap=args.sample_cap,
                          sample_size=args.sample_size, seed=args.seed)
        spec = f"--preset beenker-vanlint --n {_n_text(n_range)}"
        return instances, spec
    if args.n is None or args.m is None:
        raise ValueError("verify needs --gens, --preset, or both --n and --m")
    return _grid_plan(args)


@contextlib.contextmanager
def _staged(*outputs):
    """Yield one open text handle per output, in order; outputs are (flag,
    path) pairs.  A path's handle writes an empty temporary sibling of it,
    all created on entry.  A path that cannot be written, or that names the
    same file as an earlier one, or that exists but is not a regular file
    (a FIFO or a device), is refused as "<flag>: cannot write '<path>':
    <reason>".  A symlink is followed: the sibling is made beside the file
    it names, and replaces that file.  The first output whose path is None
    is stdout, staged in an anonymous temporary file; any later one yields
    None.  On a normal exit stdout's file is copied out and flushed, then
    each sibling moves into place.  Every handle is closed either way, and
    on any failure, the copy and the moves included, every sibling is
    deleted: callers stream rows into their handles as they pass, so an
    output appears only once it is whole."""
    siblings = {}  # temporary sibling -> the file it replaces
    try:
        with contextlib.ExitStack() as stack:
            handles, stdout = [], None
            for flag, path in outputs:
                if path is None:  # the first is stdout, any later one gets no handle
                    handles.append(None if stdout else
                                   stack.enter_context(tempfile.TemporaryFile("w+")))
                    stdout = stdout or handles[-1]
                    continue
                cannot = f"{flag}: cannot write '{path}'"
                if not os.path.basename(path) or os.path.isdir(path):
                    raise ValueError(f"{cannot}: not a file path")
                real = os.path.realpath(path)
                if os.path.exists(real) and not os.path.isfile(real):
                    raise ValueError(f"{cannot}: not a regular file")
                if real in siblings.values():
                    raise ValueError(f"{cannot}: another output names the same file")
                tmp = f"{real}.{os.getpid()}.tmp"
                try:
                    handles.append(stack.enter_context(open(tmp, "x")))
                except OSError as exc:
                    raise OSError(f"{cannot}: {exc.strerror}") from exc
                siblings[tmp] = real
            yield handles
            if stdout is not None:
                stdout.seek(0)
                try:
                    shutil.copyfileobj(stdout, sys.stdout)
                    sys.stdout.flush()  # a write error surfaces here, not at exit
                except OSError:
                    # what stays buffered would fail again at exit: drop it
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, sys.stdout.fileno())
                    os.close(devnull)
                    raise
        for tmp, real in siblings.items():
            os.replace(tmp, real)
    except BaseException:
        for tmp in siblings:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _run_checked(instances, args, flags: str, fh, keep) -> tuple[dict, list]:
    """Write every instance's report, block by block, into the staged
    handle fh.  Returns the gap distribution and the rows keep(row) selects
    among the rows with an anomaly, the only ones sent."""
    gaps, kept = collections.Counter(), []

    def texts():
        for text, block_gaps, flagged in run_instances(
                instances, paranoid=args.paranoid, jobs=args.jobs, fmt=args.format):
            gaps.update(block_gaps)
            kept.extend(filter(keep, flagged))
            yield text

    _write_document(texts(), fh, args.format, _header(flags, args.seed, args.format))
    return dict(sorted(gaps.items())), kept


def cmd_verify(args) -> int:
    theorems = _parse_theorems(args.theorems)
    instances, spec = _verify_plan(args)
    flags = _flags(args, f"{spec} --theorems {','.join(theorems)}")
    wanted = {_THEOREM_TAGS[t] for t in theorems}

    def notes(r):
        return [note for note in r.anomalies if note.split(":", 1)[0] in wanted]

    found = args.out and _sibling(args.out, "findings", ".json")
    with _staged(("--out", args.out), ("--out", found)) as (out, found_fh):
        _, flagged = _run_checked(instances, args, flags, out, notes)
        findings = [{"n": r.n, "gens": list(r.gens), "anomaly": note,
                     "witness": r.witnesses.get(note.split(":", 1)[0])}
                    for r in flagged for note in notes(r)]
        if args.out:
            payload = {"header": _header(flags, args.seed, "json"), "findings": findings}
            found_fh.write(_json_text(payload) + "\n")
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
                         "gap-1 rows stay in the stdout report, and stderr "
                         "names each on a '# counterexample' line)")
    instances, spec = _grid_plan(args)
    flags = _flags(args, f"{spec} --sample-cap {args.sample_cap} "
                         f"--sample-size {args.sample_size}")
    # the counterexamples keep --out's extension, or take the format's
    cx_path = args.out and (args.counterexamples_out or _sibling(
        args.out, "counterexamples", os.path.splitext(args.out)[1] or "." + args.format))
    # with --out, the third output is stdout, which takes the summary
    with _staged(("--out", args.out),
                 ("--counterexamples-out" if args.counterexamples_out else "--out",
                  cx_path), ("--out", None)) as (out, cx_fh, summary):
        dist, counterexamples = _run_checked(instances, args, flags, out,
                                             lambda r: r.gap == 1)
        dist_text = " ".join(f"{g}:{c}" for g, c in dist.items()) or "none"
        if args.out:
            write = write_report_csv if args.format == "csv" else write_report_json
            write(counterexamples, cx_fh,
                  _header(flags + " [counterexamples]", args.seed, args.format))
            summary.write(f"rows {sum(dist.values())}\n"
                          f"gap distribution {dist_text}\n"
                          f"counterexamples {len(counterexamples)} -> {cx_path}\n")
    if not args.out:
        print(f"# gap distribution {dist_text}", file=sys.stderr)
        print(f"# counterexamples {len(counterexamples)}", file=sys.stderr)
        for r in counterexamples:
            print(f"# counterexample n={r.n} gens={'-'.join(map(str, r.gens))}",
                  file=sys.stderr)
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
    except (ValueError, OSError) as exc:  # FamilyParameterError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except MemoryError:
        print("error: out of memory: a ring is too large for this machine",
              file=sys.stderr)
        return EXIT_PARAMS
    except OverflowError:  # 1 << n, [INF] * n or the unranking's len(range)
        print(f"error: a ring is past this machine's index size (sys.maxsize = {sys.maxsize})",
              file=sys.stderr)
        return EXIT_PARAMS
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
