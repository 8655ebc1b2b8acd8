"""One benchmark pass in its own process, optionally traced.

    python3 benchmarks/child.py [--trace FILE] cli ARGS...
        run `loopnet ARGS...` in this process (the traced form of the CLI)
    python3 benchmarks/child.py [--trace FILE] ring --instances JSON --out FILE
        call verify_instance on each [n, chords] of JSON and write the rows
        with the library's JSON report writer

`loopnet` must be importable (the benchmark sets PYTHONPATH to `src`).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ring(argv) -> int:
    from loopnet import theorem_lab

    p = argparse.ArgumentParser(prog="child.py ring")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    instances = json.loads(args.instances)
    reports = [theorem_lab.verify_instance(n, tuple(chords)) for n, chords in instances]
    with open(args.out, "w") as fh:
        theorem_lab.write_report_json(reports, fh, {"instances": len(instances)})
    return 0


def _cli(argv) -> int:
    from loopnet import cli

    return cli.main(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if not argv or argv[0] not in ("cli", "ring"):
        print("usage: child.py [--trace FILE] {cli,ring} ...", file=sys.stderr)
        return 2
    mode, rest = argv[0], argv[1:]
    run = _cli if mode == "cli" else _ring
    if trace_path is None:
        return run(rest)

    from tracer import Tracer

    tracer = Tracer()
    tracer.path = trace_path
    tracer.install()
    try:
        return run(rest)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
