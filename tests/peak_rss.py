"""Run `python -m loopnet <args>` as a child process and gate its peak RSS.

    python tests/peak_rss.py --limit-mb L --exit C -- <loopnet args>

The child gets this checkout's src/ on PYTHONPATH and inherits stdin,
stdout and stderr.  Its exit code and peak RSS (ru_maxrss from os.wait4:
the largest process of the child's tree, in KiB) go to stderr as one line;
this script exits 0 when the child exited C and peaked under L MB, else 1.
The CI memory gates run through it.  pytest does not collect it (the name
does not match test_*.py).
"""

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--limit-mb", type=float, required=True,
                        help="peak RSS must stay under this many MB")
    parser.add_argument("--exit", type=int, required=True, dest="expected",
                        help="the exit code the run must end with")
    parser.add_argument("args", nargs="+", help="loopnet's arguments, after --")
    opts = parser.parse_args(argv)
    argv = [sys.executable, "-m", "loopnet", *opts.args]
    pid = os.spawnve(os.P_NOWAIT, sys.executable, argv, dict(os.environ, PYTHONPATH=SRC))
    _, status, usage = os.wait4(pid, 0)
    code, peak = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"{' '.join(opts.args)}: exit {code}, peak RSS {peak:.1f} MB", file=sys.stderr)
    return int(code != opts.expected or peak >= opts.limit_mb)


if __name__ == "__main__":
    sys.exit(main())
