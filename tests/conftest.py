import contextlib
import itertools
import json
import os
import pickle
import signal

import pytest

from loopnet import theorem_lab

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collector for one PASS/FAIL line per acceptance criterion."""
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


class ForkLog:
    """The os.fork calls of this process (pids: the children, in fork
    order) and what any process, a forked worker included, logs on a
    channel: one JSON line per entry, one file per channel and process."""

    def __init__(self, directory, monkeypatch):
        self.dir, self.pids, self._monkeypatch = directory, [], monkeypatch

    def log(self, channel: str, entry) -> None:
        with open(self.dir / f"{channel}-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(entry) + "\n")

    def entries(self, channel: str, pid=None) -> list:
        """pid's entries (this process's by default), in the order logged;
        a line still being written is left out."""
        path = self.dir / f"{channel}-{pid or os.getpid()}.jsonl"
        text = path.read_text() if path.exists() else ""
        return [json.loads(line) for line in text.split("\n")[:-1]]

    def in_turn(self, channel: str) -> list:
        """The workers' entries read in turn, as run_instances reads their
        pipes: entry j of the k-th forked worker at position j * W + k."""
        per = [self.entries(channel, pid) for pid in self.pids]
        return [e for turn in itertools.zip_longest(*per) for e in turn if e is not None]

    def log_blocks(self) -> None:
        """From now on every _verify_block call, in whatever process, logs
        its rows and the size of its pickled result on channel "blocks"."""
        real = theorem_lab._verify_block

        def logged(block, paranoid, fmt):
            result = real(block, paranoid, fmt)
            self.log("blocks", [block, len(pickle.dumps(result))])
            return result

        self._monkeypatch.setattr(theorem_lab, "_verify_block", logged)

    def blocks(self, pid=None) -> list:
        """The blocks run by pid, or by the workers in turn if pid is None
        and this process forked: a list of (rows, pickled result bytes)."""
        got = self.in_turn("blocks") if pid is None and self.pids else \
            self.entries("blocks", pid)
        return [([(n, tuple(c)) for n, c in rows], size) for rows, size in got]

    def clear(self) -> None:
        for path in self.dir.iterdir():
            path.unlink()
        self.pids.clear()


@pytest.fixture
def fork_log(monkeypatch, tmp_path_factory):
    """A ForkLog fed by a counting os.fork."""
    log = ForkLog(tmp_path_factory.mktemp("forks"), monkeypatch)
    real = os.fork

    def fork():
        pid = real()
        if pid:
            log.pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return log


@pytest.fixture
def cores(monkeypatch):
    """cores(k): from now on this process may run on k CPUs, both as
    os.sched_getaffinity and as os.cpu_count report them; cores(None) is a
    platform without CPU affinity and an unknown core count."""
    def report(k):
        monkeypatch.setattr(os, "cpu_count", lambda: k)
        if k is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                                raising=False)

    return report


@pytest.fixture
def deadline():
    """deadline(seconds): a context manager that raises TimeoutError in
    this process when its block runs longer, so a hung wait fails."""
    @contextlib.contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    return limit
