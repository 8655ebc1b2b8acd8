"""The forked workers of theorem_lab.run_instances under --jobs.

Imported only by a run that forks, so `import loopnet` compiles none of
it.  forked(blocks, W, ...) forks W workers; worker k walks its own copy
of the lazy blocks, runs blocks k, k + W, k + 2W, ... with
theorem_lab._verify_block and pickles each triple, or the exception that
stopped it, into its own pipe, flushed per block.  The parent reads the
pipes in turn, which is input order, and re-raises a worker's exception
at that block's position.  A worker always ends in os._exit, so it never
runs its caller's code; a worker that dies fails the run with its exit
status.  On every exit path the parent closes the pipes and kills and
reaps every worker.  Forking is safe from a process with one thread, as
the CLI's.
"""

from __future__ import annotations

import fcntl
import itertools
import os
import pickle
import signal

from . import theorem_lab

# Bytes a worker's pipe holds, where the system lets it grow (Linux
# F_SETPIPE_SZ; 1 MiB is its default ceiling for an unprivileged user).
# The parent reads the pipes in turn, so a worker whose finished block does
# not fit waits until the blocks before it are read: in the 49 998-row
# `sweep --n 100000 --m 2` (blocks of about 300 KB) the two workers spent
# up to 1.3 s of a 14 s run blocked in writes with the default 64 KiB
# pipe, and at most 0.27 s with 1 MiB (2-core x86 machine, Python
# 3.11.7).  So a worker is at most the block it is writing, one pipe and
# the parent's read buffer ahead of the consumer.
PIPE_BYTES = 1 << 20


def forked(blocks, workers: int, paranoid: bool, fmt: str):
    """Yield the _verify_block triple of each of blocks, in order, from
    workers forked processes (see the module docstring)."""
    pids, pipes = [], []
    try:
        for k in range(workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:  # Linux only, and refused to a user over the pipe quota
                fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            except (AttributeError, OSError):
                pass
            with open(w, "wb") as out:
                if (pid := os.fork()) == 0:
                    _work(itertools.islice(blocks, k, None, workers), paranoid, fmt,
                          out, pipes)
                pids.append(pid)
        for i in itertools.count():
            k = i % workers
            try:
                result = pickle.load(pipes[k])
            except (EOFError, pickle.UnpicklingError) as exc:
                pid, pids[k] = pids[k], None
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code == 0 and isinstance(exc, EOFError):
                    return  # the run has no block i
                raise RuntimeError(
                    f"worker {k} (pid {pid}) ended with exit status {code} "
                    f"before it sent block {i}") from None
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(blocks, paranoid: bool, fmt: str, out, pipes):
    """A forked worker's whole life: close the parent's read ends (pipes,
    its own included, so a write to a parent that is gone fails), then
    pickle each block's triple, or the exception that stopped it, to out,
    flushed per block so the parent never waits on a buffer for a block
    already run.  Ends in os._exit, so it never returns into its caller's
    code."""
    code = 1
    try:
        for pipe in pipes:
            pipe.close()
        try:
            for block in blocks:
                pickle.dump(theorem_lab._verify_block(block, paranoid, fmt), out)
                out.flush()
        except Exception as exc:
            pickle.dump(exc, out)
            out.flush()
        code = 0
    finally:
        os._exit(code)
