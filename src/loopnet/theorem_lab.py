"""Instance-level checks of the diameter-gap statements, plus sweeps.

Four statements get machine-checked on concrete (n, chords) instances:

  * the pairwise sandwich d_c(i,j) <= d_p(x_i,y_j) <= d_c(i,j) + 2;
  * the diameter gap D(ggpg) - D(circulant) lying in {1, 2};
  * the gap-1 characterization: gap = 1 exactly when every extremal vertex
    is reachable in diameter-many steps both along the ring alone and along
    chords alone;
  * the gap-2 sufficient conditions (checked as the negation of the
    characterization's conditions, which is the form the argument uses).

verify_instance takes its verdicts from one metrics.InstanceSummary: the
diameters, V_Dc and the two restricted-path conditions.  Three routes
produce it, chosen by the generator count m and the ring length n.  An
m = 2 row (a double loop C_n(1, s)) with n >= metrics.DOUBLE_LOOP_LEVELS_BELOW
takes metrics.lattice_distances, integer arithmetic on a reduced lattice
basis with no BFS.  Every other row takes metrics.level_set_summary (n-bit
level sets) when its circulant has at most metrics.LEVEL_CAP levels, else
metrics.instance_distances (the offset-arithmetic list kernel), which a
short double loop never needs: its D <= n / 2 is under the cap.  The thm43
witnesses of gap-1 rows come from the summary on every route.  All three
read the GGPG side off the circulant by the spoke identity through one
rule (metrics._summarize), so a row's bytes never depend on the route,
and on this path the thm41 and thm42 columns follow from that identity,
not from an independent search.
A gap-1 row's diametral path is walked by the identity, with no GGPG
search (metrics.diametral_path): from the lattice on its route, else from
metrics.circulant_distances.  What checks them independently is the
oracle module, which tests and paranoid rows alone import.  Its
check_thm41 to check_thm44 recompute their statement from list BFS
alone.  --paranoid (paranoid=True) also runs the list kernel and
raises unless its summary equals the lattice's or the level sets',
cross-checks the list kernel and the identity's GGPG vectors against list
BFS, compares a gap-1 row's walk with a FIFO search over neighbors(), and
takes the 4.1 verdict and both diameter shortcuts over all pairs, on
every instance, all from one list-BFS pass held one source at a time
(oracle._source_vectors): 3n searches, O(n) memory, quadratic time.

Rows are validated at the boundaries, once.  verify_instance, the
public entry, builds its circulant with build_circulant's checks, and the
CLI checks a --gens row the same way when it plans it; the planner's rows
(_plan) are admissible by construction.  So the row path, _verify_block,
builds each graph with graph_core._unchecked_circulant and runs
_verify_row, the body verify_instance shares, with no check repeated.

Failures are tiered.  The first two are proved facts, so a violation means
the implementation is broken: enforce_proven raises with the witness, and
the CLI applies it to every row before it writes one.  The latter two and
the gap==2 conjecture are findings: recorded in the report row, never
silently dropped, never asserted.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
import os
import random
import re
from json.encoder import encode_basestring_ascii

from .graph_core import _unchecked_circulant, build_circulant, expand, max_generator
from .metrics import (
    DOUBLE_LOOP_LEVELS_BELOW,
    circulant_distances,
    diametral_path,
    format_distance,
    instance_distances,
    lattice_distances,
    level_set_summary,
    outer_only_distance,
)


class TheoremViolation(RuntimeError):
    """A proved statement failed on an instance; the code, not the math."""


REPORT_COLUMNS = (
    "n", "gens", "chords", "d_circ", "d_ggpg", "gap", "v_dc",
    "cond_outer", "cond_inner", "thm41", "thm42",
    "thm43_consistent", "thm44_consistent", "conj45", "anomalies",
)


_NEEDS_QUOTES = re.compile('[,"\r\n]').search  # what csv's QUOTE_MINIMAL quotes
_FLAG_TEXT = ("false", "true")  # a report's flags are bools, read as 0 and 1


class VerificationReport(collections.namedtuple("VerificationReport", (
        "n gens chord_count d_circ d_ggpg gap extremal_set cond_outer cond_inner"
        " thm41_ok thm42_ok thm43_ok thm44_ok conj45_holds anomalies witnesses"))):
    """One sweep row: both diameters, the conditions, and every verdict."""

    __slots__ = ()

    def csv_line(self) -> str:
        """The row as one CSV line, quoted as csv's QUOTE_MINIMAL: only a field
        with , " \\r or \\n (here, anomalies: thm42's has a comma), quotes doubled."""
        (n, gens, chords, d_circ, d_ggpg, gap, vdc, outer, inner, t41, t42, t43, t44,
         c45, anomalies, _) = self
        text = "; ".join(anomalies)
        if _NEEDS_QUOTES(text):
            text = '"' + text.replace('"', '""') + '"'
        b = _FLAG_TEXT
        return (f"{n},{'-'.join(map(str, gens))},{chords},{d_circ},{d_ggpg},{gap},"
                f"{'-'.join(map(str, vdc))},{b[outer]},{b[inner]},{b[t41]},{b[t42]},"
                f"{b[t43]},{b[t44]},{b[c45]},{text}\n")

    def json_record(self) -> dict:
        rec = {
            "n": self.n,
            "gens": list(self.gens),
            "chords": self.chord_count,
            "d_circ": self.d_circ,
            "d_ggpg": self.d_ggpg,
            "gap": self.gap,
            "v_dc": list(self.extremal_set),
            "cond_outer": self.cond_outer,
            "cond_inner": self.cond_inner,
            "thm41": self.thm41_ok,
            "thm42": self.thm42_ok,
            "thm43_consistent": self.thm43_ok,
            "thm44_consistent": self.thm44_ok,
            "conj45": self.conj45_holds,
            "anomalies": list(self.anomalies),
        }
        if self.witnesses:
            rec["witnesses"] = self.witnesses
        return rec


def verify_instance(n: int, chords, *, paranoid: bool = False) -> VerificationReport:
    """Check C_n(1, chords) against its GGPG partner and return the report
    row.  Never raises on findings; see enforce_proven for the abort tier.

    The verdicts come from one metrics.InstanceSummary: the lattice
    route's for a double loop (one chord) with n >= DOUBLE_LOOP_LEVELS_BELOW,
    else the level-set route's when the circulant has at most LEVEL_CAP
    levels, else the list kernel's.
    Each reads the GGPG diameter off the circulant by the spoke identity,
    so 4.1 and 4.2 hold on this path by that identity, not by an
    independent search.  Every row under paranoid also runs the list
    kernel.  A gap-1 row's diametral path is walked on its lattice (on
    the lattice route), else on the kernel's vectors or its circulant
    search alone.
    Paranoid cross-checks the kernel and the identity against source 0 of
    one list-BFS pass over every source (oracle._source_vectors: 3n searches),
    requires the walked path to equal a FIFO search's over neighbors() and
    the list kernel's summary to equal the faster route's, and checks the
    sandwich and both diameter shortcuts over the whole pass.

    This public entry checks its input with build_circulant and reports
    the checked generators; planned rows skip the checks (_verify_block)."""
    gc = build_circulant(n, (1, *chords))
    if len(gc.gens) == 1:
        expand(gc)  # raises: a GGPG partner needs a chord
    return _verify_row(gc, paranoid)


def _verify_row(gc, paranoid: bool = False) -> VerificationReport:
    """verify_instance's report row for C_n(1, chords) given as a graph
    that is admissible (checked, or planned): n >= 5 and at least one
    chord."""
    n, gens = gc
    chords = gens[1:]
    lattice = None
    if len(chords) == 1 and n >= DOUBLE_LOOP_LEVELS_BELOW:
        route, lattice = "lattice", lattice_distances(gc)
        fast = lattice.summary()
    else:
        route, fast = "level sets", level_set_summary(gc)
    facts, dist = fast, None
    if fast is None or paranoid:
        dist = instance_distances(gc)
        facts = dist.summary()
    d_circ, ecc_u0, ecc_v0, vdc, cond_outer, cond_inner, near = facts
    d_ggpg = max(ecc_u0, ecc_v0)
    gap = d_ggpg - d_circ
    path = None
    if gap == 1:
        # the conj45 witness, walked on d_c(0, x): from the lattice on its
        # route, else from the circulant search (the list kernel's)
        circ = (lattice.circ_at if lattice else
                (dist.circ if dist else circulant_distances(gc)).__getitem__)
        path = diametral_path(n, chords, d_circ, circ)

    if paranoid:
        from . import oracle  # compiled only by a paranoid row

        gp = oracle.Adjacency(expand(gc))  # one table for the pass and the FIFO search
        rows = oracle._source_vectors(gc, gp, n)
        row0 = next(rows)
        oracle._cross_check(gc, gp, dist, facts, path, row0)
        if fast is not None and fast != facts:
            raise RuntimeError(
                f"route mismatch on {gc.label()}: {route} {fast}, "
                f"list kernel {facts}")
        t41_ok, t41_witness = oracle._sandwich(gc, gp, itertools.chain([row0], rows))
    else:
        t41_ok, t41_witness = True, None  # by the spoke identity
    t42_ok = gap in (1, 2)

    predicted = cond_outer and cond_inner
    t43_ok = predicted == (gap == 1)
    t44_ok = predicted or gap == 2  # 4.4's conditions fire iff not predicted

    anomalies = []
    witnesses = {}
    if not t41_ok:
        anomalies.append("thm41: sandwich violated")
        witnesses["thm41"] = {"pair": list(t41_witness)}
    if not t42_ok:
        anomalies.append(f"thm42: gap={gap} outside {{1,2}}")
    if not t43_ok:
        anomalies.append(
            f"thm43: predicted_gap_is_1={str(predicted).lower()} but gap={gap}")
        # only a gap-1 row has a thm43 witness (both conditions give gap 1
        # by the spoke identity), and by the exact gap-1 rule each i in V_Dc
        # then has chord(i) = d_circ, or d_circ + 1 where i is in near
        witnesses["thm43"] = {
            "predicted_gap_is_1": predicted,
            "gap": gap,
            "extremal": [
                {"i": i,
                 "outer_only": outer_only_distance(gc, i),
                 "inner_only": format_distance(d_circ + (i in near)),
                 "diameter": d_circ}
                for i in vdc
            ],
        }
    if not t44_ok:
        anomalies.append(f"thm44: conditions fire but gap={gap}")
        witnesses["thm44"] = {"cond_outer": cond_outer, "cond_inner": cond_inner,
                              "gap": gap}
    if gap == 1:
        anomalies.append("conj45: gap=1 instance")
        witnesses["conj45"] = {
            "d_circ": d_circ,
            "d_ggpg": d_ggpg,
            "ggpg_diametral_path": [f"u{v}" if v < n else f"v{v - n}" for v in path],
        }

    return VerificationReport(
        n, tuple(gens), len(chords), d_circ, d_ggpg, gap, vdc, cond_outer, cond_inner,
        t41_ok, t42_ok, t43_ok, t44_ok, gap == 2, tuple(anomalies), witnesses)


def enforce_proven(report: VerificationReport) -> VerificationReport:
    """Abort tier: raise on a proved-statement violation, with the witness."""
    if not report.thm41_ok:
        raise TheoremViolation(
            f"pairwise sandwich violated on n={report.n} "
            f"gens={report.gens}: witness {report.witnesses.get('thm41')}")
    if not report.thm42_ok:
        raise TheoremViolation(
            f"diameter gap {report.gap} outside {{1,2}} on n={report.n} "
            f"gens={report.gens} (d_circ={report.d_circ}, d_ggpg={report.d_ggpg})")
    return report


# --- sweep planning and execution ---

def chord_sets(n: int, m: int):
    """All strictly increasing chord tuples of size m-1 for ring length n.

    m counts generators including the ring step, so m=2 means one chord.
    """
    if m < 2:
        raise ValueError(f"generator count must be >= 2 for a chord set, got {m}")
    return itertools.combinations(range(2, max_generator(n) + 1), m - 1)


def _unrank_chord_set(rank: int, n: int, m: int) -> tuple[int, ...]:
    """The chord set at position rank of chord_sets(n, m), without listing
    the ones before it (combinatorial number system, lexicographic order)."""
    pool = max_generator(n) - 1
    out = []
    x = 0  # least index the next chord, 2 + index, may take
    for left in range(m - 1, 0, -1):
        # hockey stick: total - comb(pool - y, left) sets have their next
        # index in [x, y); it is the largest y where that is at most rank
        total = math.comb(pool - x, left)
        y = x - 1 + bisect.bisect_right(range(x, pool - left + 1), rank,
                                        key=lambda y: total - math.comb(pool - y, left))
        rank -= total - math.comb(pool - y, left)
        out.append(2 + y)
        x = y + 1
    return tuple(out)


def _plan(n_range, m_set, *, sample_cap: int = 100_000, sample_size: int = 1000,
          seed: int = 0):
    """plan_sweep's instances as an iterator that plans one ring length at
    a time, so no more than one n's chord sets are held at once.  The
    generator counts and ring lengths are checked here, before the first
    instance is drawn; every chord set then lies in 2..floor((n-1)/2),
    increasing, so each row is admissible as _verify_block assumes."""
    m_set = sorted(set(m_set))
    if not m_set or m_set[0] < 2:
        raise ValueError(f"generator counts must all be >= 2, got {m_set}")
    bad = next((n for n in n_range if n < 5), None)
    if bad is not None:
        raise ValueError(f"ring length must be >= 5, got {bad}")
    return itertools.chain.from_iterable(
        _plan_ring(n, m_set, sample_cap, sample_size, seed) for n in n_range)


def _plan_ring(n: int, m_set, sample_cap: int, sample_size: int, seed: int):
    """One ring length's instances, every cell listed or sampled."""
    per_n = []
    for m in m_set:
        total = math.comb(max_generator(n) - 1, m - 1)
        if total > sample_cap:
            rng = random.Random(f"{seed}:{n}:{m}")
            ranks = rng.sample(range(total), min(sample_size, total))
            per_n.extend(_unrank_chord_set(r, n, m) for r in ranks)
        else:
            per_n.extend(chord_sets(n, m))
    per_n.sort()
    return [(n, c) for c in per_n]


def plan_sweep(n_range, m_set, *, sample_cap: int = 100_000,
               sample_size: int = 1000, seed: int = 0) -> list[tuple[int, tuple]]:
    """Deterministic instance list: n ascending, chord sets lexicographic.

    A (n, m) cell is exhaustive while its chord-set count stays within
    sample_cap; beyond that it degrades to a uniform sample of sample_size
    sets (the whole cell if it holds fewer) drawn with the given seed
    (recorded in output headers).  Sampling draws positions in the cell and
    unranks only those, so a cell is never listed whole; random.sample picks
    the same positions from range(total) as it would from the listed cell.
    """
    return list(_plan(n_range, m_set, sample_cap=sample_cap,
                      sample_size=sample_size, seed=seed))


# Most rows a block holds.  A block's rows are verified, checked and
# rendered in one process, and its text and anomaly rows travel whole, so
# the cap bounds memory: the 49 998-row `sweep --n 100000 --m 2` peaked at
# 24.0 MB at --jobs 1 and 25.6 MB at --jobs 2 (ru_maxrss from os.wait4,
# 2-core x86 machine, Python 3.11.7).  Few blocks mean few pipe writes: the
# shipped 8 120-row grid goes out in 16.
BLOCK_ROWS = 512


def _blocks(instances, workers: int = 1):
    """Contiguous blocks of instances in input order: each window of
    workers * BLOCK_ROWS rows is cut into min(workers, rows) near-equal
    blocks, so that a short run still gives every worker one."""
    instances = iter(instances)
    while window := list(itertools.islice(instances, workers * BLOCK_ROWS)):
        k, rows = min(workers, len(window)), len(window)
        yield from (window[i * rows // k:(i + 1) * rows // k] for i in range(k))


def _verify_block(instances: list, paranoid: bool, fmt: str) -> tuple:
    """One block, in a worker or in-process: verify each row, apply
    enforce_proven (raising on the first violation) and render it in fmt.
    Returns the text, the gap counts and the rows with an anomaly.  Each
    (n, chords) row must be admissible, as _plan makes them: its graph is
    built without build_circulant's checks."""
    gaps, flagged = collections.Counter(), []

    def checked():
        for n, c in instances:
            r = enforce_proven(_verify_row(_unchecked_circulant(n, (1, *c)), paranoid))
            gaps[r.gap] += 1
            if r.anomalies:
                flagged.append(r)
            yield r

    return _render_rows(checked(), fmt), gaps, flagged


def run_instances(instances, *, paranoid: bool = False, jobs: int = 1,
                  fmt: str = "csv"):
    """Yield each block's _verify_block triple in input order, whatever
    jobs is; a violation raises for the first violating row in that order.
    instances, any iterable of admissible (n, chords) rows (_verify_block
    checks none), is drawn lazily.  One worker,
    or a system without os.fork, runs the blocks in-process.  Else
    W = min(jobs, cores, rows) workers are forked (forking.forked) once
    this process has pulled W rows, and it pulls no more: worker k walks
    its own copy of the plan, runs blocks k, k + W, k + 2W, ... and pipes
    each result back; this process reads the pipes in turn.  A worker
    that dies fails the run with its exit status."""
    instances = iter(instances)
    head = list(itertools.islice(instances, min(jobs, os.cpu_count() or 1)))
    workers = len(head)
    blocks = _blocks(itertools.chain(head, instances), workers)
    if workers <= 1 or not hasattr(os, "fork"):
        yield from (_verify_block(block, paranoid, fmt) for block in blocks)
        return
    from .forking import forked  # compiled only by a run that forks

    yield from forked(blocks, workers, paranoid, fmt)


# --- report serialization ---

# how _json_text renders each scalar type a report holds, by exact type
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(value, pad: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    renders it, with pad ("\n" and the indent of value's own line) in place
    of each newline: one join per dict or list, whose scalar items are
    rendered in line (strings by json's own ASCII encoder).  A report holds
    str-keyed dicts, lists, tuples, str, int, bool and None; a float raises
    ValueError (as allow_nan=False does for the INF a report never holds),
    any other type TypeError."""
    scalar = _JSON_SCALARS.get
    render = scalar(type(value))
    if render is not None:
        return render(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            f"{encode_basestring_ascii(k)}: "
            f"{r(v) if (r := scalar(type(v))) else _json_text(v, inner)}"
            for k, v in sorted(value.items())]) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            r(v) if (r := scalar(type(v))) else _json_text(v, inner)
            for v in value]) + pad + "]"
    raise (ValueError if isinstance(value, float) else TypeError)(
        f"a report holds no {type(value).__name__}: {value!r}")


def _render_rows(reports, fmt: str) -> str:
    """Report rows as text: CSV lines, or JSON records two levels deep,
    each led by ",\n    "."""
    if fmt == "csv":
        return "".join(r.csv_line() for r in reports)
    return "".join([",\n    " + _json_text(r.json_record(), "\n    ") for r in reports])


def _write_document(texts, fh, fmt: str, header) -> None:
    """A report from its rows' text (_render_rows, in row order), with the
    header and column names of CSV, or the bytes json.dump gives a JSON one."""
    if fmt == "csv":
        fh.write(f"# {header}\n{','.join(REPORT_COLUMNS)}\n")
        fh.writelines(texts)
        return
    # "reports" sorts last, so the empty document ends in its list: "[]\n}"
    empty = _json_text({"header": header, "reports": []})
    texts = iter(texts)
    first = next(texts, "")  # the first record's lead-in takes no comma
    fh.write(empty[:-3] + first[1:] if first else empty)
    fh.writelines(texts)
    fh.write("\n  ]\n}\n" if first else "\n")


def write_report_csv(reports, fh, header: str) -> None:
    """Header comment line, column names, then one row per instance,
    written BLOCK_ROWS rows at a time as the reports are drawn."""
    _write_document((_render_rows(b, "csv") for b in _blocks(reports)), fh, "csv", header)


def write_report_json(reports, fh, header_meta: dict) -> None:
    """{"header": header_meta, "reports": [...]} with indent 2 and sorted
    keys, written one record at a time as each report is drawn."""
    _write_document((_render_rows((r,), "json") for r in reports), fh, "json",
                    header_meta)
