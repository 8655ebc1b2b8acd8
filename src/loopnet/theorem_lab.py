"""Instance-level checks of the diameter-gap statements, plus sweeps.

Four statements get machine-checked on concrete (n, chords) instances:

  * the pairwise sandwich d_c(i,j) <= d_p(x_i,y_j) <= d_c(i,j) + 2;
  * the diameter gap D(ggpg) - D(circulant) lying in {1, 2};
  * the gap-1 characterization: gap = 1 exactly when every extremal vertex
    is reachable in diameter-many steps both along the ring alone and along
    chords alone;
  * the gap-2 sufficient conditions (checked as the negation of the
    characterization's conditions, which is the form the argument uses).

Every report row comes from one loop, _verify_rows, over (n, chords)
rows.  It hands each row, on its own, to metrics.row_facts, which gives the
row's verdicts and a gap-1 row's diametral path, choosing its route
(lattice, level sets or list kernel; see there): no row's facts depend on
another row.  That path is always the ring run u_0 ... u_{D+1}, proved so
in metrics, and it comes as one range of ids, which _verify_row, the one
record builder, keeps whole (PathLabels), so neither the row nor its
pickle grows with the path's length.  Every route reads the GGPG side off
the circulant by the spoke identity, so a row's bytes never depend on the
route, and the thm41 and thm42 columns follow from that identity, not from
an independent search.  What checks them independently is the
oracle module, which tests and paranoid rows alone import: check_thm41 to
check_thm44 recompute their statement from list BFS, and under --paranoid
the loop hands each row's facts and path to oracle.check_row (its own
list kernel and 3n list-BFS searches, one source held at a time: O(n)
memory, quadratic time).

Every row is checked, on every route, in one place: metrics.row_facts
tests each row's chords before it picks the route and hands an
inadmissible row to build_circulant and then expand, so it raises
FamilyParameterError (or, with no chord at all, expand's ValueError)
whatever its route.  verify_instance, the public entry and the loop's
one-row case, also checks its input with build_circulant; the CLI hands
a --gens row to the row loop unchecked, so row_facts refuses it there,
and the planner's rows (_plan) are admissible by construction.

Failures are tiered.  The first two are proved facts, so a violation means
the implementation is broken: enforce_proven raises with the witness (as
oracle.check_row does on a paranoid row), and the CLI applies it to every
row before it writes one.  The latter two and the gap==2 conjecture are
findings: recorded in the report row, never silently dropped, never
asserted.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
import operator
import os
import random
import re
import sys
from json.encoder import encode_basestring_ascii

from .graph_core import build_circulant, max_generator
from .metrics import row_facts


class TheoremViolation(RuntimeError):
    """A proved statement failed on an instance, or under --paranoid a fast
    route disagreed with the oracle; the code, not the math."""


REPORT_COLUMNS = (
    "n", "gens", "chords", "d_circ", "d_ggpg", "gap", "v_dc",
    "cond_outer", "cond_inner", "thm41", "thm42",
    "thm43_consistent", "thm44_consistent", "conj45", "anomalies",
)


_NEEDS_QUOTES = re.compile('[,"\r\n]').search  # what csv's QUOTE_MINIMAL quotes
_FLAG_TEXT = ("false", "true")  # a report's flags are bools, read as 0 and 1


class VerificationReport(collections.namedtuple("VerificationReport",
                                                (*REPORT_COLUMNS, "witnesses"))):
    """One report row.  Its fields are the report's columns, REPORT_COLUMNS
    (so r.chords is the chord count, as in the column), then witnesses:
    each anomaly's witness by tag, which only a JSON record carries."""

    __slots__ = ()

    def csv_line(self) -> str:
        """The row as one CSV line, quoted as csv's QUOTE_MINIMAL: only a field
        with , " \\r or \\n (here, anomalies: thm42's has a comma), quotes doubled."""
        (n, gens, chords, d_circ, d_ggpg, gap, v_dc, cond_outer, cond_inner, thm41, thm42,
         thm43_consistent, thm44_consistent, conj45, anomalies, _) = self
        text = "; ".join(anomalies)
        if _NEEDS_QUOTES(text):
            text = '"' + text.replace('"', '""') + '"'
        b = _FLAG_TEXT
        return (f"{n},{'-'.join(map(str, gens))},{chords},{d_circ},{d_ggpg},{gap},"
                f"{'-'.join(map(str, v_dc))},{b[cond_outer]},{b[cond_inner]},{b[thm41]},"
                f"{b[thm42]},{b[thm43_consistent]},{b[thm44_consistent]},{b[conj45]},{text}\n")

    def json_record(self) -> dict:
        """The row's columns by name, its tuples as lists, and witnesses when
        it has any."""
        rec = dict(zip(REPORT_COLUMNS, self), gens=list(self.gens),
                   v_dc=list(self.v_dc), anomalies=list(self.anomalies))
        if self.witnesses:
            rec["witnesses"] = self.witnesses
        return rec


class PathLabels:
    """A gap-1 row's conj45 witness, the ring run u_0 ... u_{D+1}
    (metrics.diametral_path), as the GGPG labels u<i> of its ids, held as
    that one range: O(1) memory, and it pickles as (ids,), however long the
    path.  It reads as the list of its labels by iteration and by ==
    against such a list (list(p) gives the list itself).  _json_text
    renders it as that list with one join; json.dumps needs default=list."""

    __slots__ = ("ids",)

    def __init__(self, ids: range):
        object.__setattr__(self, "ids", ids)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        return PathLabels, (self.ids,)

    def __repr__(self) -> str:
        return f"PathLabels(ids={self.ids!r})"

    def __iter__(self):
        return (f"u{i}" for i in self.ids)

    def __eq__(self, other):  # unhashable, as the lists it equals are
        if isinstance(other, (list, PathLabels)):
            end = object()  # pads the shorter side, and equals no label
            return all(a == b for a, b in itertools.zip_longest(self, other, fillvalue=end))
        return NotImplemented


def verify_instance(n: int, chords, *, paranoid: bool = False) -> VerificationReport:
    """Check C_n(1, chords) against its GGPG partner and return the report
    row.  Never raises on findings; see enforce_proven for the abort tier.

    The one-row case of _verify_rows, after build_circulant's checks of its
    input (metrics.row_facts then refuses a row with no chord): the
    verdicts come from the summary of the row's route (metrics.row_facts),
    which reads the GGPG diameter off the circulant by the spoke identity,
    so 4.1 and 4.2 hold on this path by that identity, not by an
    independent search.  Paranoid also runs oracle.check_row: its own list
    kernel, the identity, the verdict conditions and the gap-1 path against
    list BFS and a FIFO search, the route's summary against the kernel's, and the sandwich and
    both diameter shortcuts over every source."""
    gc = build_circulant(n, (1, *chords))
    return _verify_rows([(gc.n, gc.gens[1:])], paranoid)[0]


def _verify_rows(rows, paranoid: bool) -> list:
    """The one row loop: the report rows of C_n(1, *chords) for each (n,
    chords) of rows, admissible or not, in input order, each built by
    _verify_row from that row's metrics.row_facts alone.  rows is any
    iterable, drawn once and lazily.  Under paranoid, oracle.check_row first
    checks each row's facts and path (raising TheoremViolation on a
    mismatch) and gives its sandwich verdict."""
    if paranoid:
        from .oracle import check_row  # compiled only by a paranoid row
    return [_verify_row(n, (1, *c), facts, path, check_row(
                build_circulant(n, (1, *c)), route, facts, path) if paranoid else None)
            for n, c in rows for route, facts, path in [row_facts(n, c)]]


def _verify_row(n: int, gens: tuple, facts, path,
                sandwich: tuple | None = None) -> VerificationReport:
    """The one record builder: the report row of C_n(gens), gens = (1,
    *chords), from its route's summary (facts) and gap-1 witness (path,
    else None), as metrics.row_facts gives them, and sandwich, the (ok, witness)
    of oracle.check_row on a paranoid row; on any other row 4.1 holds by
    the spoke identity."""
    d_circ, ecc_u0, ecc_v0, vdc, cond_outer, cond_inner, near = facts
    d_ggpg = ecc_u0 if ecc_u0 > ecc_v0 else ecc_v0
    gap = d_ggpg - d_circ
    t41_ok, t41_witness = sandwich or (True, None)
    predicted = cond_outer and cond_inner
    t42_ok = gap in (1, 2)
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
                 "outer_only": min(i, n - i),  # i is in V_Dc, so not 0
                 "inner_only": str(d_circ + (i in near)),
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
            "ggpg_diametral_path": PathLabels(path),
        }

    return VerificationReport(
        n, gens, len(gens) - 1, d_circ, d_ggpg, gap, vdc, cond_outer, cond_inner,
        t41_ok, t42_ok, t43_ok, t44_ok, gap == 2, tuple(anomalies), witnesses)


def enforce_proven(report: VerificationReport) -> VerificationReport:
    """Abort tier: raise on a proved-statement violation, with the witness."""
    if not report.thm41:
        raise TheoremViolation(
            f"pairwise sandwich violated on n={report.n} "
            f"gens={report.gens}: witness {report.witnesses.get('thm41')}")
    if not report.thm42:
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
    generator counts are checked here, before the first instance is drawn;
    n_range is read once, lazily, and each ring length is checked as it is
    planned (_plan_ring).  Every chord set lies in 2..floor((n-1)/2),
    increasing, so each row is admissible."""
    m_set = sorted(set(m_set))
    if not m_set or m_set[0] < 2:
        raise ValueError(f"generator counts must all be >= 2, got {m_set}")
    return itertools.chain.from_iterable(
        _plan_ring(n, m_set, sample_cap, sample_size, seed) for n in n_range)


def _plan_ring(n: int, m_set, sample_cap: int, sample_size: int, seed: int):
    """One ring length's instances, every cell listed or sampled; a ring
    length below 5 is refused here, as it is planned."""
    if n < 5:
        raise ValueError(f"ring length must be >= 5, got {n}")
    per_n = []
    for m in m_set:
        total = math.comb(max_generator(n) - 1, m - 1)
        if total > sample_cap:
            rng = random.Random(f"{seed}:{n}:{m}")
            k = min(sample_size, total)
            if total <= sys.maxsize:
                ranks = rng.sample(range(total), k)
            else:  # rng.sample takes len() of the range, which overflows here
                ranks = set()
                while len(ranks) < k:
                    ranks.add(rng.randrange(total))
            per_n.extend(_unrank_chord_set(r, n, m) for r in ranks)
        else:
            per_n.extend(chord_sets(n, m))
    per_n.sort()
    return [(n, c) for c in per_n]


def plan_sweep(n_range, m_set, *, sample_cap: int = 100_000,
               sample_size: int = 1000, seed: int = 0) -> list[tuple[int, tuple]]:
    """Deterministic instance list: ring lengths in n_range's order (one
    given twice is planned twice), chord sets lexicographic within each.

    A (n, m) cell is exhaustive while its chord-set count stays within
    sample_cap; beyond that it degrades to a uniform sample of sample_size
    sets (the whole cell if it holds fewer) drawn with the given seed
    (recorded in output headers).  Sampling draws positions in the cell and
    unranks only those, so a cell is never listed whole; random.sample picks
    the same positions from range(total) as it would from the listed cell.
    A cell of more than sys.maxsize sets, whose range has no len(), draws
    distinct random.randrange(total) positions instead.  n_range is any
    iterable of ring lengths, read once; each is checked as it is planned
    (_plan).
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
    """One block, in a worker or in-process: verify its rows in one
    _verify_rows pass, paranoid or not, then apply enforce_proven (raising
    on the first violation) and render them in fmt.  Returns the text, the
    gap counts and the rows with an anomaly.  An inadmissible (n, chords) row
    raises FamilyParameterError on any route."""
    rows = list(map(enforce_proven, _verify_rows(instances, paranoid)))
    return (_render_rows(rows, fmt), collections.Counter(map(_gap, rows)),
            [r for r in rows if r.anomalies])


_gap = operator.attrgetter("gap")


def run_instances(instances, *, paranoid: bool = False, jobs: int = 1,
                  fmt: str = "csv"):
    """Yield each block's _verify_block triple in input order, whatever
    jobs is; a violation raises for the first violating row in that order.
    instances, any iterable of (n, chords) rows (an inadmissible one
    raises FamilyParameterError), is drawn lazily.  One worker,
    or a system without os.fork, runs the blocks in-process.  Else
    W = min(jobs, cores, rows) workers are forked (forking.forked) once
    this process has pulled W rows, and it pulls no more: worker k walks
    its own copy of the plan, runs blocks k, k + W, k + 2W, ... and pipes
    each result back; this process reads the pipes in turn.  A worker
    that dies fails the run with its exit status.  cores counts the CPUs
    this process may run on: os.sched_getaffinity where the platform has
    it (so a taskset or cpuset bound counts), else os.cpu_count()."""
    instances = iter(instances)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else \
        os.cpu_count() or 1
    head = list(itertools.islice(instances, min(jobs, cores)))
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
    rendered in line (strings by json's own ASCII encoder), and one join for
    a PathLabels, rendered as its list.  A report holds str-keyed
    dicts, lists, tuples, PathLabels, str, int, bool and None; a float raises
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
    if isinstance(value, PathLabels):
        # as the list of its labels, never empty: u<i> is ASCII with nothing
        # to escape, so the list is one join of its indices between the
        # quotes (f"{i}" formats an int in about two thirds of str(i)'s time)
        return (f'[{inner}"u' + f'",{inner}"u'.join([f"{i}" for i in value.ids])
                + f'"{pad}]')
    raise (ValueError if isinstance(value, float) else TypeError)(
        f"a report holds no {type(value).__name__}: {value!r}")


def _render_rows(reports, fmt: str) -> str:
    """Report rows as text: CSV lines, or JSON records two levels deep,
    each led by ",\n    "."""
    if fmt == "csv":
        return "".join([r.csv_line() for r in reports])
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
