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
produce it, chosen by the generator count m alone.  Every m = 2 row (a
double loop C_n(1, s)) takes metrics.lattice_distances, integer arithmetic
on a reduced lattice basis with no BFS, at every n.  An m >= 3 row takes
metrics.level_set_summary (n-bit level sets) when its circulant has at
most metrics.LEVEL_CAP levels, else metrics.instance_distances (the
offset-arithmetic list kernel).  The thm43 witnesses of gap-1 rows come
from the summary on every route.  All three read the GGPG side off the
circulant by the spoke identity through one rule (metrics._summarize), so
a row's bytes never depend on the route, and on this path the thm41 and
thm42 columns follow from that identity, not from an independent search.
A gap-1 row's diametral path is walked by the identity, with no GGPG
search (metrics.diametral_path): from the lattice for a double loop, else
from metrics.circulant_distances.  What checks them independently:
check_thm41 to check_thm44, which recompute their statement from list BFS
alone, and --paranoid (paranoid=True), which also runs the list kernel and
raises unless its summary equals the lattice's or the level sets',
cross-checks the list kernel and the identity's GGPG vectors against list
BFS, compares a gap-1 row's walk with a FIFO search over neighbors(), and
takes the 4.1 verdict and both diameter shortcuts from check_thm41 over
all pairs, on every instance.

Failures are tiered.  The first two are proved facts, so a violation means
the implementation is broken: enforce_proven raises with the witness, and
the CLI applies it to every row before it writes one.  The latter two and
the gap==2 conjecture are findings: recorded in the report row, never
silently dropped, never asserted.
"""

from __future__ import annotations

import bisect
import collections
import io
import itertools
import json
import math
import os
import random

from .graph_core import CirculantGraph, GgpgGraph, build_circulant, max_generator
from .metrics import (
    all_source_distances,
    bfs,
    check_shortcut,
    circulant_distances,
    diametral_path,
    fifo_path,
    format_distance,
    inner_only_distances,
    instance_distances,
    lattice_distances,
    level_set_summary,
    outer_only_distance,
)
from .transforms import expand


class TheoremViolation(RuntimeError):
    """A proved statement failed on an instance; the code, not the math."""


REPORT_COLUMNS = (
    "n", "gens", "chords", "d_circ", "d_ggpg", "gap", "v_dc",
    "cond_outer", "cond_inner", "thm41", "thm42",
    "thm43_consistent", "thm44_consistent", "conj45", "anomalies",
)


# the pairwise sandwich check's outcome; witness, on a violation, is
# (i, j, x_label, y_label, d_c, d_p)
SandwichResult = collections.namedtuple("SandwichResult", "ok witness", defaults=(None,))
GapResult = collections.namedtuple("GapResult", "ok gap d_circ d_ggpg")
Gap1Characterization = collections.namedtuple(
    "Gap1Characterization", "predicted_gap_is_1 actual_gap consistent cond_outer cond_inner")
Gap2Conditions = collections.namedtuple(
    "Gap2Conditions", "any_condition_fires actual_gap consistent notes")


class VerificationReport(collections.namedtuple("VerificationReport", (
        "n gens chord_count d_circ d_ggpg gap extremal_set cond_outer cond_inner"
        " thm41_ok thm42_ok thm43_ok thm44_ok conj45_holds anomalies witnesses"))):
    """One sweep row: both diameters, the conditions, and every verdict."""

    __slots__ = ()

    def csv_cells(self) -> list[str]:
        flags = (self.cond_outer, self.cond_inner, self.thm41_ok, self.thm42_ok,
                 self.thm43_ok, self.thm44_ok, self.conj45_holds)
        return [
            str(self.n),
            "-".join(map(str, self.gens)),
            *map(str, (self.chord_count, self.d_circ, self.d_ggpg, self.gap)),
            "-".join(map(str, self.extremal_set)),
            *["true" if b else "false" for b in flags],
            "; ".join(self.anomalies),
        ]

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


def extremal_vertices(g: CirculantGraph) -> list[int]:
    """All vertices at exactly diameter distance from 0 (the set V_Dc)."""
    vec = bfs(g, 0)
    top = max(vec)
    return [i for i, d in enumerate(vec) if d == top]


def _sandwich_from_vectors(n, dc0, du, dv) -> SandwichResult:
    # one rotation orbit per side pair: d_p(x_i, y_j) = d_p(x_0, y_{j-i})
    for delta in range(n):
        d = dc0[delta]
        for x_label, vec in (("u0", du), ("v0", dv)):
            for y, y_label in ((delta, f"u{delta}"), (n + delta, f"v{delta}")):
                dp = vec[y]
                if not d <= dp <= d + 2:
                    return SandwichResult(False, (0, delta, x_label, y_label, d, dp))
    return SandwichResult(True)


def check_thm41(gc: CirculantGraph, mode: str = "orbit") -> SandwichResult:
    """Pairwise sandwich d_c(i,j) <= d_p(x_i,y_j) <= d_c(i,j) + 2 between
    gc and its expansion (u_i = i, v_i = n + i).

    mode="orbit" checks one representative pair per rotation orbit, which
    covers all pairs because rotating both endpoints preserves both
    distances.  mode="allpairs" takes no symmetry for granted and runs
    every source on both graphs literally; it also checks both diameter
    shortcuts against those vectors (RuntimeError, as under paranoid).
    """
    gp = expand(gc)
    n = gc.n
    if mode == "orbit":
        return _sandwich_from_vectors(n, bfs(gc, 0), bfs(gp, 0), bfs(gp, n))
    if mode != "allpairs":
        raise ValueError(f"unknown mode {mode!r}")
    dc_all, dp_all = all_source_distances(gc), all_source_distances(gp)
    check_shortcut(gc, "ecc(0)", max(dc_all[0]), dc_all)
    check_shortcut(gp, "two-source", max(dp_all[0] + dp_all[n]), dp_all)
    for i in range(n):
        for j in range(n):
            d = dc_all[i][j]
            for x in (i, n + i):
                for y in (j, n + j):
                    dp = dp_all[x][y]
                    if not d <= dp <= d + 2:
                        return SandwichResult(
                            False,
                            (i, j, gp.vertex_label(x), gp.vertex_label(y), d, dp))
    return SandwichResult(True)


def _list_bfs(gc: CirculantGraph) -> tuple[tuple, int]:
    """d_c(0, .) and the GGPG diameter max(ecc(u_0), ecc(v_0)) by list BFS
    over neighbors(): the circulant search, then u_0's and v_0's."""
    gp = expand(gc)
    dc0 = bfs(gc, 0)
    return dc0, max(max(bfs(gp, gp.outer(0))), max(bfs(gp, gp.inner(0))))


def check_thm42(gc: CirculantGraph) -> GapResult:
    """Diameter gap between gc and its expansion must land in {1, 2}."""
    dc0, d_ggpg = _list_bfs(gc)
    gap = d_ggpg - max(dc0)
    return GapResult(gap in (1, 2), gap, max(dc0), d_ggpg)


def _gap1_facts(gc: CirculantGraph) -> tuple[list, bool, bool, int]:
    """V_Dc, the two exact-length restricted-path conditions over it, and
    the gap, from one _list_bfs: what 4.3 and 4.4 both test.

    A ring-only path of length exactly D from 0 to i exists iff
    min(i, n-i) = D: the two arcs are the only vertex-distinct ring walks,
    and both are at least d_c(0,i) = D long.  Likewise a chord-only path of
    length exactly D exists iff the chord-subgraph distance equals D.
    """
    dc0, d_ggpg = _list_bfs(gc)
    d = max(dc0)
    vdc = [i for i, di in enumerate(dc0) if di == d]
    inner = inner_only_distances(gc)
    return (vdc, all(outer_only_distance(gc, i) == d for i in vdc),
            all(inner[i] == d for i in vdc), d_ggpg - d)


def check_thm43(gc: CirculantGraph) -> Gap1Characterization:
    """Does the gap-1 characterization agree with the actual gap?"""
    _, cond_outer, cond_inner, gap = _gap1_facts(gc)
    predicted = cond_outer and cond_inner
    return Gap1Characterization(predicted, gap, predicted == (gap == 1),
                                cond_outer, cond_inner)


def check_thm44(gc: CirculantGraph) -> Gap2Conditions:
    """Gap-2 sufficient conditions, as the argument actually uses them.

    Fires when some extremal vertex misses either restricted-path equality,
    i.e. as the negation of the gap-1 characterization's conditions.  The
    literal bullet list also carries a stray clause "exists i in V_Dc with
    s <= i <= n - s" whose s is never pinned down; it is evaluated here
    under both plausible readings (largest chord, smallest chord) and
    reported in the notes, asserted under neither.
    """
    vdc, cond_outer, cond_inner, gap = _gap1_facts(gc)
    fires = not (cond_outer and cond_inner)
    n = gc.n
    notes = []
    for tag, s in (("s=max_chord", gc.gens[-1]), ("s=min_chord", gc.gens[1])):
        hit = any(s <= i <= n - s for i in vdc)
        notes.append(f"third-bullet[{tag}={s}]: {'true' if hit else 'false'}")
    return Gap2Conditions(fires, gap, (not fires) or gap == 2, tuple(notes))


def _cross_check(gc: CirculantGraph, gp: GgpgGraph, dist, facts, path) -> None:
    """Paranoid tier: the kernel's vectors, and the GGPG vectors and
    eccentricities the spoke identity derives from them, against list BFS
    over neighbors(); and a gap-1 row's witness walk (path, else None)
    against a FIFO search over neighbors() from the source that list BFS
    names as attaining the larger diameter."""
    du, dv = dist.ggpg_vectors()
    slow_u, slow_v = bfs(gp, gp.outer(0)), bfs(gp, gp.inner(0))
    oracle = (("circulant from 0", dist.circ, bfs(gc, 0)),
              ("chord-only from 0", dist.chord_only, inner_only_distances(gc)),
              ("ggpg from u0", du, slow_u),
              ("ggpg from v0", dv, slow_v))
    for what, fast, slow in oracle:
        if tuple(fast) != slow:
            v = next(v for v, (a, b) in enumerate(zip(fast, slow)) if a != b)
            raise RuntimeError(
                f"kernel mismatch on {gc.label()} {what}: vertex {v} "
                f"kernel {fast[v]}, list BFS {slow[v]}")
    ecc = (max(slow_u), max(slow_v))
    if (facts.ecc_u0, facts.ecc_v0) != ecc:
        raise RuntimeError(
            f"kernel mismatch on {gc.label()} ggpg eccentricities of (u0, v0): "
            f"summary {(facts.ecc_u0, facts.ecc_v0)}, list BFS {ecc}")
    if path is not None:
        d = max(ecc)
        src, vec = (gp.outer(0), slow_u) if ecc[0] == d else (gp.inner(0), slow_v)
        want = fifo_path(gp, src, vec.index(d))
        if path != want:
            raise RuntimeError(
                f"witness mismatch on {gc.label()}: walk "
                f"{[gp.vertex_label(v) for v in path]}, FIFO search "
                f"{[gp.vertex_label(v) for v in want]}")


def verify_instance(n: int, chords, *, paranoid: bool = False) -> VerificationReport:
    """Check C_n(1, chords) against its GGPG partner and return the report
    row.  Never raises on findings; see enforce_proven for the abort tier.

    The verdicts come from one metrics.InstanceSummary: the lattice
    route's for a double loop (one chord), else the level-set route's when
    the circulant has at most LEVEL_CAP levels, else the list kernel's.
    Each reads the GGPG diameter off the circulant by the spoke identity,
    so 4.1 and 4.2 hold on this path by that identity, not by an
    independent search.  Every row under paranoid also runs the list
    kernel.  A gap-1 row's diametral path is walked on its lattice (one
    chord), else on the kernel's vectors or its circulant search alone.
    Paranoid requires the list kernel's summary to equal the faster
    route's, cross-checks the kernel and the identity against list BFS,
    requires the walked path to equal a FIFO search's over neighbors(),
    and checks the sandwich and both diameter shortcuts with check_thm41
    over all pairs."""
    chords = tuple(chords)
    gc = build_circulant(n, (1,) + chords)
    if not chords:
        expand(gc)  # raises: a GGPG partner needs a chord

    if len(chords) == 1:
        route, lattice = "lattice", lattice_distances(gc)
        fast = lattice.summary()
    else:
        route, fast = "level sets", level_set_summary(gc)
    facts, dist = fast, None
    if fast is None or paranoid:
        dist = instance_distances(gc)
        facts = dist.summary()
    d_circ, d_ggpg = facts.d_circ, facts.d_ggpg
    gap = d_ggpg - d_circ
    vdc = facts.v_dc
    cond_outer, cond_inner = facts.cond_outer, facts.cond_inner
    path = None
    if gap == 1:
        # the conj45 witness, walked on d_c(0, x): from the lattice for a
        # double loop, else from the circulant search (the list kernel's)
        circ = (lattice.circ_at if len(chords) == 1 else
                (dist.circ if dist else circulant_distances(gc)).__getitem__)
        path = diametral_path(n, chords, d_circ, circ)

    if paranoid:
        _cross_check(gc, expand(gc), dist, facts, path)
        if fast is not None and fast != facts:
            raise RuntimeError(
                f"route mismatch on {gc.label()}: {route} {fast}, "
                f"list kernel {facts}")
        t41 = check_thm41(gc, mode="allpairs")
    else:
        t41 = SandwichResult(True)  # by the spoke identity
    t42_ok = gap in (1, 2)

    predicted = cond_outer and cond_inner
    t43_ok = predicted == (gap == 1)
    fires = not predicted
    t44_ok = (not fires) or gap == 2

    anomalies = []
    witnesses = {}
    if not t41.ok:
        anomalies.append("thm41: sandwich violated")
        witnesses["thm41"] = {"pair": list(t41.witness)}
    if not t42_ok:
        anomalies.append(f"thm42: gap={gap} outside {{1,2}}")
    if not t43_ok:
        anomalies.append(
            f"thm43: predicted_gap_is_1={str(predicted).lower()} but gap={gap}")
        # only a gap-1 row has a thm43 witness (both conditions give gap 1
        # by the spoke identity), and by the exact gap-1 rule each i in V_Dc
        # then has chord(i) = d_circ, or d_circ + 1 where i is in facts.near
        witnesses["thm43"] = {
            "predicted_gap_is_1": predicted,
            "gap": gap,
            "extremal": [
                {"i": i,
                 "outer_only": outer_only_distance(gc, i),
                 "inner_only": format_distance(d_circ + (i in facts.near)),
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
        n=n,
        gens=tuple(gc.gens),
        chord_count=len(chords),
        d_circ=d_circ,
        d_ggpg=d_ggpg,
        gap=gap,
        extremal_set=tuple(vdc),
        cond_outer=cond_outer,
        cond_inner=cond_inner,
        thm41_ok=t41.ok,
        thm42_ok=t42_ok,
        thm43_ok=t43_ok,
        thm44_ok=t44_ok,
        conj45_holds=gap == 2,
        anomalies=tuple(anomalies),
        witnesses=witnesses,
    )


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
    instance is drawn."""
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
# 25.1 MB at --jobs 1 and 29.2 MB at --jobs 2 (ru_maxrss from os.wait4,
# 2-core x86 machine, Python 3.11.7).  Few blocks mean few round trips: the
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
    Returns the text, the gap counts and the rows with an anomaly."""
    gaps, flagged = collections.Counter(), []

    def checked():
        for n, c in instances:
            r = enforce_proven(verify_instance(n, c, paranoid=paranoid))
            gaps[r.gap] += 1
            if r.anomalies:
                flagged.append(r)
            yield r

    return _render_rows(checked(), fmt), gaps, flagged


def run_instances(instances, *, paranoid: bool = False, jobs: int = 1,
                  fmt: str = "csv"):
    """Yield each block's _verify_block triple in input order, whatever
    jobs is; a violation raises for the first violating row in that order.
    instances, any iterable of (n, chords), is drawn lazily.  One worker
    runs the blocks in-process; else a pool of min(jobs, cores, rows)
    workers, as many as the first window has blocks, has at most
    2 * workers blocks in flight."""
    instances = iter(instances)
    head = list(itertools.islice(instances, min(jobs, os.cpu_count() or 1)))
    workers = len(head)
    blocks = _blocks(itertools.chain(head, instances), workers)
    if workers <= 1:
        yield from (_verify_block(block, paranoid, fmt) for block in blocks)
        return
    from concurrent.futures import ProcessPoolExecutor  # costs ~20 ms to import

    pending = collections.deque()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            while True:
                for block in itertools.islice(blocks, 2 * workers - len(pending)):
                    pending.append(pool.submit(_verify_block, block, paranoid, fmt))
                if not pending:
                    return
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


# --- report serialization ---

_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


def _render_rows(reports, fmt: str) -> str:
    """Report rows as text: CSV lines, or JSON records two levels deep (a
    JSON string holds no raw newline), each led by ",\n    "."""
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(r.csv_cells() for r in reports)
        return buf.getvalue()
    return "".join(",\n    " + _JSON.encode(r.json_record()).replace("\n", "\n    ")
                   for r in reports)


def _write_document(texts, fh, fmt: str, header) -> None:
    """A report from its rows' text (_render_rows, in row order), with the
    header and column names of CSV, or the bytes json.dump gives a JSON one."""
    if fmt == "csv":
        fh.write(f"# {header}\n{','.join(REPORT_COLUMNS)}\n")
        fh.writelines(texts)
        return
    # "reports" sorts last, so the empty document ends in its list: "[]\n}"
    empty = _JSON.encode({"header": header, "reports": []})
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
