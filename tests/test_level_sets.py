"""The level-set route against the list route and the statement oracles,
on both sides of LEVEL_CAP; what a level-set row skips (a second
circulant search, the GGPG graph), what a paranoid row runs once and what
it catches; the exact gap-1 rule; plus the forked workers of
run_instances: how many, which blocks each runs, how far each runs ahead
of the consumer, and how little input the parent draws."""

import collections
import csv
import io
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import (
    bfs,
    build_circulant,
    check_thm41,
    check_thm42,
    check_thm43,
    check_thm44,
    diameter_circulant,
    diameter_ggpg,
    expand,
    extremal_vertices,
    format_distance,
    inner_only_distances,
    outer_only_distance,
    verify_instance,
)
from loopnet import forking, graph_core, metrics, oracle, theorem_lab
from loopnet.graph_core import max_generator
from loopnet.metrics import (
    DOUBLE_LOOP_LEVELS_BELOW,
    LEVEL_CAP,
    SHORT_BITS,
    instance_distances,
    level_set_summary,
)
from loopnet.theorem_lab import plan_sweep, run_instances

SHIPPED_GRID = Path(__file__).resolve().parent.parent / "artifacts" / "sweep_5_60_m23.csv"


def shipped_rows():
    """The data rows of the shipped n 5..60, m 2,3 sweep, as csv cells."""
    with open(SHIPPED_GRID, newline="") as fh:
        return [row for row in csv.reader(fh) if not row[0].startswith("#")][1:]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_level_set_summary_matches_list_route_and_oracles(data):
    n = data.draw(st.integers(5, 3000), label="n")
    hi = max_generator(n)
    k = data.draw(st.integers(1, min(3, hi - 1)), label="chords")
    chords = sorted(data.draw(st.lists(st.integers(2, hi), min_size=k,
                                       max_size=k, unique=True), label="set"))
    g = build_circulant(n, [1] + chords)
    h = expand(g)
    listed = instance_distances(g).summary()
    fast = level_set_summary(g)
    if listed.d_circ > LEVEL_CAP:
        assert fast is None
    else:
        assert fast == listed
    t42, t43, t44 = check_thm42(g), check_thm43(g), check_thm44(g)
    assert (listed.d_circ, listed.d_ggpg) == (t42.d_circ, t42.d_ggpg)
    assert list(listed.v_dc) == extremal_vertices(g)
    assert (listed.cond_outer, listed.cond_inner) == (t43.cond_outer, t43.cond_inner)
    assert t44.any_condition_fires == (not (listed.cond_outer and listed.cond_inner))
    chord = inner_only_distances(g)
    near = tuple(i for i in listed.v_dc if chord[i] == listed.d_circ + 1)
    for facts in filter(None, (fast, listed)):
        assert facts.near == near
    # the spoke identity's eccentricities, and the sandwich that follows from it
    assert (listed.ecc_u0, listed.ecc_v0) == (max(bfs(h, h.outer(0))),
                                              max(bfs(h, h.inner(0))))
    assert check_thm41(g).ok


def test_level_set_summary_on_the_grid():
    for n, chords in plan_sweep(range(5, 41), [2, 3, 4]):
        g = build_circulant(n, (1,) + chords)
        assert level_set_summary(g) == instance_distances(g).summary(), (n, chords)


def test_paranoid_catches_a_doctored_spoke_identity(monkeypatch):
    want = verify_instance(20, (4, 8))
    real = oracle.ggpg_vectors

    def off_by_one(dist):
        du, dv = real(dist)
        du[7] += 1
        return du, dv

    monkeypatch.setattr(oracle, "ggpg_vectors", off_by_one)
    assert verify_instance(20, (4, 8)) == want  # the vectors feed only the oracle
    with pytest.raises(RuntimeError, match="kernel mismatch on C20.* ggpg from u0: vertex 7"):
        verify_instance(20, (4, 8), paranoid=True)


def test_paranoid_catches_a_wrong_eccentricity_rule(monkeypatch):
    # both routes share the rule, so only the list-BFS eccentricities disagree
    real = metrics._summarize

    def never_far(n, d, vdc, near, far):
        facts = real(n, d, vdc, near, far)
        return facts._replace(ecc_u0=d + 1, ecc_v0=d + 1)

    monkeypatch.setattr(metrics, "_summarize", never_far)
    assert verify_instance(20, (4, 8)).gap == 1  # trusted when not paranoid
    with pytest.raises(RuntimeError, match=r"C20.* ggpg eccentricities of \(u0, v0\): "
                                           r"summary \(4, 4\), list BFS \(5, 5\)"):
        verify_instance(20, (4, 8), paranoid=True)


@pytest.mark.parametrize("n,chords", [(20, (4, 8)), (12, (5,)), (9, (2,))])
def test_paranoid_catches_a_wrong_condition_rule(monkeypatch, n, chords):
    # both routes share the rule, so only the conditions' definitions on
    # V_Dc, read off list BFS, disagree: flipping cond_outer would turn
    # C12(1,5)'s consistent thm43 and thm44 verdicts into findings
    real = metrics._summarize

    def flipped(*args):
        facts = real(*args)
        return facts._replace(cond_outer=not facts.cond_outer, near=())

    g = build_circulant(n, (1,) + chords)
    want = instance_distances(g).summary()
    monkeypatch.setattr(metrics, "_summarize", flipped)
    assert verify_instance(n, chords).cond_outer != want.cond_outer  # trusted when not paranoid
    with pytest.raises(RuntimeError) as info:
        verify_instance(n, chords, paranoid=True)
    assert str(info.value) == (
        f"verdict mismatch on {g.label()} (cond_outer, cond_inner, near): "
        f"summary {(not want.cond_outer, want.cond_inner, ())}, "
        f"list BFS {(want.cond_outer, want.cond_inner, want.near)}")


class LostChords(tuple):
    """A chord tuple that reads as itself but walks as no chord: the level
    loop takes a row's ring bound from chords[-1] and its shifts from walks
    over its chords."""

    def __iter__(self):
        return iter(())


def loop_entries(monkeypatch, log):
    """From now on the level loop logs n for each row whose first level it
    walks.  The probe is the loop's own level range: a stand-in for range,
    installed in metrics' globals, hands the level loop (and no other
    caller) levels that log the loop's n when the first one is drawn, so
    a read of a row's chords elsewhere is no entry."""
    loop = metrics.level_set_summaries.__code__

    class Levels:
        def __init__(self, n, *args):
            self.n, self.levels = n, range(*args)

        def __iter__(self):  # a generator: its body runs at the first draw
            log.append(self.n)
            yield from self.levels

    def levels(*args):
        caller = sys._getframe(1)
        return Levels(caller.f_locals["n"], *args) if caller.f_code is loop else range(*args)

    monkeypatch.setattr(metrics, "range", levels, raising=False)


def test_paranoid_catches_a_circulant_that_loses_its_chords(monkeypatch):
    g = build_circulant(20, (1, 4, 8))
    want = verify_instance(20, (4, 8))
    real = metrics.level_set_summaries

    def ring_only(n, chord_sets):  # the chord ring, and so the circulant, loses (4, 8)
        return real(n, [LostChords(c) if c == (4, 8) else c for c in chord_sets])

    monkeypatch.setattr(metrics, "level_set_summaries", ring_only)
    broken = level_set_summary(g)
    assert broken.d_circ == 10 != want.d_circ
    assert verify_instance(20, (4, 8)) != want  # trusted when not paranoid
    with pytest.raises(RuntimeError, match="route mismatch on C20"):
        verify_instance(20, (4, 8), paranoid=True)


def refuse(*args, **kwargs):
    raise AssertionError("called where it cannot change the answer")


def test_the_level_loop_is_its_own_cap_probe(monkeypatch):
    # at most one level loop per row (each walks its first level once):
    # the loop gives up past LEVEL_CAP levels by itself, and a row whose ring
    # bound ceil(floor(n / 2) / s_m) is over the cap never enters it
    # (C1201(1,2,3) has LEVEL_CAP levels and bound 200, so it is probed;
    # C1202(1,2,3) has one more level and bound 201, so it is not); every
    # grid row enters it, double loops too (n < DOUBLE_LOOP_LEVELS_BELOW),
    # and longer double loops take the lattice route and never enter it, on
    # both sides of n // 2 = LEVEL_CAP (C401(1,3) and C402(1,3))
    grid = plan_sweep(range(5, 61), [2, 3])
    assert max(n for n, c in grid) < DOUBLE_LOOP_LEVELS_BELOW
    wide = [(2 * LEVEL_CAP + 1, (3,)), (2 * LEVEL_CAP + 2, (3,)),
            (6 * LEVEL_CAP + 1, (2, 3)), (6 * LEVEL_CAP + 2, (2, 3))]
    want = [list_route_row(monkeypatch, n, c) for n, c in wide]
    searches = []
    loop_entries(monkeypatch, searches)
    assert [next(csv.reader([verify_instance(n, c).csv_line()])) for n, c in grid] == \
        shipped_rows()
    assert [verify_instance(n, c) for n, c in wide] == want
    assert [r.d_circ for r in want[2:]] == [LEVEL_CAP, LEVEL_CAP + 1]
    assert searches == [n for n, c in grid] + [6 * LEVEL_CAP + 1]


def test_exact_gap1_rule_on_the_grid():
    # by the spoke identity, gap = 1 iff every i in V_Dc has ring(i) <= D + 1
    # and chord(i) <= D + 1; the paper's rule asks for = D on both, so it
    # implies gap 1 but misses the gap-1 rows the shipped sweep marks
    # thm43-inconsistent
    inconsistent = {(int(r[0]), r[1]) for r in shipped_rows() if r[11] == "false"}
    missed = set()
    for n, chords in plan_sweep(range(5, 61), [2, 3]):
        g = build_circulant(n, (1,) + chords)
        gap = check_thm42(g).gap
        dc0, chord = bfs(g, 0), inner_only_distances(g)
        d = max(dc0)
        vdc = [i for i in g.vertices() if dc0[i] == d]
        ring = [min(i, n - i) for i in vdc]
        assert (gap == 1) == (max(ring) <= d + 1 and max(chord[i] for i in vdc) <= d + 1)
        paper = all(r == d for r in ring) and all(chord[i] == d for i in vdc)
        assert gap == 1 or not paper
        if paper != (gap == 1):
            missed.add((n, "-".join(map(str, g.gens))))
    assert len(missed) == len(inconsistent) == 70
    assert missed == inconsistent


def test_thm43_witnesses_on_the_grid_match_the_oracles():
    # level sets give every witness within the cap: chord(i) is D or D + 1
    # on V_Dc of a gap-1 row, and the summary's near set tells which
    seen = 0
    for n, chords in plan_sweep(range(5, 61), [2, 3]):
        row = verify_instance(n, chords)
        if "thm43" in row.witnesses:
            g = build_circulant(n, (1,) + chords)
            chord = inner_only_distances(g)
            assert row.witnesses["thm43"]["extremal"] == [
                {"i": i, "outer_only": outer_only_distance(g, i),
                 "inner_only": format_distance(chord[i]), "diameter": row.d_circ}
                for i in row.v_dc], (n, chords)
            seen += 1
    assert seen == 70


def test_level_set_rows_build_no_ggpg_graph(monkeypatch):
    rows = ((20, (4, 8)), (12, (5,)), (9, (2, 4)))  # gap 2; two gap-1 rows
    want = [verify_instance(n, chords) for n, chords in rows]
    for mod, name in ((metrics, "expand"), (graph_core, "expand"),
                      (graph_core, "build_ggpg")):
        monkeypatch.setattr(mod, name, refuse)
    assert [verify_instance(n, chords) for n, chords in rows] == want
    with pytest.raises(AssertionError, match="cannot change"):  # paranoid only
        verify_instance(20, (4, 8), paranoid=True)


def test_only_the_level_loop_reads_n_bit_sets(monkeypatch):
    calls = []
    real = metrics._bit_positions

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(metrics, "_bit_positions", counting)
    # double loops from DOUBLE_LOOP_LEVELS_BELOW up, on the lattice (that
    # ring length, two gap-1 rows, a gap-2 row, an a-form row with gcd 3)
    # and an over-cap row on the list route
    for n, chords in ((DOUBLE_LOOP_LEVELS_BELOW, (3,)), (132, (65,)), (100000, (49999,)),
                      (200, (4,)), (99999, (3,)), (1202, (2, 3))):
        verify_instance(n, chords)
    assert calls == []
    # level sets: a double loop on a shorter ring, an m = 3 row
    for n, chords in ((DOUBLE_LOOP_LEVELS_BELOW - 1, (3,)), (20, (4, 8))):
        verify_instance(n, chords)
        assert calls
        calls.clear()


@pytest.mark.parametrize("n", [60, SHORT_BITS, SHORT_BITS + 1, 100_000])
@pytest.mark.parametrize("k", [0, 1, 9, 48])
def test_bit_positions_on_both_sides_of_the_cut(monkeypatch, n, k):
    # an int of at most SHORT_BITS bits is scanned one set bit at a time, a
    # longer one byte by byte; either scan must also hold on the other side
    rest = random.Random(f"bits:{n}:{k}").sample(range(n - 1), max(k - 1, 0))
    points = sorted(rest + [n - 1]) if k else []
    x = sum(1 << i for i in points)
    assert metrics._bit_positions(x) == tuple(points)
    for cut in (0, n):
        monkeypatch.setattr(metrics, "SHORT_BITS", cut)
        assert metrics._bit_positions(x) == tuple(points)


def test_no_chord_keeps_the_expansion_error():
    with pytest.raises(ValueError) as err:
        verify_instance(12, ())
    assert str(err.value) == "expansion needs at least one chord >= 2, got C12(1)"


def test_paranoid_runs_each_all_source_bfs_once(monkeypatch):
    calls, listed = [], []
    real = oracle.bfs

    def counting(g, src):
        calls.append((g.family, src))
        return real(g, src)

    monkeypatch.setattr(oracle, "bfs", counting)
    for cls in (graph_core.CirculantGraph, graph_core.GgpgGraph):
        def listing(g, v, real=cls.neighbors):
            listed.append((g.family, v))
            return real(g, v)

        monkeypatch.setattr(cls, "neighbors", listing)
    # gap 2 and gap 1 (whose FIFO search reads the same table), m = 2 and 3
    for n, chords in ((30, (4,)), (12, (5,)), (20, (4, 8)), (9, (2, 4))):
        calls.clear()
        listed.clear()
        row = verify_instance(n, chords, paranoid=True)
        assert row == verify_instance(n, chords)
        # one pass, 3n calls: every source of both graphs exactly once
        every = [("circulant", s) for s in range(n)] + [("ggpg", s) for s in range(2 * n)]
        assert sorted(calls) == every
        # over one adjacency table per graph: neighbors() n + 2n times in all
        assert sorted(listed) == every


def list_route_row(monkeypatch, n, chords):
    """The row as the list kernel alone gives it."""
    with monkeypatch.context() as m:
        m.setattr(metrics, "level_set_summaries", lambda n, sets: (None for _ in sets))
        m.setattr(metrics, "lattice_summary", lambda g: None)
        return verify_instance(n, chords)


@pytest.mark.parametrize("k,over", [(LEVEL_CAP, False), (LEVEL_CAP + 1, True)])
def test_cap_sides_on_the_gap1_family(monkeypatch, k, over):
    # C_{4k}(1, 2k-1) has d_circ = k: one row on each side of the cap
    n, chords = 4 * k, (2 * k - 1,)
    g = build_circulant(n, (1,) + chords)
    assert (level_set_summary(g) is None) == over
    row = verify_instance(n, chords)
    assert row.d_circ == k and row.gap == 1
    assert row.witnesses["conj45"]["ggpg_diametral_path"]
    assert row == list_route_row(monkeypatch, n, chords)


@pytest.mark.parametrize("n,chords", [(12, (5,)), (40, (8, 19)), (7, (2,)), (20, (4, 8)),
                                      (9, (2,)), (5, (2,)), (7, (3,))])
def test_few_level_rows_equal_the_list_route(monkeypatch, n, chords):
    # gap-1 rows (level-set verdicts and thm43 witness), thm43 inconsistencies
    # (C5(1,2), C7(1,2), C7(1,3)), a plain gap-2 row and a V_Dc tie
    # (C9(1,2): V_Dc = {3, 4, 5, 6})
    g = build_circulant(n, (1,) + chords)
    assert level_set_summary(g) is not None
    row = verify_instance(n, chords)
    assert row == list_route_row(monkeypatch, n, chords)
    assert (row.gap == 1) == ("conj45" in row.witnesses)


def bfs_summary(g):
    """The InstanceSummary of C_n(1, chords) read off list BFS from source 0
    alone: over the circulant, over its chord-only circulant and over the
    GGPG partner from u_0 and v_0, with no spoke identity."""
    n = g.n
    circ = bfs(g, 0)
    chord = bfs(build_circulant(n, g.gens[1:]), 0)
    h = oracle.Adjacency(expand(g))  # one neighbors() table for both sources
    d = max(circ)
    vdc = tuple(i for i, di in enumerate(circ) if di == d)
    return metrics.InstanceSummary(
        d, max(bfs(h, h.outer(0))), max(bfs(h, h.inner(0))), vdc,
        all(min(i, n - i) == d for i in vdc), all(chord[i] == d for i in vdc),
        tuple(i for i in vdc if chord[i] == d + 1))


N_1E5 = 100_000
ROWS_1E5 = {
    # seeded draws, one per generator count
    "m3": tuple(sorted(random.Random("1e5:3").sample(range(2, N_1E5 // 2), 2))),
    "m4": tuple(sorted(random.Random("1e5:4").sample(range(2, N_1E5 // 2), 3))),
    # 201 levels within the ring bound, so the loop runs to the cap and gives
    # up; both chords share the factor 2 with n, so no chord walk leaves the
    # even vertices and V_Dc's odd points are far
    "over-cap, shared factor": (402, 404),
    # no chord is a unit mod n, but together they reach every vertex
    "no unit chord": (16, 25, 3125),
}


@pytest.mark.parametrize("chords", ROWS_1E5.values(), ids=ROWS_1E5)
def test_n_1e5_rows_agree_with_list_bfs(chords):
    n = N_1E5
    g = build_circulant(n, (1, *chords))
    listed = instance_distances(g).summary()
    assert listed == bfs_summary(g)
    fast = level_set_summary(g)
    assert fast == (None if listed.d_circ > LEVEL_CAP else listed)
    if chords == ROWS_1E5["over-cap, shared factor"]:
        assert listed.d_circ == LEVEL_CAP + 1 and -(-(n // 2) // chords[-1]) <= LEVEL_CAP
        assert math.gcd(n, *chords) == 2 and listed.ecc_v0 == listed.d_circ + 2
    if chords == ROWS_1E5["no unit chord"]:
        assert all(math.gcd(n, s) > 1 for s in chords) and math.gcd(n, *chords) == 1
        assert fast is not None and fast.near


def test_the_loop_runs_past_the_cap_at_n_1e5(monkeypatch):
    # two double loops (which run_facts sends to the lattice) as probes of
    # the loop itself at n = 10^5: past LEVEL_CAP levels it gives up, within
    # the ring bound (C(1, 299), D = 250) or at once (C(1, 99), D = 550),
    # and with the cap raised it runs both, in one run, to the list
    # kernel's summaries
    n, rows = N_1E5, [(299,), (99,)]
    listed = [instance_distances(build_circulant(n, (1, *c))).summary() for c in rows]
    assert [facts.d_circ for facts in listed] == [250, 550]
    assert [-(-(n // 2) // c[-1]) <= LEVEL_CAP for c in rows] == [True, False]
    assert list(metrics.level_set_summaries(n, rows)) == [None, None]
    monkeypatch.setattr(metrics, "LEVEL_CAP", 10 ** 6)
    assert list(metrics.level_set_summaries(n, rows)) == listed
    assert [level_set_summary(build_circulant(n, (1, *c))) for c in rows] == listed


def test_relabelling_by_a_unit_keeps_the_circulant_half_at_n_1e6():
    # x -> a^-1 x maps C(1, a, b) onto C(1, a^-1, a^-1 b): d_circ is kept
    # and V_Dc maps point by point.  The gap is not compared, since the
    # GGPG partner's ring generator changes with the relabelling
    n, checked = 10 ** 6, []
    for _, (a, b) in plan_sweep(range(n, n + 1), (3,), sample_cap=1000,
                                sample_size=20, seed=1):
        if math.gcd(a, n) != 1:
            continue
        inv = pow(a, -1, n)
        relabelled = tuple(sorted(min(x, n - x) for x in (inv, inv * b % n)))
        fast = level_set_summary(build_circulant(n, (1, a, b)))
        if fast is None:  # over the cap
            continue
        moved = level_set_summary(build_circulant(n, (1, *relabelled)))
        if moved is None:
            continue
        assert moved.d_circ == fast.d_circ, (a, b)
        assert moved.v_dc == tuple(sorted(inv * i % n for i in fast.v_dc)), (a, b)
        checked.append(fast.d_circ)
    assert len(checked) >= 4 and min(checked) > 100


@pytest.mark.parametrize("n,chords,paranoid,route,probed", [
    (DOUBLE_LOOP_LEVELS_BELOW - 1, (63,), False, "level sets", True),
    (DOUBLE_LOOP_LEVELS_BELOW, (63,), False, "lattice", False),
    (20, (4, 8), False, "level sets", True),
    (6 * LEVEL_CAP + 1, (2, 3), False, "level sets", True),  # LEVEL_CAP levels
    (6 * LEVEL_CAP + 2, (2, 3), False, "list kernel", False),  # ring bound over the cap
    (9, (2, 4), True, "level sets", True),  # gap 1: the witness needs no search
    (6 * LEVEL_CAP + 2, (2, 3), True, "list kernel", False),
])
def test_row_facts_picks_the_route(monkeypatch, n, chords, paranoid, route, probed):
    # a row's facts come from metrics.run_facts, whose level loop walks a
    # row's first level once: the list kernel runs its two searches, and no
    # other route any (a gap-1 row's witness reads no distance).  A
    # paranoid row runs those and exactly one list kernel of its own,
    # oracle.check_row's (its list BFS runs no _level_bfs; cut to source 0
    # here, as it is quadratic)
    listed = instance_distances(build_circulant(n, (1,) + chords)).summary()
    probes, searches, kernels = [], [], []
    real_bfs, real_kernel, real_sources = \
        metrics._level_bfs, oracle.instance_distances, oracle._source_vectors
    loop_entries(monkeypatch, probes)
    monkeypatch.setattr(metrics, "_level_bfs", lambda *a: searches.append(a) or real_bfs(*a))
    monkeypatch.setattr(oracle, "instance_distances",
                        lambda g: kernels.append(g) or real_kernel(g))
    _, _, got, facts, path = next(metrics.run_facts([(n, chords)]))
    assert got == route and bool(probes) == probed
    assert (path is not None) == (facts.d_ggpg - facts.d_circ == 1)
    own = 2 if route == "list kernel" else 0
    assert len(searches) == own and not kernels
    assert facts == listed
    if paranoid:
        searches.clear()
        monkeypatch.setattr(oracle, "_source_vectors",
                            lambda gc, gp, sources: real_sources(gc, gp, 1))
        assert verify_instance(n, chords, paranoid=True).d_circ == facts.d_circ
        assert len(kernels) == 1 and len(searches) == own + 2


def test_paranoid_compares_the_two_summaries(monkeypatch):
    real = metrics.level_set_summaries

    def doctored(n, chord_sets):
        return (facts._replace(v_dc=(1,)) for facts in real(n, chord_sets))

    monkeypatch.setattr(metrics, "level_set_summaries", doctored)
    assert verify_instance(20, (4, 8)).v_dc == (1,)  # trusted when not paranoid
    with pytest.raises(RuntimeError, match="route mismatch on C20"):
        verify_instance(20, (4, 8), paranoid=True)


def test_paranoid_keeps_the_shortcut_mismatch_error(monkeypatch):
    real = oracle.bfs

    def skewed(g, src):
        vec = real(g, src)  # the last source sees farther
        return tuple(d + 1 for d in vec) if src == g.num_vertices - 1 else vec

    monkeypatch.setattr(oracle, "bfs", skewed)
    g = build_circulant(12, (1, 5))
    h = expand(g)
    for call, shortcut in ((lambda: diameter_circulant(g, paranoid=True), "ecc"),
                           (lambda: diameter_ggpg(h, paranoid=True), "two-source"),
                           (lambda: check_thm41(g, mode="allpairs"), "ecc"),
                           (lambda: verify_instance(12, (5,), paranoid=True), "ecc")):
        with pytest.raises(RuntimeError, match=f"symmetry shortcut mismatch .*{shortcut}"):
            call()


def csv_rows(reports) -> str:
    """The CSV lines of these rows, as a report holds them."""
    return "".join(r.csv_line() for r in reports)


@pytest.mark.parametrize("jobs,items,cpus,workers", [
    (100_000, 2, 8, 2),     # never more workers than items
    (3, 9, 2, 2),           # nor than cores
    (4, 9, None, None),     # unknown core count: one worker, no fork
    (2, 1, 8, None),        # one item: no fork
])
def test_run_instances_bounds_the_pool(fork_log, monkeypatch, jobs, items,
                                       cpus, workers, cores):
    cores(cpus)
    fork_log.log_blocks()
    inst = plan_sweep(range(5, 20), [2])[:items]
    got = list(run_instances(iter(inst), jobs=jobs))
    assert len(fork_log.pids) == (workers or 0)
    want = [verify_instance(n, c) for n, c in inst]
    # one block per worker, run by that worker: rendered rows, gap counts,
    # anomaly rows
    assert len(got) == (workers or 1)
    assert [len(fork_log.blocks(pid)) for pid in fork_log.pids] == [1] * (workers or 0)
    assert [row for rows, _ in fork_log.blocks() for row in rows] == inst
    assert "".join(text for text, _, _ in got) == csv_rows(want)
    assert sum((gaps for _, gaps, _ in got), collections.Counter()) == \
        collections.Counter(r.gap for r in want)
    assert [r for _, _, flagged in got for r in flagged] == [r for r in want if r.anomalies]


def test_run_instances_counts_only_the_cpus_it_may_use(fork_log, monkeypatch):
    # pinned to one of eight CPUs (taskset, a cpuset), --jobs 2 forks nothing
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    inst = plan_sweep(range(5, 20), [2])
    texts = [text for text, _, _ in run_instances(iter(inst), jobs=2)]
    assert fork_log.pids == []
    assert "".join(texts) == csv_rows(verify_instance(n, c) for n, c in inst)


def test_run_instances_without_fork_runs_in_process(fork_log, monkeypatch, cores):
    cores(8)
    monkeypatch.delattr(os, "fork")
    fork_log.log_blocks()
    inst = plan_sweep(range(5, 20), [2])
    texts = [text for text, _, _ in run_instances(iter(inst), jobs=4)]
    assert "".join(texts) == csv_rows(verify_instance(n, c) for n, c in inst)
    assert len(fork_log.blocks()) == 4  # cut for four workers, all run here


@pytest.mark.parametrize("jobs,items,sizes", [
    (2, 100, [50, 50]),             # a short run still reaches every worker
    (4, 9, [2, 2, 2, 3]),
    (2, 1100, [512, 512, 38, 38]),  # a full window gives BLOCK_ROWS-row blocks
])
def test_every_worker_gets_a_block_of_a_short_run(fork_log, monkeypatch, jobs,
                                                  items, sizes, cores):
    cores(8)
    fork_log.log_blocks()
    inst = plan_sweep(range(5, 80), [2])[:items]
    texts = [text for text, _, _ in run_instances(iter(inst), jobs=jobs)]
    assert len(fork_log.pids) == jobs
    # worker k ran blocks k, k + jobs, ...: read in turn, they are the input
    blocks = [rows for rows, _ in fork_log.blocks()]
    assert [len(b) for b in blocks] == sizes
    assert [row for b in blocks for row in b] == inst
    assert "".join(texts) == csv_rows(verify_instance(n, c) for n, c in inst)


@pytest.mark.parametrize("workers", [2, 3])
def test_run_instances_pulls_its_input_lazily(fork_log, monkeypatch, workers, cores):
    cores(workers)
    monkeypatch.setattr(theorem_lab, "BLOCK_ROWS", 16)
    fork_log.log_blocks()
    inst = plan_sweep(range(5, 40), [2, 3])
    pulled = 0

    def counting():
        nonlocal pulled
        for item in inst:
            pulled += 1
            yield item

    # A worker is at most the block it is writing, one pipe (PIPE_BYTES,
    # here one page) and the parent's read buffer ahead of the consumer.
    # The consumer dawdles on the first block, so that the workers fill
    # their pipes.
    monkeypatch.setattr(forking, "PIPE_BYTES", 4096)
    room = 4096 + io.DEFAULT_BUFFER_SIZE
    texts = []
    for i, (text, _, _) in enumerate(run_instances(counting(), jobs=8, fmt="json")):
        if i == 0:
            time.sleep(0.3)
        texts.append(text)
        for k, pid in enumerate(fork_log.pids):
            sizes = [size for _, size in fork_log.blocks(pid)]
            waiting = sizes[len(range(k, i + 1, workers)):]  # run, not yet consumed
            assert sum(waiting[:-1]) <= room
    want = [verify_instance(n, c) for n, c in inst]
    assert "".join(texts) == theorem_lab._render_rows(want, "json")
    # this process pulled the first W rows only; each worker walked its own copy
    assert pulled == workers and len(fork_log.pids) == workers
    # blocks are the input's contiguous runs of BLOCK_ROWS rows, some of
    # them across ring lengths, and worker k ran blocks k, k + W, ...; the
    # last window of under workers * BLOCK_ROWS rows is cut into workers
    # near-equal blocks
    blocks = [rows for rows, _ in fork_log.blocks()]
    sizes = [len(b) for b in blocks]
    assert [item for b in blocks for item in b] == inst
    assert sizes[:-workers] == [16] * (len(blocks) - workers)
    assert max(sizes[-workers:]) - min(sizes[-workers:]) <= 1 and max(sizes) == 16
    assert any(b[0][0] != b[-1][0] for b in blocks)
    # the bound is well below what each worker sends
    assert sum(size for _, size in fork_log.blocks()) > workers * 4 * room


def test_a_block_reaches_the_consumer_before_its_worker_runs_the_next(monkeypatch,
                                                                      tmp_path, deadline, cores):
    # A worker's next block waits until the consumer has received its last
    # one.  A result left in the worker's write buffer would never arrive:
    # the wait ends in TimeoutError, which the run raises.
    cores(2)
    monkeypatch.setattr(theorem_lab, "BLOCK_ROWS", 8)
    inst = plan_sweep(range(5, 30), [2])
    index = {b[0]: i for i, b in enumerate(theorem_lab._blocks(inst, 2))}
    real = theorem_lab._verify_block

    def gated(block, paranoid, fmt):
        i = index[block[0]]
        gate, deadline = tmp_path / str(i - 2), time.monotonic() + 5
        while i >= 2 and not gate.exists():
            if time.monotonic() > deadline:
                raise TimeoutError(f"block {i - 2} did not reach the consumer")
            time.sleep(0.001)
        return real(block, paranoid, fmt)

    monkeypatch.setattr(theorem_lab, "_verify_block", gated)
    texts = []
    with deadline(60):
        for i, (text, _, _) in enumerate(run_instances(inst, jobs=2)):
            (tmp_path / str(i)).touch()
            texts.append(text)
    assert len(texts) == len(index) > 4
    assert "".join(texts) == csv_rows(verify_instance(n, c) for n, c in inst)


def _loaded_after(code: str) -> list:
    """The loopnet and process-pool modules a fresh interpreter has loaded
    after it runs code, read from the last line it prints."""
    probe = (code + "; import sys; print(*sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('loopnet', 'concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    return out.splitlines()[-1].split()


def test_import_leaves_the_process_pool_unloaded(tmp_path):
    # neither `import loopnet` nor a grid run at --jobs 2 loads a process
    # pool's modules; the fork path and pickle are loaded only by a run
    # that forks
    probe = ("import sys, loopnet; "
             "print('loopnet.forking' in sys.modules, 'pickle' in sys.modules, "
             "'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False", "False", "False"]
    # a run compiles only the modules it calls: no row needs transforms or
    # path_algebra (expand lives in graph_core), and no non-paranoid row
    # needs the oracle tier
    fast = ["loopnet", "loopnet.graph_core", "loopnet.metrics", "loopnet.theorem_lab"]
    grid = ("import os; from loopnet import cli; os.cpu_count = lambda: 2; "
            "os.sched_getaffinity = lambda pid: {0, 1}; "
            "assert cli.main(['sweep', '--n', '5..60', '--m', '2,3', '--jobs', '2', "
            f"'--out', {str(tmp_path / 'grid.csv')!r}]) == 0")
    assert _loaded_after(grid) == sorted(fast + ["loopnet.cli", "loopnet.forking"])
    sampled = ("from loopnet import cli; "
               "assert cli.main(['verify', '--n', '500', '--m', '4', '--sample-size', '5', "
               f"'--format', 'json', '--out', {str(tmp_path / 'v.json')!r}]) == 0")
    assert _loaded_after(sampled) == sorted(fast + ["loopnet.cli"])
    assert _loaded_after("from loopnet import theorem_lab; "
                         "theorem_lab.verify_instance(100000, (49999,))") == fast
    # the list-BFS oracle tier is compiled by paranoid rows and the diameter
    # command alone
    slow = sorted(fast + ["loopnet.cli", "loopnet.oracle"])
    paranoid = ("from loopnet import cli; "
                "assert cli.main(['verify', '--n', '9..12', '--m', '2,3', '--paranoid', "
                f"'--out', {str(tmp_path / 'p.csv')!r}]) in (0, 4)")
    assert _loaded_after(paranoid) == slow
    diameter = ("from loopnet import cli; "
                "assert cli.main(['diameter', '--family', 'ggpg', '--n', '12', "
                f"'--chords', '5', '--out', {str(tmp_path / 'd.txt')!r}]) == 0")
    assert _loaded_after(diameter) == slow
    with pytest.raises(ValueError, match="expansion needs at least one chord"):
        verify_instance(9, ())
