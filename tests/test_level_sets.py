"""The level-set route against the list route and the statement oracles,
on both sides of LEVEL_CAP; what a level-set row skips (a second
circulant search, the GGPG graph), what a paranoid row runs once and what
it catches; the exact gap-1 rule; plus the bounded, lazily imported worker
pool and how lazily it draws its input, in blocks per ring length."""

import collections
import concurrent.futures
import csv
import io
import os
import subprocess
import sys
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
    inner_only_distances,
    outer_only_distance,
    verify_instance,
)
from loopnet import metrics, theorem_lab
from loopnet.graph_core import max_generator
from loopnet.metrics import (
    LEVEL_CAP,
    format_distance,
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
    real = metrics.InstanceDistances.ggpg_vectors

    def off_by_one(self):
        du, dv = real(self)
        du[7] += 1
        return du, dv

    monkeypatch.setattr(metrics.InstanceDistances, "ggpg_vectors", off_by_one)
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


def test_paranoid_catches_a_circulant_that_loses_its_chords(monkeypatch):
    g = build_circulant(20, (1, 4, 8))
    want = verify_instance(20, (4, 8))
    real = metrics._shift_pairs

    def ring_only(n, steps):
        return real(n, (1,)) if tuple(steps) == (1, 4, 8) else real(n, steps)

    monkeypatch.setattr(metrics, "_shift_pairs", ring_only)
    broken = level_set_summary(g)
    assert broken.d_circ == 10 != want.d_circ
    assert verify_instance(20, (4, 8)) != want  # trusted when not paranoid
    with pytest.raises(RuntimeError, match="route mismatch on C20"):
        verify_instance(20, (4, 8), paranoid=True)


def refuse(*args, **kwargs):
    raise AssertionError("called where it cannot change the answer")


def test_the_level_loop_is_its_own_cap_probe(monkeypatch):
    # one circulant search per m >= 3 row: the loop gives up past LEVEL_CAP
    # levels by itself (C1201(1,2,3) has LEVEL_CAP levels, C1202(1,2,3) one
    # more); m = 2 rows take the lattice route, on both sides of n // 2 =
    # LEVEL_CAP (C401(1,3) and C402(1,3)), and never enter the loop
    grid = plan_sweep(range(5, 61), [2, 3])
    wide = [(2 * LEVEL_CAP + 1, (3,)), (2 * LEVEL_CAP + 2, (3,)),
            (6 * LEVEL_CAP + 1, (2, 3)), (6 * LEVEL_CAP + 2, (2, 3))]
    want = [list_route_row(monkeypatch, n, c) for n, c in wide]
    searches = []
    real = metrics._shift_pairs

    def counting(n, steps):
        if steps and steps[0] == 1:
            searches.append(n)
        return real(n, steps)

    monkeypatch.setattr(metrics, "_shift_pairs", counting)
    assert [verify_instance(n, c).csv_cells() for n, c in grid] == shipped_rows()
    assert [verify_instance(n, c) for n, c in wide] == want
    assert [r.d_circ for r in want[2:]] == [LEVEL_CAP, LEVEL_CAP + 1]
    assert searches == [n for n, c in grid + wide if len(c) > 1]


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
                for i in row.extremal_set], (n, chords)
            seen += 1
    assert seen == 70


def test_level_set_rows_build_no_ggpg_graph(monkeypatch):
    from loopnet import graph_core, transforms

    rows = ((20, (4, 8)), (12, (5,)), (9, (2, 4)))  # gap 2; two walked gap-1 rows
    want = [verify_instance(n, chords) for n, chords in rows]
    for mod, name in ((theorem_lab, "expand"), (transforms, "build_ggpg"),
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
    # double loops on the lattice (two gap-1 rows, a gap-2 row, an a-form
    # row with gcd 3) and an over-cap row on the list route
    for n, chords in ((12, (5,)), (100000, (49999,)), (20, (4,)), (99999, (3,)),
                      (1202, (2, 3))):
        verify_instance(n, chords)
    assert calls == []
    verify_instance(20, (4, 8))
    assert calls


def test_no_chord_keeps_the_expansion_error():
    with pytest.raises(ValueError) as err:
        verify_instance(12, ())
    assert str(err.value) == "expansion needs at least one chord >= 2, got C12(1)"


def test_paranoid_runs_each_all_source_bfs_once(monkeypatch):
    calls = []
    real = metrics.bfs

    def counting(g, src):
        calls.append((g.family, src))
        return real(g, src)

    for mod in (metrics, theorem_lab):
        monkeypatch.setattr(mod, "bfs", counting)
    n = 30
    row = verify_instance(n, (4,), paranoid=True)
    assert row == verify_instance(n, (4,))
    assert len(calls) <= 3 * n + 6
    # every source of both graphs, each at least once
    assert {s for f, s in calls if f == "circulant"} == set(range(n))
    assert {s for f, s in calls if f == "ggpg"} == set(range(2 * n))


def list_route_row(monkeypatch, n, chords):
    """The row as the list kernel alone gives it."""
    with monkeypatch.context() as m:
        m.setattr(theorem_lab, "level_set_summary", lambda g: None)
        m.setattr(metrics.LatticeDistances, "summary", lambda self: None)
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


def test_paranoid_compares_the_two_summaries(monkeypatch):
    real = metrics.level_set_summary

    def doctored(g):
        return real(g)._replace(v_dc=(1,))

    monkeypatch.setattr(theorem_lab, "level_set_summary", doctored)
    assert verify_instance(20, (4, 8)).extremal_set == (1,)  # trusted when not paranoid
    with pytest.raises(RuntimeError, match="route mismatch on C20"):
        verify_instance(20, (4, 8), paranoid=True)


def test_paranoid_keeps_the_shortcut_mismatch_error(monkeypatch):
    real = metrics.all_source_distances

    def skewed(g):
        rows = real(g)
        rows[-1] = tuple(d + 1 for d in rows[-1])  # one source sees farther
        return rows

    for mod in (metrics, theorem_lab):
        monkeypatch.setattr(mod, "all_source_distances", skewed)
    g = build_circulant(12, (1, 5))
    h = expand(g)
    for call, shortcut in ((lambda: diameter_circulant(g, paranoid=True), "ecc"),
                           (lambda: diameter_ggpg(h, paranoid=True), "two-source"),
                           (lambda: check_thm41(g, mode="allpairs"), "ecc"),
                           (lambda: verify_instance(12, (5,), paranoid=True), "ecc")):
        with pytest.raises(RuntimeError, match=f"symmetry shortcut mismatch .*{shortcut}"):
            call()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and every
    block of instances submitted, runs each block in-process at submit,
    and tracks how many blocks are in flight (result not yet taken)."""

    made = []
    blocks = []
    in_flight = peak = 0

    class Block(concurrent.futures.Future):
        def result(self, timeout=None):
            RecordingPool.in_flight -= 1
            return super().result(timeout)

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        pool = RecordingPool
        pool.blocks.append(args[0])
        pool.in_flight += 1
        pool.peak = max(pool.peak, pool.in_flight)
        future = pool.Block()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.made, RecordingPool.blocks = [], []
    RecordingPool.in_flight = RecordingPool.peak = 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


def csv_rows(reports) -> str:
    """The CSV lines of these rows, as a report holds them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(r.csv_cells() for r in reports)
    return buf.getvalue()


@pytest.mark.parametrize("jobs,items,cpus,workers", [
    (100_000, 2, 8, 2),     # never more workers than items
    (3, 9, 2, 2),           # nor than cores
    (4, 9, None, None),     # unknown core count: one worker, no pool
    (2, 1, 8, None),        # one item: no pool
])
def test_run_instances_bounds_the_pool(recording_pool, monkeypatch, jobs, items,
                                       cpus, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    inst = plan_sweep(range(5, 20), [2])[:items]
    got = list(run_instances(iter(inst), jobs=jobs))
    assert recording_pool.made == ([] if workers is None else [workers])
    want = [verify_instance(n, c) for n, c in inst]
    # one block per worker: rendered rows, gap counts, anomaly rows
    assert len(got) == (workers or 1)
    assert "".join(text for text, _, _ in got) == csv_rows(want)
    assert sum((gaps for _, gaps, _ in got), collections.Counter()) == \
        collections.Counter(r.gap for r in want)
    assert [r for _, _, flagged in got for r in flagged] == [r for r in want if r.anomalies]


@pytest.mark.parametrize("jobs,items,sizes", [
    (2, 100, [50, 50]),             # a short run still reaches every worker
    (4, 9, [2, 2, 2, 3]),
    (2, 1100, [512, 512, 38, 38]),  # a full window gives BLOCK_ROWS-row blocks
])
def test_every_worker_gets_a_block_of_a_short_run(recording_pool, monkeypatch, jobs,
                                                  items, sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    inst = plan_sweep(range(5, 80), [2])[:items]
    texts = [text for text, _, _ in run_instances(iter(inst), jobs=jobs)]
    assert recording_pool.made == [jobs]
    assert [len(b) for b in recording_pool.blocks] == sizes
    assert "".join(texts) == csv_rows(verify_instance(n, c) for n, c in inst)


@pytest.mark.parametrize("workers", [2, 3])
def test_run_instances_pulls_its_input_lazily(recording_pool, monkeypatch, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    monkeypatch.setattr(theorem_lab, "BLOCK_ROWS", 16)
    inst = plan_sweep(range(5, 40), [2, 3])
    pulled = done = 0

    def counting():
        nonlocal pulled
        for item in inst:
            pulled += 1
            yield item

    ahead, texts = [], []
    for text, gaps, _ in run_instances(counting(), jobs=8):
        done += sum(gaps.values())
        ahead.append(pulled - done)
        texts.append(text)
    assert "".join(texts) == csv_rows(verify_instance(n, c) for n, c in inst)
    # blocks are the input's contiguous runs of BLOCK_ROWS rows, some of
    # them across ring lengths; the last window of under workers *
    # BLOCK_ROWS rows is cut into workers near-equal blocks
    blocks = recording_pool.blocks
    sizes = [len(b) for b in blocks]
    assert [item for b in blocks for item in b] == inst
    assert sizes[:-workers] == [16] * (len(blocks) - workers)
    assert max(sizes[-workers:]) - min(sizes[-workers:]) <= 1 and max(sizes) == 16
    assert any(b[0][0] != b[-1][0] for b in blocks)
    # at most 2 * workers blocks in flight; beyond them the runner holds
    # only the unsent blocks of the window it is cutting
    assert recording_pool.made == [workers]
    assert recording_pool.peak == 2 * workers
    assert max(ahead) <= (3 * workers - 2) * 16 < len(inst) // 4
    assert pulled == len(inst)


def test_import_leaves_the_process_pool_unloaded():
    probe = ("import sys, loopnet; "
             "print('concurrent.futures.process' in sys.modules, "
             "'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]
