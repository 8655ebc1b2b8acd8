"""Statement checks, report rows, sweep planning, and serialization."""

import collections
import csv
import io
import json
import math
import os
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import (
    TheoremViolation,
    build_circulant,
    check_thm41,
    check_thm42,
    check_thm43,
    check_thm44,
    expand,
    extremal_vertices,
    verify_instance,
)
from loopnet import cli, graph_core, metrics, oracle, theorem_lab
from loopnet.oracle import _sandwich
from loopnet.theorem_lab import (
    REPORT_COLUMNS,
    VerificationReport,
    chord_sets,
    enforce_proven,
    plan_sweep,
    run_instances,
    write_report_csv,
    write_report_json,
)


def test_clean_instance_all_checks_pass():
    r = verify_instance(9, (2,))
    assert (r.d_circ, r.d_ggpg, r.gap) == (2, 4, 2)
    assert r.v_dc == (3, 4, 5, 6)
    assert not r.cond_outer and not r.cond_inner
    assert r.thm41 and r.thm42 and r.thm43_consistent and r.thm44_consistent
    assert r.conj45
    assert r.anomalies == ()
    assert r.witnesses == {}


def test_gap_one_instance_is_a_conjecture_counterexample():
    # ring arcs and the step-5 orbit both reach the two extremal vertices
    # of C12(1,5) in exactly diameter steps, so the characterization
    # predicts gap 1 -- and the actual gap is 1
    r = verify_instance(12, (5,))
    assert (r.d_circ, r.d_ggpg, r.gap) == (3, 4, 1)
    assert r.v_dc == (3, 9)
    assert r.cond_outer and r.cond_inner
    assert r.thm43_consistent and r.thm44_consistent
    assert not r.conj45
    assert any(a.startswith("conj45:") for a in r.anomalies)
    path = r.witnesses["conj45"]["ggpg_diametral_path"]
    assert len(list(path)) - 1 == 4


def test_small_n_breaks_the_gap1_characterization():
    # n=5 single chord 2: the spoke expansion is the classic Petersen
    # graph, gap 1, yet no extremal vertex has a length-1 ring-only path
    r = verify_instance(5, (2,))
    assert (r.d_circ, r.d_ggpg, r.gap) == (1, 2, 1)
    assert not r.cond_outer
    assert not r.thm43_consistent and not r.thm44_consistent
    assert any(a.startswith("thm43:") for a in r.anomalies)
    assert any(a.startswith("thm44:") for a in r.anomalies)
    w = r.witnesses["thm43"]
    assert w["predicted_gap_is_1"] is False and w["gap"] == 1
    assert {e["i"] for e in w["extremal"]} == set(r.v_dc)


def test_check_functions_agree_with_report():
    g = build_circulant(7, [1, 2])
    assert check_thm41(g).ok
    assert check_thm41(g, mode="allpairs").ok
    t42 = check_thm42(g)
    assert t42.ok and t42.gap == 1
    t43 = check_thm43(g)
    assert not t43.predicted_gap_is_1 and t43.actual_gap == 1
    assert not t43.consistent
    assert t43.cond_inner and not t43.cond_outer
    t44 = check_thm44(g)
    assert t44.any_condition_fires and not t44.consistent
    assert len(t44.notes) == 2 and all("third-bullet" in s for s in t44.notes)


def test_orbit_and_allpairs_sandwich_agree():
    for n, gens in [(9, [1, 2]), (12, [1, 5]), (14, [1, 3, 4]), (17, [1, 2, 5, 8])]:
        g = build_circulant(n, gens)
        assert check_thm41(g, mode="orbit").ok == check_thm41(g, mode="allpairs").ok


def test_check_rejects_mismatched_pair():
    # a circulant with no GGPG partner: no generator 1, or no chord
    for g in (build_circulant(9, [2, 3]), build_circulant(9, [1])):
        for check in (check_thm41, check_thm42, check_thm43, check_thm44):
            with pytest.raises(ValueError, match="expansion needs"):
                check(g)


def test_gap_oracles_search_once(monkeypatch):
    # 4.3 and 4.4 each take the circulant from 0, then u0 and v0, once
    calls = []
    real = oracle.bfs

    def counting(g, src):
        calls.append((g.family, src))
        return real(g, src)

    monkeypatch.setattr(oracle, "bfs", counting)
    g = build_circulant(12, [1, 5])
    for check in (check_thm43, check_thm44):
        calls.clear()
        check(g)
        assert calls == [("circulant", 0), ("ggpg", 0), ("ggpg", 12)]


def test_check_thm41_rejects_unknown_mode():
    with pytest.raises(ValueError):
        check_thm41(build_circulant(9, [1, 2]), mode="quick")


def test_extremal_vertices():
    assert extremal_vertices(build_circulant(12, [1, 5])) == [3, 9]
    assert extremal_vertices(build_circulant(9, [1, 2])) == [3, 4, 5, 6]


def test_enforce_proven_raises_on_doctored_reports():
    r = verify_instance(9, (2,))
    assert enforce_proven(r) is r
    with pytest.raises(TheoremViolation):
        enforce_proven(r._replace(thm41=False))
    with pytest.raises(TheoremViolation):
        enforce_proven(r._replace(thm42=False, gap=0))
    # findings never abort
    enforce_proven(verify_instance(5, (2,)))


def test_chord_sets_enumeration():
    assert list(chord_sets(17, 2)) == [(s,) for s in range(2, 9)]
    assert len(list(chord_sets(17, 3))) == 21  # C(7,2)
    assert list(chord_sets(5, 2)) == [(2,)]
    assert list(chord_sets(5, 3)) == []
    with pytest.raises(ValueError):
        chord_sets(17, 1)


def test_plan_sweep_order_and_determinism():
    plan = plan_sweep(range(5, 9), [2, 3])
    assert plan == plan_sweep(range(5, 9), [2, 3])
    ns = [n for n, _ in plan]
    assert ns == sorted(ns)
    # within one n, chord tuples are lexicographic across both sizes
    for n in set(ns):
        cell = [c for m, c in plan if m == n]
        assert cell == sorted(cell)
    assert plan[0] == (5, (2,))
    assert (7, (2, 3)) in plan
    # n_range is not sorted: sorting would list a range that must stay lazy
    assert plan_sweep([9, 5], [2]) == [(9, (2,)), (9, (3,)), (9, (4,)), (5, (2,))]
    assert plan_sweep([7, 7], [2]) == plan_sweep([7], [2]) * 2


def test_plan_sweep_sampling_reproducible():
    kw = dict(sample_cap=3, sample_size=4)
    a = plan_sweep(range(30, 31), [3], seed=1, **kw)
    b = plan_sweep(range(30, 31), [3], seed=1, **kw)
    c = plan_sweep(range(30, 31), [3], seed=2, **kw)
    assert a == b
    assert len(a) == 4
    assert a != c
    universe = set(chord_sets(30, 3))
    assert all(ch in universe for _, ch in a)


def listed_plan(n_range, m_set, *, sample_cap, sample_size, seed):
    """The planner as it was: list each cell whole, then sample the list."""
    instances = []
    for n in n_range:
        per_n = []
        for m in sorted(set(m_set)):
            combos = list(chord_sets(n, m))
            if len(combos) > sample_cap:
                rng = random.Random(f"{seed}:{n}:{m}")
                combos = rng.sample(combos, sample_size)
            per_n.extend(combos)
        per_n.sort()
        instances.extend((n, c) for c in per_n)
    return instances


@pytest.mark.parametrize("n_range,m_set,cap,size,seed", [
    (range(30, 34), [3], 3, 4, 1),
    (range(20, 26), [2, 3, 4], 50, 7, 0),
    (range(40, 43), [4, 5], 100, 30, 9),   # 30 sits above random.sample's small-pool cut
    (range(60, 61), [5], 1000, 200, 3),
])
def test_plan_sweep_sampling_matches_listed_cells(n_range, m_set, cap, size, seed):
    kw = dict(sample_cap=cap, sample_size=size, seed=seed)
    assert plan_sweep(n_range, m_set, **kw) == listed_plan(n_range, m_set, **kw)


def test_plan_sweep_samples_huge_cells_without_listing_them():
    # the cell holds C(498, 4), about 2.5 G chord sets
    start = time.perf_counter()
    plan = plan_sweep(range(1000, 1001), [5], sample_size=5)
    assert time.perf_counter() - start < 5
    assert len(plan) == 5
    assert all(len(c) == 4 and list(c) == sorted(set(c)) and 2 <= c[0] and c[-1] <= 499
               for _, c in plan)


def test_plan_sweep_samples_a_cell_past_sys_maxsize():
    # C(149 998, 4), about 2.1e19 chord sets: its range has no len()
    n = 300_000
    plan = plan_sweep(range(n, n + 1), [5], sample_size=5)
    assert len(set(plan)) == 5 and plan == sorted(plan)
    assert plan == plan_sweep(range(n, n + 1), [5], sample_size=5)
    for _, c in plan:  # admissible: build_circulant's checks pass
        assert tuple(build_circulant(n, (1, *c)).gens) == (1, *c)


def test_unranking_matches_chord_sets_rank_by_rank():
    for n in range(5, 41):
        for m in range(2, 6):
            cell = list(chord_sets(n, m))
            assert [theorem_lab._unrank_chord_set(r, n, m)
                    for r in range(len(cell))] == cell, (n, m)


def test_unranking_is_logarithmic_in_n():
    # the first, middle and last of 499 998 and of C(499 998, 2) chord sets
    start = time.perf_counter()
    got = [[theorem_lab._unrank_chord_set(r, 10**6, m) for r in (0, total // 2, total - 1)]
           for m, total in ((2, 499_998), (3, 124_998_750_003))]
    assert time.perf_counter() - start < 0.05  # one index at a time: about 0.3 s on a 2-core x86 machine
    assert got == [[(2,), (250_001,), (499_999,)],
                   [(2, 3), (146_447, 456_574), (499_998, 499_999)]]


def test_plan_sweep_sample_larger_than_cell_takes_it_whole():
    whole = plan_sweep(range(20, 23), [3])
    assert plan_sweep(range(20, 23), [3], sample_cap=10, sample_size=50) == whole


@settings(max_examples=100, deadline=None)
@given(n_lo=st.integers(5, 300), span=st.integers(0, 2),
       m_set=st.sets(st.sampled_from([2, 3, 4]), min_size=1),
       cap=st.integers(0, 300), size=st.integers(1, 40), seed=st.integers(0, 2 ** 16))
def test_planned_rows_are_admissible(n_lo, span, m_set, cap, size, seed):
    # a level-set row builds no graph, so nothing on the row path checks it:
    # every row _plan makes, from listed and sampled cells alike, must pass
    # build_circulant's checks
    cells = collections.Counter()
    for n, chords in theorem_lab._plan(range(n_lo, n_lo + span + 1), m_set,
                                       sample_cap=cap, sample_size=size, seed=seed):
        build_circulant(n, (1,) + chords)
        cells[n, len(chords) + 1] += 1
    for n in range(n_lo, n_lo + span + 1):
        for m in m_set:  # a listed cell whole, a sampled one at its sample size
            total = math.comb(graph_core.max_generator(n) - 1, m - 1)
            assert cells[n, m] == (total if total <= cap else min(size, total))


@pytest.mark.parametrize("n, chords, match", [
    (200, (150,), "floor"),      # a double loop on the lattice route: 150 > floor(199 / 2)
    (1202, (2, 1200), "floor"),  # the list kernel, as C_1202(1, 2) has D = 301 > LEVEL_CAP
    # level sets, which build no graph
    (20, (15,), "floor"),
    (500, (3, 260, 270), "floor"),
    (60, (5, 3), "strictly increasing"),
    (60, (3, 3), "strictly increasing"),
    # no chord: expand's refusal, on the lattice's ring length and below it
    (200, (), "expansion needs at least one chord >= 2, got C200(1)"),
    (60, (), "expansion needs at least one chord >= 2, got C60(1)"),
])
def test_an_inadmissible_row_raises_on_every_route(n, chords, match):
    # FamilyParameterError is a ValueError: run_facts admits every row
    with pytest.raises(ValueError, match=re.escape(match)):
        next(metrics.run_facts([(n, chords)]))


def test_sandwich_vector_check_agrees_with_ordered_loop():
    n = 12
    g = build_circulant(n, [1, 5])
    h = expand(g)
    from loopnet import bfs

    dc0 = list(bfs(g, 0))
    du, dv = list(bfs(h, 0)), list(bfs(h, n))
    row = [(0, dc0, du, dv)]  # source 0's row, as the merged loop reads it
    assert _sandwich(g, h, row).ok
    for vec, y, bad, pair in ((du, 3, 0, ("u0", "u3")), (dv, n + 7, 9, ("v0", "v7"))):
        saved, vec[y] = vec[y], bad
        got = _sandwich(g, h, row)
        assert not got.ok and got.witness == (0, y % n, *pair, dc0[y % n], bad)
        vec[y] = saved


def test_plan_sweep_rejects_bad_parameters():
    with pytest.raises(ValueError):
        plan_sweep(range(4, 6), [2])
    with pytest.raises(ValueError):
        plan_sweep(range(5, 6), [1, 2])
    with pytest.raises(ValueError):
        plan_sweep(range(5, 6), [])


def test_plan_sweep_reads_an_iterator_of_ring_lengths_once():
    # each ring length is checked as it is planned, so n_range is read once
    want = plan_sweep(range(5, 9), [2])
    assert len(want) == 6
    assert plan_sweep(iter(range(5, 9)), [2]) == want
    assert plan_sweep((n for n in range(5, 9)), [2, 3]) == plan_sweep(range(5, 9), [2, 3])


def test_the_planner_reads_ring_lengths_once_lazily():
    read = []

    def ring_lengths(ns):
        for n in ns:
            read.append(n)
            yield n

    plan = theorem_lab._plan(ring_lengths(range(5, 10)), [2])
    assert read == []  # the generator counts alone are checked at once
    assert next(plan) == (5, (2,))
    assert read == [5]
    assert [(5, (2,)), *plan] == plan_sweep(range(5, 10), [2])
    assert read == [5, 6, 7, 8, 9]
    # a ring length below 5 is refused as it is planned, after the rings before it
    read.clear()
    plan = theorem_lab._plan(ring_lengths([5, 3, 6]), [2])
    assert next(plan) == (5, (2,))
    with pytest.raises(ValueError, match=r"^ring length must be >= 5, got 3$"):
        next(plan)
    assert read == [5, 3]


@pytest.mark.parametrize("n, d_circ", [
    (20, [5, 4, 4, 4]),  # below DOUBLE_LOOP_LEVELS_BELOW: one level loop for the run
    (200, [34, 22]),     # above it: the lattice, after a filter pass over the run
])
def test_a_run_passed_as_an_iterator_keeps_every_row(n, d_circ):
    # run_facts lists the run it cuts from its row stream, then reads it twice
    assert 20 < metrics.DOUBLE_LOOP_LEVELS_BELOW <= 200
    rows = [(n, c) for c in ([(2,), (3,), (4,), (5,)] if n == 20 else [(3,), (5,)])]
    want = list(metrics.run_facts(rows))
    assert [facts.d_circ for *_, facts, _ in want] == d_circ
    assert list(metrics.run_facts(iter(rows))) == want
    reports = theorem_lab._verify_rows(rows, False)
    assert [r.d_circ for r in reports] == d_circ
    assert theorem_lab._verify_rows(iter(rows), False) == reports


@pytest.mark.parametrize("paranoid", [False, True])
def test_rows_that_cross_rings_equal_their_rows_one_at_a_time(paranoid):
    # a generator over three rings, ring 20 coming back after ring 200 (the
    # lattice and level sets) and ring 7: each run gets its own level loop
    assert 20 < metrics.DOUBLE_LOOP_LEVELS_BELOW <= 200
    rows = [(20, (3,)), (20, (2, 5)), (200, (5,)), (200, (2, 3)), (20, (4,)),
            (7, (2,)), (20, (5,))]
    facts = list(metrics.run_facts(row for row in rows))
    assert [(n, c) for n, c, *_ in facts] == rows
    assert [route for _, _, route, _, _ in facts] == \
        ["level sets"] * 2 + ["lattice"] + ["level sets"] * 4
    assert facts == [next(metrics.run_facts([row])) for row in rows]
    assert theorem_lab._verify_rows((row for row in rows), paranoid) == \
        [verify_instance(n, c, paranoid=paranoid) for n, c in rows]


def test_run_instances_parallel_order_matches_serial(monkeypatch):
    monkeypatch.setattr(theorem_lab, "BLOCK_ROWS", 5)  # several blocks
    inst = plan_sweep(range(5, 14), [2])
    serial = list(run_instances(inst, jobs=1))
    parallel = list(run_instances(inst, jobs=2))
    assert len(serial) == -(-len(inst) // 5)

    def merged(blocks):  # the blocks' texts, gap counts and anomaly rows
        return ("".join(t for t, _, _ in blocks), sum((g for _, g, _ in blocks),
                collections.Counter()), [r for _, _, f in blocks for r in f])

    assert merged(serial) == merged(parallel)
    rows = [line.split(",") for line in merged(serial)[0].splitlines()]
    assert [(int(r[0]), r[1]) for r in rows] == \
        [(n, "-".join(map(str, (1,) + c))) for n, c in inst]
    assert all(r[9] == r[10] == "true" for r in rows)  # thm41, thm42


# rows whose blocks run metrics.run_facts over same-n runs that mix routes
BLOCK_RUNS = {
    "shipped grid": plan_sweep(range(5, 61), [2, 3]),
    # the three-chord loop, as the sampled-m4 benchmark draws it
    "sampled m4": plan_sweep(range(500, 505), [4], sample_size=20, seed=7),
    # DOUBLE_LOOP_LEVELS_BELOW = 128: from there the runs' double loops
    # take the lattice between level-set rows
    "double-loop boundary": plan_sweep(range(126, 130), [2, 3]),
    # C1201(1, 2, 3) has LEVEL_CAP levels, C1202(1, 2, 3) one more: a row
    # that leaves the loop for the list kernel amid level-set and lattice rows
    "cap sides": [(1201, (2, 3)), (1201, (7, 600)), (1201, (600,)), (1202, (2, 3)),
                  (1202, (5,)), (1202, (9, 500))],
    # one row the loop gives up on after LEVEL_CAP levels, within its ring
    # bound (D = 201), then one it keeps (D = 146)
    "past the cap at n = 1e5": [(100000, (402, 404)), (100000, (3001, 27004))],
}


# A paranoid block runs oracle.check_row's quadratic pass on every row, so
# its rows are short.  With LEVEL_CAP lowered to 12, two runs on rings of
# 128 and 129 take every route: the lattice (a gap-1 row among them), level
# sets (a gap-1 row too), and the list kernel both at once by the ring
# bound (C(1, 2, 3), C(1, 2, 5)) and after LEVEL_CAP levels (C(1, 2, 62))
PARANOID_CAP = 12
PARANOID_RUN = [(128, (3,)), (128, (63,)), (128, (2, 3)), (128, (2, 6)),
                (128, (2, 62)), (128, (12, 33)), (129, (2, 5)), (129, (11, 25))]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows,paranoid", [
    *(pytest.param(rows, False, id=name) for name, rows in BLOCK_RUNS.items()),
    pytest.param(PARANOID_RUN, True, id="paranoid, every route under a cap of 12"),
])
def test_a_block_equals_its_rows_one_at_a_time(monkeypatch, rows, paranoid, fmt):
    if paranoid:
        monkeypatch.setattr(metrics, "LEVEL_CAP", PARANOID_CAP)
        assert {next(metrics.run_facts([(n, c)]))[2] for n, c in rows} == \
            {"lattice", "level sets", "list kernel"}
    want = [verify_instance(n, c, paranoid=paranoid) for n, c in rows]
    got = [theorem_lab._verify_block(b, paranoid, fmt) for b in theorem_lab._blocks(rows)]
    assert "".join(t for t, _, _ in got) == theorem_lab._render_rows(want, fmt)
    assert sum((g for _, g, _ in got), collections.Counter()) == \
        collections.Counter(r.gap for r in want)
    assert [r for _, _, f in got for r in f] == [r for r in want if r.anomalies]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_paranoid_fails_a_fault_in_the_second_row_of_a_run(jobs, tmp_path, monkeypatch,
                                                          capsys, cores):
    # the level loop doctored on the second row of each run it walks: a row
    # checked as a one-row run never shows the fault, so --paranoid has to
    # check the facts of the block loop that every plain row runs
    real = metrics.level_set_summaries

    def doctored(n, chord_sets):
        for k, facts in enumerate(real(n, chord_sets)):
            yield facts._replace(v_dc=(1,)) if k == 1 else facts

    run = [(20, (2, 3)), (20, (2, 5)), (20, (3, 4))]
    want = [verify_instance(n, c) for n, c in run]
    monkeypatch.setattr(metrics, "level_set_summaries", doctored)
    assert [verify_instance(n, c, paranoid=True) for n, c in run] == want
    text, _, _ = theorem_lab._verify_block(run, False, "csv")  # plain rows take the fault
    assert text != theorem_lab._render_rows(want, "csv")
    with pytest.raises(TheoremViolation, match=r"^route mismatch on C20\(1,2,5\): level sets "):
        theorem_lab._verify_block(run, True, "csv")
    # the CLI plans the 28 rows of n = 20, m = 3 as one run, or at --jobs 2
    # as two of 14, and names the second row of the first, C20(1, 2, 4)
    cores(2)
    for out in (["--out", str(tmp_path / "report.csv")], []):
        argv = ["verify", "--n", "20", "--m", "3", "--paranoid", "--jobs", jobs, *out]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(r"theorem violation: route mismatch on C20\(1,2,4\): "
                            r"level sets [^\n]*\n", captured.err), captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


def test_allpairs_and_paranoid_catch_a_sandwich_violation_off_source_0(monkeypatch):
    # d_p(u_5, u_8) doctored to 0 < d_c(5, 8): no eccentricity grows, so
    # only the sandwich over source 5's row can see it
    n, chords = 12, (5,)
    g = build_circulant(n, (1,) + chords)
    plain = verify_instance(n, chords)
    real = oracle.bfs

    def doctored(gr, src):
        vec = real(gr, src)
        return vec[:8] + (0,) + vec[9:] if (gr.family, src) == ("ggpg", 5) else vec

    monkeypatch.setattr(oracle, "bfs", doctored)
    assert verify_instance(n, chords) == plain  # no list BFS when not paranoid
    want = (5, 8, "u5", "u8", real(g, 5)[8], 0)
    assert check_thm41(g, mode="orbit").ok
    assert check_thm41(g, mode="allpairs") == (False, want)
    row = verify_instance(n, chords, paranoid=True)
    assert not row.thm41 and row.witnesses["thm41"] == {"pair": list(want)}
    assert row.anomalies == ("thm41: sandwich violated",) + plain.anomalies

    def farther(gr, src):  # and the last source sees farther: the shortcut
        vec = doctored(gr, src)  # mismatch outranks the sandwich witness
        return tuple(d + 1 for d in vec) if src == gr.num_vertices - 1 else vec

    monkeypatch.setattr(oracle, "bfs", farther)
    for call in (lambda: check_thm41(g, mode="allpairs"),
                 lambda: verify_instance(n, chords, paranoid=True)):
        with pytest.raises(RuntimeError, match=r"symmetry shortcut mismatch .*ecc\(0\)"):
            call()


def csv_cells(r):
    """A row's cells as csv.writer takes them: the reference for the
    direct line, VerificationReport.csv_line."""
    flags = (r.cond_outer, r.cond_inner, r.thm41, r.thm42, r.thm43_consistent,
             r.thm44_consistent, r.conj45)
    return [str(r.n), "-".join(map(str, r.gens)),
            *map(str, (r.chords, r.d_circ, r.d_ggpg, r.gap)),
            "-".join(map(str, r.v_dc)),
            *["true" if b else "false" for b in flags], "; ".join(r.anomalies)]


def csv_writer_line(cells, end="\n"):
    buf = io.StringIO()
    csv.writer(buf, lineterminator=end).writerow(cells)
    return buf.getvalue()


def test_csv_line_equals_csv_writer_on_the_shipped_grid():
    rows = [verify_instance(n, c) for n, c in plan_sweep(range(5, 61), [2, 3])]
    assert len(rows) == 8120 and sum(bool(r.anomalies) for r in rows) == 135
    assert [r.csv_line() for r in rows] == [csv_writer_line(csv_cells(r)) for r in rows]


# every anomaly text verify_instance writes, thm42's with its comma
ANOMALY_TEXTS = ("thm41: sandwich violated", "thm42: gap=3 outside {1,2}",
                 "thm43: predicted_gap_is_1=false but gap=1",
                 "thm44: conditions fire but gap=1", "conj45: gap=1 instance")


@pytest.mark.parametrize("anomalies", [
    *((text,) for text in ANOMALY_TEXTS), ANOMALY_TEXTS, (),
    ('say "1,2"',), ('"',), ("a\nb", "c"), ("a\rb",), ("\r\n",), ("x", ""),
])
def test_csv_line_quotes_as_csv_writer(anomalies):
    r = verify_instance(12, (5,))._replace(anomalies=anomalies)
    cells, line = csv_cells(r), r.csv_line()
    # with a "\n" line end, csv.writer leaves a bare \r unquoted on Python
    # <= 3.11, and csv.reader then takes it for a line break; with "\r\n"
    # every version quotes it, as the direct line does
    assert line == csv_writer_line(cells, "\r\n")[:-2] + "\n"
    if "\r" not in cells[-1]:
        assert line == csv_writer_line(cells)
    assert list(csv.reader(io.StringIO(line, newline=""))) == [cells]


def test_csv_writer_layout():
    rows = [verify_instance(9, (2,)), verify_instance(12, (5,))]
    buf = io.StringIO()
    write_report_csv(rows, buf, "loopnet test | flags | seed=0")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# loopnet test | flags | seed=0"
    assert lines[1] == ",".join(REPORT_COLUMNS)
    assert VerificationReport._fields == (*REPORT_COLUMNS, "witnesses")
    assert lines[2].startswith("9,1-2,1,2,4,2,3-4-5-6,false,false,true,true,")
    assert lines[3].split(",")[:7] == ["12", "1-5", "1", "3", "4", "1", "3-9"]
    # rerun is byte-identical
    buf2 = io.StringIO()
    write_report_csv(rows, buf2, "loopnet test | flags | seed=0")
    assert buf.getvalue() == buf2.getvalue()


def test_json_writer_carries_witnesses():
    rows = [verify_instance(12, (5,))]
    buf = io.StringIO()
    write_report_json(rows, buf, {"tool": "loopnet", "seed": 0})
    data = json.loads(buf.getvalue())
    assert data["header"]["seed"] == 0
    rec = data["reports"][0]
    assert rec["gap"] == 1 and rec["conj45"] is False
    assert "ggpg_diametral_path" in rec["witnesses"]["conj45"]


@st.composite
def path_labels(draw):
    """A conj45 label sequence: a ring run of GGPG ids, of the kind
    diametral_path returns (u_0 ... u_{D+1}) and more (any start)."""
    a = draw(st.integers(0, 10**6))
    return theorem_lab.PathLabels(range(a, a + draw(st.integers(1, 8))))


# what a report may hold: str-keyed dicts, lists and tuples (empty ones
# too), any str (quotes, backslashes, control characters, lone
# surrogates), ints of any size and sign, bools, None and conj45 label
# sequences (which json.dumps renders as lists by default=list)
JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\u2028\ud800\udfff\U0001f600')
                    | st.characters(exclude_categories=()))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.integers(max_value=-2**64) | JSON_TEXT | path_labels(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_text_equals_json_dumps(value):
    want = json.dumps(value, indent=2, sort_keys=True, allow_nan=False, default=list)
    assert theorem_lab._json_text(value) == theorem_lab._json_text(value, "\n") == want
    # a record two levels deep, as _render_rows places it
    assert theorem_lab._json_text(value, "\n    ") == want.replace("\n", "\n    ")


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES, st.floats(allow_nan=True, allow_infinity=True))
def test_json_text_rejects_floats(value, number):
    for holder in (number, [value, number], {"key": [number]}, (value, {"x": number})):
        with pytest.raises(ValueError, match="a report holds no float"):
            theorem_lab._json_text(holder)
    with pytest.raises(TypeError, match="a report holds no set"):
        theorem_lab._json_text([value, {1}])
