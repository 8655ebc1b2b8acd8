"""Statement checks, report rows, sweep planning, and serialization."""

import collections
import io
import random
import time

import pytest

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
from loopnet import theorem_lab
from loopnet.theorem_lab import (
    REPORT_COLUMNS,
    _sandwich_from_vectors,
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
    assert r.extremal_set == (3, 4, 5, 6)
    assert not r.cond_outer and not r.cond_inner
    assert r.thm41_ok and r.thm42_ok and r.thm43_ok and r.thm44_ok
    assert r.conj45_holds
    assert r.anomalies == ()
    assert r.witnesses == {}


def test_gap_one_instance_is_a_conjecture_counterexample():
    # ring arcs and the step-5 orbit both reach the two extremal vertices
    # of C12(1,5) in exactly diameter steps, so the characterization
    # predicts gap 1 -- and the actual gap is 1
    r = verify_instance(12, (5,))
    assert (r.d_circ, r.d_ggpg, r.gap) == (3, 4, 1)
    assert r.extremal_set == (3, 9)
    assert r.cond_outer and r.cond_inner
    assert r.thm43_ok and r.thm44_ok
    assert not r.conj45_holds
    assert any(a.startswith("conj45:") for a in r.anomalies)
    path = r.witnesses["conj45"]["ggpg_diametral_path"]
    assert len(path) - 1 == 4


def test_small_n_breaks_the_gap1_characterization():
    # n=5 single chord 2: the spoke expansion is the classic Petersen
    # graph, gap 1, yet no extremal vertex has a length-1 ring-only path
    r = verify_instance(5, (2,))
    assert (r.d_circ, r.d_ggpg, r.gap) == (1, 2, 1)
    assert not r.cond_outer
    assert not r.thm43_ok and not r.thm44_ok
    assert any(a.startswith("thm43:") for a in r.anomalies)
    assert any(a.startswith("thm44:") for a in r.anomalies)
    w = r.witnesses["thm43"]
    assert w["predicted_gap_is_1"] is False and w["gap"] == 1
    assert {e["i"] for e in w["extremal"]} == set(r.extremal_set)


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
    real = theorem_lab.bfs

    def counting(g, src):
        calls.append((g.family, src))
        return real(g, src)

    monkeypatch.setattr(theorem_lab, "bfs", counting)
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
        enforce_proven(r._replace(thm41_ok=False))
    with pytest.raises(TheoremViolation):
        enforce_proven(r._replace(thm42_ok=False, gap=0))
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


def test_sandwich_vector_check_agrees_with_ordered_loop():
    n = 12
    g = build_circulant(n, [1, 5])
    h = expand(g)
    from loopnet import bfs

    dc0 = list(bfs(g, 0))
    du, dv = list(bfs(h, 0)), list(bfs(h, n))
    assert _sandwich_from_vectors(n, dc0, du, dv).ok
    for vec, y, bad in ((du, 3, 0), (dv, n + 7, 9)):
        saved, vec[y] = vec[y], bad
        assert not _sandwich_from_vectors(n, dc0, du, dv).ok
        vec[y] = saved


def test_plan_sweep_rejects_bad_parameters():
    with pytest.raises(ValueError):
        plan_sweep(range(4, 6), [2])
    with pytest.raises(ValueError):
        plan_sweep(range(5, 6), [1, 2])
    with pytest.raises(ValueError):
        plan_sweep(range(5, 6), [])


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


def test_paranoid_selects_the_allpairs_sandwich(monkeypatch):
    modes = []
    real = theorem_lab.check_thm41

    def recording(gc, mode="orbit"):
        modes.append(mode)
        return real(gc, mode=mode)

    monkeypatch.setattr(theorem_lab, "check_thm41", recording)
    plain = verify_instance(12, (5,))
    assert modes == []
    assert verify_instance(12, (5,), paranoid=True) == plain
    assert modes == ["allpairs"]


def test_csv_writer_layout():
    rows = [verify_instance(9, (2,)), verify_instance(12, (5,))]
    buf = io.StringIO()
    write_report_csv(rows, buf, "loopnet test | flags | seed=0")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# loopnet test | flags | seed=0"
    assert lines[1] == ",".join(REPORT_COLUMNS)
    assert lines[2].startswith("9,1-2,1,2,4,2,3-4-5-6,false,false,true,true,")
    assert lines[3].split(",")[:7] == ["12", "1-5", "1", "3", "4", "1", "3-9"]
    # rerun is byte-identical
    buf2 = io.StringIO()
    write_report_csv(rows, buf2, "loopnet test | flags | seed=0")
    assert buf.getvalue() == buf2.getvalue()


def test_json_writer_carries_witnesses():
    import json

    rows = [verify_instance(12, (5,))]
    buf = io.StringIO()
    write_report_json(rows, buf, {"tool": "loopnet", "seed": 0})
    data = json.loads(buf.getvalue())
    assert data["header"]["seed"] == 0
    rec = data["reports"][0]
    assert rec["gap"] == 1 and rec["conj45"] is False
    assert "ggpg_diametral_path" in rec["witnesses"]["conj45"]
