"""The level-set route against the list route and the statement oracles,
on both sides of LEVEL_CAP; plus the bounded, lazily imported worker pool."""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import (
    build_circulant,
    check_thm41,
    check_thm42,
    check_thm43,
    check_thm44,
    expand,
    extremal_vertices,
    verify_instance,
)
from loopnet import metrics, theorem_lab
from loopnet.graph_core import max_generator
from loopnet.metrics import LEVEL_CAP, instance_distances, level_set_summary
from loopnet.theorem_lab import plan_sweep, run_instances


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_level_set_summary_matches_list_route_and_oracles(data):
    n = data.draw(st.integers(5, 3000), label="n")
    hi = max_generator(n)
    k = data.draw(st.integers(1, min(3, hi - 1)), label="chords")
    chords = sorted(data.draw(st.lists(st.integers(2, hi), min_size=k,
                                       max_size=k, unique=True), label="set"))
    g = build_circulant(n, [1] + chords)
    h, corr = expand(g)
    listed = instance_distances(g).summary()
    fast = level_set_summary(g)
    if listed.d_circ > LEVEL_CAP:
        assert fast is None
    else:
        assert fast == listed
    t42, t43, t44 = check_thm42(g, h), check_thm43(g, h), check_thm44(g, h)
    assert (listed.d_circ, listed.d_ggpg) == (t42.d_circ, t42.d_ggpg)
    assert list(listed.v_dc) == extremal_vertices(g)
    assert (listed.cond_outer, listed.cond_inner) == (t43.cond_outer, t43.cond_inner)
    assert t44.any_condition_fires == (not (listed.cond_outer and listed.cond_inner))
    assert listed.sandwich_ok == check_thm41(g, h, corr).ok


def test_level_set_summary_on_the_grid():
    for n, chords in plan_sweep(range(5, 41), [2, 3, 4]):
        g = build_circulant(n, (1,) + chords)
        assert level_set_summary(g) == instance_distances(g).summary(), (n, chords)


def test_level_set_summary_spots_a_broken_sandwich(monkeypatch):
    g = build_circulant(20, (1, 4, 8))
    assert level_set_summary(g).sandwich_ok
    real = metrics._spread

    def lagging(x, n, steps):
        # chord steps lead nowhere: d_p on the GGPG graph grows past d_c + 2
        return 0 if tuple(steps) == (4, 8) else real(x, n, steps)

    monkeypatch.setattr(metrics, "_spread", lagging)
    assert not level_set_summary(g).sandwich_ok


def list_route_row(monkeypatch, n, chords):
    """The row as the list kernel alone gives it."""
    with monkeypatch.context() as m:
        m.setattr(theorem_lab, "level_set_summary", lambda g: None)
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


@pytest.mark.parametrize("n,chords", [(12, (5,)), (40, (8, 19)), (7, (2,)), (20, (4, 8))])
def test_few_level_rows_equal_the_list_route(monkeypatch, n, chords):
    # gap-1 rows (level-set verdicts, list witness), a thm43 inconsistency
    # and a plain gap-2 row
    g = build_circulant(n, (1,) + chords)
    assert level_set_summary(g) is not None
    row = verify_instance(n, chords)
    assert row == list_route_row(monkeypatch, n, chords)
    assert (row.gap == 1) == ("conj45" in row.witnesses)


def test_paranoid_compares_the_two_summaries(monkeypatch):
    real = metrics.level_set_summary

    def doctored(g):
        return dataclasses.replace(real(g), v_dc=(1,))

    monkeypatch.setattr(theorem_lab, "level_set_summary", doctored)
    assert verify_instance(20, (4, 8)).extremal_set == (1,)  # trusted when not paranoid
    with pytest.raises(RuntimeError, match="route mismatch on C20"):
        verify_instance(20, (4, 8), paranoid=True)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("jobs,items,cpus,workers", [
    (100_000, 2, 8, 2),     # never more workers than items
    (3, 9, 2, 2),           # nor than cores
    (4, 9, None, None),     # unknown core count: one worker, no pool
    (2, 1, 8, None),        # one item: no pool
])
def test_run_instances_bounds_the_pool(monkeypatch, jobs, items, cpus, workers):
    import concurrent.futures

    RecordingPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    inst = plan_sweep(range(5, 20), [2])[:items]
    got = list(run_instances(inst, jobs=jobs))
    assert RecordingPool.made == ([] if workers is None else [workers])
    assert got == [verify_instance(n, c) for n, c in inst]


def test_import_leaves_the_process_pool_unloaded():
    probe = ("import sys, loopnet; "
             "print('concurrent.futures.process' in sys.modules, "
             "'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]
