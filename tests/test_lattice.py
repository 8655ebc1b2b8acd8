"""The lattice route for double loops C_n(1, s) against the list kernel and
the BFS oracles: every row with n <= 400 (and there the level-set summary
and the walked conj45 witness against a FIFO search), random rows with
n < 2 * 10^5, named rows of both envelope forms (with gcd(n, s) = 1 and
> 1) at n near 10^5, random rows; its pointwise distances against the
kernel's vectors; which route a double loop takes and what it skips; and
what --paranoid still compares it with."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopnet import bfs, build_circulant, expand, inner_only_distances, verify_instance
from loopnet import metrics, theorem_lab
from loopnet.graph_core import max_generator
from loopnet.metrics import (
    DOUBLE_LOOP_LEVELS_BELOW,
    _peaks,
    _relax,
    _value_at,
    instance_distances,
    lattice_distances,
    level_set_summary,
)
from test_instance_kernel import reference_witness


def test_lattice_summary_on_every_small_double_loop():
    rows, gap1 = 0, set()
    for n in range(5, 401):
        for s in range(2, max_generator(n) + 1):
            g = build_circulant(n, (1, s))
            lattice, dist = lattice_distances(g), instance_distances(g)
            facts = lattice.summary()
            assert facts == dist.summary(), (n, s)
            # D <= n / 2 <= LEVEL_CAP, so level sets give a summary on every row
            assert level_set_summary(g) == facts, (n, s)
            if n <= 120:
                assert [lattice.circ_at(x) for x in range(n)] == dist.circ, (n, s)
                assert [lattice.chord_at(x) for x in range(n)] == dist.chord_only
            if facts.d_ggpg == facts.d_circ + 1:
                path = verify_instance(n, (s,)).witnesses["conj45"]["ggpg_diametral_path"]
                assert path == reference_witness(n, (s,)), (n, s)
                gap1.add((n, s))
            rows += 1
    assert rows == 39402
    # C_{4k}(1, 2k - 1) for 3 <= k <= 100, C5(1,2), C7(1,2) and C7(1,3)
    assert gap1 == {(4 * k, 2 * k - 1) for k in range(3, 101)} | {(5, 2), (7, 2), (7, 3)}


def test_lattice_summary_on_random_large_double_loops():
    rng = random.Random("lattice-large")
    for _ in range(12):
        n = rng.randrange(5, 200_000)
        g = build_circulant(n, (1, rng.randrange(2, max_generator(n) + 1)))
        lattice, dist = lattice_distances(g), instance_distances(g)
        assert lattice.summary() == dist.summary(), g.label()
        for x in rng.sample(range(n), 200):
            assert lattice.circ_at(x) == dist.circ[x], (g.label(), x)
            assert lattice.chord_at(x) == dist.chord_only[x], (g.label(), x)


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_lattice_summary_is_invariant_under_the_chord_swap(n):
    # with gcd(n, s) = 1, x -> x / s mod n maps C_n(1, s) onto C_n(1, s')
    # with s' = min(1/s, n - 1/s) and swaps its ring and chord steps: D and
    # the gap stay, V_Dc maps onto V_Dc', near' is the image of the V_Dc
    # points with ring(i) = D + 1, and the two conditions and the two GGPG
    # eccentricities trade places.  The reduced lattices are transposes, so
    # most pairs compare the b-form envelope with the a-form one, at sizes
    # where no BFS oracle runs.
    rng = random.Random(f"chord-swap-{n}")
    rows = [3, n // 2 - 1]  # an a-form row; the gap-1 row, its own swap
    while len(rows) < 10:
        s = rng.randrange(2, max_generator(n) + 1)
        if math.gcd(n, s) == 1:
            rows.append(s)
    forms = set()
    for s in rows:
        inv = pow(s, -1, n)
        lat, swapped = (lattice_distances(build_circulant(n, (1, t)))
                        for t in (s, min(inv, n - inv)))
        forms.add((lat.b_form, swapped.b_form))
        a, b = lat.summary(), swapped.summary()
        assert (b.d_circ, b.d_ggpg - b.d_circ) == (a.d_circ, a.d_ggpg - a.d_circ)
        assert list(b.v_dc) == sorted(i * inv % n for i in a.v_dc), (n, s)
        assert list(b.near) == sorted(i * inv % n for i in a.v_dc
                                      if min(i, n - i) == a.d_circ + 1)
        assert (b.cond_outer, b.cond_inner) == (a.cond_inner, a.cond_outer)
        assert (b.ecc_u0, b.ecc_v0) == (a.ecc_v0, a.ecc_u0)
    assert {(False, True), (True, False)} <= forms


@pytest.mark.parametrize("n,s", [
    (9, 2),            # a-form, gcd 1; V_Dc = {3, 4, 5, 6}
    (100000, 2),       # a-form, gcd 2
    (100000, 3),       # a-form, gcd 1
    (100000, 4),       # a-form, gcd 4
    (100000, 24999),   # b-form, gcd 1
    (100000, 12500),   # b-form, gcd 12500
    (100000, 49999),   # b-form, gcd 1; the ring-1e5 gap-1 row
    (99990, 33330),    # b-form, gcd 33330: three chord classes
    (99999, 3),        # a-form, gcd 3
])
def test_lattice_summary_on_named_rows(n, s):
    g = build_circulant(n, (1, s))
    fast = lattice_distances(g).summary()
    assert fast == instance_distances(g).summary()
    if n == 9:
        assert fast.v_dc == (3, 4, 5, 6)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lattice_summary_matches_list_route_and_oracles(data):
    n = data.draw(st.integers(5, 3000), label="n")
    s = data.draw(st.integers(2, max_generator(n)), label="s")
    g = build_circulant(n, (1, s))
    fast = lattice_distances(g).summary()
    assert fast == instance_distances(g).summary()
    dc0, chord = bfs(g, 0), inner_only_distances(g)
    d = max(dc0)
    assert fast.d_circ == d
    assert fast.v_dc == tuple(i for i in g.vertices() if dc0[i] == d)
    assert fast.near == tuple(i for i in fast.v_dc if chord[i] == d + 1)
    h = expand(g)
    assert (fast.ecc_u0, fast.ecc_v0) == (max(bfs(h, h.outer(0))),
                                          max(bfs(h, h.inner(0))))


@settings(max_examples=300, deadline=None)
@given(m=st.integers(2, 40),
       tents=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 9)),
                      min_size=1, max_size=8))
@example(m=10, tents=[(0, 9), (7, 0), (8, 9)])  # the best path to 0 wraps
def test_envelope_of_any_tents_matches_brute_force(m, tents):
    # tents the lattice never builds too: ties, far-off wraps, high tents
    tents = [(c % m, h) for c, h in tents]
    value = [min(h + min((x - c) % m, (c - x) % m) for c, h in tents)
             for x in range(m)]
    cs, hs, gaps = _relax(m, [c * 10 + h for c, h in tents], 10)
    top, points = _peaks(m, cs, hs, gaps)
    assert top == max(value)
    assert sorted(set(points)) == [x for x in range(m) if value[x] == top]
    assert [_value_at(m, cs, hs, x) for x in range(m)] == value


@pytest.mark.parametrize("gens", [(1, 4, 8), (1,), (2, 5)])
def test_lattice_summary_takes_only_double_loops(gens):
    with pytest.raises(ValueError, match="lattice route needs C_n"):
        lattice_distances(build_circulant(20, gens))


def test_double_loop_rows_take_the_lattice_route_alone(monkeypatch):
    # from DOUBLE_LOOP_LEVELS_BELOW up; shorter rings take level sets alone
    long = [(DOUBLE_LOOP_LEVELS_BELOW, (3,)), (132, (65,)), (804, (401,)), (1000, (2,)),
            (100000, (49999,)), (99999, (3,))]
    short = [(12, (5,)), (9, (2,)), (7, (3,)), (DOUBLE_LOOP_LEVELS_BELOW - 1, (63,)),
             (20, (4, 8))]
    want = [verify_instance(n, c) for n, c in long + short]
    calls = {"lattice_distances": 0, "level_set_summary": 0, "instance_distances": 0}

    def counted(name):
        real = getattr(theorem_lab, name)

        def wrapper(g):
            calls[name] += 1
            return real(g)
        return wrapper

    for name in calls:
        monkeypatch.setattr(theorem_lab, name, counted(name))
    assert [verify_instance(n, c) for n, c in long] == want[:len(long)]
    assert calls == {"lattice_distances": len(long), "level_set_summary": 0,
                     "instance_distances": 0}
    assert [verify_instance(n, c) for n, c in short] == want[len(long):]
    assert calls == {"lattice_distances": len(long), "level_set_summary": len(short),
                     "instance_distances": 0}
    assert verify_instance(12, (5,), paranoid=True) == want[len(long)]
    assert verify_instance(132, (65,), paranoid=True) == want[1]
    assert calls["instance_distances"] == 2  # the paranoid oracle, on both routes


def test_paranoid_compares_the_lattice_with_the_list_kernel(monkeypatch):
    real = metrics.LatticeDistances.summary

    def doctored(self):
        return real(self)._replace(v_dc=(1,))

    monkeypatch.setattr(metrics.LatticeDistances, "summary", doctored)
    assert verify_instance(132, (65,)).extremal_set == (1,)  # trusted when not paranoid
    with pytest.raises(RuntimeError, match=r"route mismatch on C132.*: lattice "):
        verify_instance(132, (65,), paranoid=True)
