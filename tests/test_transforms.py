"""Spoke contraction, expansion, and path lifting/projection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import (
    PathRep,
    build_circulant,
    build_ggpg,
    contract_spokes,
    expand,
    lift_path,
    project_path,
    realize,
    shortest_rep,
)
from loopnet.graph_core import max_generator

SIDES = [("outer", "outer"), ("outer", "inner"),
         ("inner", "outer"), ("inner", "inner")]


def spoke_count(p, g):
    return sum(1 for a, b in zip(p, p[1:]) if a % g.n == b % g.n)


def test_expand_then_contract_is_identity():
    for n, gens in [(9, [1, 2]), (12, [1, 3, 5]), (17, [1, 2, 5, 8])]:
        g = build_circulant(n, gens)
        h = expand(g)
        back = contract_spokes(h)
        assert back == g


def test_contract_then_expand_is_identity():
    for n, chords in [(9, [2]), (14, [3, 4, 6]), (40, [7, 19])]:
        h = build_ggpg(n, chords)
        g = contract_spokes(h)
        assert g == build_circulant(n, [1] + list(chords))
        h2 = expand(g)
        assert h2 == h


def test_expand_requires_unit_generator_and_a_chord():
    with pytest.raises(ValueError):
        expand(build_circulant(9, [2, 3]))
    with pytest.raises(ValueError):
        expand(build_circulant(9, [1]))  # no chord to keep the inner ring


def test_contract_merges_parallel_edges():
    # chord n/2-ish cases where +s and -s orbits coincide are already
    # excluded by construction; what can collide is ring vs nothing, so
    # the offset set from edges must be exactly {1} | chords
    h = build_ggpg(10, [2, 4])
    g = contract_spokes(h)
    assert tuple(g.gens) == (1, 2, 4)
    assert g.n == 10


def test_project_collapses_spokes():
    g = build_circulant(9, [1, 2])
    h = expand(g)
    p = [h.outer(0), h.outer(1), h.inner(1), h.inner(3)]
    assert project_path(p, h) == [0, 1, 3]


def test_project_rejects_non_walks():
    h = build_ggpg(9, [2])
    with pytest.raises(ValueError):
        project_path([], h)
    with pytest.raises(ValueError):
        project_path([0, 5], h)  # u0-u5 is not an edge
    with pytest.raises(IndexError):
        project_path([0, 99], h)


def test_lift_zero_rep_all_sides():
    g = build_circulant(9, [1, 2])
    h = expand(g)
    zero = PathRep(0, (0,))
    assert lift_path(zero, g, endpoints=("outer", "outer")) == [h.outer(0)]
    assert lift_path(zero, g, endpoints=("inner", "inner")) == [h.inner(0)]
    assert lift_path(zero, g, endpoints=("outer", "inner")) == \
        [h.outer(0), h.inner(0)]
    assert lift_path(zero, g, endpoints=("inner", "outer")) == \
        [h.inner(0), h.outer(0)]


def test_lift_pure_ring_rep():
    g = build_circulant(9, [1, 2])
    rep = PathRep(3, (0,))
    assert lift_path(rep, g) == [0, 1, 2, 3]
    assert lift_path(rep, g, endpoints=("outer", "inner")) == [0, 1, 2, 3, 12]
    assert lift_path(rep, g, endpoints=("inner", "outer")) == [9, 0, 1, 2, 3]


def test_lift_pure_chord_rep_stays_inner():
    g = build_circulant(9, [1, 2])
    rep = PathRep(0, (2,))
    assert lift_path(rep, g, endpoints=("inner", "inner")) == [9, 11, 13]
    got = lift_path(rep, g, endpoints=("outer", "outer"))
    assert got == [0, 9, 11, 13, 4]
    assert spoke_count(got, g) == 2


def test_lift_mixed_rep_single_boundary_spoke():
    g = build_circulant(9, [1, 2])
    h = expand(g)
    rep = PathRep(2, (1,))  # ring twice, one +2 chord
    got = lift_path(rep, g)  # outer/outer default
    assert got == [0, 1, 2, 11, 13, 4]
    assert spoke_count(got, g) == 2
    # inner start flips the traversal to chords-first so one spoke suffices
    got = lift_path(rep, g, endpoints=("inner", "outer"))
    assert spoke_count(got, g) == 1
    assert got[0] == h.inner(0) and got[-1] == h.outer(4)


def test_lift_rejects_non_path_reps():
    g = build_circulant(9, [1, 2])
    with pytest.raises(ValueError):
        lift_path(PathRep(2, (-1,)), g)  # realizes 0,1,2,0: revisits


def test_lift_rejects_unknown_side():
    g = build_circulant(9, [1, 2])
    with pytest.raises(ValueError):
        lift_path(PathRep(1, (0,)), g, endpoints=("outer", "middle"))


def _assert_valid_lift(p, rep, target, g, h, sides):
    # a real path in h, on the requested sides, costing at most 2 spokes
    assert len(set(p)) == len(p)
    for a, b in zip(p, p[1:]):
        assert b in h.neighbors(a)
    start, end = sides
    assert h.is_outer(p[0]) == (start == "outer")
    assert h.is_outer(p[-1]) == (end == "outer")
    assert p[0] % g.n == 0
    assert p[-1] % g.n == target
    assert spoke_count(p, g) <= 2
    assert len(p) - 1 <= rep.length + 2


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lift_shortest_reps_property(data):
    n = data.draw(st.integers(6, 30), label="n")
    hi = max_generator(n)
    k = data.draw(st.integers(1, min(2, hi - 1)), label="k")
    chords = sorted(data.draw(st.lists(st.integers(2, hi), min_size=k,
                                       max_size=k, unique=True), label="chords"))
    g = build_circulant(n, [1] + chords)
    h = expand(g)
    i = data.draw(st.integers(0, n - 1), label="target")
    rep = shortest_rep(g, i)
    for sides in SIDES:
        p = lift_path(rep, g, endpoints=sides)
        _assert_valid_lift(p, rep, i, g, h, sides)
        # collapsing spokes recovers a circulant walk ending at the target
        classes = project_path(p, h)
        assert classes[0] == 0 and classes[-1] == i
