"""Walk reduction, canonical reps, realization, and rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import (
    PathRep,
    Walk,
    bfs,
    build_circulant,
    endpoint,
    realize,
    reduce_walk,
    render_rep,
    shortest_rep,
    shortest_rep_table,
)

# frozen worked example: ten chord/ring steps in C17(1,2,5,8)
G17 = build_circulant(17, [1, 2, 5, 8])
TEN_STEPS = [(5, 1), (8, 1), (2, -1), (5, -1), (2, 1),
             (8, -1), (2, 1), (5, 1), (5, 1), (1, -1)]
TEN_STEP_VISITS = [0, 5, 13, 11, 6, 8, 0, 2, 7, 12, 11]


def test_walk_replay_golden():
    w = Walk(0, TEN_STEPS)
    assert w.replay(G17) == TEN_STEP_VISITS


def test_walk_reduction_golden():
    rep = reduce_walk(Walk(0, TEN_STEPS), G17)
    assert rep == PathRep(-1, (1, 2, 0))
    assert rep.length == 4
    assert endpoint(rep, G17) == 11


def test_realization_golden():
    r = realize(PathRep(-1, (1, 2, 0)), G17)
    assert list(r.vertices) == [0, 16, 1, 6, 11]
    assert r.is_path


def test_render_golden():
    # zero coefficients keep a "+" sign by convention
    assert render_rep(PathRep(-1, (1, 2, 0)), G17) == "(1a-, 1c2+, 2c5+, 0c8+)"
    assert render_rep(PathRep(0, (0, 0, 0)), G17) == "(0a+, 0c2+, 0c5+, 0c8+)"
    assert render_rep(PathRep(2, (-1,)), build_circulant(9, [1, 2])) == "(2a+, 1c2-)"


def test_shortest_rep_golden():
    rep = shortest_rep(G17, 11)
    assert rep == PathRep(0, (1, 0, -1))
    assert rep.length == 2
    assert bfs(G17, 0)[11] == 2


def test_shortest_rep_tie_break_is_deterministic():
    g = build_circulant(9, [1, 2])
    # both (0,(2,)) and (2,(1,)) reach 4 in two steps; lex order on
    # (|alpha|, |lambda|) prefers the chord-heavy vector
    assert shortest_rep(g, 4) == PathRep(0, (2,))
    # 8 is one ring step back; sign + would give 8 only at length 8
    assert shortest_rep(g, 8) == PathRep(-1, (0,))
    assert shortest_rep(g, 0) == PathRep(0, (0,))


def test_walk_rejects_bad_steps():
    with pytest.raises(ValueError):
        Walk(0, [(3, 1)]).replay(G17)  # 3 is not a generator
    with pytest.raises(ValueError):
        Walk(0, [(1, 2)]).replay(G17)  # direction must be +-1
    with pytest.raises(IndexError):
        Walk(42, [(1, 1)]).replay(G17)  # origin outside Z_17


def test_reduction_requires_ring_generator():
    g = build_circulant(9, [2, 3])  # valid circulant, but s1 != 1
    with pytest.raises(ValueError):
        reduce_walk(Walk(0, [(2, 1)]), g)
    with pytest.raises(ValueError):
        shortest_rep(g, 1)


def test_rep_alignment_checked():
    with pytest.raises(ValueError):
        endpoint(PathRep(0, (1,)), G17)  # needs 3 chord coefficients
    with pytest.raises(ValueError):
        realize(PathRep(0, (1, 2, 3, 4)), G17)


def test_endpoint_respects_origin():
    rep = PathRep(-1, (1, 2, 0))
    assert endpoint(rep, G17, origin=3) == (3 + 11) % 17
    r = realize(rep, G17, origin=3)
    assert r.vertices[0] == 3 and r.vertices[-1] == 14


def test_realize_detects_revisits():
    g = build_circulant(9, [1, 2])
    # 0 -> 1 -> 2 -> 0: closes a triangle, not a path
    r = realize(PathRep(2, (-1,)), g)
    assert list(r.vertices) == [0, 1, 2, 0]
    assert not r.is_path


def test_table_matches_single_queries():
    for n, gens in [(9, [1, 2]), (12, [1, 3, 5]), (17, [1, 2, 5, 8]), (7, [1])]:
        g = build_circulant(n, gens)
        table = shortest_rep_table(g)
        assert len(table) == n
        for i in range(n):
            assert table[i] == shortest_rep(g, i)


def test_shortest_rep_length_equals_distance_small():
    for n, gens in [(9, [1, 2]), (11, [1, 2, 4]), (16, [1, 7]), (8, [1])]:
        g = build_circulant(n, gens)
        dist = bfs(g, 0)
        for i in range(n):
            assert shortest_rep(g, i).length == dist[i]


@st.composite
def instance_and_walk(draw):
    from loopnet.graph_core import max_generator
    n = draw(st.integers(6, 30))
    hi = max_generator(n)
    extra = draw(st.lists(st.integers(2, hi), min_size=0, max_size=2, unique=True))
    g = build_circulant(n, [1] + sorted(extra))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(list(g.gens)), st.sampled_from([1, -1])),
        min_size=0, max_size=12))
    origin = draw(st.integers(0, n - 1))
    return g, Walk(origin, steps)


@settings(max_examples=120, deadline=None)
@given(instance_and_walk())
def test_reduction_preserves_endpoint_property(gw):
    g, w = gw
    visits = w.replay(g)
    rep = reduce_walk(w, g)
    assert rep.length <= len(w.steps)
    assert endpoint(rep, g, origin=w.origin) == visits[-1]


@settings(max_examples=120, deadline=None)
@given(instance_and_walk())
def test_realization_walks_edges_property(gw):
    g, w = gw
    rep = reduce_walk(w, g)
    r = realize(rep, g, origin=w.origin)
    assert len(r.vertices) == rep.length + 1
    for a, b in zip(r.vertices, r.vertices[1:]):
        assert b in g.neighbors(a)
    assert r.is_path == (len(set(r.vertices)) == len(r.vertices))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shortest_rep_realizes_vertex_distinct_path_property(data):
    # a minimum-length rep can never revisit: a revisit would splice out
    # a loop and leave a shorter walk than the distance
    from loopnet.graph_core import max_generator
    n = data.draw(st.integers(6, 30), label="n")
    extra = data.draw(st.lists(st.integers(2, max_generator(n)),
                               min_size=0, max_size=2, unique=True),
                      label="extra")
    g = build_circulant(n, [1] + sorted(extra))
    i = data.draw(st.integers(0, n - 1), label="target")
    rep = shortest_rep(g, i)
    r = realize(rep, g)
    assert r.is_path
    assert r.vertices[-1] == i
