"""Construction validation, counts, adjacency, and DOT output."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopnet import (
    FamilyParameterError,
    GeneratorSequence,
    build_circulant,
    build_ggpg,
    to_dot,
)
from loopnet.graph_core import max_generator


def test_circulant_counts_and_labels():
    g = build_circulant(17, [1, 2, 5, 8])
    assert g.n == 17 and g.m == 4
    assert g.num_vertices == 17
    assert g.num_edges == 17 * 4
    assert g.degree == 8
    assert g.label() == "C17(1,2,5,8)"
    assert g.dot_id() == "C17_1_2_5_8"


def test_ggpg_counts_and_labels():
    g = build_ggpg(14, [3, 4, 6])
    assert g.num_vertices == 28
    assert g.num_edges == 2 * 14 + 14 * 3
    assert g.label() == "GGPG14(3,4,6)"
    assert g.dot_id() == "GGPG14_3_4_6"


def test_max_generator_bound_excludes_half_n():
    # even n: n/2 would give degree 2m-1 at some vertices, so it is out
    assert max_generator(10) == 4
    assert max_generator(11) == 5
    build_circulant(10, [1, 4])
    with pytest.raises(FamilyParameterError):
        build_circulant(10, [1, 5])


@pytest.mark.parametrize("n,gens", [
    (4, [1]),            # ring too short
    (9, []),             # no generators
    (9, [0, 1]),         # zero step
    (9, [1, 1]),         # duplicate
    (9, [2, 1]),         # not increasing
    (9, [1, 4, 4]),      # duplicate again
    (9, [1, 5]),         # 5 > floor(8/2)
])
def test_circulant_rejects_bad_parameters(n, gens):
    with pytest.raises((FamilyParameterError, ValueError)):
        build_circulant(n, gens)


@pytest.mark.parametrize("n,chords", [
    (9, [1]),            # chord 1 would duplicate the outer cycle
    (9, [1, 2]),
    (9, []),
    (9, [5]),            # out of range
    (4, [2]),
])
def test_ggpg_rejects_bad_parameters(n, chords):
    with pytest.raises((FamilyParameterError, ValueError)):
        build_ggpg(n, chords)


def test_generator_sequence_is_canonical():
    s = GeneratorSequence([1, 2, 5])
    assert tuple(s) == (1, 2, 5)
    with pytest.raises(ValueError):
        GeneratorSequence([2, 2])
    with pytest.raises(ValueError):
        GeneratorSequence([])


def stepwise_generator_sequence(gens):
    """GeneratorSequence's checks written one item at a time: the errors and
    values its one-pass checks must keep."""
    try:
        items = tuple(int(s) for s in gens)
    except (TypeError, ValueError):
        raise FamilyParameterError(f"generators must be integers, got {gens!r}")
    if not items:
        raise FamilyParameterError("generator list must be nonempty")
    if items[0] < 1:
        raise FamilyParameterError(f"generators must be positive, got {items[0]}")
    if any(a >= b for a, b in zip(items, items[1:])):
        raise FamilyParameterError(
            f"generators must be strictly increasing (no duplicates), got {list(items)}")
    return items


def outcome(make, gens):
    try:
        return type(make(gens)), tuple(make(gens))
    except Exception as err:
        return type(err), str(err)


@pytest.mark.parametrize("gens", [
    5, None, 2.5,                                  # not iterable
    ["a"], [1, None], [1, object], ["1.5"], [1, [2]],  # not integers
    [1.9, 3.2], [1.5, 1.9], [0.5, 2],              # floats, truncated
    [True, 2], [True, True], [False, 1],           # bools
    ["1", "7"], ["1", " 3 "], "12", b"\x01\x04",   # numeric strings, bytes
    [], (), "",                                    # empty
    [0], [0, 1], [-1, 2],                          # zero, negative
    [1, 2, 2], [3, 3], [1, 4, 4, 9],               # duplicates
    [5, 3], [1, 4, 2], [2, 1, 3],                  # descending
    [1], (1, 2, 5), range(1, 4), [1, 10**30],      # valid
])
def test_generator_sequence_keeps_every_error_and_value(gens):
    want = outcome(stepwise_generator_sequence, gens)
    if want[0] is tuple:
        want = (GeneratorSequence, want[1])
    assert outcome(GeneratorSequence, gens) == want


def test_circulant_neighbors_symmetric_and_correct():
    g = build_circulant(9, [1, 2])
    assert g.neighbors(0) == [1, 2, 7, 8]
    for v in g.vertices():
        for w in g.neighbors(v):
            assert v in g.neighbors(w)


def test_ggpg_neighbors_by_construction():
    g = build_ggpg(9, [2])
    # outer 0: ring both ways plus its spoke
    assert set(g.neighbors(0)) == {1, 8, 9}
    # inner 0 (id 9): spoke plus chords +-2
    assert set(g.neighbors(9)) == {0, 11, 16}
    for v in g.vertices():
        for w in g.neighbors(v):
            assert v in g.neighbors(w)


def test_ggpg_single_chord_is_generalized_petersen():
    # GGPG(n, [s]) must carry exactly the classic three edge classes
    n, s = 9, 2
    g = build_ggpg(n, [s])
    outer = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    inner = {tuple(sorted((n + i, n + (i + s) % n))) for i in range(n)}
    spokes = {(i, n + i) for i in range(n)}
    assert set(g.edges()) == outer | inner | spokes
    assert g.num_edges == 3 * n


def test_vertex_labels():
    g = build_ggpg(9, [2])
    assert g.vertex_label(0) == "u0"
    assert g.vertex_label(9) == "v0"
    assert g.vertex_label(17) == "v8"
    c = build_circulant(9, [1, 2])
    assert c.vertex_label(8) == "8"


def test_dot_output_stable_and_parseable():
    g = build_circulant(6, [1, 2])
    text = to_dot(g)
    assert text == to_dot(g)  # byte-stable
    assert text.startswith("graph C6_1_2 {\n")
    assert text.endswith("}\n")
    # parse it back and compare edge sets
    edges = set()
    for a, b in re.findall(r"^  (\w+) -- (\w+);$", text, re.M):
        edges.add((int(a), int(b)))
    assert edges == set(g.edges())
    nodes = re.findall(r"^  (\w+);$", text, re.M)
    assert nodes == [str(v) for v in g.vertices()]


def test_dot_ggpg_uses_vertex_labels():
    g = build_ggpg(5, [2])
    text = to_dot(g)
    assert "  u0 -- u1;" in text
    assert "  u0 -- v0;" in text
    assert "  v0 -- v2;" in text


@st.composite
def circulant_params(draw):
    n = draw(st.integers(min_value=5, max_value=40))
    k = draw(st.integers(min_value=1, max_value=min(4, max_generator(n))))
    gens = draw(st.lists(st.integers(1, max_generator(n)),
                         min_size=k, max_size=k, unique=True))
    return n, sorted(gens)


def _ring_edges(n, steps, offset=0):
    """The edges i ~ i + s (mod n), s in steps, of a ring whose ids start at
    offset, each as a (min, max) pair."""
    return {tuple(sorted((offset + i, offset + (i + s) % n)))
            for i in range(n) for s in steps}


@settings(max_examples=60, deadline=None)
@given(circulant_params())
@example((9, [1, 2]))
@example((12, [1, 3, 5]))
@example((17, [1, 2, 5, 8]))
@example((9, [2]))
@example((14, [3, 4, 6]))
def test_edge_count_matches_edge_list(params):
    # edges() is read off neighbors(); here it is checked, order included,
    # against the edges built straight from the steps: C_n(gens), and the
    # GGPG graph with the chords >= 2 of gens (outer ring, spokes, inner
    # chords)
    n, gens = params
    g = build_circulant(n, gens)
    assert g.edges() == sorted(_ring_edges(n, gens))
    assert len(g.edges()) == g.num_edges
    chords = [s for s in gens if s > 1]
    if chords:
        h = build_ggpg(n, chords)
        spokes = {(i, n + i) for i in range(n)}
        assert h.edges() == sorted(_ring_edges(n, [1]) | spokes | _ring_edges(n, chords, n))
        assert len(h.edges()) == h.num_edges


@settings(max_examples=60, deadline=None)
@given(circulant_params())
def test_circulant_regularity_property(params):
    n, gens = params
    g = build_circulant(n, gens)
    degs = [len(g.neighbors(v)) for v in g.vertices()]
    assert degs == [2 * g.m] * n
    assert sum(degs) == 2 * g.num_edges


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ggpg_degree_property(data):
    n = data.draw(st.integers(5, 40), label="n")
    hi = max_generator(n)
    k = data.draw(st.integers(1, min(3, hi - 1)), label="k")
    chords = sorted(data.draw(
        st.lists(st.integers(2, hi), min_size=k, max_size=k, unique=True),
        label="chords"))
    g = build_ggpg(n, chords)
    for i in range(n):
        assert len(g.neighbors(g.outer(i))) == 3          # ring x2 + spoke
        assert len(g.neighbors(g.inner(i))) == 1 + 2 * len(chords)
    assert sum(len(g.neighbors(v)) for v in g.vertices()) == 2 * g.num_edges
