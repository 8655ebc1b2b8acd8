"""Distances, eccentricities, diameters, and the restricted-path metrics.

Two independent oracles keep the BFS honest: a test-local Floyd-Warshall
and networkx's shortest_path_length.
"""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import (
    INF,
    bfs,
    build_circulant,
    build_ggpg,
    diameter_circulant,
    diameter_ggpg,
    eccentricity,
    format_distance,
    inner_only_distances,
    outer_only_distance,
)
from loopnet.graph_core import max_generator
from loopnet.oracle import all_source_diameter, distance_dump_rows


def floyd_warshall(g):
    n = g.num_vertices
    d = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for a, b in g.edges():
        d[a][b] = d[b][a] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is math.inf:
                continue
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


SMALL = [build_circulant(9, [1, 2]), build_circulant(12, [1, 5]),
         build_circulant(17, [1, 2, 5, 8]), build_circulant(7, [1]),
         build_ggpg(9, [2]), build_ggpg(12, [5]), build_ggpg(14, [3, 4, 6])]


@pytest.mark.parametrize("g", SMALL, ids=lambda g: g.label())
def test_bfs_matches_floyd_warshall(g):
    fw = floyd_warshall(g)
    for src in g.vertices():
        assert list(bfs(g, src)) == fw[src]


@pytest.mark.parametrize("g", SMALL, ids=lambda g: g.label())
def test_bfs_matches_networkx(g):
    h = to_nx(g)
    for src in g.vertices():
        lengths = nx.single_source_shortest_path_length(h, src)
        assert list(bfs(g, src)) == [lengths[v] for v in g.vertices()]


@pytest.mark.parametrize("g", SMALL, ids=lambda g: g.label())
def test_diameter_shortcut_matches_brute_force(g):
    fast = (diameter_circulant(g) if g.family == "circulant"
            else diameter_ggpg(g))
    assert fast == all_source_diameter(g)
    assert fast == nx.diameter(to_nx(g))


def test_paranoid_mode_agrees():
    g = build_circulant(17, [1, 2, 5, 8])
    assert diameter_circulant(g, paranoid=True) == diameter_circulant(g)
    h = build_ggpg(14, [3, 4])
    assert diameter_ggpg(h, paranoid=True) == diameter_ggpg(h)


def test_diameter_functions_reject_wrong_family():
    with pytest.raises((TypeError, ValueError)):
        diameter_circulant(build_ggpg(9, [2]))
    with pytest.raises((TypeError, ValueError)):
        diameter_ggpg(build_circulant(9, [1, 2]))


def test_eccentricity():
    g = build_circulant(9, [1, 2])
    assert eccentricity(g, 0) == 2
    assert eccentricity(g, 4) == 2


def test_bfs_distance_vector_indexing():
    g = build_circulant(9, [1, 2])
    vec = bfs(g, 3)
    assert vec[3] == 0
    assert vec[5] == 1


def test_outer_only_distance_is_shorter_arc():
    g = build_circulant(12, [1, 5])
    assert [outer_only_distance(g, i) for i in range(12)] == \
        [0, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]


def test_inner_only_distances_single_chord():
    g = build_circulant(12, [1, 5])
    got = inner_only_distances(g)
    # step-5 orbit covers all of Z_12; distance is the cyclic distance in
    # the 5-multiplied relabeling
    expect = []
    for i in range(12):
        best = min(k for k in range(12) if (5 * k) % 12 == i or (-5 * k) % 12 == i)
        expect.append(best)
    assert list(got) == expect


def test_inner_only_unreachable_is_inf():
    # chord-only reachability is the subgroup <4> = {0,4,8} in Z_12
    g = build_circulant(12, [1, 4])
    got = inner_only_distances(g)
    assert got[4] == 1 and got[8] == 1
    assert got[1] is INF and got[6] is INF


def test_inner_only_ring_without_chords():
    g = build_circulant(9, [1])
    got = inner_only_distances(g)
    assert got[0] == 0
    assert all(got[i] is INF for i in range(1, 9))


def test_format_distance():
    assert format_distance(3) == "3"
    assert format_distance(INF) == "inf"


def test_distance_dump_rows_circulant():
    g = build_circulant(9, [1, 2])
    rows = list(distance_dump_rows(g))
    assert len(rows) == 9
    assert rows[0] == ("circulant", 9, "1-2", "0", "0", "0")
    assert rows[5] == ("circulant", 9, "1-2", "0", "5", "2")


def test_distance_dump_rows_ggpg_two_sources():
    g = build_ggpg(9, [2])
    rows = list(distance_dump_rows(g))
    assert len(rows) == 2 * 18
    sources = {r[3] for r in rows}
    assert sources == {"u0", "v0"}
    assert rows[0][:3] == ("ggpg", 9, "2")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_instances_vs_networkx_property(data):
    n = data.draw(st.integers(5, 28), label="n")
    hi = max_generator(n)
    k = data.draw(st.integers(0, min(2, hi - 1)), label="k")
    extra = sorted(data.draw(st.lists(st.integers(2, hi), min_size=k,
                                      max_size=k, unique=True), label="extra"))
    g = build_circulant(n, [1] + extra)
    assert diameter_circulant(g) == nx.diameter(to_nx(g))
    if extra:
        h = build_ggpg(n, extra)
        assert diameter_ggpg(h) == nx.diameter(to_nx(h))
