"""The one-pass instance kernel, and the GGPG vectors the spoke identity
derives from it, against their oracles: list BFS over neighbors(), the
chord-only BFS, networkx; and the conj45 witness, the ring run
u_0 ... u_{D+1}, against a sorted-neighbour FIFO path search."""

import itertools
import json
import pickle
import tracemalloc
from collections import deque

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopnet import (
    INF,
    bfs,
    build_circulant,
    expand,
    inner_only_distances,
    verify_instance,
)
from loopnet import graph_core, metrics, oracle, theorem_lab
from loopnet.graph_core import max_generator
from loopnet.metrics import instance_distances, level_set_summary
from loopnet.theorem_lab import plan_sweep


def fifo_parents(g, src, stop=None):
    """BFS parents by FIFO search over the sorted neighbors() lists."""
    parent = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == stop:
            break
        for w in g.neighbors(u):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def fifo_path(g, src, dst):
    """One shortest path by FIFO BFS over the sorted neighbors() lists."""
    parent = fifo_parents(g, src, stop=dst)
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def reference_witness(n, chords):
    """The conj45 witness as a FIFO search over neighbors() finds it."""
    g = build_circulant(n, (1,) + tuple(chords))
    h = expand(g)
    du, dv = bfs(h, h.outer(0)), bfs(h, h.inner(0))
    d = max(max(du), max(dv))
    src, vec = (h.outer(0), du) if max(du) == d else (h.inner(0), dv)
    return [h.vertex_label(v) for v in fifo_path(h, src, vec.index(d))]


def nx_distances(g, src):
    graph = nx.Graph()
    graph.add_nodes_from(g.vertices())
    graph.add_edges_from(g.edges())
    found = nx.single_source_shortest_path_length(graph, src)
    return tuple(found.get(v, INF) for v in g.vertices())


@st.composite
def kernel_rows(draw):
    """(n, chords) with 5 <= n <= 2000 and one to three chords."""
    n = draw(st.integers(5, 2000))
    hi = max_generator(n)
    k = draw(st.integers(1, min(3, hi - 1)))
    chords = draw(st.lists(st.integers(2, hi), min_size=k, max_size=k, unique=True))
    return n, tuple(sorted(chords))


@settings(max_examples=30, deadline=None)
@given(kernel_rows())
@example((9, (2,)))
@example((12, (5,)))
@example((17, (2, 5, 8)))
@example((30, (4, 10, 11)))
@example((31, (15,)))
def test_kernel_vectors_match_list_bfs_and_networkx(row):
    n, chords = row
    g = build_circulant(n, (1,) + chords)
    h = expand(g)
    dist = instance_distances(g)
    from_u0, from_v0 = oracle.ggpg_vectors(dist)  # by the spoke identity
    chord_ring = build_circulant(n, chords)
    expected = (
        (dist.circ, bfs(g, 0), nx_distances(g, 0)),
        (from_u0, bfs(h, h.outer(0)), nx_distances(h, h.outer(0))),
        (from_v0, bfs(h, h.inner(0)), nx_distances(h, h.inner(0))),
        (dist.chord_only, inner_only_distances(g), nx_distances(chord_ring, 0)),
    )
    for fast, listed, by_networkx in expected:
        assert tuple(fast) == listed == by_networkx


def test_conj45_witness_matches_fifo_reference_on_grid():
    checked = 0
    for n, chords in plan_sweep(range(5, 41), [2, 3]):
        r = verify_instance(n, chords)
        if r.gap == 1:
            assert r.witnesses["conj45"]["ggpg_diametral_path"] == \
                reference_witness(n, chords), (n, chords)
            checked += 1
    assert checked > 50


def test_conj45_witness_matches_fifo_reference_on_every_triple_loop():
    # every gap-1 m = 3 row, whether level sets or the kernel decided it
    checked = 0
    for n, chords in plan_sweep(range(5, 101), [3]):
        r = verify_instance(n, chords)
        if r.gap == 1:
            assert r.witnesses["conj45"]["ggpg_diametral_path"] == \
                reference_witness(n, chords), (n, chords)
            checked += 1
    assert checked == 298


def test_every_gap1_fifo_path_is_the_ring_run():
    # on a gap-1 row the FIFO path from u0 to the least GGPG id at distance
    # d_circ + 1 is u_0, u_1, ..., u_{D+1}, and so is the row's witness.
    # The lemma the metrics docstring proves it from holds on every row:
    # V_Dc lies in {D, D + 1, n - D - 1, n - D} and d_c(0, D + 1) >= D - 1
    checked = 0
    rows = itertools.chain(plan_sweep(range(5, 61), [2, 3]), plan_sweep(range(5, 41), [4]),
                           plan_sweep(range(5, 31), [5]))
    for n, chords in rows:
        g = build_circulant(n, (1,) + chords)
        dist = instance_distances(g)
        facts = dist.summary()
        d = facts.d_circ
        if facts.d_ggpg - d != 1:
            continue
        assert set(facts.v_dc) <= {d, d + 1, n - d - 1, n - d}, (n, chords)
        assert dist.circ[d + 1] >= d - 1, (n, chords)
        h = expand(g)
        want = fifo_path(h, h.outer(0), bfs(h, h.outer(0)).index(d + 1))
        assert want == list(range(d + 2)), (n, chords)
        assert list(metrics.row_facts(n, chords)[2]) == want, (n, chords)
        checked += 1
    assert checked == 394


@pytest.mark.parametrize("k", [50, 251, 500])
def test_conj45_witness_matches_fifo_reference_large(k):
    # the gap-1 family C_{4k}(1, 2k-1), with diametral paths of about k steps
    n, chords = 4 * k, (2 * k - 1,)
    r = verify_instance(n, chords)
    assert r.gap == 1
    path = r.witnesses["conj45"]["ggpg_diametral_path"]
    assert len(list(path)) - 1 == r.d_ggpg
    assert path == reference_witness(n, chords)


def m3_series_row(series, j):
    """(n, chords, D, gap) of row j of an m = 3 series on level sets:
    (a) C_{4j^2}(1, 2j + 1, 2j^2 - 1), gap 1 and D = j + 1;
    (b) C_n(1, 2j, n/2 - 1), n = 2j(2j - 3) for even j and 2(j - 1)(2j - 1)
        for odd j, gap 1 and D = j;
    (c) n = (2j)^2, chords n/2 - 1 and the fold of (n/2 - 1)(2j + 1) mod n,
        D = j + 1, gap 1 for odd j and 2 for even j."""
    if series == "a":
        return 4 * j * j, (2 * j + 1, 2 * j * j - 1), j + 1, 1
    if series == "b":
        n = 2 * j * (2 * j - 3) if j % 2 == 0 else 2 * (j - 1) * (2 * j - 1)
        return n, (2 * j, n // 2 - 1), j, 1
    n = 4 * j * j
    s = (n // 2 - 1) * (2 * j + 1) % n
    return n, tuple(sorted({n // 2 - 1, min(s, n - s)})), j + 1, 2 - j % 2


@pytest.mark.parametrize("series,js", [
    ("a", range(2, 41)), ("a", [158]),
    ("b", range(3, 23)), ("b", [158]),
    ("c", range(2, 23)), ("c", [157]),
], ids=["j=2..40", "j=158", "b-j=3..22", "b-j=158", "c-j=2..22", "c-j=157"])
def test_the_m3_gap1_family_on_level_sets(series, js):
    # each series keeps D within LEVEL_CAP up to its row near n = 10^5
    # ((a) j = 158: n = 99 856, D = 159; (b) j = 158: n = 98 908; (c) j = 157:
    # n = 98 596).  Level sets decide each row, and a gap-1 row's witness
    # equals a FIFO search over the GGPG's neighbors() to distance D + 1
    for j in js:
        n, chords, d, gap = m3_series_row(series, j)
        g = build_circulant(n, (1,) + chords)
        r = verify_instance(n, chords)
        assert (r.gap, r.d_circ) == (gap, d), (series, j)
        route, facts, path = metrics.row_facts(n, chords)
        assert route == "level sets" and facts == instance_distances(g).summary(), (series, j)
        if gap == 2:
            assert path is None, (series, j)
            continue
        h = expand(g)
        want = oracle.fifo_path(h, h.outer(0), oracle.bfs(h, h.outer(0)).index(d + 1))
        assert list(path) == want, (series, j)
        assert r.witnesses["conj45"]["ggpg_diametral_path"] == \
            [h.vertex_label(v) for v in want], (series, j)


def old_labels(n, chords):
    """The conj45 witness as rows listed it before they kept its range of
    ids: one label per vertex of the path."""
    *_, path = metrics.row_facts(n, tuple(chords))
    return [f"u{v}" if v < n else f"v{v - n}" for v in path]


def assert_reads_as(labels, want):
    """A report's label sequence reads, renders and pickles as the list want."""
    assert labels == want and want == labels and not labels != want
    assert list(labels) == want
    assert want[:-1] != labels != want + ["u0"]
    assert theorem_lab._json_text(labels) == json.dumps(want, indent=2)
    copy = pickle.loads(pickle.dumps(labels))
    assert type(copy) is type(labels) and copy.ids == labels.ids and copy == want


def gap1_witnesses(instances):
    """(n, chords, the report's label sequence) for each gap-1 row."""
    for n, chords in instances:
        r = verify_instance(n, chords)
        if r.gap == 1:
            yield n, chords, r.witnesses["conj45"]["ggpg_diametral_path"]


def test_labels_equal_the_label_list_on_every_double_loop_to_400():
    rows = list(gap1_witnesses(plan_sweep(range(5, 401), [2])))
    for n, chords, labels in rows:
        assert_reads_as(labels, old_labels(n, chords))
        assert labels == reference_witness(n, chords), (n, chords)
    # C_{4k}(1, 2k - 1) for 3 <= k <= 100, C5(1,2), C7(1,2) and C7(1,3)
    assert len(rows) == 101


def test_labels_equal_the_label_list_on_the_grid():
    rows = list(gap1_witnesses(plan_sweep(range(5, 61), [2, 3])))
    for n, chords, labels in rows:
        assert_reads_as(labels, old_labels(n, chords))
    assert len(rows) == 135


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_labels_equal_the_label_list_on_sampled_triple_loops(seed):
    rows = list(gap1_witnesses(plan_sweep(range(100, 130), [3], sample_cap=100,
                                          sample_size=300, seed=seed)))
    for n, chords, labels in rows:
        assert_reads_as(labels, old_labels(n, chords))
        assert labels == reference_witness(n, chords), (n, chords)
    assert len(rows) >= 30


def test_a_long_witness_is_held_in_constant_memory():
    # C_400000(1, 199999): a 100 002-vertex witness, the ring run
    verify_instance(4000, (1999,))  # every module the row needs is loaded
    tracemalloc.start()
    try:
        r = verify_instance(400000, (199999,))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ids = r.witnesses["conj45"]["ggpg_diametral_path"].ids
    assert len(ids) == r.d_ggpg + 1 == 100002
    assert len(pickle.dumps(r)) < 4096
    assert held < 64 * 1024 and peak < 1024 * 1024, (held, peak)


def test_verify_instance_makes_no_neighbors_or_bfs_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("list BFS called on the fast path")

    monkeypatch.setattr(graph_core.CirculantGraph, "neighbors", forbidden)
    monkeypatch.setattr(graph_core.GgpgGraph, "neighbors", forbidden)
    monkeypatch.setattr(oracle, "bfs", forbidden)
    monkeypatch.setattr(oracle, "inner_only_distances", forbidden)
    r = verify_instance(12, (5,))
    assert r.gap == 1 and r.witnesses["conj45"]["ggpg_diametral_path"]
    assert verify_instance(20, (4, 8)).thm41


@pytest.mark.parametrize("n,chords,paranoid,gap1", [
    (12, (5,), False, 1),      # gap 1, a short double loop on level sets
    (12, (5,), True, 1),       # paranoid: the oracles use list BFS instead
    (804, (401,), False, 1),   # gap 1, lattice on a long ring
    (20, (4, 8), False, 0),    # gap 2, level sets
    (20, (4, 8), True, 0),
    (1000, (2,), False, 0),    # gap 2, lattice on a long ring
    (7, (3,), False, 1),       # gap 1, thm43-inconsistent: level sets give its witness
    (1202, (2, 3), False, 0),  # gap 2, over the cap
    (9, (2, 4), False, 1),     # gap 1, level sets: the witness needs no search
    (9, (2, 4), True, 1),
    (132, (65,), True, 1),     # paranoid lattice row
])
def test_only_a_gap1_row_runs_a_ggpg_search(monkeypatch, n, chords, paranoid, gap1):
    # no row runs a 2n-vertex GGPG search: the witness is the ring run
    # u_0 ... u_{D+1}, which needs no distance.  The list kernel (two
    # n-vertex searches) runs on an m >= 3 row over the cap, and no other
    # row runs a search.  A paranoid row then runs its own list kernel, and
    # checks a gap-1 row's witness against a FIFO search over neighbors()
    g = build_circulant(n, (1,) + chords)
    lattice = len(chords) == 1 and n >= metrics.DOUBLE_LOOP_LEVELS_BELOW
    over = not lattice and level_set_summary(g) is None
    sizes, searches = [], []
    real_bfs, real_fifo = metrics._level_bfs, oracle.fifo_path

    def counting(n, steps, src):
        sizes.append(n)
        return real_bfs(n, steps, src)

    def fifo(*args):
        searches.append(args)
        return real_fifo(*args)

    monkeypatch.setattr(metrics, "_level_bfs", counting)
    monkeypatch.setattr(oracle, "fifo_path", fifo)
    r = verify_instance(n, chords, paranoid=paranoid)
    assert (r.gap == 1) == bool(gap1)
    assert sizes == [n, n] * over + [n, n] * paranoid
    assert len(searches) == (paranoid and gap1)


def test_paranoid_cross_check_catches_a_wrong_kernel_vector(monkeypatch):
    real = metrics.instance_distances

    def doctored(g):
        dist = real(g)
        dist.chord_only[3] = 99
        return dist

    monkeypatch.setattr(oracle, "instance_distances", doctored)
    verify_instance(12, (5,))  # the fast path trusts the kernel
    with pytest.raises(RuntimeError, match="chord-only from 0: vertex 3"):
        verify_instance(12, (5,), paranoid=True)


def test_paranoid_checks_the_witness_walk_against_a_fifo_search(monkeypatch):
    real = metrics.diametral_path
    # the witness without its last vertex
    monkeypatch.setattr(metrics, "diametral_path", lambda *args: real(*args)[:-1])
    r = verify_instance(12, (5,))  # the fast path trusts the witness
    assert len(list(r.witnesses["conj45"]["ggpg_diametral_path"])) == r.d_ggpg
    with pytest.raises(RuntimeError, match=r"witness mismatch on C12\(1,5\): walk "):
        verify_instance(12, (5,), paranoid=True)


@pytest.mark.parametrize("n,chords", [(12, (5,)), (40, (19,)), (63, (15, 17))])
def test_paranoid_fails_a_walk_with_a_ring_run_one_vertex_short(monkeypatch, n, chords):
    g = build_circulant(n, (1,) + chords)
    path = metrics.row_facts(n, chords)[2]
    assert path == range(len(path))
    short = path[:-1]
    monkeypatch.setattr(metrics, "diametral_path", lambda *args: short)
    verify_instance(n, chords)  # the fast path trusts the witness
    walk = [f"u{v}" for v in short]
    with pytest.raises(RuntimeError) as info:
        verify_instance(n, chords, paranoid=True)
    assert str(info.value) == (f"witness mismatch on {g.label()}: walk {walk}, "
                               f"FIFO search {reference_witness(n, chords)}")
