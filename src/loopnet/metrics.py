"""Exact distances, eccentricities, diameters, and restricted distances.

Two routes compute the same distances.  The fast route is
instance_distances: one level-synchronous BFS kernel that walks vertex ids
by offset arithmetic, with no neighbors() call, and gives a
verify_instance row every vector it needs in one pass -- the circulant from
0, the GGPG graph from u_0 and from v_0 (with BFS parents), and the
chord-only ring.  The oracle route is bfs over a graph's neighbors(), with
the diameter helpers on top of it; tests and --paranoid check the kernel
against it element by element.

Diameters use symmetry shortcuts by default: a circulant looks the same
from every vertex (rotation i -> i+1 is an automorphism), so one BFS from 0
suffices; the same rotation on a GGPG graph has exactly two vertex orbits,
outer and inner, so two BFS runs suffice.  A paranoid mode recomputes the
diameter from every source and raises if the shortcut ever disagrees.

Restricted distances feed the gap characterization: along the outer ring
only, the distance from 0 to i is min(i, n-i); along chords only it is BFS
on the chord subgraph, with an explicit infinity for unreachable vertices
(chords sharing a divisor with n cannot leave a residue class).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .graph_core import CirculantGraph, GgpgGraph

INF = math.inf


@dataclass(frozen=True)
class DistanceVector:
    """Hop counts from one source; INF marks unreachable vertices."""

    source: int
    dist: tuple

    def __getitem__(self, v: int):
        return self.dist[v]

    def eccentricity(self):
        return max(self.dist)


def format_distance(d) -> str:
    """Serialize a hop count; infinity becomes the literal string inf."""
    return "inf" if d == INF else str(int(d))


def _bfs_levels(neighbor_fn, num_vertices: int, src: int) -> list:
    dist = [INF] * num_vertices
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in neighbor_fn(u):
            if dist[w] is INF:
                dist[w] = du + 1
                queue.append(w)
    return dist


def bfs(g, src: int) -> DistanceVector:
    """Exact unweighted distances from src in either family."""
    g.check_vertex(src)
    return DistanceVector(src, tuple(_bfs_levels(g.neighbors, g.num_vertices, src)))


def eccentricity(g, src: int):
    return bfs(g, src).eccentricity()


def all_source_diameter(g):
    """Brute force: max eccentricity over every vertex.  The oracle the
    symmetry shortcuts are checked against."""
    return max(eccentricity(g, v) for v in g.vertices())


def diameter_circulant(g: CirculantGraph, paranoid: bool = False) -> int:
    """max distance from vertex 0; rotation makes every source equivalent."""
    if g.family != "circulant":
        raise TypeError(f"single-source shortcut needs a circulant, got {g.label()}")
    d = eccentricity(g, 0)
    if paranoid:
        full = all_source_diameter(g)
        if full != d:
            raise RuntimeError(
                f"symmetry shortcut mismatch on {g.label()}: "
                f"ecc(0) = {d}, all-source diameter = {full}")
    return d


def diameter_ggpg(g: GgpgGraph, paranoid: bool = False) -> int:
    """max(ecc(u_0), ecc(v_0)); rotation has two orbits, outer and inner."""
    if g.family != "ggpg":
        raise TypeError(f"two-source shortcut needs a GGPG graph, got {g.label()}")
    d = max(eccentricity(g, g.outer(0)), eccentricity(g, g.inner(0)))
    if paranoid:
        full = all_source_diameter(g)
        if full != d:
            raise RuntimeError(
                f"symmetry shortcut mismatch on {g.label()}: "
                f"two-source = {d}, all-source diameter = {full}")
    return d


def outer_only_distance(g: CirculantGraph, i: int) -> int:
    """Distance from 0 to i using generator-1 edges only: the shorter arc."""
    g.check_vertex(i)
    return min(i, g.n - i) if i else 0


def inner_only_distances(g: CirculantGraph) -> tuple:
    """Distances from 0 in the chord-only subgraph (generators after the
    first).  INF where no chord walk reaches."""
    chords = g.gens[1:]
    n = g.n

    def chord_neighbors(v):
        out = []
        for s in chords:
            out.append((v + s) % n)
            out.append((v - s) % n)
        return out

    if not chords:
        empty = [INF] * n
        empty[0] = 0
        return tuple(empty)
    return tuple(_bfs_levels(chord_neighbors, n, 0))


def inner_only_distance(g: CirculantGraph, i: int):
    """Chord-only distance from 0 to i, or INF if unreachable."""
    g.check_vertex(i)
    return inner_only_distances(g)[i]


def distance_dump_rows(g, sources=None):
    """Rows for the distance dump CSV: family,n,gens,source,vertex,dist."""
    if sources is None:
        if isinstance(g, CirculantGraph):
            sources = [0]
        else:
            sources = [g.outer(0), g.inner(0)]
    gens = g.gens if isinstance(g, CirculantGraph) else g.chords
    gens_txt = "-".join(str(s) for s in gens)
    for src in sources:
        vec = bfs(g, src)
        for v in g.vertices():
            yield (g.family, g.n, gens_txt, g.vertex_label(src),
                   g.vertex_label(v), format_distance(vec[v]))


# --- the one-pass instance kernel ---

def _ring_offsets(n: int, steps, head: tuple = ()) -> list[tuple]:
    """Per-vertex neighbour offsets of the ring Z_n with steps +-s.

    Row i lists w - i for the neighbours w of i in ascending order of w,
    after the offsets in head: the ascending list offs of every s and n - s,
    rotated at k = bisect_left(offs, n - i) into offs[k:] + offs[:k], where
    offs[k:] wrap past n - 1 and so are shifted by -n.  k changes only at
    the points n - o, so the rows are a few shared tuples repeated over runs
    of vertices.
    """
    offs = sorted({*steps, *(n - s for s in steps)})
    wrapped = [o - n for o in offs]
    cuts = [0, *(n - o for o in reversed(offs)), n]
    rows = []
    for k, lo, hi in zip(range(len(offs), -1, -1), cuts, cuts[1:]):
        rows += [(*head, *wrapped[k:], *offs[:k])] * (hi - lo)
    return rows


def _ggpg_offsets(n: int, chords) -> list[tuple]:
    """Per-vertex neighbour offsets of the GGPG graph, in the ascending order
    GgpgGraph.neighbors gives: u_i -> (u_{i-1}, u_{i+1}, v_i), with the wrap
    at u_0 and u_{n-1}; v_i -> (u_i, then the inner chord steps)."""
    outer = [(1, n - 1, n)] + [(-1, 1, n)] * (n - 2) + [(1 - n, -1, n)]
    return outer + _ring_offsets(n, chords, head=(-n,))


def _level_bfs(offsets: list, src: int) -> tuple[list, list]:
    """Distances and BFS parents from src; w is a neighbour of v iff
    w - v is in offsets[v].

    Levels are scanned in discovery order and each row in its given order,
    so with ascending rows the parents are those of a FIFO BFS over the
    sorted neighbors() lists.  Unreachable vertices keep INF and parent None.
    """
    dist = [INF] * len(offsets)
    parent = [None] * len(offsets)
    dist[src] = 0
    frontier = [src]
    level = 0
    while frontier:
        level += 1
        nxt = []
        push = nxt.append
        for v in frontier:
            for w in offsets[v]:
                w += v
                if dist[w] is INF:
                    dist[w] = level
                    parent[w] = v
                    push(w)
        frontier = nxt
    return dist, parent


def tree_path(parent: list, dst: int) -> list[int]:
    """The BFS-tree path from the source to dst, as a vertex id list."""
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


@dataclass(frozen=True)
class InstanceDistances:
    """Every distance one C_n(1, chords) / GGPG pair row needs.

    circ[i] = d_c(0, i); from_u0[x] and from_v0[x] = d_p(u_0, x) and
    d_p(v_0, x) over GGPG ids x; chord_only[i] is the chord-subgraph
    distance from 0 (INF when unreachable).  parent_u0 / parent_v0 are the
    BFS trees of the two GGPG runs, for tree_path.
    """

    circ: list
    from_u0: list
    from_v0: list
    chord_only: list
    parent_u0: list
    parent_v0: list


def instance_distances(g: CirculantGraph) -> InstanceDistances:
    """One pass of the level kernel over C_n(1, chords), its GGPG expansion
    from u_0 and v_0, and its chord-only ring."""
    if g.gens[0] != 1:
        raise ValueError(f"instance distances need generator 1 in S, got {g.label()}")
    n, chords = g.n, g.gens[1:]
    ggpg = _ggpg_offsets(n, chords)
    from_u0, parent_u0 = _level_bfs(ggpg, 0)
    from_v0, parent_v0 = _level_bfs(ggpg, n)
    return InstanceDistances(
        circ=_level_bfs(_ring_offsets(n, g.gens), 0)[0],
        from_u0=from_u0,
        from_v0=from_v0,
        chord_only=_level_bfs(_ring_offsets(n, chords), 0)[0],
        parent_u0=parent_u0,
        parent_v0=parent_v0,
    )
