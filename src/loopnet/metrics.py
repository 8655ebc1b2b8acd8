"""Exact distances, eccentricities, diameters, and restricted distances.

Three routes compute the same facts.

  * The level-set route, level_set_summary: every BFS level is an n-bit
    int and a step +-s is a rotation, so one loop advances the circulant
    from 0, the GGPG graph from u_0 and v_0, and the chord-only ring a whole
    level per handful of big-int operations.  It returns only an
    InstanceSummary (the diameters, V_Dc, the two restricted-path
    conditions and the sandwich verdict), and only for instances whose
    circulant has at most LEVEL_CAP levels (probed only when n // 2 >
    LEVEL_CAP): its cost grows with the level count, the list kernel's
    with n.
  * The list route, instance_distances: one level-synchronous BFS kernel
    that walks vertex ids by offset arithmetic, with no neighbors() call,
    and returns every distance vector a verify_instance row needs -- the
    circulant from 0, the GGPG graph from u_0 and from v_0 (with BFS
    parents, for witness paths), and the chord-only ring.  Its summary()
    is the same InstanceSummary.
  * The oracle route, bfs over a graph's neighbors(), with the diameter
    helpers on top of it; tests and --paranoid check the list kernel
    against it element by element, and the two summaries against each
    other.

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
from operator import le

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


def all_source_distances(g) -> list[tuple]:
    """The distance vector from every vertex, by list BFS (the all-pairs oracle)."""
    return [bfs(g, v).dist for v in g.vertices()]


def all_source_diameter(g):
    """Brute force: max eccentricity over every vertex.  The oracle the
    symmetry shortcuts are checked against."""
    return max(map(max, all_source_distances(g)))


def check_shortcut(g, shortcut: str, d, dists) -> None:
    """Raise unless d equals the largest entry of g's all-source vectors dists."""
    full = max(map(max, dists))
    if full != d:
        raise RuntimeError(
            f"symmetry shortcut mismatch on {g.label()}: "
            f"{shortcut} = {d}, all-source diameter = {full}")


def diameter_circulant(g: CirculantGraph, paranoid: bool = False) -> int:
    """max distance from vertex 0; rotation makes every source equivalent."""
    if g.family != "circulant":
        raise TypeError(f"single-source shortcut needs a circulant, got {g.label()}")
    d = eccentricity(g, 0)
    if paranoid:
        check_shortcut(g, "ecc(0)", d, all_source_distances(g))
    return d


def diameter_ggpg(g: GgpgGraph, paranoid: bool = False) -> int:
    """max(ecc(u_0), ecc(v_0)); rotation has two orbits, outer and inner."""
    if g.family != "ggpg":
        raise TypeError(f"two-source shortcut needs a GGPG graph, got {g.label()}")
    d = max(eccentricity(g, g.outer(0)), eccentricity(g, g.inner(0)))
    if paranoid:
        check_shortcut(g, "two-source", d, all_source_distances(g))
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
class InstanceSummary:
    """The facts behind a verify_instance row's verdicts, from either route.

    d_circ = D(C_n(1, chords)) = ecc(0); ecc_u0 / ecc_v0 are the GGPG
    eccentricities of u_0 and v_0; v_dc lists the vertices at distance
    d_circ from 0, ascending.  cond_outer: min(i, n - i) = d_circ for every
    i in v_dc; cond_inner: every i in v_dc has chord-only distance d_circ.
    sandwich_ok: d_c(0, i) <= d_p(x, y_i) <= d_c(0, i) + 2 for x in
    {u_0, v_0} and y_i in {u_i, v_i}, every i.
    """

    d_circ: int
    ecc_u0: int
    ecc_v0: int
    v_dc: tuple
    cond_outer: bool
    cond_inner: bool
    sandwich_ok: bool

    @property
    def d_ggpg(self) -> int:
        return max(self.ecc_u0, self.ecc_v0)


def _sandwich_holds(n, dc0, du, dv) -> bool:
    """The orbit sandwich as whole-vector comparisons: dc0 <= d_p <= dc0 + 2
    for d_p each side half of the u0 and v0 vectors."""
    hi = [d + 2 for d in dc0]
    return all(all(map(le, dc0, side)) and all(map(le, side, hi))
               for vec in (du, dv) for side in (vec[:n], vec[n:]))


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

    def summary(self) -> InstanceSummary:
        """The list route's InstanceSummary, read off the whole vectors."""
        dc0, n = self.circ, len(self.circ)
        d = max(dc0)
        vdc = tuple(i for i, di in enumerate(dc0) if di == d)
        return InstanceSummary(
            d_circ=d,
            ecc_u0=max(self.from_u0),
            ecc_v0=max(self.from_v0),
            v_dc=vdc,
            cond_outer=all(min(i, n - i) == d for i in vdc),
            cond_inner=all(self.chord_only[i] == d for i in vdc),
            sandwich_ok=_sandwich_holds(n, dc0, self.from_u0, self.from_v0),
        )


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


# --- the level-set route ---

# Largest circulant eccentricity level_set_summary takes on; rows with more
# levels go to the list kernel.  A level costs a few shifts of whole n-bit
# ints, the list kernel a fixed cost per vertex, so the crossover grows with
# n.  Measured on C_n(1, s) rows (Python 3.11, a shared 2-core x86 machine,
# min of 25 runs at n = 2 000 and of 5 at n = 100 000, two runs), level
# sets over the list kernel's summary took 0.31x-0.33x at 202 levels,
# 0.40x-0.46x at 334 and 0.65x-0.68x at 500 (the most C_2000(1, s) has) for
# n = 2 000, and 0.28x at 549, 0.45x-0.46x at 853, 0.88x-0.93x at 1 269 and
# 1.61x-1.71x at 2 509 for n = 100 000.  So 200 levels is on the winning
# side at every n; the bare probe that rejects a row over the cap costs
# about 5 ms at n = 100 000 (C_100000(1, 49999), 25 000 levels).
LEVEL_CAP = 200


def _shift_pairs(n: int, steps) -> tuple:
    """(s, n - s) for every step s: the right shifts of x | x << n that
    rotate the n-bit set x by -s and +s (bits n and up masked off later)."""
    return tuple((s, n - s) for s in steps)


def _bit_positions(x: int) -> tuple:
    """Ascending positions of the set bits of x."""
    bits = bin(x)[:1:-1]  # bit i at index i
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return tuple(out)


def _within_cap(n: int, gens, mask: int) -> bool:
    """Whether the circulant BFS from 0 ends within LEVEL_CAP levels, by a
    bare level-set run that costs little on a row bound for the list kernel."""
    pairs = _shift_pairs(n, gens)
    frontier, unreached = 1, mask ^ 1
    for _ in range(LEVEL_CAP):
        if not unreached:
            break
        y, frontier = frontier | frontier << n, 0
        for s, t in pairs:
            frontier |= y >> s | y >> t
        frontier &= unreached
        unreached ^= frontier
    return not unreached


def level_set_summary(g: CirculantGraph) -> InstanceSummary | None:
    """The InstanceSummary of C_n(1, chords) from level sets, or None when
    the circulant's eccentricity exceeds LEVEL_CAP.

    One loop advances, a level per pass, the circulant from 0, the
    chord-only ring from 0 (up to level d_circ) and the GGPG graph from u_0
    and from v_0 (a frontier and an unreached set per side), all n-bit ints.
    At every level L it checks the sandwich as ball containments on every
    (source, side): P(L) <= C(L) (d_p >= d_c) and C(L - 2) <= P(L)
    (d_p <= d_c + 2), keeping the circulant's unreached sets of the last
    two levels, so state stays O(n) bits.  Generator 1 bounds the
    eccentricity by n // 2, so the cap probe runs only if n // 2 > LEVEL_CAP.
    """
    if g.gens[0] != 1:
        raise ValueError(f"level sets need generator 1 in S, got {g.label()}")
    n = g.n
    mask = (1 << n) - 1
    if n // 2 > LEVEL_CAP and not _within_cap(n, g.gens, mask):
        return None
    gens, chords, t1 = _shift_pairs(n, g.gens), _shift_pairs(n, g.gens[1:]), n - 1
    circ, cu = 1, mask ^ 1            # circulant frontier and unreached set
    cu1 = cu2 = mask                  # cu one and two levels back
    chord, chu = 1, mask ^ 1          # chord-only ring
    ao, ai, auo, aui = 1, 0, mask ^ 1, mask   # GGPG from u_0: outer, inner
    bo, bi, buo, bui = 0, 1, mask, mask ^ 1   # GGPG from v_0
    ok = True
    level = d_circ = ecc_u0 = ecc_v0 = 0
    while True:
        rest = auo | aui | buo | bui
        if ok:
            ok = cu & auo & aui & buo & bui == cu and rest | cu2 == cu2
        if not (cu or rest):
            break
        level += 1
        cu2, cu1 = cu1, cu
        if cu:
            y, circ = circ | circ << n, 0
            for s, t in gens:
                circ |= y >> s | y >> t
            circ &= cu
            cu ^= circ
            y, chord = chord | chord << n, 0
            for s, t in chords:
                chord |= y >> s | y >> t
            chord &= chu
            chu ^= chord
            d_circ = level
        if auo | aui:
            y, x = ai | ai << n, ao
            for s, t in chords:
                x |= y >> s | y >> t
            y = ao | ao << n
            ao = (y >> 1 | y >> t1 | ai) & auo
            ai = x & aui
            auo ^= ao
            aui ^= ai
            ecc_u0 = level
        if buo | bui:
            y, x = bi | bi << n, bo
            for s, t in chords:
                x |= y >> s | y >> t
            y = bo | bo << n
            bo = (y >> 1 | y >> t1 | bi) & buo
            bi = x & bui
            buo ^= bo
            bui ^= bi
            ecc_v0 = level
    d_bits = (1 << d_circ) | (1 << (n - d_circ))
    return InstanceSummary(
        d_circ=d_circ,
        ecc_u0=ecc_u0,
        ecc_v0=ecc_v0,
        v_dc=_bit_positions(circ),
        cond_outer=circ & d_bits == circ,
        cond_inner=circ & chord == circ,
        sandwich_ok=ok,
    )
