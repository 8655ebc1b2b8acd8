"""The oracle tier: list BFS over neighbors(), and every check built on it.

Each function recomputes its answer by list BFS (bfs, over a graph's own
neighbors() lists), so it is the independent reference the fast routes of
metrics are checked against; check_row runs the list kernel only to check
it and the identity's GGPG vectors (ggpg_vectors) against list BFS
(_cross_check).  A mismatch, or a symmetry shortcut that disagrees,
raises theorem_lab.TheoremViolation (exit 3 from the CLI).  Only
--paranoid rows, the diameter command and tests import this module.

Restricted distances feed the gap characterization: along the outer ring
only, the distance from 0 to i is min(i, n-i) (outer_only_distance); along
chords only it is BFS on the chord subgraph (inner_only_distances), with
an explicit infinity for unreachable vertices (chords sharing a divisor
with n cannot leave a residue class).

Diameters use symmetry shortcuts by default: a circulant looks the same
from every vertex (rotation i -> i+1 is an automorphism), so one BFS from
0 suffices; the same rotation on a GGPG graph has exactly two vertex
orbits, outer and inner, so two BFS runs suffice.  A paranoid mode
recomputes the diameter from every source, one BFS vector at a time (O(n)
memory, quadratic time), and raises if the shortcut ever disagrees.

The statement checks check_thm41 to check_thm44 take the circulant alone,
build its GGPG partner with expand, and recompute their statement from
list BFS.  A paranoid row's checks, check_row, run the same searches
through _source_vectors (3n searches, one source held at a time): its own
list kernel's vectors and summary against source 0 (_cross_check), the
route's summary against the list kernel's, then the sandwich and both
diameter shortcuts against the whole pass (_sandwich).
"""

from __future__ import annotations

import collections
import itertools

from .graph_core import CirculantGraph, GgpgGraph, expand
from .metrics import INF, instance_distances
from .theorem_lab import TheoremViolation


def format_distance(d) -> str:
    """Serialize a hop count; infinity becomes the literal string inf."""
    return "inf" if d == INF else str(int(d))


def _bfs_levels(neighbor_fn, num_vertices: int, src: int) -> list:
    dist = [INF] * num_vertices
    dist[src] = 0
    queue = collections.deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in neighbor_fn(u):
            if dist[w] is INF:
                dist[w] = du + 1
                queue.append(w)
    return dist


def bfs(g, src: int) -> tuple:
    """Exact unweighted distances from src in either family (or its Adjacency
    table), indexed by vertex id; INF marks unreachable vertices."""
    g.check_vertex(src)
    return tuple(_bfs_levels(g.neighbors, g.num_vertices, src))


def outer_only_distance(g: CirculantGraph, i: int) -> int:
    """Distance from 0 to i using generator-1 edges only: the shorter arc."""
    g.check_vertex(i)
    return min(i, g.n - i) if i else 0


def inner_only_distances(g: CirculantGraph) -> tuple:
    """Distances from 0 in the chord-only subgraph (generators after the
    first).  INF where no chord walk reaches."""
    chords, n = g.gens[1:], g.n
    return tuple(_bfs_levels(
        lambda v: [(v + sign * s) % n for s in chords for sign in (1, -1)], n, 0))


def ggpg_vectors(dist) -> tuple[list, list]:
    """d_p(u_0, x) and d_p(v_0, x) over GGPG ids x from the list kernel's dist,
    by the spoke identity, d_c = d_c(0, i): d_p(u_0, v_i) = d_p(v_0, u_i) = d_c + 1,
    d_p(u_0, u_i) = min(ring(i), d_c + 2) and d_p(v_0, v_i) = min(chord(i), d_c + 2)."""
    n = len(dist.circ)
    spoke = [d + 1 for d in dist.circ]
    ring = [min(i, n - i, d + 2) for i, d in enumerate(dist.circ)]
    chord = [min(c, d + 2) for c, d in zip(dist.chord_only, dist.circ)]
    return ring + spoke, spoke + chord


class Adjacency:
    """A graph whose neighbors() lists are built once and read from a table
    (Adjacency(t) of a table t is t): bfs and fifo_path take it for the graph,
    so searches from many sources share one O(n) table of neighbors()."""

    __slots__ = ("graph", "neighbors")

    def __new__(cls, g):
        if isinstance(g, cls):
            return g
        self = super().__new__(cls)
        self.graph, self.neighbors = g, [g.neighbors(v) for v in g.vertices()].__getitem__
        return self

    def __getattr__(self, name):
        return getattr(self.graph, name)


def fifo_path(g, src: int, dst: int) -> list[int]:
    """The path from src to dst in the tree of a FIFO BFS over g.neighbors():
    the oracle the gap-1 witness (metrics.diametral_path) is checked against."""
    g.check_vertex(dst)
    parent = {src: None}
    queue = collections.deque([src])
    while dst not in parent:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def eccentricity(g, src: int):
    return max(bfs(g, src))


def all_source_diameter(g):
    """Brute force: max eccentricity over every vertex, one source at a time
    on one Adjacency table.  The oracle the symmetry shortcuts are checked against."""
    table = Adjacency(g)
    return max(max(bfs(table, v)) for v in g.vertices())


def check_shortcut(g, shortcut: str, d, full) -> None:
    """Raise unless the shortcut's diameter d equals the all-source one."""
    if full != d:
        raise TheoremViolation(
            f"symmetry shortcut mismatch on {g.label()}: "
            f"{shortcut} = {d}, all-source diameter = {full}")


def diameter_circulant(g: CirculantGraph, paranoid: bool = False) -> int:
    """max distance from vertex 0; rotation makes every source equivalent."""
    if g.family != "circulant":
        raise TypeError(f"single-source shortcut needs a circulant, got {g.label()}")
    d = eccentricity(g, 0)
    if paranoid:
        check_shortcut(g, "ecc(0)", d, all_source_diameter(g))
    return d


def diameter_ggpg(g: GgpgGraph, paranoid: bool = False) -> int:
    """max(ecc(u_0), ecc(v_0)); rotation has two orbits, outer and inner."""
    if g.family != "ggpg":
        raise TypeError(f"two-source shortcut needs a GGPG graph, got {g.label()}")
    d = max(eccentricity(g, g.outer(0)), eccentricity(g, g.inner(0)))
    if paranoid:
        check_shortcut(g, "two-source", d, all_source_diameter(g))
    return d


def distance_dump_rows(g):
    """Rows for the distance dump CSV: family,n,gens,source,vertex,dist,
    from 0 on a circulant and from u_0 and v_0 on a GGPG graph."""
    gens_txt = "-".join(map(str, g[1]))
    for src in range(0, g.num_vertices, g.n):  # 0, and n = v_0 on a GGPG graph
        vec = bfs(g, src)
        for v in g.vertices():
            yield (g.family, g.n, gens_txt, g.vertex_label(src),
                   g.vertex_label(v), format_distance(vec[v]))


# --- the statement checks ---

# the pairwise sandwich check's outcome; witness, on a violation, is
# (i, j, x_label, y_label, d_c, d_p)
SandwichResult = collections.namedtuple("SandwichResult", "ok witness", defaults=(None,))
GapResult = collections.namedtuple("GapResult", "ok gap d_circ d_ggpg")
Gap1Characterization = collections.namedtuple(
    "Gap1Characterization", "predicted_gap_is_1 actual_gap consistent cond_outer cond_inner")
Gap2Conditions = collections.namedtuple(
    "Gap2Conditions", "any_condition_fires actual_gap consistent notes")


def extremal_vertices(g: CirculantGraph) -> list[int]:
    """All vertices at exactly diameter distance from 0 (the set V_Dc)."""
    vec = bfs(g, 0)
    top = max(vec)
    return [i for i, d in enumerate(vec) if d == top]


def _source_vectors(gc: CirculantGraph, gp: GgpgGraph, sources: int):
    """(i, d_c(i, .), d_p(u_i, .), d_p(v_i, .)) for i in range(sources), by
    list BFS over one Adjacency table per graph (neighbors() once per
    vertex), holding one source at a time: the only producer of the paired
    circulant and GGPG vectors that the statement checks read."""
    tc, tp = Adjacency(gc), Adjacency(gp)
    for i in range(sources):
        yield i, bfs(tc, i), bfs(tp, gp.outer(i)), bfs(tp, gp.inner(i))


def _sandwich(gc: CirculantGraph, gp: GgpgGraph, rows) -> SandwichResult:
    """The sandwich over every pair (x_i, y_j) of the rows of
    _source_vectors, in order; then both diameter shortcuts against the
    rows' largest eccentricity (TheoremViolation, as under paranoid; trivial
    on source 0 alone), which outrank the sandwich witness."""
    n = gc.n
    witness, ecc_c, ecc_p = None, [], []
    for i, dc, du, dv in rows:
        ecc_c.append(max(dc))
        ecc_p.append(max(max(du), max(dv)))
        witness = witness or next(
            ((i, j, gp.vertex_label(x), gp.vertex_label(y), d, vec[y])
             for j, d in enumerate(dc) for x, vec in ((i, du), (n + i, dv))
             for y in (j, n + j) if not d <= vec[y] <= d + 2), None)
    check_shortcut(gc, "ecc(0)", ecc_c[0], max(ecc_c))
    check_shortcut(gp, "two-source", ecc_p[0], max(ecc_p))
    return SandwichResult(witness is None, witness)


def check_thm41(gc: CirculantGraph, mode: str = "orbit") -> SandwichResult:
    """Pairwise sandwich d_c(i,j) <= d_p(x_i,y_j) <= d_c(i,j) + 2 between
    gc and its expansion (u_i = i, v_i = n + i).

    mode="orbit" checks the pairs from source 0, which covers all pairs
    because rotating both endpoints preserves both distances.
    mode="allpairs" takes no symmetry for granted: it runs every source on
    both graphs literally, one at a time (O(n) memory, quadratic time),
    and checks both diameter shortcuts too (TheoremViolation, as paranoid).
    """
    gp = expand(gc)
    if mode not in ("orbit", "allpairs"):
        raise ValueError(f"unknown mode {mode!r}")
    return _sandwich(gc, gp, _source_vectors(gc, gp, gc.n if mode == "allpairs" else 1))


def check_thm42(gc: CirculantGraph) -> GapResult:
    """Diameter gap between gc and its expansion must land in {1, 2}."""
    _, dc0, du, dv = next(_source_vectors(gc, expand(gc), 1))
    d_circ, d_ggpg = max(dc0), max(max(du), max(dv))
    return GapResult(d_ggpg - d_circ in (1, 2), d_ggpg - d_circ, d_circ, d_ggpg)


def _gap1_facts(gc: CirculantGraph) -> tuple[list, bool, bool, int]:
    """V_Dc, the two exact-length restricted-path conditions over it, and
    the gap, from source 0 of _source_vectors: what 4.3 and 4.4 both test.

    A ring-only path of length exactly D from 0 to i exists iff
    min(i, n-i) = D: the two arcs are the only vertex-distinct ring walks,
    and both are at least d_c(0,i) = D long.  Likewise a chord-only path of
    length exactly D exists iff the chord-subgraph distance equals D.
    """
    _, dc0, du, dv = next(_source_vectors(gc, expand(gc), 1))
    d = max(dc0)
    vdc = [i for i, di in enumerate(dc0) if di == d]
    inner = inner_only_distances(gc)
    return (vdc, all(outer_only_distance(gc, i) == d for i in vdc),
            all(inner[i] == d for i in vdc), max(max(du), max(dv)) - d)


def check_thm43(gc: CirculantGraph) -> Gap1Characterization:
    """Does the gap-1 characterization agree with the actual gap?"""
    _, cond_outer, cond_inner, gap = _gap1_facts(gc)
    predicted = cond_outer and cond_inner
    return Gap1Characterization(predicted, gap, predicted == (gap == 1),
                                cond_outer, cond_inner)


def check_thm44(gc: CirculantGraph) -> Gap2Conditions:
    """Gap-2 sufficient conditions, as the argument actually uses them.

    Fires when some extremal vertex misses either restricted-path equality,
    i.e. as the negation of the gap-1 characterization's conditions.  The
    literal bullet list also carries a stray clause "exists i in V_Dc with
    s <= i <= n - s" whose s is never pinned down; it is evaluated here
    under both plausible readings (largest chord, smallest chord) and
    reported in the notes, asserted under neither.
    """
    vdc, cond_outer, cond_inner, gap = _gap1_facts(gc)
    fires = not (cond_outer and cond_inner)
    n = gc.n
    notes = []
    for tag, s in (("s=max_chord", gc.gens[-1]), ("s=min_chord", gc.gens[1])):
        hit = any(s <= i <= n - s for i in vdc)
        notes.append(f"third-bullet[{tag}={s}]: {'true' if hit else 'false'}")
    return Gap2Conditions(fires, gap, (not fires) or gap == 2, tuple(notes))


def _cross_check(gc: CirculantGraph, gp: GgpgGraph, dist, facts, path, row0) -> None:
    """Paranoid tier: the kernel's vectors, and the GGPG vectors and
    eccentricities the spoke identity derives from them, against the list
    BFS vectors of row0, source 0 of _source_vectors; the summary's verdict
    conditions (cond_outer, cond_inner, near) against their definitions on
    V_Dc, read off the same vectors; and a gap-1 row's witness (path, a
    range of ids; else None) against a FIFO search over neighbors() from
    the source that list BFS names as attaining the larger diameter."""
    du, dv = ggpg_vectors(dist)
    _, slow_c, slow_u, slow_v = row0
    chord = inner_only_distances(gc)
    checks = (("circulant from 0", dist.circ, slow_c),
              ("chord-only from 0", dist.chord_only, chord),
              ("ggpg from u0", du, slow_u),
              ("ggpg from v0", dv, slow_v))
    for what, fast, slow in checks:
        if tuple(fast) != slow:
            v = next(v for v, (a, b) in enumerate(zip(fast, slow)) if a != b)
            raise TheoremViolation(
                f"kernel mismatch on {gc.label()} {what}: vertex {v} "
                f"kernel {fast[v]}, list BFS {slow[v]}")
    ecc = (max(slow_u), max(slow_v))
    if (facts.ecc_u0, facts.ecc_v0) != ecc:
        raise TheoremViolation(
            f"kernel mismatch on {gc.label()} ggpg eccentricities of (u0, v0): "
            f"summary {(facts.ecc_u0, facts.ecc_v0)}, list BFS {ecc}")
    d = max(slow_c)
    vdc = [i for i, x in enumerate(slow_c) if x == d]
    conds = (all(outer_only_distance(gc, i) == d for i in vdc),
             all(chord[i] == d for i in vdc), tuple([i for i in vdc if chord[i] == d + 1]))
    if (facts.cond_outer, facts.cond_inner, facts.near) != conds:
        raise TheoremViolation(
            f"verdict mismatch on {gc.label()} (cond_outer, cond_inner, near): "
            f"summary {(facts.cond_outer, facts.cond_inner, facts.near)}, list BFS {conds}")
    if path is not None:
        d = max(ecc)
        src, vec = (gp.outer(0), slow_u) if ecc[0] == d else (gp.inner(0), slow_v)
        want = fifo_path(gp, src, vec.index(d))
        if list(path) != want:
            raise TheoremViolation(
                f"witness mismatch on {gc.label()}: walk "
                f"{[gp.vertex_label(v) for v in path]}, FIFO search "
                f"{[gp.vertex_label(v) for v in want]}")


def check_row(gc: CirculantGraph, route: str, facts, path) -> SandwichResult:
    """A paranoid row's checks, from one _source_vectors pass over every
    source: the vectors of the list kernel, run here, its summary and the
    row's gap-1 witness (path) against source 0 (_cross_check), then the
    route's summary (facts, from metrics.row_facts) against the list
    kernel's, then the sandwich and both diameter shortcuts over the whole
    pass (_sandwich).  A mismatch raises TheoremViolation."""
    gp = Adjacency(expand(gc))  # one table for the pass and the FIFO search
    rows = _source_vectors(gc, gp, gc.n)
    row0 = next(rows)
    dist = instance_distances(gc)
    listed = dist.summary()
    _cross_check(gc, gp, dist, listed, path, row0)
    if facts != listed:
        raise TheoremViolation(
            f"route mismatch on {gc.label()}: {route} {facts}, list kernel {listed}")
    return _sandwich(gc, gp, itertools.chain([row0], rows))
