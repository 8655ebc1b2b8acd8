"""Spoke contraction, its inverse expansion, and moving paths across them.

Contracting every spoke u_i v_i of a GGPG graph merges the pair into one
class w_i; outer edges become ring (step 1) edges and chords stay chords,
so the quotient is the circulant C_n(1, s_2, ..., s_m).  Expansion goes the
other way and is only defined when the circulant's first generator is 1.
`expand` is defined in graph_core, beside build_ggpg, so that verifying a
row never loads this module or path_algebra; this module re-exports it.

Lifting carries a canonical representation into the GGPG graph: ring steps
ride the outer cycle, chord steps ride the inner ring, and at most two
spokes adjust the endpoint sides, which is the whole reason the two
diameters never drift apart by more than 2.
"""

from __future__ import annotations

from .graph_core import CirculantGraph, GgpgGraph, build_circulant, expand
from .path_algebra import PathRep, _moves, realize

OUTER = "outer"
INNER = "inner"


def contract_spokes(g: GgpgGraph) -> CirculantGraph:
    """Merge each u_i, v_i pair into w_i (the class v % n of a GGPG id v)
    and rebuild the quotient circulant.

    Offsets are derived from the actual edge list rather than assumed, and
    parallel edges collapse silently because the offset set is a set.
    """
    n = g.n
    offsets = set()
    for a, b in g.edges():
        d = (b - a) % n
        if d:  # a spoke (d = 0) vanishes under contraction
            offsets.add(min(d, n - d))
    return build_circulant(n, sorted(offsets))


def _check_ggpg_walk(p, h: GgpgGraph) -> None:
    if not p:
        raise ValueError("empty vertex sequence")
    for v in p:
        h.check_vertex(v)
    for a, b in zip(p, p[1:]):
        if b not in h.neighbors(a):
            raise ValueError(
                f"{h.vertex_label(a)} -- {h.vertex_label(b)} is not an edge "
                f"of {h.label()}")


def project_path(p, h: GgpgGraph) -> list[int]:
    """Map a GGPG path to its spoke-class sequence; spoke steps vanish.

    The result is a walk in the contracted circulant whose length is the
    input length minus the number of spokes traversed.
    """
    _check_ggpg_walk(p, h)
    out = []
    for v in p:
        c = v % h.n
        if not out or out[-1] != c:
            out.append(c)
    return out


def _side_of(requested) -> str:
    if requested not in (OUTER, INNER):
        raise ValueError(f"endpoint side must be '{OUTER}' or '{INNER}', got {requested!r}")
    return requested


def lift_path(rep: PathRep, g: CirculantGraph,
              endpoints: tuple[str, str] = (OUTER, OUTER)) -> list[int]:
    """Carry a canonical rep into the expanded GGPG graph.

    Ring steps run on the outer cycle and chord steps on the inner ring, as
    two legs; a spoke goes in wherever the side changes, and at the end to
    land on the requested side: never more than two spokes total, so the
    lift is at most rep.length + 2 edges long.

    The ring leg goes first for every side combination except (inner,
    outer) with both kinds of move, which would need three spokes; there
    the chord leg goes first, in descending generator order (the mirror
    image of the canonical order, so it is a path exactly when the
    canonical realization is).
    """
    start_side = _side_of(endpoints[0])
    end_side = _side_of(endpoints[1])
    h = expand(g)
    n = g.n
    if not realize(rep, g).is_path:
        raise ValueError(
            f"rep {rep} does not realize a path in {g.label()}; cannot lift")

    ring, chords = _moves(rep, g)
    legs = [(OUTER, ring), (INNER, chords)]
    if ring and chords and (start_side, end_side) == (INNER, OUTER):
        legs = [(INNER, chords[::-1]), (OUTER, ring)]

    def at(side, v):
        return h.outer(v) if side == OUTER else h.inner(v)

    side, v = start_side, 0
    seq = [at(side, v)]
    for leg_side, moves in legs:
        if moves and leg_side != side:
            side = leg_side
            seq.append(at(side, v))
        for off in moves:
            v = (v + off) % n
            seq.append(at(side, v))
    if side != end_side:
        seq.append(at(end_side, v))
    return seq
