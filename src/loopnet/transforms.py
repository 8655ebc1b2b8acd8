"""Spoke contraction, its inverse expansion, and moving paths across them.

Contracting every spoke u_i v_i of a GGPG graph merges the pair into one
class w_i; outer edges become ring (step 1) edges and chords stay chords,
so the quotient is the circulant C_n(1, s_2, ..., s_m).  Expansion goes the
other way and is only defined when the circulant's first generator is 1.

Lifting carries a canonical representation into the GGPG graph: ring steps
ride the outer cycle, chord steps ride the inner ring, and at most two
spokes adjust the endpoint sides, which is the whole reason the two
diameters never drift apart by more than 2.
"""

from __future__ import annotations

from .graph_core import CirculantGraph, GgpgGraph, build_circulant, build_ggpg
from .path_algebra import PathRep, realize

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


def expand(g: CirculantGraph) -> GgpgGraph:
    """Inverse construction: ring edges split into outer cycle plus spokes,
    chords move to the inner ring (so v_i v_{i+1} is never an edge)."""
    if g.gens[0] != 1:
        raise ValueError(
            f"expansion needs generator 1 in S, got {g.label()}")
    if len(g.gens) < 2:
        raise ValueError(
            f"expansion needs at least one chord >= 2, got {g.label()}")
    return build_ggpg(g.n, g.gens[1:])


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

    Ring steps run on the outer cycle, chord steps on the inner ring, with
    one boundary spoke where the traversal switches rings and at most one
    more spoke to land on a requested endpoint side: never more than two
    spokes total, so the lift is at most rep.length + 2 edges long.

    For mixed reps the ring-first order suits every side combination except
    (inner, outer), which would need three spokes; that case runs chords
    first (descending generator, the mirror image of the canonical order,
    so it is a path exactly when the canonical realization is) and the ring
    steps last.
    """
    start_side = _side_of(endpoints[0])
    end_side = _side_of(endpoints[1])
    h = expand(g)
    n = g.n
    if not realize(rep, g).is_path:
        raise ValueError(
            f"rep {rep} does not realize a path in {g.label()}; cannot lift")

    a = rep.alpha
    chord_moves = []  # ascending-generator chord offsets
    for lam, s in zip(rep.lambdas, g.gens[1:]):
        if lam:
            chord_moves.extend([s if lam > 0 else -s] * abs(lam))

    seq: list[int] = []

    def ride_outer(start: int, count: int) -> int:
        v, step = start, 1 if count > 0 else -1
        for _ in range(abs(count)):
            v = (v + step) % n
            seq.append(h.outer(v))
        return v

    def ride_inner(start: int, moves) -> int:
        v = start
        for off in moves:
            v = (v + off) % n
            seq.append(h.inner(v))
        return v

    if not a and not chord_moves:
        # zero rep: at most the spoke joining the two requested sides
        first = h.outer(0) if start_side == OUTER else h.inner(0)
        last = h.outer(0) if end_side == OUTER else h.inner(0)
        return [first] if first == last else [first, last]

    if a and chord_moves and (start_side, end_side) == (INNER, OUTER):
        # chords first in mirrored (descending-generator) order, then the
        # ring: one boundary spoke instead of the three that ring-first
        # traversal would need here
        seq.append(h.inner(0))
        mid = ride_inner(0, list(reversed(chord_moves)))
        seq.append(h.outer(mid))
        ride_outer(mid, a)
        return seq

    if chord_moves and not a:
        # pure chord rep: the whole traversal lives on the inner ring
        if start_side == OUTER:
            seq.append(h.outer(0))
        seq.append(h.inner(0))
        last = ride_inner(0, chord_moves)
        if end_side == OUTER:
            seq.append(h.outer(last))
        return seq

    # ring steps first, then any chords, with the boundary spoke between
    if start_side == INNER:
        seq.append(h.inner(0))
    seq.append(h.outer(0))
    turn = ride_outer(0, a)
    if chord_moves:
        seq.append(h.inner(turn))
        last = ride_inner(turn, chord_moves)
        if end_side == OUTER:
            seq.append(h.outer(last))
    elif end_side == INNER:
        seq.append(h.inner(turn))
    return seq
