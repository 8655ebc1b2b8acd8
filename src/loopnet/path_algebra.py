"""Signed step-count algebra for circulants whose first generator is 1.

A path from 0 in C_n(1, s_2, ..., s_m) is described up to step order by the
net signed counts (alpha, lambda_2, ..., lambda_m): alpha ring steps of +-1
and lambda_k chord steps of +-s_k.  Its length is |alpha| + sum |lambda_k|
and its endpoint is alpha + sum lambda_k * s_k (mod n).  Any walk nets down
to such a representation without growing in length, which is why shortest
representations and shortest paths have the same length.

Everything here is a pure function over immutable inputs.  Graphs without
generator 1 are rejected: the outer/chord split does not apply to them.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .graph_core import CheckedRecord, CirculantGraph


class PathRep(CheckedRecord, namedtuple("PathRep", "alpha lambdas")):
    """Net signed step counts (alpha, lambda_2, ..., lambda_m)."""

    __slots__ = ()

    def __new__(cls, alpha: int, lambdas):
        return super().__new__(cls, alpha, tuple(int(x) for x in lambdas))

    @property
    def length(self) -> int:
        return abs(self.alpha) + sum(abs(x) for x in self.lambdas)


class Walk(CheckedRecord, namedtuple("Walk", "origin steps")):
    """An ordered list of (generator, direction) steps from an origin vertex.

    Steps are the single source of truth; the vertex sequence is derived by
    replay, so fixtures cannot drift out of sync with themselves.
    """

    __slots__ = ()

    def __new__(cls, origin: int, steps):
        return super().__new__(cls, origin, tuple((int(s), int(d)) for s, d in steps))

    def replay(self, g: CirculantGraph) -> list[int]:
        """Vertex sequence obtained by applying the steps in g."""
        g.check_vertex(self.origin)
        seq = [self.origin]
        v = self.origin
        for s, d in self.steps:
            _check_step(g, s, d)
            v = (v + d * s) % g.n
            seq.append(v)
        return seq


# A representation spelled out as a vertex sequence.  is_path records
# whether the sequence is vertex-distinct; a canonical realization of a
# non-shortest representation may revisit vertices and is then only a walk.
Realization = namedtuple("Realization", "vertices is_path")


def _require_gen1(g: CirculantGraph) -> None:
    if g.gens[0] != 1:
        raise ValueError(
            f"path algebra needs generator 1 in S, got {g.label()}")


def _check_step(g: CirculantGraph, s: int, d: int) -> None:
    if s not in g.gens:
        raise ValueError(f"step generator {s} not in S = {tuple(g.gens)}")
    if d not in (1, -1):
        raise ValueError(f"step direction must be +1 or -1, got {d}")


def _check_alignment(rep: PathRep, g: CirculantGraph) -> None:
    if len(rep.lambdas) != len(g.gens) - 1:
        raise ValueError(
            f"rep has {len(rep.lambdas)} lambdas but {g.label()} has "
            f"{len(g.gens) - 1} chords")


def reduce_walk(w: Walk, g: CirculantGraph) -> PathRep:
    """Net the walk's signed step counts into a representation.

    The result ends where the walk ends and is never longer than the walk:
    opposite steps over the same generator cancel.
    """
    _require_gen1(g)
    g.check_vertex(w.origin)
    net = dict.fromkeys(g.gens, 0)
    for s, d in w.steps:
        _check_step(g, s, d)
        net[s] += d
    return PathRep(net[1], tuple(net[s] for s in g.gens[1:]))


def endpoint(rep: PathRep, g: CirculantGraph, origin: int = 0) -> int:
    """(origin + alpha + sum lambda_k * s_k) mod n."""
    _require_gen1(g)
    _check_alignment(rep, g)
    g.check_vertex(origin)
    total = rep.alpha + sum(l * s for l, s in zip(rep.lambdas, g.gens[1:]))
    return (origin + total) % g.n


def realize(rep: PathRep, g: CirculantGraph, origin: int = 0) -> Realization:
    """Spell the rep out canonically: ring steps first, then chords by
    ascending generator.

    Returns the vertex sequence plus a flag saying whether it is
    vertex-distinct.  Realizations of truly shortest reps come out distinct;
    the flag exists so that claim can be checked instead of assumed.
    """
    _require_gen1(g)
    _check_alignment(rep, g)
    g.check_vertex(origin)
    ring, chords = _moves(rep, g)
    seq = tuple(itertools.accumulate(ring + chords, lambda v, off: (v + off) % g.n,
                                     initial=origin))
    return Realization(seq, len(set(seq)) == len(seq))


def _moves(rep: PathRep, g: CirculantGraph) -> tuple[list, list]:
    """The rep's ring steps (+-1) and chord steps (+-s_k, by ascending
    generator) as signed offsets: the canonical order of realize."""
    ring = [1 if rep.alpha > 0 else -1] * abs(rep.alpha)
    chords = [s if lam > 0 else -s
              for lam, s in zip(rep.lambdas, g.gens[1:]) for _ in range(abs(lam))]
    return ring, chords


def render_rep(rep: PathRep, g: CirculantGraph) -> str:
    """Text form like (1a-, 1c2+, 2c5+, 0c8+); zero entries keep a plus."""
    _check_alignment(rep, g)
    parts = [f"{abs(rep.alpha)}a{'-' if rep.alpha < 0 else '+'}"]
    for lam, s in zip(rep.lambdas, g.gens[1:]):
        parts.append(f"{abs(lam)}c{s}{'-' if lam < 0 else '+'}")
    return "(" + ", ".join(parts) + ")"


# --- canonical shortest representations ---
#
# Enumerate candidate reps by total length level; inside a level, absolute
# value vectors ascend lexicographically and signs run plus before minus.
# The first rep hitting the target is therefore *the* canonical one under
# the tie-break (smallest (|alpha|, |lambda_2|, ...), then + before -),
# and the level where a vertex first appears is its distance: a rep of
# length L replays as an L-step walk, and any shorter walk would net to a
# shorter rep.

def _abs_compositions(total: int, k: int):
    """Nonnegative k-tuples summing to total, lexicographically ascending."""
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _abs_compositions(total - head, k - 1):
            yield (head,) + rest


def _level_vectors(ell: int, k: int):
    """Signed k-vectors with |.|-sum ell, in canonical tie-break order."""
    for absvec in _abs_compositions(ell, k):
        options = [(a, -a) if a else (0,) for a in absvec]
        yield from itertools.product(*options)


def _first_reps(g: CirculantGraph):
    """(i, the canonical shortest rep from 0 to i) for every vertex i of g,
    in the order the level enumeration first hits them: the first hit is
    the canonical rep (see above).  g must have generator 1."""
    gens = tuple(g.gens)
    k, n = len(gens), g.n
    seen = set()
    for ell in range(n):
        for vec in _level_vectors(ell, k):
            t = sum(c * s for c, s in zip(vec, gens)) % n
            if t not in seen:
                seen.add(t)
                yield t, PathRep(vec[0], vec[1:])
                if len(seen) == n:
                    return


def shortest_rep(g: CirculantGraph, i: int) -> PathRep:
    """Canonical minimum-length rep from 0 to i (deterministic tie-break)."""
    _require_gen1(g)
    g.check_vertex(i)
    return next(rep for t, rep in _first_reps(g) if t == i)


def shortest_rep_table(g: CirculantGraph) -> list[PathRep]:
    """Canonical shortest rep for every target vertex, in one scan of the
    enumeration shortest_rep reads, so the two agree on every vertex.
    Building the whole table at once is what makes exhaustive sweeps
    affordable."""
    _require_gen1(g)
    found = dict(_first_reps(g))
    return [found[i] for i in range(g.n)]
