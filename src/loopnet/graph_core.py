"""Construction and adjacency for the two graph families.

A multi-loop (circulant) graph C_n(S) lives on Z_n: i and j are adjacent iff
|i - j| mod n equals one of the generators in S.  A GGPG graph doubles the
ring: an outer cycle u_0..u_{n-1}, inner vertices v_i joined by the chord
steps, and a spoke u_i v_i for every i.  Inner ids are offset by n so both
families use contiguous integer vertex ids, which keeps BFS arrays and report
columns trivial.  `expand` builds a circulant's GGPG partner (each ring edge
split into outer cycle plus spokes, chords moved to the inner ring); it
lives here, not in transforms, so the verify path compiles no more than it
calls.

Both graph types are immutable, value-comparable namedtuple subclasses,
equal only within their family; adjacency is computed from (n, generators)
on demand, so a graph costs O(1) memory no matter how large n gets.  Sweeps
build a lot of graphs, that matters.  The families share their derived
methods (vertices, edges, label, dot_id) on _Graph, which reads them off
the counts, neighbors() and the step field; each family defines only its
neighbour rule, its labels and its counts.
"""

from __future__ import annotations

import operator
from collections import namedtuple


class FamilyParameterError(ValueError):
    """Graph parameters outside the admissible family ranges."""


class GeneratorSequence(tuple):
    """Strictly increasing step list S = (s_1, ..., s_m).

    Positivity and strict monotonicity are checked here; the n-dependent
    upper bound s_m <= floor((n-1)/2) is enforced by the owning graph,
    since the sequence alone does not know n.
    """

    def __new__(cls, gens):
        try:
            items = tuple(map(int, gens))
        except (TypeError, ValueError):
            raise FamilyParameterError(f"generators must be integers, got {gens!r}")
        if not items:
            raise FamilyParameterError("generator list must be nonempty")
        if items[0] < 1:
            raise FamilyParameterError(f"generators must be positive, got {items[0]}")
        if not all(map(operator.lt, items, items[1:])):
            raise FamilyParameterError(
                f"generators must be strictly increasing (no duplicates), got {list(items)}")
        return super().__new__(cls, items)


def max_generator(n: int) -> int:
    """Largest admissible step for ring length n: floor((n-1)/2).

    This bound excludes n/2, so every generator orbit contributes exactly
    n distinct edges and no vertex sees the same neighbor twice.
    """
    return (n - 1) // 2


def _check_family(n: int, gens: GeneratorSequence, lowest: int, what: str) -> None:
    if not isinstance(n, int) or n < 5:
        raise FamilyParameterError(f"ring length must be an integer >= 5, got {n!r}")
    bound = max_generator(n)
    if gens[0] < lowest:
        raise FamilyParameterError(f"{what} must be >= {lowest}, got {gens[0]}")
    if gens[-1] > bound:
        raise FamilyParameterError(
            f"{what} must be <= floor((n-1)/2) = {bound} for n = {n}, got {gens[-1]}")


class CheckedRecord:
    """Mixin for the tuple-backed records whose __new__ converts and checks
    its fields: _make, and so _replace, goes through __new__ as well."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _Graph(CheckedRecord):
    """What the two graph records share.  Class-aware equality and hash: a
    graph equals only a graph of its own family with equal fields, never a
    bare tuple (__ne__ is spelled out because tuple's own compares fields
    alone).  And the methods derived from a family's num_vertices,
    neighbors(), _prefix and step field (self[1]: gens or chords)."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.family, *self))

    def vertices(self) -> range:
        return range(self.num_vertices)

    def edges(self) -> list[tuple[int, int]]:
        """Each undirected edge once, as (min, max), sorted: read off the
        sorted neighbors() lists, so already in order."""
        return [(v, w) for v in self.vertices() for w in self.neighbors(v) if v < w]

    def label(self) -> str:
        return f"{self._prefix}{self.n}({','.join(map(str, self[1]))})"

    def dot_id(self) -> str:
        return f"{self._prefix}{self.n}_" + "_".join(map(str, self[1]))


class CirculantGraph(_Graph, namedtuple("CirculantGraph", "n gens")):
    """C_n(S): vertices Z_n, edges i ~ i +- s (mod n) for each s in S."""

    __slots__ = ()
    family, _prefix = "circulant", "C"

    def __new__(cls, n: int, gens):
        gens = GeneratorSequence(gens)
        _check_family(n, gens, 1, "generators")
        return super().__new__(cls, n, gens)

    @property
    def m(self) -> int:
        """Number of generators."""
        return len(self.gens)

    @property
    def num_vertices(self) -> int:
        return self.n

    @property
    def num_edges(self) -> int:
        # each generator orbit has exactly n edges (no s = n/2 admitted)
        return self.n * self.m

    @property
    def degree(self) -> int:
        return 2 * self.m

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n = {self.n}")

    def neighbors(self, v: int) -> list[int]:
        self.check_vertex(v)
        n = self.n
        out = set()
        for s in self.gens:
            out.add((v + s) % n)
            out.add((v - s) % n)
        return sorted(out)

    def vertex_label(self, v: int) -> str:
        self.check_vertex(v)
        return str(v)


class GgpgGraph(_Graph, namedtuple("GgpgGraph", "n chords")):
    """Outer n-cycle, inner chord ring, and spokes.

    Vertex ids: outer u_i is i, inner v_i is n + i.  With a single chord s
    the edge set coincides with the generalized Petersen graph GPG(n, s).
    """

    __slots__ = ()
    family, _prefix = "ggpg", "GGPG"

    def __new__(cls, n: int, chords):
        chords = GeneratorSequence(chords)
        # chord 1 is rejected: the outer ring and spokes already carry step 1
        _check_family(n, chords, 2, "chords")
        return super().__new__(cls, n, chords)

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    @property
    def num_edges(self) -> int:
        # n outer + n spokes + n per chord
        return 2 * self.n + self.n * len(self.chords)

    def outer(self, i: int) -> int:
        """Vertex id of u_i."""
        return i % self.n

    def inner(self, i: int) -> int:
        """Vertex id of v_i."""
        return self.n + (i % self.n)

    def is_outer(self, v: int) -> bool:
        self.check_vertex(v)
        return v < self.n

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < 2 * self.n:
            raise IndexError(f"vertex {v} out of range for 2n = {2 * self.n}")

    def neighbors(self, v: int) -> list[int]:
        self.check_vertex(v)
        n = self.n
        if v < n:
            return sorted({(v + 1) % n, (v - 1) % n, n + v})
        i = v - n
        out = {i}
        for s in self.chords:
            out.add(n + (i + s) % n)
            out.add(n + (i - s) % n)
        return sorted(out)

    def vertex_label(self, v: int) -> str:
        self.check_vertex(v)
        return f"u{v}" if v < self.n else f"v{v - self.n}"


def build_circulant(n: int, gens) -> CirculantGraph:
    """Build C_n(gens); rejects n < 5 and unsorted/duplicate/out-of-range steps."""
    return CirculantGraph(n, gens)


def build_ggpg(n: int, chords) -> GgpgGraph:
    """Build the GGPG graph on ring length n with the given inner chords."""
    return GgpgGraph(n, chords)


def expand(g: CirculantGraph) -> GgpgGraph:
    """Inverse of spoke contraction: ring edges split into outer cycle plus
    spokes, chords move to the inner ring (so v_i v_{i+1} is never an edge)."""
    if g.gens[0] != 1:
        raise ValueError(
            f"expansion needs generator 1 in S, got {g.label()}")
    if len(g.gens) < 2:
        raise ValueError(
            f"expansion needs at least one chord >= 2, got {g.label()}")
    return build_ggpg(g.n, g.gens[1:])


def to_dot(g) -> str:
    """Byte-stable DOT text: node lines, then edge lines, each block sorted.

    Sorting is lexicographic on the emitted strings, so reruns and
    re-exports produce identical bytes.
    """
    nodes = sorted(f"  {g.vertex_label(v)};" for v in g.vertices())
    lines = []
    for a, b in g.edges():
        la, lb = sorted((g.vertex_label(a), g.vertex_label(b)))
        lines.append(f"  {la} -- {lb};")
    lines.sort()
    return "\n".join([f"graph {g.dot_id()} {{", *nodes, *lines, "}"]) + "\n"
