"""Independent oracle for loopnet report rows; it never imports loopnet.

Distances come from level-set BFS over Python-int bitsets: bit i of a level
is vertex i of Z_n, and a step by +-s is a rotation of the n-bit word.  The
GGPG graph is a pair of such words (outer ring, inner ring), whose next
level is

    outer' = rot(outer, +-1) | inner      (ring edges and spokes)
    inner' = outer | rot(inner, +-s_k)    (spokes and chords)

Run this file to self-test the oracle against networkx and known values:

    python3 benchmarks/oracle.py
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass


def _step_all(x: int, steps, n: int) -> int:
    """Every vertex one +-s step from the set x, for each s in steps.

    Bits past n - 1 are left set; callers mask them off with an AND
    against a subset of Z_n, which saves a full-width AND per rotation.
    """
    out = 0
    for s in steps:
        out |= (x << s) | (x >> (n - s)) | (x << (n - s)) | (x >> s)
    return out


def circulant_levels(n: int, gens, *, max_depth: int | None = None) -> list[int]:
    """Level sets from vertex 0 of C_n(gens); levels[d] = vertices at distance d."""
    unseen = ((1 << n) - 1) ^ 1
    frontier = 1
    levels = [frontier]
    while max_depth is None or len(levels) <= max_depth:
        frontier = _step_all(frontier, gens, n) & unseen
        if not frontier:
            break
        unseen ^= frontier
        levels.append(frontier)
    return levels


def ggpg_levels(n: int, chords, *, from_inner: bool) -> list[tuple[int, int]]:
    """(outer, inner) level sets from u_0 (or v_0) of GGPG(n; chords)."""
    outer, inner = (0, 1) if from_inner else (1, 0)
    unseen_o = ((1 << n) - 1) ^ outer
    unseen_i = ((1 << n) - 1) ^ inner
    levels = [(outer, inner)]
    while True:
        outer, inner = ((_step_all(outer, (1,), n) | inner) & unseen_o,
                        (outer | _step_all(inner, chords, n)) & unseen_i)
        if not (outer or inner):
            return levels
        unseen_o ^= outer
        unseen_i ^= inner
        levels.append((outer, inner))


def bits(x: int) -> list[int]:
    """Indices of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


@dataclass(frozen=True)
class Expected:
    """The oracle's values for one (n, chords) instance."""

    d_circ: int
    d_ggpg: int
    gap: int
    v_dc: tuple[int, ...]
    cond_outer: bool
    cond_inner: bool
    ecc_u0: int
    ecc_v0: int
    last_u0: tuple[int, int]
    last_v0: tuple[int, int]


def expected_row(n: int, chords) -> Expected:
    """Recompute every distance column of a report row for C_n(1, chords)."""
    chords = tuple(chords)
    circ = circulant_levels(n, (1,) + chords)
    d_circ = len(circ) - 1
    v_dc = tuple(bits(circ[-1]))
    from_u = ggpg_levels(n, chords, from_inner=False)
    from_v = ggpg_levels(n, chords, from_inner=True)
    d_ggpg = max(len(from_u), len(from_v)) - 1
    # ring-only distance from 0 to i is the shorter arc
    cond_outer = all(min(i, n - i) == d_circ for i in v_dc)
    # chord-only distance equals D exactly when i first appears at level D
    chord_lv = circulant_levels(n, chords, max_depth=d_circ)
    at_d = chord_lv[d_circ] if len(chord_lv) > d_circ else 0
    cond_inner = all(at_d >> i & 1 for i in v_dc)
    return Expected(d_circ, d_ggpg, d_ggpg - d_circ, v_dc, cond_outer, cond_inner,
                    len(from_u) - 1, len(from_v) - 1, from_u[-1], from_v[-1])


def admissible(n: int, chords) -> bool:
    """Chords strictly increasing, each in 2..floor((n-1)/2)."""
    return (len(chords) >= 1 and chords[0] >= 2 and chords[-1] <= (n - 1) // 2
            and all(a < b for a, b in zip(chords, chords[1:])))


def parse_label(label: str, n: int) -> int:
    """'u7' -> 7, 'v7' -> n + 7."""
    side, idx = label[0], int(label[1:])
    if side not in "uv" or not 0 <= idx < n:
        raise ValueError(f"bad GGPG vertex label {label!r}")
    return idx if side == "u" else n + idx


def ggpg_adjacent(a: int, b: int, n: int, chords) -> bool:
    if a > b:
        a, b = b, a
    if b < n:                       # both outer: ring edge
        return (b - a) % n in (1, n - 1)
    if a < n:                       # one of each: spoke
        return b - n == a
    d = (b - a) % n                 # both inner: chord edge
    return any(d in (s, n - s) for s in chords)


def witness_path_problem(n: int, chords, labels, exp: Expected) -> str | None:
    """Why a conj45 witness is not a diametral GGPG path, or None if it is."""
    try:
        path = [parse_label(x, n) for x in labels]
    except (ValueError, IndexError) as exc:
        return str(exc)
    if len(path) != exp.d_ggpg + 1:
        return f"path has {len(path) - 1} edges, d_ggpg is {exp.d_ggpg}"
    if path[0] == 0:
        ecc, (last_o, last_i) = exp.ecc_u0, exp.last_u0
    elif path[0] == n:
        ecc, (last_o, last_i) = exp.ecc_v0, exp.last_v0
    else:
        return f"path starts at {labels[0]}, not u0 or v0"
    for a, b in zip(path, path[1:]):
        if not ggpg_adjacent(a, b, n, chords):
            return f"{a} -- {b} is not an edge"
    end = path[-1]
    on_last = (last_o >> end & 1) if end < n else (last_i >> (end - n) & 1)
    if ecc != exp.d_ggpg or not on_last:
        return f"end {labels[-1]} is not at distance {exp.d_ggpg} from {labels[0]}"
    return None


# --- self-test against networkx ---

def _nx_expected(n: int, chords):
    import networkx as nx

    gens = (1,) + tuple(chords)
    circ = nx.Graph()
    circ.add_nodes_from(range(n))
    circ.add_edges_from((i, (i + s) % n) for i in range(n) for s in gens)
    dist = nx.single_source_shortest_path_length(circ, 0)
    d_circ = max(dist.values())
    v_dc = tuple(sorted(i for i, d in dist.items() if d == d_circ))
    ggpg = nx.Graph()
    ggpg.add_nodes_from(range(2 * n))
    for i in range(n):
        ggpg.add_edge(i, (i + 1) % n)
        ggpg.add_edge(i, n + i)
        for s in chords:
            ggpg.add_edge(n + i, n + (i + s) % n)
    d_ggpg = nx.diameter(ggpg)
    chord_g = nx.Graph()
    chord_g.add_nodes_from(range(n))
    chord_g.add_edges_from((i, (i + s) % n) for i in range(n) for s in chords)
    chord_d = nx.single_source_shortest_path_length(chord_g, 0)
    cond_outer = all(min(i, n - i) == d_circ for i in v_dc)
    cond_inner = all(chord_d.get(i) == d_circ for i in v_dc)
    return d_circ, d_ggpg, v_dc, cond_outer, cond_inner


def known_values_problem() -> str | None:
    """C5(1,2) is K5 (diameter 1); its expansion is the Petersen graph (diameter 2)."""
    e = expected_row(5, (2,))
    if (e.d_circ, e.d_ggpg, e.v_dc) != (1, 2, (1, 2, 3, 4)):
        return f"C5(1,2): got d_circ={e.d_circ} d_ggpg={e.d_ggpg} v_dc={e.v_dc}"
    return None


def self_test(cases: int = 300, seed: int = 0) -> int:
    """Compare the oracle with networkx; return the number of mismatches."""
    bad = 0
    problem = known_values_problem()
    if problem:
        print(f"known value mismatch: {problem}")
        bad += 1
    import networkx as nx

    if nx.diameter(nx.petersen_graph()) != expected_row(5, (2,)).d_ggpg:
        print("Petersen graph diameter mismatch")
        bad += 1
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(5, 70)
        top = (n - 1) // 2
        k = rng.randint(1, min(3, top - 1))
        chords = tuple(sorted(rng.sample(range(2, top + 1), k)))
        e = expected_row(n, chords)
        want = _nx_expected(n, chords)
        got = (e.d_circ, e.d_ggpg, e.v_dc, e.cond_outer, e.cond_inner)
        if got != want or e.gap != e.d_ggpg - e.d_circ:
            print(f"mismatch n={n} chords={chords}: oracle {got}, networkx {want}")
            bad += 1
    return bad


if __name__ == "__main__":
    failures = self_test()
    print("oracle self-test:", "ok" if failures == 0 else f"{failures} mismatches")
    sys.exit(1 if failures else 0)
