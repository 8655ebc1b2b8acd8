"""The row routes: distances by the spoke identity, and the gap-1 witness walk.

The spoke identity ties every GGPG distance from u_0 and v_0 to the
circulant.  With ring(i) = min(i, n - i) and chord(i) the chord-only
distance from 0 (INF where no chord walk reaches), for every i:

    d_p(u_0, v_i) = d_p(v_0, u_i) = d_c(0, i) + 1,
    d_p(u_0, u_i) = min(ring(i), d_c(0, i) + 2),
    d_p(v_0, v_i) = min(chord(i), d_c(0, i) + 2).

Proof.  (<=) Reorder a shortest circulant walk into a block of ring steps
and a block of chord steps, in either order: it lifts to a walk along the
outer ring and one along the inner ring joined by a spoke, with a second
spoke when both ends lie on one side; a walk of one kind of step may stay
on its ring.  (>=) A GGPG walk with k spokes projects to a circulant walk
of length len - k; a walk that changes sides has k >= 1, one that leaves
a ring and comes back has k >= 2, and one with k = 0 stays on its ring.
Since ring(i), chord(i) >= d_c(0, i), rotation gives every pair sandwich
(4.1), the gap lies in {1, 2} (4.2), and gap = 1 exactly when every i in
V_Dc has ring(i) <= D + 1 and chord(i) <= D + 1 (D the circulant's
diameter).

So every verdict fact of a row depends only on D, V_Dc and the class of
chord(i) on V_Dc: = D, = D + 1 or > D + 1.  _summarize is that rule, the
one place that turns those facts, as sorted points (the last class only as
a truth value), into an InstanceSummary.

Four routes compute the same facts; the first three apply the identity,
and run_facts picks each row's route among them (row_facts for one row).

  * The lattice route, lattice_distances, serves double loops C_n(1, s), the
    m = 2 rows, on rings of DOUBLE_LOOP_LEVELS_BELOW vertices and more
    (shorter rings take level sets, which cost less there), with no BFS
    (the plane-tessellation view of Yebra, Fiol, Morillo and Alegre, and
    of Boesch and Wang).  d_c(0, x) is the least |a| + |b| over the pairs
    with a + b s = x (mod n), so two pairs for one x differ by a vector of
    the lattice L = {(a, b) : a + b s = 0 mod n}.
    Gauss-reduce its basis (n, 0), (-s, 1) and take, of w1, w2 and
    w1 +- w2, the vector w = (alpha, beta) with the least
    max(|alpha|, |beta|); that was the max-norm shortest vector of L on
    every n < 1 500 checked, at most sqrt(n) by Minkowski.
    Dominance: if |alpha| <= |beta|, every x has a shortest pair with
    |b| < |beta|, since subtracting +-w from a pair with |b| >= |beta|
    lowers |b| by |beta| and raises |a| by at most |alpha|; otherwise,
    likewise, one with |a| < |alpha|.  In the first case (the b-form)
    d_c(0, x) = min over |b| < |beta| of |b| + ring(x - b s): the lower
    envelope on Z_n of slope-1 tents centred at b s with height |b|.  In
    the second (the a-form) let g = gcd(n, s), N = n / g and
    t = (s / g)^-1 mod N: a pair for x has a = x (mod g), and for each
    class r mod g the k with |r + g k| < |alpha| put a tent on Z_N at k t
    with height |r + g k|; the point z of Z_N is x = r + g (z s / g mod N).
    The envelope: sort the tents and relax each height to
    min(h_j, h_i + gap) around the cycle, one lap each way from the lowest
    tent, so each centre holds the envelope's value; between neighbouring
    centres with gap G it then peaks at (h_j + h_{j+1} + G) // 2, at one
    point, or two when h_{j+1} + G - h_j is odd.  D is the largest peak and
    V_Dc every point that reaches it, and chord(i) is INF unless g | i, else
    min(k, N - k) for k = (i / g) t mod N.  O(sqrt(n) log n + |V_Dc|)
    operations, with no n-bit set.  The relaxed envelope also
    gives d_c(0, x) at any one x in O(log n): bisect for the centres on
    either side of x, and take the lower of their two tents.
  * The level-set route, level_set_summaries, serves the m >= 3 rows and
    the double loops on rings shorter than DOUBLE_LOOP_LEVELS_BELOW: every
    BFS level is an n-bit int and a step +-s is a rotation, so one loop
    advances the chord-only ring from 0 a whole level per handful of
    big-int operations (the only n-bit sets in loopnet), and grows the
    circulant's ball from it by ring dilation:

        B(d + 1) = (B(d) + {-1, 0, 1}) | C(d + 1),

    B(d) and C(d) the balls of radius d about 0 in the circulant and in the
    chord-only ring.  Proof: Z_n is abelian, so a walk's ring steps commute
    with its chord steps, and B(d) is the union over a + b <= d of
    C(b) + [-a, a]; in B(d + 1), a term with a >= 1 is a term of B(d)
    moved by one ring step, and one with a = 0 lies in C(d + 1).  So only
    the chords are shifted, once each per level, and the circulant's level
    costs two one-bit shifts.  The loop walks a run of chord sets on one
    ring (a block's rows of one n, which run_facts hands it whole), sets the
    ring's constants once, and yields one InstanceSummary per row (the
    diameters, V_Dc, the two restricted-path conditions and the V_Dc
    vertices at chord-only distance D + 1), or None for a row whose
    circulant has more than LEVEL_CAP levels: its cost grows with the level
    count, the list kernel's with n.  level_set_summary is its one-row case.
  * The list route, instance_distances: one level-synchronous BFS kernel
    that walks vertex ids by offset arithmetic, with no neighbors() call,
    and returns the circulant and chord-only vectors from 0, from which the
    identity gives both GGPG vectors (oracle.ggpg_vectors).  Its summary()
    reads the same points off the vectors for _summarize.  It serves the
    m >= 3 rows over the cap, and is the oracle both faster routes are
    checked against under --paranoid.
  * The oracle route: list BFS over a graph's neighbors() (oracle.bfs),
    the restricted distances and the statement checks, all in the oracle
    module, which no non-paranoid row imports.  It never uses the
    identity: tests and --paranoid check the list kernel and the
    identity's vectors against it element by element, and the fast
    route's summary against the list kernel's.

The gap-1 witness, diametral_path, is walked, not searched.  A gap-1 row
ships the path that a FIFO BFS over the sorted neighbors() lists takes from
u_0 to the least GGPG id at distance D + 1 = D(GGPG) (on such a row
ecc(u_0) = D + 1, since d_p(u_0, v_i) = D + 1 on V_Dc).

  * The target is u_t, t the least i >= D + 1 with d_c(0, i) >= D - 1.
    With a chord s >= 2, D <= n / 2 - 1, so ring(D + 1) = D + 1, and
    d_p(u_0, u_i) = min(ring(i), d_c(0, i) + 2) is D + 1 at i = D + 1 if
    d_c(0, D + 1) >= D - 1.  Otherwise D is not in V_Dc (a ring step moves
    d_c by at most 1), nor is n - D (V_Dc is symmetric), so V_Dc lies in
    [D + 1, n - D - 1], and d_c climbs from at most D - 2 to D on the way
    to its first point: it passes D - 1 at t, where ring(t) >= D + 1.  Every
    u_i before t is nearer than D + 1, and every v_i is after u_t.
  * The least geodesic.  A FIFO BFS orders each level by its parents'
    order, then by neighbour rank.  So, by induction on the level, the tree
    path to a vertex is its lexicographically least geodesic, compared by
    neighbour rank: the tree parent is the first of its neighbours one
    level up, whose own tree path is the least of theirs.  The greedy walk
    from u_0 finds that path: at each vertex, take the first neighbour w in
    ascending id with d_p(w, u_t) = r - 1, where r is the distance left.
    By the identity and rotation, with delta = t - a mod n,
    d_p(u_a, u_t) = min(ring(delta), d_c(0, delta) + 2) and
    d_p(v_a, u_t) = d_c(0, delta) + 1.
  * Ring runs.  A ring step changes the distance to u_t by at most 1, so on
    a run of ring steps from u_a, d_p(u_{a+-k}, u_t) = r - k holds for every
    k up to some K and fails beyond it.  At each vertex of the run, the
    vertex the walk came from is the only ring neighbour ordered before the
    next one, and it is not on a geodesic; the spoke is ordered after both.
    So the walk follows the ring for exactly K steps, and one bisection
    finds K.  Chord steps and spokes go one at a time.

A walk thus reads O(path length + log n per ring run) circulant distances:
from the lattice on its route, else from an O(n) vector, the list
kernel's or circulant_distances' (so every m >= 3 row still holds one).  It
returns the path as one range per run, so on the lattice route it holds
O(moves) memory: the C_{4k}(1, 2k - 1) witness, u_0 ... u_{k+1}, is
(range(0, 1), range(1, k + 2)).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple

from .graph_core import CirculantGraph, _unchecked_circulant

INF = math.inf


# --- the one-pass instance kernel ---

def _ring_offsets(n: int, steps) -> list[tuple]:
    """Per-vertex neighbour offsets of the ring Z_n with steps +-s.

    Row i lists w - i for the neighbours w of i in ascending order of w:
    the ascending list offs of every s and n - s, rotated at
    k = bisect_left(offs, n - i) into offs[k:] + offs[:k], where offs[k:]
    wrap past n - 1 and so are shifted by -n.  k changes only at
    the points n - o, so the rows are a few shared tuples repeated over runs
    of vertices.
    """
    offs = sorted({*steps, *(n - s for s in steps)})
    wrapped = [o - n for o in offs]
    cuts = [0, *(n - o for o in reversed(offs)), n]
    rows = []
    for k, lo, hi in zip(range(len(offs), -1, -1), cuts, cuts[1:]):
        rows += [(*wrapped[k:], *offs[:k])] * (hi - lo)
    return rows


def _level_bfs(offsets: list, src: int) -> list:
    """Distances from src; w is a neighbour of v iff w - v is in offsets[v].
    Unreachable vertices keep INF."""
    dist = [INF] * len(offsets)
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
                    push(w)
        frontier = nxt
    return dist


class InstanceSummary(namedtuple(
        "InstanceSummary", "d_circ ecc_u0 ecc_v0 v_dc cond_outer cond_inner near")):
    """The facts behind a verify_instance row's verdicts, from any of the
    lattice, level-set and list routes (all build it with _summarize).

    d_circ = D(C_n(1, chords)) = ecc(0); ecc_u0 / ecc_v0 are the GGPG
    eccentricities of u_0 and v_0, read by the spoke identity; v_dc lists
    the vertices at distance d_circ from 0, ascending.  cond_outer:
    min(i, n - i) = d_circ for every i in v_dc; cond_inner: every i in v_dc
    has chord-only distance d_circ.  near lists the i in v_dc whose
    chord-only distance is d_circ + 1, ascending.
    """

    __slots__ = ()

    @property
    def d_ggpg(self) -> int:
        return max(self.ecc_u0, self.ecc_v0)


def _summarize(n: int, d: int, vdc: tuple, near, far) -> InstanceSummary:
    """The one verdict rule: the InstanceSummary of a row whose circulant has
    diameter d, from the ascending points of V_Dc (a tuple, kept as it is),
    those of its points whose chord-only distance is d + 1 (near), and far,
    which is true when some point's is above d + 1 (its points, or as the
    level loop gives it, their bit set: no verdict reads more than that).

    By the spoke identity, d_p(u_0, v_i) = d_c(0, i) + 1 and d_p(u_0, u_i) =
    min(ring(i), d_c(0, i) + 2), which for i outside V_Dc are at most d + 1
    and for i in V_Dc are d + 1 and min(ring(i), d + 2) >= d.  So ecc(u_0)
    is d + 2 if some i in V_Dc has ring(i) > d + 1, that is d + 1 < i <
    n - d - 1, else d + 1; likewise ecc(v_0) with chord(i).  Both conditions
    ask for ring(i) = chord(i) = d on V_Dc, where both are at least d; as
    V_Dc is symmetric, ring(i) = d on all of it iff it is {d, n - d}.
    """
    return tuple.__new__(InstanceSummary, (
        d,
        d + 2 if bisect.bisect_right(vdc, d + 1) < bisect.bisect_left(vdc, n - d - 1)
        else d + 1,                                             # ecc_u0
        d + 2 if far else d + 1,                                # ecc_v0
        vdc,
        vdc[0] == d and vdc[-1] == n - d and len(vdc) <= 2,     # cond_outer
        not (near or far),                                      # cond_inner
        tuple(near),
    ))


class InstanceDistances(namedtuple("InstanceDistances", "circ chord_only")):
    """The distances one C_n(1, chords) / GGPG pair row needs.

    circ[i] = d_c(0, i); chord_only[i] is the chord-subgraph distance from
    0 (INF when unreachable).  Every GGPG distance from u_0 and v_0 follows
    from these two by the spoke identity (oracle.ggpg_vectors).
    """

    __slots__ = ()

    def summary(self) -> InstanceSummary:
        """The list route's InstanceSummary: V_Dc and its vertices with
        chord-only distance d + 1 and above, read off the vectors."""
        d, chord = max(self.circ), self.chord_only
        vdc = tuple([i for i, di in enumerate(self.circ) if di == d])
        return _summarize(len(self.circ), d, vdc,
                          [i for i in vdc if chord[i] == d + 1],
                          [i for i in vdc if chord[i] > d + 1])


def circulant_distances(g: CirculantGraph) -> list:
    """d_c(0, i) for every i: the level kernel over the circulant alone."""
    return _level_bfs(_ring_offsets(g.n, g.gens), 0)


def instance_distances(g: CirculantGraph) -> InstanceDistances:
    """One pass of the level kernel over C_n(1, chords) and its chord-only
    ring, both from 0."""
    if g.gens[0] != 1:
        raise ValueError(f"instance distances need generator 1 in S, got {g.label()}")
    return InstanceDistances(circ=circulant_distances(g),
                             chord_only=_level_bfs(_ring_offsets(g.n, g.gens[1:]), 0))


# --- the level-set route ---

# Largest circulant eccentricity the level loop (level_set_summaries) takes
# on; m >= 3 rows with more levels go to the list kernel (double loops on
# short rings never reach it, and longer ones take the lattice route, so the
# cap governs only m >= 3 rows).  A level costs a few shifts of whole n-bit
# ints, the list kernel a fixed cost per vertex, so the crossover grows with
# n.  Level sets over the list kernel's summary, the block loop uncapped
# (Python 3.11.7, a shared 2-core x86 machine, min of 25 runs at n = 2 000
# and of 7 at n = 100 000, alternated): at n = 2 000, 0.16x at 104 levels
# (C(1, 10)), 0.21x-0.26x at 201-202 (C(1, 3, 5), C(1, 5)), 0.26x-0.31x
# at 334 (C(1, 3), C(1, 2, 3)) and 0.53x at 500 (C(1, 2), the most
# C_2000(1, s) has); at n = 100 000, 0.08x at 146 (C(1, 3001, 27004)),
# 0.09x at 250 (C(1, 299)), 0.19x at 550 (C(1, 99)), 0.46x at 850
# (C(1, 1694)), 0.87x at 1 269 (C(1, 40)), 1.40x at 2 012 (C(1, 25)) and
# 1.45x at 2 509 (C(1, 20)).  So 200 levels is well on the winning side at
# every n, and a cap set from n could reach about 1 500 at n = 100 000.  A
# row whose ring bound ceil(floor(n / 2) / s_m) is over the cap skips the
# loop; any other row over it costs the loop LEVEL_CAP levels before it
# gives up.
LEVEL_CAP = 200

# Double loops C_n(1, s) with n below this take level sets, the rest the
# lattice route.  A level costs a dozen whole-int operations, the lattice
# O(sqrt(n) log n) list work with a large constant, so level sets win on
# short rings and lose where D ~ n / 4 levels add up (s near n / 2, or 2).
# Level sets over the lattice per row, every s (150 sampled at n >= 512),
# min of 5 (Python 3.11.7, shared 2-core x86):
#
#        n   mean  median  worst  rows slower
#       30   0.37    0.38   0.51      0 %
#       60   0.42    0.41   0.83      0 %
#       96   0.51    0.47   1.37      4 %
#      120   0.48    0.44   1.45      5 %
#      128   0.55    0.49   1.68      6 %
#      160   0.56    0.48   2.13      6 %
#      256   0.65    0.53   2.98     12 %
#      512   0.74    0.54   4.44     17 %
#     2000   1.39    0.95   9.75     42 %  (146 rows within LEVEL_CAP)
#
# So below 128 every row stays within 2x of the lattice and most run at
# half its cost; the shipped grid (n <= 60) lies wholly below.  As D <= n / 2
# < LEVEL_CAP there, no such row meets the cap.
DOUBLE_LOOP_LEVELS_BELOW = 128


# Ints of at most SHORT_BITS bits _bit_positions scans one set bit per
# whole-int step; a longer one it renders once as bytes, marks the non-zero
# bytes with one translate() and jumps between them with find(), so a step
# costs O(n) on the first, and the second O(n / 8) plus a few small-int
# steps per point.  The V_Dc of every benchmark row (the shipped grid; the
# m = 4 rows at n 500..504 of 10 seeds; the m = 3 and 4 rows at n = 10^5 of
# 40 seeds), min of 5 timeit repeats each, total us (Python 3.11.7, shared
# 2-core x86):
#
#   rows (scans)                  bin()   steps   steps to 16 points   here
#   grid, n 5..60       (8 120)  15 559  10 912  11 815               11 222
#   m = 4, n 500..504   (1 000)   6 264   5 184   5 784                5 159
#   m = 3, 4, n = 10^5     (79)  12 819  46 501  11 558                4 803
#
# On random points (mean of 5 ints) up to 2 048 bits the steps beat the
# bytes at every count to 64, and bin() to 16; at n = 10^5 one point took
# 11 us by steps, 29 as bytes and 237 by bin(), 64 points 367, 52 and 194.
SHORT_BITS = 2048
_NONZERO = bytes([0]) + bytes([1]) * 255  # translate(): a non-zero byte -> 1


def _bit_positions(x: int) -> tuple:
    """Ascending positions of the set bits of x >= 0: for at most SHORT_BITS
    bits by clearing the lowest set bit one at a time, else by the same
    steps on each non-zero byte of x."""
    out = []
    if x.bit_length() <= SHORT_BITS:
        while x:
            low = x & -x
            out.append(low.bit_length() - 1)
            x ^= low
        return tuple(out)
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    marks = data.translate(_NONZERO)
    i = marks.find(1)
    while i >= 0:
        base, byte = 8 * i, data[i]
        while byte:
            low = byte & -byte
            out.append(base + low.bit_length() - 1)
            byte ^= low
        i = marks.find(1, i + 1)
    return tuple(out)


def level_set_summaries(n: int, chord_sets):
    """The InstanceSummary of C_n(1, *chords) from level sets for each chords
    of chord_sets in turn, or None as soon as the circulant needs more than
    LEVEL_CAP levels: at once when the ring bound D >= ceil(floor(n / 2) /
    s_m) shows it, else when the loop reaches the cap.  One loop walks the
    whole run of chord sets on the ring and sets the ring's constants once
    (level_set_summary is its one-row case).

    Per row, the loop advances two n-bit level sets a level per pass: the
    chord-only ring from 0 by its chords, one level ahead, to d_circ + 1,
    and the circulant from 0 by ring dilation (module docstring): its level
    d is its level d - 1 shifted one step either way, joined with the chord
    ring's level d, less the vertices already reached.  Then V_Dc is the
    circulant's last level, scanned once for its points; _summarize's near
    are those points whose bit is set on the chord ring's last level, and
    far the points' bits in its unreached set.
    """
    mask = (1 << n) - 1
    # 0 is written at both ends of the ring (bits 0 and n), so that the
    # first ring step reaches 1 and n - 1
    start, unreached = 1 | 1 << n, mask ^ 1
    # a step moves at most s_m around the ring, so n // 2 is at least
    # ceil(n // 2 / s_m) steps from 0: that is over the cap, and the loop
    # need not start, exactly when s_m < least
    least, levels = -(-(n // 2) // LEVEL_CAP), range(LEVEL_CAP + 1)
    for chords in chord_sets:
        if chords[-1] < least:
            yield None
            continue
        circ, cu = start, unreached     # circulant frontier and unreached set
        chord, chu = 1, unreached       # chord-only ring
        for d in levels:  # d: the circulant's levels so far
            # y >> s and y >> (n - s) rotate the n-bit set by -s and +s
            # (bits n and up are masked off by chu)
            y, chord = chord | chord << n, 0
            for s in chords:
                chord |= y >> s | y >> (n - s)
            chord &= chu
            chu ^= chord
            if not cu:
                break
            # ring dilation: as C(d) lies in B(d), level d + 1 is the ring
            # steps of level d and the chord ring's level d + 1, less the
            # reached.  Past level 0 the frontier lacks 0, so >> 1 wraps nothing,
            # and << 1 wraps only n - 1, onto 0, which is reached
            circ = (circ << 1 | circ >> 1 | chord) & cu
            cu ^= circ
        else:  # past the cap
            yield None
            continue
        # circ = V_Dc; chord and chu: the chord ring's level d + 1 and the
        # rest, whose V_Dc points are near and far
        vdc = _bit_positions(circ)
        yield _summarize(n, d, vdc,
                         [i for i in vdc if chord >> i & 1] if chord & circ else (),
                         chu & circ)


def level_set_summary(g: CirculantGraph) -> InstanceSummary | None:
    """The level_set_summaries answer for the one row C_n(1, chords)."""
    if g.gens[0] != 1 or len(g.gens) < 2:
        raise ValueError(f"level sets need generator 1 and a chord in S, got {g.label()}")
    return next(level_set_summaries(g.n, (g.gens[1:],)))


# --- the lattice route ---

def _relax(m: int, keys: list, k: int) -> tuple[list, list, list]:
    """The lower envelope, on Z_m, of the slope-1 tents given as keys
    centre * k + height (0 <= height < k): the sorted centres, the
    envelope's value at each, and the gap from each centre to the next.

    After one relaxation lap each way from the lowest tent every centre
    holds the envelope's value there: the lowest height is already final,
    and a tent reached by passing it is no lower than one started from it
    (tents with one centre need no merging: the zero gap between them
    relaxes the higher to the lower).
    """
    keys.sort()
    cs = [key // k for key in keys]
    hs = [key % k for key in keys]
    gaps = [b - a for a, b in zip(cs, cs[1:])]
    gaps.append(cs[0] + m - cs[-1])  # gaps[j]: from centre j to centre j + 1
    t = len(cs)
    low = hs.index(min(hs))
    # index j and j - t name the same centre; each loop visits every other
    # centre once, going forward, then backward, from the lowest
    h = hs[low]
    for j in range(low + 1 - t, low):
        h += gaps[j - 1]
        if h < hs[j]:
            hs[j] = h
        else:
            h = hs[j]
    h = hs[low]
    for j in range(low - 1, low - t, -1):
        h += gaps[j]
        if h < hs[j]:
            hs[j] = h
        else:
            h = hs[j]
    return cs, hs, gaps


def _peaks(m: int, cs: list, hs: list, gaps: list) -> tuple[int, list]:
    """The peak and the peak points of a relaxed envelope (_relax): between
    neighbouring centres with gap G and values h, h' it peaks at
    (h + h' + G) // 2, at one point, or two when h' + G - h is odd."""
    nxt = hs[1:] + hs[:1]
    tops = [a + b + gap for a, b, gap in zip(hs, nxt, gaps)]
    top = max(tops) >> 1
    points = []
    for j, x in enumerate(tops):
        if x >> 1 == top:
            rise = nxt[j] + gaps[j] - hs[j]
            x = cs[j] + (rise >> 1)
            points.append(x % m)
            if rise & 1:
                points.append((x + 1) % m)
    return top, points


def _value_at(m: int, cs: list, hs: list, x: int) -> int:
    """A relaxed envelope's value at x in Z_m: the lower of the tents of
    the two neighbouring centres around x, since a farther tent reaches x
    only past one of them, whose value already counts it."""
    j = bisect.bisect_right(cs, x) - 1  # -1: x is before the first centre
    k = j + 1 if j + 1 < len(cs) else 0
    return min(hs[j] + (x - cs[j]) % m, hs[k] + (cs[k] - x) % m)


class LatticeDistances(namedtuple("LatticeDistances", "n s div inv b_form envelopes")):
    """The double loop C_n(1, s) on its reduced lattice (lattice_distances):
    d_c(0, x) and chord(x) at any x in O(log n), and the InstanceSummary.

    envelopes holds the relaxed tent envelopes (centres, values, gaps): in
    the b-form one on Z_n, read at x itself; in the a-form one per residue
    r mod div = gcd(n, s), on Z_cyc with cyc = n / div, read at
    z = (x / div) * inv mod cyc for x = r mod div.
    """

    __slots__ = ()

    def circ_at(self, x: int) -> int:
        """d_c(0, x)."""
        if self.b_form:
            return _value_at(self.n, *self.envelopes[0][:2], x)
        cyc = self.n // self.div
        return _value_at(cyc, *self.envelopes[x % self.div][:2],
                         x // self.div * self.inv % cyc)

    def chord_at(self, x: int):
        """chord(x): INF unless div | x, else min(k, cyc - k) for
        k = (x / div) * inv mod cyc."""
        if x % self.div:
            return INF
        cyc = self.n // self.div
        k = x // self.div * self.inv % cyc
        return min(k, cyc - k)

    def summary(self) -> InstanceSummary:
        """D as the largest envelope peak and V_Dc as every point reaching
        it, with their chord classes, for _summarize."""
        n, div = self.n, self.div
        if self.b_form:
            d, points = _peaks(n, *self.envelopes[0])
        else:
            cyc, step = n // div, self.s // div
            d, points = -1, []
            for r, env in enumerate(self.envelopes):
                top, peaks = _peaks(cyc, *env)
                if top >= d:
                    if top > d:
                        d, points = top, []
                    points += [r + div * (z * step % cyc) for z in peaks]
        vdc = tuple(sorted(set(points)))  # both segments ending at a centre may list it
        chord = [self.chord_at(x) for x in vdc]
        return _summarize(n, d, vdc, [x for x, c in zip(vdc, chord) if c == d + 1],
                          [x for x, c in zip(vdc, chord) if c > d + 1])


def lattice_distances(g: CirculantGraph) -> LatticeDistances:
    """The double loop C_n(1, s) by integer arithmetic on its lattice, with
    no BFS: O(sqrt(n) log n) operations to reduce the basis and relax the
    envelopes.

    A short vector (alpha, beta) of L = {(a, b) : a + b s = 0 mod n} bounds
    one coordinate of some shortest representation of every x, so d_c(0, x)
    is the lower envelope of O(sqrt(n)) tents (see the module docstring).
    """
    if len(g.gens) != 2 or g.gens[0] != 1:
        raise ValueError(f"the lattice route needs C_n(1, s), got {g.label()}")
    n, s = g.n, g.gens[1]
    # Gauss-reduce the basis (-s, 1), (n, 0) of L
    a1, b1, a2, b2 = -s, 1, n, 0
    n1 = s * s + 1
    while True:
        q = (2 * (a1 * a2 + b1 * b2) + n1) // (2 * n1)
        a2 -= q * a1
        b2 -= q * b1
        n2 = a2 * a2 + b2 * b2
        if n2 >= n1:
            break
        a1, b1, a2, b2, n1 = a2, b2, a1, b1, n2
    # of w1, w2 and w1 +- w2, the least max(|alpha|, |beta|): at most sqrt(n)
    alpha, beta = abs(a1), abs(b1)
    for a, b in ((a2, b2), (a1 + a2, b1 + b2), (a1 - a2, b1 - b2)):
        a, b = abs(a), abs(b)
        if max(a, b) < max(alpha, beta):
            alpha, beta = a, b
    div = math.gcd(n, s)
    cyc = n // div
    inv = pow(s // div, -1, cyc)
    if alpha <= beta:
        # b-form: some shortest (a, b) has |b| < beta; a tent at b s, height |b|
        keys = [b * s % n * beta + b for b in range(beta)]
        keys += [-b * s % n * beta + b for b in range(1, beta)]
        envelopes = [_relax(n, keys, beta)]
    else:
        # a-form: some shortest (a, b) has |a| < alpha.  For x = r mod div,
        # a = r + div k; on Z_cyc, x sits at z = (x - r) / div * inv and
        # min |b| is the distance from z to k inv
        envelopes = [
            _relax(cyc, [k * inv % cyc * alpha + abs(r + div * k)
                         for k in range(-((alpha + r - 1) // div),
                                        (alpha - 1 - r) // div + 1)], alpha)
            for r in range(div)]
    return LatticeDistances(n, s, div, inv, alpha <= beta, envelopes)


# --- the gap-1 witness ---

def diametral_path(n: int, chords, d: int, circ) -> tuple[range, ...]:
    """The conj45 witness of a gap-1 row of C_n(1, chords): the path that a
    FIFO BFS from u_0 over the sorted neighbors() lists takes to u_t, the
    least id at distance d + 1, walked with no search (see the module
    docstring).  d is the circulant's diameter and circ(x) gives d_c(0, x)
    for x in Z_n.

    The path comes back as its runs, in O(moves) memory: a tuple of ranges
    of GGPG ids (u_i = i, v_i = n + i) whose concatenation is the path,
    u_0 alone first, then one range per ring run and a one-element range
    per spoke or chord move.
    """
    t = next(i for i in itertools.count(d + 1) if circ(i) >= d - 1)

    def to_t(w):  # d_p(w, u_t) by the spoke identity, rotated to w's index 0
        x = (t - w) % n
        return min(x, n - x, circ(x) + 2) if w < n else circ(x) + 1

    runs, x, r = [range(0, 1)], 0, d + 1
    while r:
        if x < n:
            nbrs = [*sorted(((x + 1) % n, (x - 1) % n)), n + x]
        else:
            i = x - n
            nbrs = [i, *sorted({n + (i + sign * s) % n
                                for s in chords for sign in (1, -1)})]
        w = next(w for w in nbrs if to_t(w) == r - 1)
        if x < n and w < n:
            # a ring run: d_p(u_{x + k step}, u_t) = r - k holds for k up to
            # its length and fails past it, so bisect for the length
            lo, hi, step = 1, r, 1 if w == (x + 1) % n else -1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if to_t((x + step * mid) % n) == r - mid:
                    lo = mid
                else:
                    hi = mid - 1
            # ids need no reduction mod n: no geodesic from u_0 passes it again, and
            # the first step is u_1 (ring(t - 1) = d, or d_c(0, t - 1) <= d - 2)
            runs.append(range(x + step, x + step * (lo + 1), step))
            r -= lo
        else:
            runs.append(range(w, w + 1))
            r -= 1
        x = runs[-1][-1]
    return tuple(runs)


# --- a row's route ---

def run_facts(n: int, chord_sets, dist: InstanceDistances | None = None):
    """(route, summary, path) of C_n(1, *chords) for each chords of
    chord_sets, a run of rows on one ring: the one place a row's route is
    chosen (row_facts is its one-row case).  A double loop with
    n >= DOUBLE_LOOP_LEVELS_BELOW takes the lattice, any other row level
    sets, the run's through one level_set_summaries loop, and a row whose
    route returns None the list kernel.  path is the gap-1 witness
    (diametral_path), else None, walked on the lattice's d_c where there is
    one, else on the list kernel's vector, else on a circulant search.
    dist, the list kernel's distances of a one-row run where the caller has
    them (a paranoid row), stands in for the kernel and for that vector, so
    no search runs twice."""
    # the chord count of the run's rows that take the lattice (0: none)
    lattice = 1 if n >= DOUBLE_LOOP_LEVELS_BELOW else 0
    levels = level_set_summaries(
        n, [c for c in chord_sets if len(c) != lattice] if lattice else chord_sets)
    for chords in chord_sets:
        if len(chords) == lattice:
            lat = lattice_distances(_unchecked_circulant(n, (1, *chords)))
            route, facts, circ = "lattice", lat.summary(), lat.circ_at
        else:
            route, facts, circ = "level sets", next(levels), None
        kernel = dist
        if facts is None:
            if kernel is None:
                kernel = instance_distances(_unchecked_circulant(n, (1, *chords)))
            route, facts = "list kernel", kernel.summary()
        path = None
        if facts.ecc_u0 == facts.ecc_v0 == facts.d_circ + 1:  # gap 1, as both are >= D + 1
            if circ is None:
                circ = (kernel.circ if kernel is not None else circulant_distances(
                    _unchecked_circulant(n, (1, *chords)))).__getitem__
            path = diametral_path(n, chords, facts.d_circ, circ)
        yield route, facts, path


def row_facts(g: CirculantGraph, dist: InstanceDistances | None = None) -> tuple:
    """run_facts' (route, summary, path) for the one row C_n(1, chords)."""
    return next(run_facts(g.n, (g.gens[1:],), dist))


def __getattr__(name):
    # benchmarks/tracer.py still wraps these two as loopnet.metrics names;
    # they read through to the oracle tier, imported on first lookup.  This
    # goes when the tracer is pointed at the layers that run (ROADMAP item 1).
    if name in ("bfs", "inner_only_distances"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
