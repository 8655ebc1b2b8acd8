"""The row routes: distances by the spoke identity, and the gap-1 witness.

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

Four routes compute the same facts; the first three apply the identity.
row_facts takes one (n, chords) row, admits it, picks its route among them
and returns its facts: it is the one public row entry of this module, and
each of the three routes is a private function of the admitted row, given
as (n, chords) and checking nothing, so no route builds a graph.  No row's
facts depend on another row, so each row is routed on its own, and nothing
is carried from one row to the next.

  * The lattice route, _lattice(n, s), serves double loops C_n(1, s), the
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
    likewise, one with |a| < |alpha|.  Either way the coefficient c of one
    generator h has |c| < B, and steps of the other, f, make up the rest:
    (B, h, f) is (|beta|, s, 1) in the first case and (|alpha|, 1, s) in
    the second, so h = 1 or f = 1.  Let q = gcd(n, f), N = n / q and
    u = (f / q)^-1 mod N: f's steps reach x - c h when q divides it, and
    x = r + q y (0 <= r < q) sits at z = y u on Z_N, where the f-step count
    is the ring distance.  So on class r's Z_N, d_c(0, x) is the lower
    envelope of slope-1 tents, one per c = r + q k with |c| < B, centred at
    k h u with height |c|, and the point z, z f-steps from r, is
    x = r + z f (mod n).  The first case has one class (q = u = 1) and
    tents at k s; the second has q = gcd(n, s) classes, u = (s / q)^-1,
    and tents at k u.
    The envelope: sort the tents and relax each height to
    min(h_j, h_i + gap) around the cycle, one lap each way from the lowest
    tent, so each centre holds the envelope's value; between neighbouring
    centres with gap G it then peaks at (h_j + h_{j+1} + G) // 2, at one
    point, or two when h_{j+1} + G - h_j is odd.  D is the largest peak and
    V_Dc every point that reaches it, and chord(i) is INF unless g | i for
    g = gcd(n, s), else min(k, n / g - k) for k = (i / g)(s / g)^-1 mod
    n / g.  O(sqrt(n) log n + |V_Dc|) operations, with no n-bit set; the
    route returns the InstanceSummary alone, as no row reads d_c(0, x) at
    a point off V_Dc.
  * The level-set route, _level_sets, serves the m >= 3 rows and the
    double loops on rings shorter than DOUBLE_LOOP_LEVELS_BELOW: every BFS
    level is an n-bit int and a step +-s is a rotation, so one loop
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
    costs two one-bit shifts.  The loop takes one row and returns its
    InstanceSummary (the diameters, V_Dc, the two restricted-path
    conditions and the V_Dc vertices at chord-only distance D + 1), or None
    for a row whose circulant has more than LEVEL_CAP levels: its cost
    grows with the level count, the list kernel's with n.
  * The list route, _list_kernel: one level-synchronous BFS kernel
    that walks vertex ids by offset arithmetic, with no neighbors() call
    and no per-vertex table: every vertex reads one sorted list of the
    offsets s and n - s, and a step wraps past n - 1 with one compare.  It
    returns the circulant and chord-only vectors from 0, from which the
    identity gives both GGPG vectors (oracle.ggpg_vectors).  Its summary()
    reads the same points off the vectors for _summarize.  It serves the
    m >= 3 rows over the cap, and is the reference both faster routes are
    checked against under --paranoid, where oracle.check_row runs its own
    through instance_distances, the kernel's entry for a built graph, which
    checks the graph's first generator.
  * The oracle route: list BFS over a graph's neighbors() (oracle.bfs),
    the restricted distances and the statement checks, all in the oracle
    module, which no non-paranoid row imports.  It never uses the
    identity: tests and --paranoid check the list kernel and the
    identity's vectors against it element by element, and the fast
    route's summary against the list kernel's.

The gap-1 witness, diametral_path, is a rule, not a search.  A gap-1 row
ships the path that a FIFO BFS over the sorted neighbors() lists takes from
u_0 to the least GGPG id at distance D + 1 = D(GGPG) (on such a row
ecc(u_0) = D + 1, since d_p(u_0, v_i) = D + 1 on V_Dc).  That path is
always the ring run u_0, u_1, ..., u_{D+1}.

  * The least geodesic.  A FIFO BFS orders each level by its parents'
    order, then by neighbour rank.  So, by induction on the level, the tree
    path to a vertex is its lexicographically least geodesic, compared by
    neighbour rank: the tree parent is the first of its neighbours one
    level up, whose own tree path is the least of theirs.  The greedy walk
    from u_0 finds that path: at each vertex, take the first neighbour w in
    ascending id with d_p(w, u_t) = r - 1, where r is the distance left.
    By the identity and rotation, d_p(u_a, u_t) = min(ring(t - a),
    d_c(0, t - a) + 2).
  * The ring bound.  With a chord s >= 2, D <= n / 2 - 1: a vertex i with
    ring(i) > n / 2 - 1 is one chord step from a vertex at ring distance at
    most n / 2 - 2 (i - s if i <= n / 2, else i + s).
  * V_Dc.  By the exact gap-1 rule every i in V_Dc has ring(i) <= D + 1,
    and ring(i) >= d_c(0, i) = D, so V_Dc lies in {D, D + 1, n - D - 1,
    n - D}.  V_Dc is symmetric under i -> n - i, so it holds D or D + 1,
    and as a ring step moves d_c by at most 1, d_c(0, D + 1) >= D - 1 and,
    a step at a time, d_c(0, D + 1 - k) >= D - 1 - k for 0 <= k <= D + 1.
  * The target is u_{D+1}.  D + 1 <= n / 2, so ring(i) = i for i <= D + 1,
    and d_p(u_0, u_{D+1}) = min(D + 1, d_c(0, D + 1) + 2) = D + 1.  Every
    u_i with i <= D is within ring(i) = i of u_0, and every v_i has the id
    n + i > D + 1, so u_{D+1} is the least id at distance D + 1.
  * The walk.  From u_x, 0 <= x <= D, the step to u_{x+1} is geodesic:
    d_c(0, D - x) >= D - x - 2, so d_p(u_{x+1}, u_{D+1}) = D - x.  Of u_x's
    neighbours only u_{x-1}, for x >= 1, comes before u_{x+1} in id order,
    and it is farther: d_c(0, D + 2 - x) >= D - x, so d_p(u_{x-1}, u_{D+1})
    = D + 2 - x.  So the walk is the ring run, with no spoke and no chord
    step.

diametral_path returns that run as range(D + 2), the GGPG ids of u_0 ...
u_{D+1}: it reads no distance, so no row runs a search for its witness,
and the row holds O(1) memory however long the path is.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import namedtuple

from .graph_core import CirculantGraph, build_circulant, expand, max_generator

INF = math.inf


# --- the one-pass instance kernel ---

def _level_bfs(n: int, steps, src: int) -> list:
    """Distances from src on the ring Z_n with steps +-s for each s of
    steps; unreachable vertices keep INF.  Every vertex walks one sorted
    list of offsets, s and n - s, and w = v + o wraps past n - 1 with one
    compare: the order a vertex's neighbours are visited in changes no
    distance."""
    offs = sorted({*steps, *(n - s for s in steps)})
    dist = [INF] * n
    dist[src] = 0
    frontier = [src]
    level = 0
    while frontier:
        level += 1
        nxt = []
        push = nxt.append
        for v in frontier:
            for w in offs:
                w += v
                if w >= n:
                    w -= n
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
    return InstanceSummary(
        d,
        d + 2 if bisect.bisect_right(vdc, d + 1) < bisect.bisect_left(vdc, n - d - 1)
        else d + 1,                                             # ecc_u0
        d + 2 if far else d + 1,                                # ecc_v0
        vdc,
        vdc[0] == d and vdc[-1] == n - d and len(vdc) <= 2,     # cond_outer
        not (near or far),                                      # cond_inner
        tuple(near),
    )


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


def _list_kernel(n: int, chords: tuple) -> InstanceDistances:
    """One pass of the level kernel over C_n(1, *chords) and its chord-only
    ring, both from 0."""
    return InstanceDistances(circ=_level_bfs(n, (1, *chords), 0),
                             chord_only=_level_bfs(n, chords, 0))


def instance_distances(g: CirculantGraph) -> InstanceDistances:
    """The list kernel's vectors (_list_kernel) for a built C_n(1, chords)."""
    if g.gens[0] != 1:
        raise ValueError(f"instance distances need generator 1 in S, got {g.label()}")
    return _list_kernel(g.n, g.gens[1:])


# --- the level-set route ---

# Largest circulant eccentricity the level loop (_level_sets) takes on;
# m >= 3 rows with more levels go to the list kernel (double loops on short
# rings never reach it, and longer ones take the lattice route, so the cap
# governs only m >= 3 rows).  A level costs a few shifts of whole n-bit
# ints, the list kernel a fixed cost per vertex, so the crossover grows with
# n.  Level sets over the list kernel's summary, the level loop uncapped
# (Python 3.11.7, a shared 2-core x86 machine, min of 25 runs at n = 2 000,
# of 7 at n = 100 000 and of 5 at n = 10^6, alternated):
#
#         n  row                    levels  ratio
#     2 000  C(1, 10)                  104   0.19
#     2 000  C(1, 3, 5), C(1, 5)   201-202   0.21-0.28
#     2 000  C(1, 3), C(1, 2, 3)       334   0.28-0.30
#     2 000  C(1, 2), the most
#            C_2000(1, s) has          500   0.52
#   100 000  C(1, 3001, 27004)         146   0.07
#   100 000  C(1, 299)                 250   0.09
#   100 000  C(1, 99)                  550   0.19
#   100 000  C(1, 1694)                850   0.43
#   100 000  C(1, 40)                1 269   0.78
#   100 000  C(1, 25)                2 012   1.23
#   100 000  C(1, 20)                2 509   1.51
#      10^6  C(1, 204540, 260099)      261   0.11
#      10^6  C(1, 1001, 499999)        501   0.22
#
# So 200 levels is well on the winning side at every n, and a cap set from n
# could reach about 1 500 at n = 100 000 and more at 10^6.  A row whose ring
# bound ceil(floor(n / 2) / s_m) is over the cap skips the loop; any other
# row over it costs the loop LEVEL_CAP levels before it gives up.
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


def _level_sets(n: int, chords: tuple) -> InstanceSummary | None:
    """The InstanceSummary of C_n(1, *chords) from level sets, or None when
    the circulant needs more than LEVEL_CAP levels: at once when the ring
    bound D >= ceil(floor(n / 2) / s_m) shows it, else when the loop reaches
    the cap.  The row must be admissible (1 < s_2 < ... < s_m <= floor((n -
    1) / 2)), as row_facts admits it: the loop builds no graph and checks
    nothing.

    The loop advances two n-bit level sets a level per pass: the chord-only
    ring from 0 by its chords, one level ahead, to d_circ + 1, and the
    circulant from 0 by ring dilation (module docstring): its level d is its
    level d - 1 shifted one step either way, joined with the chord ring's
    level d, less the vertices already reached.  Then V_Dc is the
    circulant's last level, scanned once for its points; _summarize's near
    are those points whose bit is set on the chord ring's last level, and
    far the points' bits in its unreached set.
    """
    # a step moves at most s_m around the ring, so n // 2 is at least
    # ceil(n // 2 / s_m) steps from 0: that is over the cap, and the loop
    # need not start, exactly when s_m < ceil(n // 2 / LEVEL_CAP)
    if chords[-1] < -(-(n // 2) // LEVEL_CAP):
        return None
    # 0 is written at both ends of the ring (bits 0 and n), so that the
    # first ring step reaches 1 and n - 1
    circ, cu = 1 | 1 << n, (1 << n) - 2     # circulant frontier and unreached set
    chord, chu = 1, cu                      # chord-only ring
    for d in range(LEVEL_CAP + 1):  # d: the circulant's levels so far
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
        return None
    # circ = V_Dc; chord and chu: the chord ring's level d + 1 and the
    # rest, whose V_Dc points are near and far
    vdc = _bit_positions(circ)
    return _summarize(n, d, vdc,
                      [i for i in vdc if chord >> i & 1] if chord & circ else (),
                      chu & circ)


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


def _short_vector(n: int, s: int) -> tuple[int, int]:
    """(|alpha|, |beta|) of a short vector of L = {(a, b) : a + b s = 0 mod
    n}: Gauss-reduce the basis (-s, 1), (n, 0), then take, of w1, w2 and
    w1 +- w2, the one with the least max(|alpha|, |beta|), at most sqrt(n)."""
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
    pairs = ((a1, b1), (a2, b2), (a1 + a2, b1 + b2), (a1 - a2, b1 - b2))
    return min(((abs(a), abs(b)) for a, b in pairs), key=max)  # a tie keeps the first


def _lattice(n: int, s: int) -> InstanceSummary:
    """The InstanceSummary of the double loop C_n(1, s) by integer
    arithmetic on its lattice, with no BFS: O(sqrt(n) log n) operations to
    reduce the basis and relax the envelopes, then D as the largest
    envelope peak, V_Dc as every point reaching it, and their chord classes.
    The row must be admissible (1 < s <= floor((n - 1) / 2)), as row_facts
    admits it.

    A short vector (alpha, beta) of L bounds one coefficient of some
    shortest representation of every x, b or a, so d_c(0, x) is the lower
    envelope of O(sqrt(n)) tents (see the module docstring).  Which one it
    bounds sets the envelopes' parameters alone.
    """
    alpha, beta = _short_vector(n, s)
    div = math.gcd(n, s)
    inv = pow(s // div, -1, n // div)
    # the one choice: some shortest (a, b) has |b| < beta, with ring steps
    # free, or |a| < alpha, with chord steps free.  It sets the bound, the
    # free generator's class count and value, and the multiplier that
    # places the tent of the bounded coefficient c = r + classes k
    bound, classes, free, place = (beta, 1, 1, s) if alpha <= beta else (alpha, div, s, inv)
    cyc = n // classes
    tops = [
        _peaks(cyc, *_relax(cyc, [c // classes * place % cyc * bound + abs(c)
                                  for c in range(r - (bound - 1 + r) // classes * classes,
                                                 bound, classes)], bound))
        for r in range(classes)]
    d = max([top for top, _ in tops])
    # both segments ending at a centre may list it
    vdc = tuple(sorted({(r + z * free) % n
                        for r, (top, peaks) in enumerate(tops) if top == d for z in peaks}))
    # chord(x) is INF unless div | x, else min(k, order - k) for k = (x / div)
    # * inv mod order, order = n / div the chord-only ring's length
    order = n // div
    ks = [x // div * inv % order for x in vdc]
    chord = [INF if x % div else min(k, order - k) for x, k in zip(vdc, ks)]
    return _summarize(n, d, vdc, [x for x, c in zip(vdc, chord) if c == d + 1],
                      [x for x, c in zip(vdc, chord) if c > d + 1])


# --- the gap-1 witness ---

def diametral_path(d: int) -> range:
    """The conj45 witness of a gap-1 row whose circulant has diameter d:
    the path that a FIFO BFS from u_0 over the sorted neighbors() lists
    takes to the least GGPG id at distance d + 1.  It is always the ring
    run u_0 ... u_{d+1} (see the module docstring), returned as its GGPG
    ids (u_i = i)."""
    return range(d + 2)


# --- a row's route ---

def row_facts(n: int, chords: tuple) -> tuple:
    """(route, summary, path) of the row C_n(1, *chords): the one place a
    row's route is chosen, and every report row's facts.  A double loop with
    n >= DOUBLE_LOOP_LEVELS_BELOW takes the lattice, any other row level
    sets, and a row whose route returns None the list kernel.  path is the
    gap-1 witness (diametral_path), else None.

    It is also the one place a row is admitted: before its route is chosen,
    the row's chords are tested (1 < s_2 < ... < s_m <= floor((n - 1) / 2)),
    and a row that fails is handed to build_circulant and then expand, so
    that it raises on every route alike: build_circulant's
    FamilyParameterError, or for a row with no chord expand's ValueError.
    That is the only graph it builds: the routes take the admitted row."""
    if not (chords and 1 < chords[0] and chords[-1] <= max_generator(n)
            and all(map(operator.lt, chords, chords[1:]))):
        expand(build_circulant(n, (1, *chords)))  # raises, with its own message
    if len(chords) == 1 and n >= DOUBLE_LOOP_LEVELS_BELOW:
        route, facts = "lattice", _lattice(n, chords[0])
    else:
        route, facts = "level sets", _level_sets(n, chords)
    if facts is None:
        route, facts = "list kernel", _list_kernel(n, chords).summary()
    gap1 = facts.ecc_u0 == facts.ecc_v0 == facts.d_circ + 1  # as both are >= D + 1
    return route, facts, diametral_path(facts.d_circ) if gap1 else None


def __getattr__(name):
    # benchmarks/tracer.py still wraps these two as loopnet.metrics names;
    # they read through to the oracle tier, imported on first lookup.  This
    # goes when the tracer is pointed at the layers that run (ROADMAP item 1).
    if name in ("bfs", "inner_only_distances"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
