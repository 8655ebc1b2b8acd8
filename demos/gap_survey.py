#!/usr/bin/env python3
"""
DIAMETER GAP SURVEY, n = 5..30, ONE CHORD

For every circulant C_n(1,s) and its spoke expansion, the gap
D(GGPG) - D(C) provably lands in {1, 2}.  Folklore expects 2 almost
always; the interesting rows are the gap-1 exceptions and what the
exact-length conditions (ring-only and chord-only paths of length
exactly D to every extremal vertex) say about them.

The full survey is the CLI's job (`loopnet sweep --n 5..60 --m 2,3`);
this script walks the small end in-process and prints the exceptions.
"""

from collections import Counter

from loopnet import verify_instance
from loopnet.theorem_lab import plan_sweep

instances = plan_sweep(range(5, 31), [2])
print(f"surveying {len(instances)} single-chord instances, n = 5..30\n")

gaps = Counter()
exceptions = []
inconsistent = []
for n, chords in instances:
    r = verify_instance(n, chords)
    gaps[r.gap] += 1
    if r.gap == 1:
        exceptions.append(r)
    if not r.thm43_consistent:
        inconsistent.append(r)

print(f"gap distribution: {dict(sorted(gaps.items()))}")

print(f"\ngap-1 instances ({len(exceptions)}):")
print(f"  {'graph':<12} {'D_c':>3} {'D_p':>3}  ring-exact  chord-exact")
for r in exceptions:
    label = f"C{r.n}({','.join(map(str, r.gens))})"
    print(f"  {label:<12} {r.d_circ:>3} {r.d_ggpg:>3}  "
          f"{str(r.cond_outer).lower():<10}  {str(r.cond_inner).lower()}")

print("\nrows where the exact-length conditions mispredict the gap "
      f"({len(inconsistent)}):")
for r in inconsistent:
    label = f"C{r.n}({','.join(map(str, r.gens))})"
    verdict = "predicted gap 1" if r.cond_outer and r.cond_inner \
        else "predicted gap 2"
    print(f"  {label:<12} {verdict}, actual gap {r.gap}  "
          f"(extremal set {list(r.v_dc)})")

print("\nreading: when both conditions hold the expansion only ever pays "
      "one extra edge;\nthe small-n mispredictions are exactly the rows "
      "where a diametral GGPG pair\nsits outside the pattern the "
      "conditions encode.")
