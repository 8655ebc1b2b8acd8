#!/usr/bin/env python3
"""
SPOKE CONTRACTION: GGPG(14; 3,4,6) <-> C_14(1,3,4,6)

Collapsing every spoke u_i v_i of a GGPG graph merges the outer ring and
the inner chord structure into one circulant with generator 1.  The
construction runs both ways, and paths transfer: a circulant rep lifts to
a GGPG path that pays at most two extra (spoke) edges, which is exactly
why the two diameters never drift more than 2 apart.
"""

from loopnet import (
    bfs, build_ggpg, contract_spokes, diameter_circulant, diameter_ggpg,
    expand, lift_path, project_path, render_rep, shortest_rep,
)

h = build_ggpg(14, [3, 4, 6])
print(f"start: {h.label()}   vertices={h.num_vertices} edges={h.num_edges}")

g = contract_spokes(h)
print(f"contract spokes -> {g.label()}   "
      f"vertices={g.num_vertices} edges={g.num_edges}")

h2 = expand(g)
print(f"expand back     -> {h2.label()}   round trip identical: {h2 == h}")

print(f"\ndiameters: D({g.label()}) = {diameter_circulant(g)},  "
      f"D({h.label()}) = {diameter_ggpg(h)}")

# lift a shortest rep for the farthest circulant vertex
far = max(g.vertices(), key=lambda i: bfs(g, 0)[i])
rep = shortest_rep(g, far)
print(f"\nfarthest vertex from 0 in the circulant: {far} "
      f"(distance {bfs(g, 0)[far]}), rep {render_rep(rep, g)}")

for sides in [("outer", "outer"), ("outer", "inner"),
              ("inner", "outer"), ("inner", "inner")]:
    p = lift_path(rep, g, endpoints=sides)
    labels = " -> ".join(h.vertex_label(v) for v in p)
    spokes = sum(1 for a, b in zip(p, p[1:]) if a % g.n == b % g.n)
    print(f"  lift {sides[0]:>5}->{sides[1]:<5} ({len(p)-1} edges, "
          f"{spokes} spoke{'s' if spokes != 1 else ''}): {labels}")

p = lift_path(rep, g)
print(f"\nprojecting the outer->outer lift back down: "
      f"{project_path(p, h)} (spokes vanish)")
