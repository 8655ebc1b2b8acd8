"""loopnet: multi-loop (circulant) networks, GGPG graphs, and their diameter gap.

The package builds the two families, reduces walks to canonical signed step
representations, computes exact distances and diameters (with symmetry
shortcuts and a paranoid cross-check mode), contracts spokes and expands them
back, and machine-checks the diameter-gap statements across parameter sweeps.

`import loopnet` compiles this file alone.  Each public name below is read
from its home module on first use (PEP 562), so a run compiles only the
modules it calls: no CLI command, paranoid or not, loads `path_algebra`
or `transforms`.  A submodule is an attribute of the package only once it
has been imported: write `from loopnet import metrics` or
`import loopnet.metrics`, not `import loopnet` then `loopnet.metrics`.
"""

__version__ = "0.1.0"

# home module -> the public names it defines
_HOMES = {
    "graph_core": (
        "CirculantGraph", "FamilyParameterError", "GeneratorSequence", "GgpgGraph",
        "build_circulant", "build_ggpg", "expand", "to_dot",
    ),
    "path_algebra": (
        "PathRep", "Realization", "Walk", "endpoint", "realize", "reduce_walk",
        "render_rep", "shortest_rep", "shortest_rep_table",
    ),
    "metrics": ("INF", "InstanceSummary", "instance_distances", "row_facts"),
    "oracle": (
        "bfs", "check_thm41", "check_thm42", "check_thm43", "check_thm44",
        "diameter_circulant", "diameter_ggpg", "eccentricity", "extremal_vertices",
        "format_distance", "inner_only_distances", "outer_only_distance",
    ),
    "transforms": ("contract_spokes", "lift_path", "project_path"),
    "theorem_lab": ("TheoremViolation", "VerificationReport", "verify_instance"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    # an unknown name raises here, so `from loopnet import metrics` goes on
    # to import the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(_HOME[name], globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
