"""loopnet: multi-loop (circulant) networks, GGPG graphs, and their diameter gap.

The package builds the two families, reduces walks to canonical signed step
representations, computes exact distances and diameters (with symmetry
shortcuts and a paranoid cross-check mode), contracts spokes and expands them
back, and machine-checks the diameter-gap statements across parameter sweeps.
"""

__version__ = "0.1.0"

from .graph_core import (
    CirculantGraph,
    FamilyParameterError,
    GeneratorSequence,
    GgpgGraph,
    build_circulant,
    build_ggpg,
    to_dot,
)
from .path_algebra import (
    PathRep,
    Realization,
    Walk,
    endpoint,
    realize,
    reduce_walk,
    render_rep,
    shortest_rep,
    shortest_rep_table,
)
from .metrics import (
    INF,
    InstanceSummary,
    bfs,
    diameter_circulant,
    diameter_ggpg,
    eccentricity,
    format_distance,
    inner_only_distances,
    instance_distances,
    lattice_distances,
    level_set_summary,
    outer_only_distance,
)
from .transforms import (
    contract_spokes,
    expand,
    lift_path,
    project_path,
)
from .theorem_lab import (
    TheoremViolation,
    VerificationReport,
    check_thm41,
    check_thm42,
    check_thm43,
    check_thm44,
    extremal_vertices,
    verify_instance,
)

__all__ = [
    "CirculantGraph",
    "FamilyParameterError",
    "GeneratorSequence",
    "GgpgGraph",
    "INF",
    "InstanceSummary",
    "PathRep",
    "Realization",
    "TheoremViolation",
    "VerificationReport",
    "Walk",
    "bfs",
    "build_circulant",
    "build_ggpg",
    "check_thm41",
    "check_thm42",
    "check_thm43",
    "check_thm44",
    "contract_spokes",
    "diameter_circulant",
    "diameter_ggpg",
    "eccentricity",
    "endpoint",
    "expand",
    "extremal_vertices",
    "format_distance",
    "inner_only_distances",
    "instance_distances",
    "lattice_distances",
    "level_set_summary",
    "lift_path",
    "outer_only_distance",
    "project_path",
    "realize",
    "reduce_walk",
    "render_rep",
    "shortest_rep",
    "shortest_rep_table",
    "to_dot",
    "verify_instance",
]
