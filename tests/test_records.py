"""The record contract: loopnet's result and graph records are immutable,
print as Name(field=value, ...), survive pickling (rows cross process
boundaries under --jobs), and the two graph families never compare equal
to each other or to a bare tuple.  Also what importing the CLI loads."""

import pickle
import subprocess
import sys

import pytest

from loopnet import (
    FamilyParameterError,
    PathRep,
    Walk,
    build_circulant,
    build_ggpg,
    instance_distances,
    level_set_summary,
    realize,
    verify_instance,
)
from loopnet.theorem_lab import (
    GapResult,
    SandwichResult,
    check_thm43,
    check_thm44,
)

G = build_circulant(9, (1, 2))
H = build_ggpg(9, (2,))
# C_20(1, 9), of the gap-1 family C_4k(1, 2k - 1): the report carries a witness
REPORT = verify_instance(20, (9,))

RECORDS = [
    (G, ("n", "gens")),
    (H, ("n", "chords")),
    (level_set_summary(build_circulant(11, (1, 2, 4))),
     ("d_circ", "ecc_u0", "ecc_v0", "v_dc", "cond_outer", "cond_inner", "near")),
    (instance_distances(G), ("circ", "chord_only")),
    (SandwichResult(True), ("ok", "witness")),
    (GapResult(True, 2, 3, 5), ("ok", "gap", "d_circ", "d_ggpg")),
    (check_thm43(G), ("predicted_gap_is_1", "actual_gap", "consistent",
                      "cond_outer", "cond_inner")),
    (check_thm44(G), ("any_condition_fires", "actual_gap", "consistent", "notes")),
    (REPORT, ("n", "gens", "chord_count", "d_circ", "d_ggpg", "gap", "extremal_set",
              "cond_outer", "cond_inner", "thm41_ok", "thm42_ok", "thm43_ok",
              "thm44_ok", "conj45_holds", "anomalies", "witnesses")),
    (PathRep(1, [2]), ("alpha", "lambdas")),
    (Walk(0, [(1, 1), (2, -1)]), ("origin", "steps")),
    (realize(PathRep(1, [2]), G), ("vertices", "is_path")),
]


@pytest.mark.parametrize("record, fields", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_contract(record, fields):
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{type(record).__name__}({body})"
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_report_record_carries_witnesses():
    # the pickle round trip above compares a report with a witness dict
    assert REPORT.witnesses["conj45"]["ggpg_diametral_path"][0] == "u0"


def test_graph_equality_is_class_aware():
    g, h = build_circulant(9, (2, 3)), build_ggpg(9, (2, 3))
    assert g != h and not g == h
    assert g == build_circulant(9, [2, 3]) and hash(g) == hash(build_circulant(9, [2, 3]))
    assert h == build_ggpg(9, [2, 3]) and hash(h) == hash(build_ggpg(9, [2, 3]))
    for graph in (g, h):
        bare = tuple(getattr(graph, f) for f in ("n", "gens" if graph is g else "chords"))
        assert graph != bare and bare != graph
        assert not graph == bare and not bare == graph
    assert len({g, h, build_circulant(9, (2, 3))}) == 2


def test_import_footprint():
    """`import loopnet.cli` loads neither dataclasses nor inspect, and the
    process pool's module only when --jobs asks for a pool."""
    probe = ("import sys, loopnet.cli; print(' '.join(m for m in "
             "('dataclasses', 'inspect', 'concurrent.futures') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-S", "-c", probe],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == []


def test_replace_checks_like_the_constructor():
    assert G._replace(n=10) == build_circulant(10, (1, 2))
    with pytest.raises(FamilyParameterError, match="ring length"):
        G._replace(n=3)
    with pytest.raises(FamilyParameterError, match="chords must be >= 2"):
        H._replace(chords=(1,))
    assert PathRep(1, [2])._replace(lambdas=[3.0]).lambdas == (3,)
