"""The record contract: loopnet's result and graph records are immutable,
print as Name(field=value, ...), survive pickling (rows cross process
boundaries under --jobs), and the two graph families never compare equal
to each other or to a bare tuple.  Also what importing the CLI and
running rows load, and that every name the benchmark's tracer wraps
resolves."""

import importlib
import importlib.util
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from loopnet import (
    FamilyParameterError,
    PathRep,
    Walk,
    build_circulant,
    build_ggpg,
    instance_distances,
    realize,
    verify_instance,
)
from loopnet import metrics, oracle
from loopnet.oracle import (
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
    (metrics._level_sets(11, (2, 4)),
     ("d_circ", "ecc_u0", "ecc_v0", "v_dc", "cond_outer", "cond_inner", "near")),
    (instance_distances(G), ("circ", "chord_only")),
    (SandwichResult(True), ("ok", "witness")),
    (GapResult(True, 2, 3, 5), ("ok", "gap", "d_circ", "d_ggpg")),
    (check_thm43(G), ("predicted_gap_is_1", "actual_gap", "consistent",
                      "cond_outer", "cond_inner")),
    (check_thm44(G), ("any_condition_fires", "actual_gap", "consistent", "notes")),
    (REPORT, ("n", "gens", "chords", "d_circ", "d_ggpg", "gap", "v_dc",
              "cond_outer", "cond_inner", "thm41", "thm42", "thm43_consistent",
              "thm44_consistent", "conj45", "anomalies", "witnesses")),
    (REPORT.witnesses["conj45"]["ggpg_diametral_path"], ("ids",)),
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
    assert next(iter(REPORT.witnesses["conj45"]["ggpg_diametral_path"])) == "u0"


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


# the public surface: the names the package listed when it imported every
# submodule eagerly, with metrics' two route entries (lattice_summary and
# level_set_summary) replaced by its one row entry, row_facts
PUBLIC = [
    "CirculantGraph", "FamilyParameterError", "GeneratorSequence", "GgpgGraph", "INF",
    "InstanceSummary", "PathRep", "Realization", "TheoremViolation",
    "VerificationReport", "Walk", "bfs", "build_circulant", "build_ggpg", "check_thm41",
    "check_thm42", "check_thm43", "check_thm44", "contract_spokes", "diameter_circulant",
    "diameter_ggpg", "eccentricity", "endpoint", "expand", "extremal_vertices",
    "format_distance", "inner_only_distances", "instance_distances", "lift_path",
    "outer_only_distance", "project_path", "realize", "reduce_walk", "render_rep",
    "row_facts", "shortest_rep", "shortest_rep_table", "to_dot", "verify_instance",
]

# Run in a fresh interpreter; prints one JSON object.  Each step reads the
# loopnet modules loaded so far, so the order of the steps matters.
LAZY_PROBE = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'loopnet')
out = {}
import loopnet
out['import'] = loaded()
out['version'] = (loopnet.__version__, loaded())
try:
    loopnet.no_such_name
except AttributeError as e:
    out['unknown'] = (str(e), loaded())
out['dir'] = (sorted(set(loopnet.__all__) - set(dir(loopnet))), loaded())
out['all'] = loopnet.__all__
namespace = {}
exec('from loopnet import *', namespace)
out['star'] = sorted(set(loopnet.__all__) - set(namespace))
home = {}
for name in loopnet.__all__:
    obj = getattr(loopnet, name)
    owner = getattr(obj, '__module__', None)
    if owner is None:  # INF, a float
        owner = 'loopnet.metrics'
    if obj is not getattr(sys.modules[owner], name) or obj is not namespace[name]:
        home[name] = 'not the object ' + owner + ' defines'
out['home'] = home
from loopnet import transforms
out['expand'] = transforms.expand is loopnet.expand
print(json.dumps(out))
"""


def test_import_footprint():
    """`import loopnet` compiles the package file alone: each public name
    is imported from its home module on first use.  `import loopnet.cli`
    loads neither dataclasses nor inspect, nor concurrent.futures, which no
    loopnet code imports."""
    probe = ("import sys, loopnet.cli; print(' '.join(m for m in "
             "('dataclasses', 'inspect', 'concurrent.futures') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-S", "-c", probe],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == []

    r = subprocess.run([sys.executable, "-S", "-c", LAZY_PROBE],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["import"] == ["loopnet"]
    assert out["version"] == ["0.1.0", ["loopnet"]]
    assert out["unknown"] == ["module 'loopnet' has no attribute 'no_such_name'", ["loopnet"]]
    assert out["dir"] == [[], ["loopnet"]]
    assert out["all"] == PUBLIC
    assert out["star"] == []
    assert out["home"] == {}
    assert out["expand"] is True


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_rows_without_paranoid_load_no_oracle_tier(tmp_path):
    """A fresh verify, sweep or benchmark ring process that runs no
    --paranoid row never loads loopnet.oracle: the reference searches are
    compiled by paranoid rows, the diameter command and tests alone.  On
    metrics, a lookup of any other oracle name than the two the benchmark
    tracer wraps (format_distance here) fails and loads nothing."""
    runs = {
        "verify": "from loopnet import cli; assert cli.main(['verify', '--n', '500', "
                  "'--m', '4', '--sample-size', '5', '--format', 'json', '--out', {out!r}]) == 0",
        "sweep": "from loopnet import cli; assert cli.main(['sweep', '--n', '5..30', "
                 "'--m', '2,3', '--jobs', '2', '--out', {out!r}]) == 0",
        # m = 2 gap 1 (a witness), m = 3 on level sets and over the cap
        "child.py ring": "import sys; sys.path.insert(0, {bench!r}); import child; "
                         "assert child.main(['ring', '--instances', "
                         "'[[804, [401]], [500, [3, 7, 11]], [1202, [2, 3]]]', "
                         "'--out', {out!r}]) == 0",
        "metrics": "from loopnet import metrics; "
                   "assert not hasattr(metrics, 'format_distance')",
    }
    for name, code in runs.items():
        code = code.format(out=str(tmp_path / name), bench=str(BENCHMARKS))
        probe = code + "; import sys; print('loopnet.oracle' in sys.modules)"
        r = subprocess.run([sys.executable, "-S", "-c", probe],
                           capture_output=True, text=True)
        assert r.returncode == 0, (name, r.stderr)
        assert r.stdout.split()[-1:] == ["False"], name


def test_every_name_the_benchmark_tracer_wraps_resolves():
    """benchmarks/tracer.py wraps loopnet names given as (module, dotted
    attribute); Tracer.install lists a name it cannot resolve as absent, and
    the benchmark then reports that name's per-layer metrics as null.  The
    two it reads from metrics are the oracle tier's functions themselves."""
    spec = importlib.util.spec_from_file_location("benchmark_tracer",
                                                  BENCHMARKS / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = []
    for module_name, attr, _ in tracer.WRAPPED:
        holder = importlib.import_module(module_name)
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if holder is None:
            absent.append(f"{module_name}.{attr}")
    assert absent == []
    assert metrics.bfs is oracle.bfs
    assert metrics.inner_only_distances is oracle.inner_only_distances


def test_replace_checks_like_the_constructor():
    assert G._replace(n=10) == build_circulant(10, (1, 2))
    with pytest.raises(FamilyParameterError, match="ring length"):
        G._replace(n=3)
    with pytest.raises(FamilyParameterError, match="chords must be >= 2"):
        H._replace(chords=(1,))
    assert PathRep(1, [2])._replace(lambdas=[3.0]).lambdas == (3,)
