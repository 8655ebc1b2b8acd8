"""Benchmark workloads: the inputs each one feeds loopnet and how its
outputs are checked.

A workload builds its inputs from the seed alone, names the program one
pass runs (`argv`), and checks the files a pass leaves in its output
directory.  Checks recompute every distance column with the oracle and test
the properties the method must have; they never compare with a stored copy
of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import sys
from collections import Counter
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
RING_N = 100_000
STATEMENT_TAGS = ("thm41", "thm42", "thm43", "thm44")


# --- rows, as parsed from either report format ---

def _row_from_csv(rec: dict) -> dict:
    gens = tuple(int(x) for x in rec["gens"].split("-"))
    return {
        "n": int(rec["n"]), "gens": gens, "chords_col": int(rec["chords"]),
        "d_circ": int(rec["d_circ"]), "d_ggpg": int(rec["d_ggpg"]),
        "gap": int(rec["gap"]),
        "v_dc": tuple(int(x) for x in rec["v_dc"].split("-")) if rec["v_dc"] else (),
        **{k: rec[k] == "true" for k in ("cond_outer", "cond_inner", "thm41", "thm42",
                                         "thm43_consistent", "thm44_consistent",
                                         "conj45")},
        "anomalies": tuple(a for a in rec["anomalies"].split("; ") if a),
        "witnesses": None,
    }


def _row_from_json(rec: dict) -> dict:
    return {
        "n": rec["n"], "gens": tuple(rec["gens"]), "chords_col": rec["chords"],
        "d_circ": rec["d_circ"], "d_ggpg": rec["d_ggpg"], "gap": rec["gap"],
        "v_dc": tuple(rec["v_dc"]),
        **{k: rec[k] for k in ("cond_outer", "cond_inner", "thm41", "thm42",
                               "thm43_consistent", "thm44_consistent", "conj45")},
        "anomalies": tuple(rec["anomalies"]),
        "witnesses": rec.get("witnesses", {}),
    }


def check_row(row: dict) -> str | None:
    """Oracle columns plus the verdict rules; None when the row is right."""
    n, gens = row["n"], row["gens"]
    chords = gens[1:]
    where = f"n={n} gens={'-'.join(map(str, gens))}"
    if gens[:1] != (1,) or not oracle.admissible(n, chords) or row["chords_col"] != len(chords):
        return f"{where}: chord set not admissible"
    exp = oracle.expected_row(n, chords)
    for key in ("d_circ", "d_ggpg", "gap", "v_dc", "cond_outer", "cond_inner"):
        if row[key] != getattr(exp, key):
            return f"{where}: {key}={row[key]!r}, oracle says {getattr(exp, key)!r}"
    if row["gap"] not in (1, 2) or not (row["thm41"] and row["thm42"]):
        return f"{where}: proved statement column false or gap outside {{1,2}}"
    predicted = exp.cond_outer and exp.cond_inner
    want = {"thm43_consistent": predicted == (exp.gap == 1),
            "thm44_consistent": predicted or exp.gap == 2,
            "conj45": exp.gap == 2}
    for key, value in want.items():
        if row[key] != value:
            return f"{where}: {key}={row[key]}, expected {value}"
    tags = {a.split(":", 1)[0] for a in row["anomalies"]}
    want_tags = ({"thm43"} if not want["thm43_consistent"] else set()) | \
                ({"thm44"} if not want["thm44_consistent"] else set()) | \
                ({"conj45"} if exp.gap == 1 else set())
    if tags != want_tags:
        return f"{where}: anomaly tags {sorted(tags)}, expected {sorted(want_tags)}"
    if row["witnesses"] is not None and exp.gap == 1:
        labels = row["witnesses"].get("conj45", {}).get("ggpg_diametral_path")
        problem = oracle.witness_path_problem(n, chords, labels or [], exp)
        if problem:
            return f"{where}: conj45 witness: {problem}"
    return None


def check_rows(rows, cells: dict) -> list[str]:
    """Order, distinctness, per-cell counts and every row against the oracle.

    cells maps (n, m) to the expected row count of that cell.
    """
    problems = []
    keys = [(r["n"], r["gens"][1:]) for r in rows]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("rows not in strictly increasing (n, chords) order")
    got = Counter((n, len(c) + 1) for n, c in keys)
    want = {cell: k for cell, k in cells.items() if k}
    if dict(got) != want:
        problems.append(f"per-cell row counts {dict(got)} != expected {want}")
    for row in rows:
        problem = check_row(row)
        if problem:
            problems.append(problem)
            break
    return problems


def grid_cells(n_range, m_set, cap: int, size: int) -> dict:
    """Expected rows per (n, m) cell: the whole cell, or a sample when too big."""
    cells = {}
    for n in n_range:
        for m in m_set:
            total = math.comb(max(0, (n - 1) // 2 - 1), m - 1)
            cells[(n, m)] = total if total <= cap else size
    return cells


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


# --- workloads ---

class Workload:
    name = ""
    jobs = 1
    ok_exits = (0,)
    # nominal seconds per timed pass, set-up spawns included: about the
    # slowest pass seen on the loaded 2-core reference machine, so that the
    # passes of a --trace 0 run fit in --seconds there
    pass_s = 3.0

    def __init__(self, seed: int):
        self.seed = seed

    def argv(self, out_dir: Path, trace: Path | None) -> list[str]:
        raise NotImplementedError

    def rows_per_pass(self) -> int:
        return sum(self.cells.values())

    def check(self, out_dir: Path, exit_code: int, stdout: str) -> list[str]:
        raise NotImplementedError

    def reference(self):
        """A workload whose output files must equal this one's, or None."""
        return None

    def outputs(self, out_dir: Path) -> dict:
        """Every output file of a pass, by name, for byte comparisons."""
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def _cli(self, args: list[str], trace: Path | None) -> list[str]:
        if trace is None:
            return [sys.executable, "-m", "loopnet", *args]
        return [sys.executable, CHILD, "--trace", str(trace), "cli", *args]


class Grid(Workload):
    """`loopnet sweep --n 5..60 --m 2,3`: the shipped exhaustive grid."""

    N_RANGE = range(5, 61)
    M_SET = (2, 3)
    CAP, SIZE = 100_000, 1000

    def __init__(self, seed: int, jobs: int):
        super().__init__(seed)
        self.jobs = jobs
        self.name = f"grid-j{jobs}"
        # grid-j2 leaves room for its untimed grid-j1 reference pass
        self.pass_s = 3.5 if jobs > 1 else 4.5
        self.cells = grid_cells(self.N_RANGE, self.M_SET, self.CAP, self.SIZE)

    def argv(self, out_dir, trace):
        return self._cli(["sweep", "--n", "5..60", "--m", "2,3", "--jobs", str(self.jobs),
                          "--seed", str(self.seed), "--out", str(out_dir / "sweep.csv")],
                         trace)

    def reference(self):
        # the report must not depend on --jobs
        return Grid(self.seed, 1) if self.jobs > 1 else None

    def check(self, out_dir, exit_code, stdout):
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        flags = (f"sweep --n 5..60 --m 2,3 --sample-cap {self.CAP} "
                 f"--sample-size {self.SIZE} --format csv")
        problems = []
        lines = _read(out_dir / "sweep.csv").splitlines()
        cx_lines = _read(out_dir / "sweep.counterexamples.csv").splitlines()
        head = re.fullmatch(r"# loopnet \S+ \| (.*) \| seed=(-?\d+)", lines[0] if lines else "")
        if not head or head.group(1) != flags or int(head.group(2)) != self.seed:
            return [f"bad report header {lines[:1]}"]
        if not cx_lines or cx_lines[0] != lines[0].replace(" | seed=", " [counterexamples] | seed="):
            problems.append(f"bad counterexamples header {cx_lines[:1]}")
        rows = [_row_from_csv(r) for r in csv.DictReader(io.StringIO("\n".join(lines[1:])))]
        problems += check_rows(rows, self.cells)
        gap1 = [line for line, r in zip(lines[2:], rows) if r["gap"] == 1]
        if cx_lines[2:] != gap1 or cx_lines[1:2] != lines[1:2]:
            problems.append("counterexamples file is not the gap-1 rows of the report")
        dist = Counter(r["gap"] for r in rows)
        summary = (f"rows {len(rows)}\n"
                   f"gap distribution {' '.join(f'{g}:{c}' for g, c in sorted(dist.items()))}\n"
                   f"counterexamples {len(gap1)} -> {out_dir / 'sweep.counterexamples.csv'}\n")
        if stdout != summary:
            problems.append(f"stdout summary {stdout!r} != {summary!r}")
        return problems


class Sampled(Workload):
    """`loopnet verify --n 500..504 --m 4 --sample-size 20 --format json`.

    Five cells rather than more keep a pass near 2.5 s, so that a run's
    median is taken over ten passes.
    """

    name = "sampled-m4"
    ok_exits = (0, 4)          # 4: findings present, a recorded outcome
    N_RANGE = range(500, 505)
    CAP, SIZE = 100_000, 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cells = grid_cells(self.N_RANGE, (4,), self.CAP, self.SIZE)

    def argv(self, out_dir, trace):
        return self._cli(["verify", "--n", "500..504", "--m", "4", "--sample-size",
                          str(self.SIZE), "--format", "json", "--seed", str(self.seed),
                          "--out", str(out_dir / "verify.json")], trace)

    def check(self, out_dir, exit_code, stdout):
        try:
            report = json.loads(_read(out_dir / "verify.json"))
            findings = json.loads(_read(out_dir / "verify.findings.json"))
        except json.JSONDecodeError as exc:
            return [f"invalid JSON output: {exc}"]
        flags = "verify --n 500..504 --m 4 --theorems 4.1,4.2,4.3,4.4 --format json"
        header = report.get("header", {})
        if (header.get("tool"), header.get("flags"), header.get("seed")) != \
                ("loopnet", flags, self.seed):
            return [f"bad report header {header}"]
        problems = []
        rows = [_row_from_json(r) for r in report["reports"]]
        problems += check_rows(rows, self.cells)
        want = [{"n": r["n"], "gens": list(r["gens"]), "anomaly": note,
                 "witness": r["witnesses"].get(note.split(":", 1)[0])}
                for r in rows for note in r["anomalies"]
                if note.split(":", 1)[0] in STATEMENT_TAGS]
        if findings != {"header": header, "findings": want}:
            problems.append("findings file does not match the report's anomalies")
        if exit_code != (4 if want else 0):
            problems.append(f"exit code {exit_code} with {len(want)} findings")
        return problems


class Ring(Workload):
    """verify_instance on a handful of n = 100 000 instances, from the library."""

    name = "ring-1e5"
    pass_s = 4.5

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"ring-1e5:{seed}")
        top = (RING_N - 1) // 2
        # m = 2: the gap-1 family C_{4k}(1, 2k-1), so the conj45 witness
        # search runs; three instances keep a pass near 3 s, so that a
        # run's median is taken over six passes
        gap1 = (RING_N // 2 - 1,)
        # m = 3, every chord a multiple of p: the chord-only subgraph is
        # disconnected
        p = rng.choice((2, 5))
        shared = tuple(sorted(rng.sample(range(p * 2, top + 1, p), 2)))
        triple = tuple(sorted(rng.sample(range(2, top + 1), 3)))
        self.instances = [(RING_N, c) for c in sorted({gap1, shared, triple})]

    def argv(self, out_dir, trace):
        head = [sys.executable, CHILD] + (["--trace", str(trace)] if trace else [])
        return head + ["ring", "--instances", json.dumps(self.instances),
                       "--out", str(out_dir / "ring.json")]

    def rows_per_pass(self):
        return len(self.instances)

    def check(self, out_dir, exit_code, stdout):
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            report = json.loads(_read(out_dir / "ring.json"))
        except json.JSONDecodeError as exc:
            return [f"invalid JSON output: {exc}"]
        rows = [_row_from_json(r) for r in report["reports"]]
        if [(r["n"], r["gens"][1:]) for r in rows] != \
                [(n, tuple(c)) for n, c in self.instances]:
            return ["rows do not match the instance list"]
        problems = [p for p in map(check_row, rows) if p]
        if not any(r["gap"] == 1 for r in rows):
            problems.append("no gap-1 row, so no conj45 witness was checked")
        return problems


MAKERS = {
    "grid-j1": lambda seed: Grid(seed, 1),
    "grid-j2": lambda seed: Grid(seed, 2),
    "ring-1e5": Ring,
    "sampled-m4": Sampled,
}
NAMES = tuple(MAKERS)


def make(name: str, seed: int) -> Workload:
    return MAKERS[name](seed)
