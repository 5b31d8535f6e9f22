"""Output checks for benchmark runs: invariants, reference agreement, digests.

A run's output directory fails validation when any file holds a non-finite
CSV/NPY value, a workload invariant breaks (the tolerances are those of the
library's own identities), or a numeric output disagrees with the reference
recorded at the commit that defined the benchmark.

Reference agreement: every CSV column, every real and imaginary part of an
NPY array and every number in a JSON output is reduced to a few statistics
(mean, mean |x|, rms, min, max, and the values at five evenly spaced
positions).  Each statistic must match the reference within
``RTOL * scale + ATOL``, where ``scale`` is the largest magnitude in the
reference column (for a JSON number, the number itself).  Strings, booleans
and integers must match exactly, as must the set of files and columns.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-6
ATOL = 1e-12

NORM_TOL = 1e-12  # exact propagation is unitary
ORACLE_TOL = 1e-10  # Krylov vs dense exponential
GAUGE_DEFECT_TOL = 1e-12  # the dictionary comparison is gauge invariant

# run_config.json echoes the seed and the output path: it is covered by the
# digests, not by the reference.  The lemma report's ratios and violation
# records depend on the seed; its structure and trial counts do not.
SKIP_FILES = {"run_config.json"}
SEED_DEPENDENT = {
    "lemma_report.json": ("seed", "max_ratio", "violations"),
}


def digest(out_dir: Path, skip=()) -> str:
    """sha256 over the sorted file names and bytes of an output directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if rel in skip:
            continue
        h.update(rel.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def read_outputs(out_dir: Path) -> dict:
    """File name -> parsed content (CSV: (header, float rows), NPY, JSON)."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            lines = path.read_text(encoding="utf-8").splitlines()
            header = lines[0].split(",")
            rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
            out[path.name] = (header, rows.reshape(len(lines) - 1, len(header)))
        elif path.suffix == ".npy":
            out[path.name] = np.load(path, allow_pickle=False)
        elif path.suffix == ".json":
            out[path.name] = json.loads(path.read_text(encoding="utf-8"))
        else:
            out[path.name] = None
    return out


def _stats(values: np.ndarray) -> list[float]:
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return []
    picks = [v[int(round(f * (v.size - 1)))] for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    return [float(x) for x in (
        v.mean(), np.abs(v).mean(), math.sqrt(float(np.mean(v * v))), v.min(), v.max(),
        *picks,
    )]


def _flatten(obj, prefix: str, skip_keys) -> dict:
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if k not in skip_keys:
                out.update(_flatten(v, f"{prefix}.{k}" if prefix else k, skip_keys))
        return out
    if isinstance(obj, list):
        out = {}
        for i, v in enumerate(obj):
            out.update(_flatten(v, f"{prefix}[{i}]", skip_keys))
        return out
    return {prefix: obj}


def summarize(outputs: dict) -> dict:
    """The reference form of a run's outputs (see the module docstring)."""
    summary = {}
    for name, content in outputs.items():
        if name in SKIP_FILES:
            continue
        if name.endswith(".csv"):
            header, rows = content
            summary[name] = {col: _stats(rows[:, j]) for j, col in enumerate(header)}
        elif name.endswith(".npy"):
            summary[name] = {
                "shape": list(content.shape),
                "real": _stats(content.real),
                "imag": _stats(np.imag(content)),
            }
        elif name.endswith(".json"):
            summary[name] = _flatten(content, "", SEED_DEPENDENT.get(name, ()))
        else:
            summary[name] = None
    return summary


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * scale + ATOL


def compare_to_reference(summary: dict, reference: dict) -> list[str]:
    problems = []
    if sorted(summary) != sorted(reference):
        return [f"output files {sorted(summary)} != reference {sorted(reference)}"]
    for name, ref in reference.items():
        got = summary[name]
        if name.endswith((".csv", ".npy")):
            if sorted(got) != sorted(ref):
                problems.append(f"{name}: columns {sorted(got)} != {sorted(ref)}")
                continue
            for col, want in ref.items():
                have = got[col]
                if col == "shape" or len(have) != len(want):
                    if have != want:
                        problems.append(f"{name}:{col}: {have} != reference {want}")
                    continue
                scale = max((abs(x) for x in want), default=0.0)
                if not all(_close(a, b, scale) for a, b in zip(have, want)):
                    problems.append(f"{name}:{col}: statistics {have} != reference {want}")
        elif name.endswith(".json"):
            if sorted(got) != sorted(ref):
                problems.append(f"{name}: keys differ from the reference")
                continue
            for key, want in ref.items():
                have = got[key]
                if isinstance(want, float) and isinstance(have, float):
                    ok = _close(have, want, abs(want))
                else:
                    ok = have == want
                if not ok:
                    problems.append(f"{name}:{key}: {have!r} != reference {want!r}")
    return problems


def _finite(outputs: dict) -> list[str]:
    problems = []
    for name, content in outputs.items():
        values = content[1] if name.endswith(".csv") else content
        if name.endswith((".csv", ".npy")) and not np.all(np.isfinite(values)):
            problems.append(f"{name}: non-finite values")
    return problems


def _column(outputs: dict, name: str, col: str) -> np.ndarray:
    header, rows = outputs[name]
    return rows[:, header.index(col)]


def _invariants(workload: str, outputs: dict) -> list[str]:
    problems = []
    if workload == "manybody":
        for name in outputs:
            if name.startswith("exact_") and name.endswith(".csv"):
                drift = float(np.max(np.abs(_column(outputs, name, "norm") - 1.0)))
                if drift > NORM_TOL:
                    problems.append(f"{name}: norm drifts {drift:.3e} from 1")
            if name.endswith("_oracle.json"):
                diff = outputs[name]["krylov_vs_dense"]
                if not diff <= ORACLE_TOL:
                    problems.append(f"{name}: krylov_vs_dense {diff!r} > {ORACLE_TOL}")
        summary = outputs.get("compare_summary.json", {})
        for key, entry in summary.items():
            if isinstance(entry, dict) and not entry["max_gauge_defect"] <= GAUGE_DEFECT_TOL:
                problems.append(f"compare_summary.json: {key} max_gauge_defect "
                                f"{entry['max_gauge_defect']!r} > {GAUGE_DEFECT_TOL}")
        if summary.get("final_comparison_shrinks_from_N2_to_N4") is not True:
            problems.append("compare_summary.json: final comparison does not shrink N2 -> N4")
    if workload == "lemmas":
        report = outputs.get("lemma_report.json", {})
        asserted = report.get("asserted", {})
        if not asserted:
            problems.append("lemma_report.json: no asserted bounds")
        for name, rec in asserted.items():
            if rec["violations"]:
                problems.append(f"lemma_report.json: {name} has {len(rec['violations'])} "
                                f"violations")
    return problems


def check(workload: str, out_dir: Path, reference: dict | None) -> list[str]:
    """Every validation problem of one run's output directory (empty: valid)."""
    try:
        outputs = read_outputs(out_dir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable outputs: {exc}"]
    problems = _finite(outputs) + _invariants(workload, outputs)
    if reference is not None:
        problems += compare_to_reference(summarize(outputs), reference)
    return problems
