"""Self-tests of the benchmark: span arithmetic, reference check, layer coverage.

Run with ``python3 -m pytest bench/tests`` from the root of the repository.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tracing
import validate

ROOT = Path(__file__).resolve().parents[2]


def _spans(rows):
    """rows: (name, layer, parent index, start, end) in start order."""
    keys = sorted({(r[0], r[1]) for r in rows})
    return (keys, [keys.index((r[0], r[1])) for r in rows], [r[2] for r in rows],
            [r[3] for r in rows], [r[4] for r in rows])


def test_self_time_of_nested_spans():
    #  a [0, 10] -> b [1, 4] -> c [2, 3];  a -> d [5, 9];  e [10, 12] at top level
    by_name, self_by_layer = tracing.span_stats(*_spans([
        ("x.a", "x", -1, 0.0, 10.0),
        ("y.b", "y", 0, 1.0, 4.0),
        ("z.c", "z", 1, 2.0, 3.0),
        ("y.d", "y", 0, 5.0, 9.0),
        ("x.e", "x", -1, 10.0, 12.0),
    ]))
    assert by_name == {"x.a": (1, 10.0), "y.b": (1, 3.0), "z.c": (1, 1.0),
                       "y.d": (1, 4.0), "x.e": (1, 2.0)}
    # x: a's 10 minus b (3) and d (4), plus e; y: b minus c, plus d; z: c
    assert self_by_layer == {"x": 5.0, "y": 6.0, "z": 1.0}
    assert sum(self_by_layer.values()) == 12.0  # self times partition the covered time


def test_recursive_span_counts_calls_but_not_time_twice():
    by_name, self_by_layer = tracing.span_stats(*_spans([
        ("x.f", "x", -1, 0.0, 10.0),
        ("x.g", "x", 0, 1.0, 8.0),
        ("x.f", "x", 1, 2.0, 6.0),
        ("x.f", "x", 2, 3.0, 4.0),
    ]))
    assert by_name["x.f"] == (3, 10.0)
    assert by_name["x.g"] == (1, 7.0)
    assert self_by_layer == {"x": 10.0}


def test_matvec_self_time_goes_to_the_calling_layer():
    by_name, self_by_layer = tracing.span_stats(*_spans([
        ("gauge.run_gauged", "gauge", -1, 0.0, 10.0),
        ("lanczos.expm", "lanczos", 0, 1.0, 9.0),
        ("lanczos.segment", "lanczos", 1, 1.0, 9.0),
        ("lanczos.matvec", "gauge", 2, 2.0, 5.0),
        ("lanczos.matvec", "gauge", 2, 6.0, 8.0),
    ]))
    assert by_name["lanczos.matvec"] == (2, 5.0)
    assert self_by_layer == {"gauge": 2.0 + 5.0, "lanczos": 3.0}


def test_recorder_spans_parents_and_post_hooks(tmp_path):
    rec = tracing.Recorder()
    seen = []
    inner = rec.wrap(lambda x: x + 1, "y.inner", "y", post=seen.append)
    outer = rec.wrap(lambda x: inner(inner(x)), "x.outer", "x")
    assert outer(1) == 3
    assert seen == [2, 3]
    rec.dump(tmp_path / "spans.npz")
    trace = tracing.load(tmp_path / "spans.npz")
    names = [trace["keys"][k][0] for k in trace["key"]]
    assert names == ["x.outer", "y.inner", "y.inner"]
    assert list(trace["parent"]) == [-1, 0, 0]
    assert np.all(trace["end"] >= trace["start"])


def test_layer_metrics_report_every_per_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    empty = {"keys": [], "counters": {}, "key": [], "parent": [], "start": [], "end": []}
    reported = set(tracing.layer_metrics(empty, 0))
    reported |= {"trace.run_s", "trace.overhead_s", "trace.overhead_frac"}
    assert {m["name"] for m in declared} == reported


def test_predictions_name_only_reported_metrics():
    table = json.loads((ROOT / "bench" / "predictions.json").read_text())
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    end_to_end = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for group in table["groups"]:
        assert set(group["metrics"]) <= declared
        assert set(group["moves"]) == {"meanfield", "manybody", "aux", "lemmas"}
        for effect in group["moves"].values():
            assert effect in ("minor", "none") or set(effect) <= end_to_end


def test_install_wraps_every_import_site():
    code = (
        "import sys, tracing, mflab.cli as cli, mflab.manybody as mb, mflab._lanczos as lz\n"
        "import mflab.gauge as g, mflab.auxiliary as aux\n"
        "tracing.install(tracing.Recorder())\n"
        "assert cli.propagate is mb.propagate and hasattr(mb.propagate, '__wrapped__')\n"
        "assert aux.propagate is mb.propagate\n"
        "assert g.expm_multiply_hermitian is mb.expm_multiply_hermitian\n"
        "assert hasattr(lz._krylov_segment, '__wrapped__')\n"
        "assert all(hasattr(f, '__wrapped__') for f in cli.COMMANDS.values())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_reference_check_flags_a_perturbed_value():
    rows = np.array([[0.0, 1.0], [0.5, 0.999], [1.0, 0.998]])
    outputs = {"a.csv": (["t", "energy"], rows), "s.json": {"x": 0.25, "ok": True}}
    reference = validate.summarize(outputs)
    assert validate.compare_to_reference(validate.summarize(outputs), reference) == []
    nudged = rows.copy()
    nudged[1, 1] *= 1 + 1e-9  # inside the tolerance
    assert validate.compare_to_reference(
        validate.summarize({**outputs, "a.csv": (["t", "energy"], nudged)}), reference) == []
    nudged[1, 1] *= 1 + 1e-4
    problems = validate.compare_to_reference(
        validate.summarize({**outputs, "a.csv": (["t", "energy"], nudged)}), reference)
    assert problems and problems[0].startswith("a.csv:energy")
    problems = validate.compare_to_reference(
        validate.summarize({**outputs, "s.json": {"x": 0.25, "ok": False}}), reference)
    assert problems == ["s.json:ok: False != reference True"]


def test_ledger_flags_digests_that_change_for_the_same_source(tmp_path):
    import run

    ledger = run.Ledger(tmp_path / "digests.jsonl", "src1")
    plain, seeded = run.WORKLOADS["manybody"], run.WORKLOADS["lemmas"]
    assert ledger.check("manybody", plain, 1, "full-a", "sci") == []
    assert ledger.check("manybody", plain, 1, "full-a", "sci") == []
    assert ledger.check("manybody", plain, 2, "full-b", "sci") == []  # only run_config differs
    assert ledger.check("manybody", plain, 1, "full-c", "sci")  # same seed, new bytes
    assert ledger.check("manybody", plain, 3, "full-d", "other")  # seed-free outputs moved
    assert ledger.check("lemmas", seeded, 1, "l-a", "l-a") == []
    assert ledger.check("lemmas", seeded, 2, "l-b", "l-b") == []  # lemma outputs follow the seed
    reread = run.Ledger(tmp_path / "digests.jsonl", "src1")
    assert reread.check("manybody", plain, 1, "full-x", "sci")
    assert run.Ledger(tmp_path / "digests.jsonl", "src2").check("manybody", plain, 1, "x", "y") == []


def test_calibrator_counts_while_running_and_stops():
    import run

    run.WORK.mkdir(exist_ok=True)
    with run.Calibrator() as calib:
        first = calib.count()
        deadline = time.monotonic() + 10
        while calib.count() == first and time.monotonic() < deadline:
            time.sleep(0.05)
        assert calib.count() > first
        proc = calib._proc
    assert proc.returncode == 0


def test_coverage_check_reports_a_zero_heavy_metric():
    import run

    heavy = run.heavy_metrics("lemmas")
    assert "counting.SlotSpace.apply_one.calls" in heavy
    metrics = dict.fromkeys(heavy, 1.0)
    assert run.uncovered("lemmas", metrics) == []
    metrics["counting.SlotSpace.apply_one.calls"] = 0
    assert run.uncovered("lemmas", metrics) == ["counting.SlotSpace.apply_one.calls"]


@pytest.mark.parametrize("workload", ["meanfield", "manybody", "aux", "lemmas"])
def test_heavy_layers_are_nonzero_in_traced_run(workload):
    """A traced run fails when a metric predicted heavy for its workload is zero."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    import run

    for metric in run.heavy_metrics(workload):
        assert result["metrics"][metric]["value"] > 0, metric
