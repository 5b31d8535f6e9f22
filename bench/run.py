"""mflab benchmark: four pipeline workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --report                  # pooled samples so far
    python3 bench/run.py --record-reference        # rewrite bench/reference/

Every pipeline repetition is a fresh single-threaded process (OpenBLAS/OpenMP
pinned to one thread) that calls ``mflab.cli.main`` with the workload's fixed
argument lists plus ``--seed N``.  The seed selects the random tensors of the
lemma suite; the other pipelines are deterministic and only record it in
``run_config.json``.

--trace 0 prints the end-to-end metrics.  The measured processes share one
CPU with ``calibrator.py``, which runs at nice 5.  The scheduler splits the
CPU between the two in the fixed ratio of their weights (1024 to 335), so
the calibrator's iterations during an interval, divided by
``REFERENCE_RATE``, give the CPU time the measured process received in
reference-CPU seconds: the time it takes on one uncontended CPU of the
reference machine.  That cancels the slowdowns other tenants of the host
impose, which move plain wall times by up to a third from minute to minute.
Wall times are recorded beside them.

    run_s        median time from pipeline entry to exit (reference-CPU s)
    setup_s      median time from spawn to pipeline entry: interpreter,
                 numpy/scipy/mflab imports and load_config (reference-CPU s),
                 over extra processes that stop at entry plus the repetitions
    peak_rss_mb  median ru_maxrss of the repetitions
    work_per_s   workload units / run_s

``failed/attempted`` is the failed fraction: a repetition fails when it exits
non-zero, fails output validation (``validate.py``) or produces a different
output digest than an earlier repetition of the same source, workload and
seed.

--trace 1 alternates untraced and traced repetitions without the calibrator
and prints the per-layer metrics of the traced ones (``tracing.py``), the
tracing overhead (traced minus untraced wall ``run_s``), and checks that every
metric ``predictions.json`` marks as heavy for the workload is non-zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run appends its
samples, metrics and run environment to ``bench/.work/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import mmap
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import validate  # noqa: E402

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBES = 3  # set-up-only processes per run, after one discarded warm-up
CHILD_TIMEOUT_S = 150
CALIBRATOR_NICE = 5  # scheduler weight 335, against 1024 for the measured process
# calibrator.py iterations per reference-CPU second of the measured process:
# its solo rate on one CPU of the machine the benchmark was defined on
# (82,000/s on a 2-vCPU Intel Xeon VM, Python 3.11.7) times its weight share
REFERENCE_RATE = 82_000.0 * 335 / 1024


@dataclass(frozen=True)
class Workload:
    argvs: tuple[tuple[str, ...], ...]
    unit: str
    units: int  # workload units done by one repetition
    seeded_outputs: bool = False  # whether outputs besides run_config.json depend on the seed


MANYBODY_ARGS = ("--override", "grid.sites=20", "--override", "scaling.n=2,3,4")
WORKLOADS = {
    # 3 N x 1000 steps x 2 routes (self-consistent + gauged): Krylov on 16xN vectors
    "meanfield": Workload((("hartree", "--override", "scaling.n=2,3,4"),),
                          "orbital steps", 6000),
    # 3 N x 101 snapshots in exact plus the same in compare: tables, lifts, rdm1
    "manybody": Workload((("exact",) + MANYBODY_ARGS, ("compare",) + MANYBODY_ARGS),
                         "snapshots", 606),
    # 2 N x 50 steps of the truncated generator: dense kept blocks, 3-body tables
    "aux": Workload((("aux", "--override", "grid.sites=8", "--override", "scaling.n=2,3",
                      "--override", "time.t_final=0.05",
                      "--override", "time.snapshot_every=10"),),
                    "truncated steps", 100),
    # 200 random trials through the literal SlotSpace
    "lemmas": Workload((("lemmas",),), "trials", 200, seeded_outputs=True),
}


class Calibrator:
    """``calibrator.py`` running on one CPU; measured processes are pinned beside it."""

    def __init__(self) -> None:
        self.cpu = min(os.sched_getaffinity(0))
        self.path = WORK / "calibration.counter"

    def pin(self) -> None:
        os.sched_setaffinity(0, {self.cpu})

    def _start(self) -> None:
        self.pin()
        os.nice(CALIBRATOR_NICE)

    def count(self) -> int:
        return self._slots[0]

    def __enter__(self) -> Calibrator:
        self.path.write_bytes(bytes(16))
        self._file = open(self.path, "r+b")
        self._map = mmap.mmap(self._file.fileno(), 16)
        self._slots = memoryview(self._map).cast("q")
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "calibrator.py"),
                                       str(self.path)], preexec_fn=self._start)
        while self.count() == 0:
            if self._proc.poll() is not None:
                self.__exit__()
                raise SystemExit("calibrator exited before counting")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._slots[1] = 1
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._slots.release()
        self._map.close()
        self._file.close()


@dataclass
class Rep:
    """One process: set-up and run times, or why it failed."""

    setup_s: float | None = None
    run_s: float | None = None
    wall_setup_s: float | None = None
    wall_run_s: float | None = None
    rss_mb: float | None = None
    versions: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mflab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(workload: Workload, seed: int, out: str, probe: bool,
          trace: Path | None = None, calib: Calibrator | None = None) -> Rep:
    """Run one child process; times are reference-CPU seconds when ``calib`` is set."""
    result = WORK / "child.json"
    result.unlink(missing_ok=True)
    argvs = [list(a) + ["--seed", str(seed), "--out", out] for a in workload.argvs]
    spec = {"argvs": argvs, "result": str(result), "probe": probe,
            "trace": str(trace) if trace else None,
            "counter": str(calib.path) if calib else None}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)
    with open(WORK / "child.stderr", "w", encoding="utf-8") as err:
        count_spawn = calib.count() if calib else None
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=calib.pin if calib else None)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    rep = Rep()
    if proc.returncode != 0 or not result.is_file():
        tail = (WORK / "child.stderr").read_text(encoding="utf-8").strip().splitlines()[-1:]
        rep.problems.append(f"process exited with {proc.returncode}: {' '.join(tail)}")
        return rep
    data = json.loads(result.read_text(encoding="utf-8"))
    rep.versions = data["versions"]
    if data["entry"] is None:
        rep.problems.append(f"mflab exited with {data['codes']} before the pipeline")
        return rep
    (t_entry, c_entry), (t_exit, c_exit) = data["entry"], data["exit"]
    rep.wall_setup_s = t_entry - t_spawn
    rep.setup_s = (c_entry - count_spawn) / REFERENCE_RATE if calib else rep.wall_setup_s
    if any(code != 0 for code in data["codes"]):
        rep.problems.append(f"mflab exited with {data['codes']}")
    elif not probe:
        rep.wall_run_s = t_exit - t_entry
        rep.run_s = (c_exit - c_entry) / REFERENCE_RATE if calib else rep.wall_run_s
        rep.rss_mb = data["maxrss_kb"] / 1024.0
    return rep


class Ledger:
    """Output digests of earlier repetitions of the same source (determinism check)."""

    def __init__(self, path: Path, source: str):
        self.path, self.source = path, source
        self.entries = []
        if path.is_file():
            for line in path.read_text(encoding="utf-8").splitlines():
                entry = json.loads(line)
                if entry["source"] == source:
                    self.entries.append(entry)

    def check(self, name: str, workload: Workload, seed: int, full: str, science: str):
        problems, seen = [], False
        for e in self.entries:
            if e["workload"] != name:
                continue
            if e["seed"] == seed:
                seen = True
                if e["digest"] != full:
                    problems.append(f"output digest {full[:12]} != earlier run "
                                    f"{e['digest'][:12]}")
                    break
            if not workload.seeded_outputs and e["science"] != science:
                problems.append(f"outputs differ from an earlier run with seed {e['seed']}")
                break
        if not problems and not seen:
            entry = {"source": self.source, "workload": name, "seed": seed,
                     "digest": full, "science": science}
            self.entries.append(entry)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")
        return problems


def pipeline_rep(name: str, seed: int, reference: dict, ledger: Ledger,
                 trace: Path | None = None, calib: Calibrator | None = None) -> Rep:
    out = WORK / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    rep = spawn(WORKLOADS[name], seed, out.relative_to(ROOT).as_posix(), False, trace, calib)
    if rep.run_s is None:
        return rep
    rep.problems += validate.check(name, out, reference)
    rep.problems += ledger.check(name, WORKLOADS[name], seed, validate.digest(out),
                                 validate.digest(out, skip=validate.SKIP_FILES))
    return rep


def environment(seed: int, versions: dict, source: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": source,
        **versions,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "thread_pins": THREAD_PINS,
        "reference_rate": REFERENCE_RATE,
    }


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples above it."""
    xs = sorted(values)
    if len(xs) < 11:
        return None
    return 100.0 * (len(xs) - 10) / len(xs), xs[len(xs) - 11]


def heavy_metrics(name: str) -> list[str]:
    table = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    return [m for g in table["groups"] if isinstance(g["moves"].get(name), list)
            for m in g["metrics"] if m not in g.get("may_be_zero", ())]


def uncovered(name: str, metrics: dict) -> list[str]:
    """Metrics predicted heavy for the workload that a traced run left at zero."""
    return [m for m in heavy_metrics(name) if not metrics.get(m)]


def load_reference(name: str) -> dict:
    path = BENCH / "reference" / f"{name}.json"
    if not path.is_file():
        raise SystemExit(f"missing reference outputs {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def end_to_end(name: str, seed: int, seconds: float, ledger: Ledger) -> tuple[list, dict]:
    """Calibrated probes and repetitions until the next one would pass the deadline."""
    deadline = time.perf_counter() + seconds
    workload, reference = WORKLOADS[name], load_reference(name)
    probe_out = (WORK / "probe").relative_to(ROOT).as_posix()
    probes, reps = [], []
    with Calibrator() as calib:
        spawn(workload, seed, probe_out, True, calib=calib)  # warm-up: bytecode, page cache
        for _ in range(PROBES):
            probe = spawn(workload, seed, probe_out, True, calib=calib)
            if probe.setup_s is None:
                raise SystemExit(f"{name}: set-up failed: {probe.problems}")
            probes.append(probe)
        longest = 0.0
        while not reps or time.perf_counter() + longest <= deadline:
            t0 = time.perf_counter()
            reps.append(pipeline_rep(name, seed, reference, ledger, calib=calib))
            longest = max(longest, time.perf_counter() - t0)
    ran = [r for r in reps if r.run_s is not None]
    if not ran:
        raise SystemExit(f"{name}: pipeline did not run: {reps[0].problems}")
    samples = {
        "run_s": [r.run_s for r in ran],
        "setup_s": [r.setup_s for r in probes + ran],
        "wall_run_s": [r.wall_run_s for r in ran],
        "wall_setup_s": [r.wall_setup_s for r in probes + ran],
    }
    run_s = median(samples["run_s"])
    metrics = {
        "run_s": run_s,
        "setup_s": median(samples["setup_s"]),
        "peak_rss_mb": median([r.rss_mb for r in ran]),
        "work_per_s": workload.units / run_s,
    }
    return reps, metrics, samples


def per_layer(name: str, seed: int, seconds: float, ledger: Ledger) -> tuple[list, dict]:
    """Alternate untraced and traced repetitions (at least one each) until the deadline."""
    deadline = time.perf_counter() + seconds
    reference = load_reference(name)
    reps, plain, traced, layer_runs = [], [], [], []
    dump = WORK / "spans.npz"
    longest = 0.0
    while not (plain and traced) or time.perf_counter() + longest <= deadline:
        use_trace = len(traced) < len(plain)
        t0 = time.perf_counter()
        rep = pipeline_rep(name, seed, reference, ledger, dump if use_trace else None)
        longest = max(longest, time.perf_counter() - t0)
        reps.append(rep)
        if rep.run_s is None:
            if not (plain or traced):
                raise SystemExit(f"{name}: pipeline did not run: {rep.problems}")
            continue
        (traced if use_trace else plain).append(rep.run_s)
        if use_trace:
            out_bytes = sum(p.stat().st_size for p in (WORK / "out" / name).iterdir())
            layer_runs.append(tracing.layer_metrics(tracing.load(dump), out_bytes))
    metrics = {key: median([run[key] for run in layer_runs]) for key in layer_runs[0]}
    metrics["trace.run_s"] = median(traced)
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / median(plain)
    missing = uncovered(name, metrics)
    if missing:
        reps.append(Rep(problems=[f"heavy per-layer metrics are zero: {missing}"]))
    return reps, metrics, {"wall_run_s": plain, "traced_wall_run_s": traced}


UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    source = source_hash()
    ledger = Ledger(WORK / "digests.jsonl", source)
    run = per_layer if trace else end_to_end
    reps, metrics, samples = run(name, seed, seconds, ledger)
    attempted = len(reps)
    failed = sum(1 for r in reps if r.problems)
    problems = [p for r in reps for p in r.problems]
    versions = next((r.versions for r in reps if r.versions), {})
    env = environment(seed, versions, source)
    (WORK / "env.json").write_text(json.dumps(env, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "trace": trace,
                             "attempted": attempted, "failed": failed, "metrics": metrics,
                             "samples": samples, "problems": problems, "env": env}) + "\n")

    print(f"workload {name}  seed {seed}  unit {WORKLOADS[name].unit} "
          f"({WORKLOADS[name].units} per repetition)")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for problem in problems:
        print(f"FAILED: {problem}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:.6g} {unit_of(key)}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ratio "
          f"({failed}/{attempted} repetitions)")
    for key, values in samples.items():
        print(f"  samples {key}: " + " ".join(f"{v:.4g}" for v in values))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def report() -> None:
    """Median and tail of every pooled timing sample, per workload."""
    path = WORK / "results.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
    pooled: dict = {}
    for line in lines:
        entry = json.loads(line)
        if entry["trace"]:
            continue
        slot = pooled.setdefault(entry["workload"], {"runs": 0, "attempted": 0, "failed": 0})
        slot["runs"] += 1
        slot["attempted"] += entry["attempted"]
        slot["failed"] += entry["failed"]
        for metric, values in entry["samples"].items():
            slot.setdefault(metric, []).extend(values)
    for name, slot in pooled.items():
        print(f"{name}: {slot['runs']} runs, failed_frac "
              f"{slot['failed'] / max(1, slot['attempted']):.3g} "
              f"({slot['failed']}/{slot['attempted']})")
        for metric in ("run_s", "setup_s", "wall_run_s", "wall_setup_s"):
            values = slot.get(metric, [])
            if not values:
                continue
            line = f"  {metric}: median {median(values):.6g} s, n={len(values)}"
            high = tail(values)
            if high:
                line += f", p{high[0]:.0f} {high[1]:.6g} s (10 samples above)"
            print(line)


def record_reference(names) -> None:
    for name in names:
        reference_path = BENCH / "reference" / f"{name}.json"
        out = WORK / "out" / name
        shutil.rmtree(out, ignore_errors=True)
        rep = spawn(WORKLOADS[name], 0, out.relative_to(ROOT).as_posix(), False)
        problems = rep.problems or validate.check(name, out, None)
        if problems:
            raise SystemExit(f"{name}: not recording a failing run: {problems}")
        summary = validate.summarize(validate.read_outputs(out))
        reference_path.parent.mkdir(exist_ok=True)
        reference_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
        print(f"wrote {reference_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mflab" / "cli.py").is_file():
        print(f"no mflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.report:
        report()
        return 0
    if args.record_reference:
        record_reference(names)
        return 0
    results = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
