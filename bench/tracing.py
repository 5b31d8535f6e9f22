"""Span tracing for the benchmark's traced runs, and the per-layer arithmetic.

``install`` wraps the public functions of every mflab module (the layers) at
every import site: the module that defines a function and every mflab module
that imported it by name (``cli``'s ``from .manybody import propagate``), plus
dict values that hold it (``cli.COMMANDS``).  Each call records one span:
name, start, end and the index of the enclosing span.  Spans stay in memory
in flat arrays and are written out once, by ``Recorder.dump``, after the
pipeline has finished.

``layer_metrics`` turns the spans back into per-layer calls, inclusive time
and self time.  A span's self time is its duration minus the durations of its
direct children; children of a single-threaded call never overlap and lie
inside their parent, so that is the part of its interval no child covers.

The Krylov matvec is a callback: the generator belongs to the module that
called ``expm_multiply_hermitian``, so a ``lanczos.matvec`` span's self time
is charged to that caller's layer, not to ``lanczos``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from functools import cached_property

import numpy as np

# layer name -> module; the layer name is the metric prefix
LAYERS = {
    "cli": "mflab.cli",
    "grid": "mflab.grid",
    "model": "mflab.model",
    "hartree": "mflab.hartree",
    "gauge": "mflab.gauge",
    "lanczos": "mflab._lanczos",
    "manybody": "mflab.manybody",
    "counting": "mflab.counting",
    "auxiliary": "mflab.auxiliary",
}

# functions that write a pipeline's output files; all of them count as cli.output
OUTPUT_WRITERS = (
    ("mflab.cli", "_write_csv"),
    ("mflab.cli", "_write_json"),
    ("mflab.auxiliary", "write_records_csv"),
)

# class attributes that are layer operations: (module, class, attribute, span name)
METHODS = (
    ("mflab.counting", "SlotSpace", "apply_one", "counting.SlotSpace.apply_one"),
    ("mflab.counting", "SlotSpace", "sector", "counting.SlotSpace.sector"),
    ("mflab.counting", "SlotSpace", "embed", "counting.SlotSpace.embed"),
    ("mflab.counting", "Projections", "rotation", "counting.rotation"),
    ("mflab.counting", "LemmaReport", "to_json", "cli.output"),
)
TABLES = ("one_body_table", "two_body_table", "three_body_table")
LIFTS = ("lift_one_body", "lift_two_body", "lift_three_body")


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []  # key id -> (span name, layer)
        self._key_ids: dict[tuple[str, str], int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def intern(self, name: str, layer: str) -> int:
        kid = self._key_ids.get((name, layer))
        if kid is None:
            kid = self._key_ids[(name, layer)] = len(self.keys)
            self.keys.append((name, layer))
        return kid

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, layer: str, post=None):
        """``fn`` recording one span per call; ``post(result)`` runs after it."""
        kid = self.intern(name, layer)
        key, parent, start, end = self.key, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(key)
            key.append(kid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(out)
            return out

        return traced

    def caller_layer(self) -> str:
        top = self.stack[-1]
        return self.keys[self.key[top]][1] if top >= 0 else "lanczos"

    def dump(self, path) -> None:
        meta = json.dumps({"keys": self.keys, "counters": self.counters})
        np.savez(
            path,
            meta=np.array(meta),
            key=np.frombuffer(self.key, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def load(path) -> dict:
    """Read a ``Recorder.dump`` file back into plain arrays and lists."""
    with np.load(path, allow_pickle=False) as data:
        trace = json.loads(str(data["meta"]))
        for name in ("key", "parent", "start", "end"):
            trace[name] = data[name]
    return trace


def _is_layer_function(obj, module_name: str) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module_name
    )


def install(rec: Recorder) -> None:
    """Wrap every layer's public functions at every mflab import site."""
    modules = {layer: importlib.import_module(name) for layer, name in LAYERS.items()}
    manybody, lanczos = modules["manybody"], modules["lanczos"]
    wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)

    def add(fn, wrapper):
        wrappers[id(fn)] = (fn, wrapper)

    def entries(table):
        rec.count(f"manybody.{table}.entries", 0)
        return lambda out: rec.count(f"manybody.{table}.entries", len(out[0]))

    def nnz(out):
        rec.count("manybody.lift.nnz", out.nnz)

    def segment_done(out):
        rec.count("lanczos.segments_failed", out is None)

    rec.count("manybody.lift.nnz", 0)
    rec.count("lanczos.segments_failed", 0)
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not _is_layer_function(obj, mod.__name__):
                continue
            post = nnz if (mod is manybody and attr in LIFTS) else None
            add(obj, rec.wrap(obj, f"{layer}.{attr}", layer, post))

    for module_name, attr in OUTPUT_WRITERS:
        fn = getattr(sys.modules[module_name], attr)
        add(fn, rec.wrap(fn, "cli.output", "cli"))
    add(lanczos._krylov_segment,
        rec.wrap(lanczos._krylov_segment, "lanczos.segment", "lanczos", segment_done))

    expm = lanczos.expm_multiply_hermitian
    traced_expm = rec.wrap(expm, "lanczos.expm", "lanczos")

    @functools.wraps(expm)
    def expm_with_matvec(matvec, *args, **kwargs):
        mv = rec.wrap(matvec, "lanczos.matvec", rec.caller_layer())
        return traced_expm(mv, *args, **kwargs)

    add(expm, expm_with_matvec)

    # every import site: module globals and dict values (cli.COMMANDS)
    for name, site in list(sys.modules.items()):
        if name != "mflab" and not name.startswith("mflab."):
            continue
        for attr, obj in list(vars(site).items()):
            if attr.startswith("__"):
                continue
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(site, attr, hit[1])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    hit = wrappers.get(id(v))
                    if hit is not None and hit[0] is v:
                        obj[k] = hit[1]

    # numpy.save is looked up on the numpy module at call time (cli: np.save)
    np.save = rec.wrap(np.save, "cli.output", "cli")

    for module_name, cls_name, attr, span in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        layer = span.split(".", 1)[0]
        setattr(cls, attr, rec.wrap(getattr(cls, attr), span, layer))

    basis_cls = manybody.ConfigBasis
    for table in TABLES:
        prop = cached_property(
            rec.wrap(vars(basis_cls)[table].func, f"manybody.{table}", "manybody",
                     entries(table))
        )
        prop.__set_name__(basis_cls, table)
        setattr(basis_cls, table, prop)


# ---------------------------------------------------------------------------
# span arithmetic (run in the benchmark process, not in the traced child)
# ---------------------------------------------------------------------------


def span_stats(keys, key, parent, start, end):
    """Per span name: calls and outermost inclusive time; per layer: self time.

    A span nested inside an ancestor of the same name adds to ``calls`` but
    not to the name's time, so recursion is not counted twice.
    """
    key = np.asarray(key, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    n = len(dur)
    names = sorted({name for name, _ in keys})
    layers = sorted({layer for _, layer in keys})
    name_of_key = np.array([names.index(nm) for nm, _ in keys], dtype=np.int64)
    layer_of_key = np.array([layers.index(ly) for _, ly in keys], dtype=np.int64)
    name = name_of_key[key] if n else np.zeros(0, dtype=np.int64)
    layer = layer_of_key[key] if n else np.zeros(0, dtype=np.int64)

    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time

    nested = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        nested[live] |= name[anc[live]] == name[live]
        anc[live] = parent[anc[live]]

    calls = np.bincount(name, minlength=len(names))
    incl = np.bincount(name[~nested], weights=dur[~nested], minlength=len(names))
    self_by_layer = np.bincount(layer, weights=self_time, minlength=len(layers))
    return (
        {nm: (int(calls[i]), float(incl[i])) for i, nm in enumerate(names)},
        {ly: float(self_by_layer[i]) for i, ly in enumerate(layers)},
    )


# per-layer function metrics reported as <name>.calls and <name>.s
FUNCTION_METRICS = (
    "lanczos.expm",
    "gauge.run_gauged", "gauge.mean_field_forces", "gauge.gauge_orbitals",
    "gauge.continuity_residual",
    "hartree.run_hartree", "hartree.hartree_step", "hartree.diagnostics",
    "grid.convolve_periodic", "grid.gradient", "grid.dense_kinetic",
    "manybody.one_body_table", "manybody.two_body_table", "manybody.three_body_table",
    "manybody.lift_one_body", "manybody.lift_two_body", "manybody.lift_three_body",
    "manybody.build_hamiltonian", "manybody.propagate", "manybody.propagate_dense",
    "manybody.rdm1", "manybody.observe", "manybody.slater_state",
    "manybody.gauge_manybody",
    "counting.alpha_number_onebody", "counting.build_projections",
    "counting.sector_masses", "counting.rotation", "counting.lemma_suite",
    "counting.SlotSpace.apply_one", "counting.SlotSpace.sector",
    "counting.SlotSpace.embed",
    "auxiliary.base_interactions", "auxiliary.build_aux_generator",
    "auxiliary.slot_sector_projectors", "auxiliary.energy_excess",
    "auxiliary.complement_kinetic",
    "cli.load_config",
    "model.build_potential", "model.make_orbitals",
)


def layer_metrics(trace: dict, output_bytes: int) -> dict[str, float]:
    """Per-layer metric values from one traced process's dump."""
    keys = [tuple(k) for k in trace["keys"]]
    by_name, self_by_layer = span_stats(
        keys, trace["key"], trace["parent"], trace["start"], trace["end"]
    )
    counters = trace["counters"]

    def calls(name):
        return by_name.get(name, (0, 0.0))[0]

    def secs(name):
        return by_name.get(name, (0, 0.0))[1]

    out: dict[str, float] = {}
    for name in FUNCTION_METRICS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
    for table in TABLES:
        out[f"manybody.{table}.entries"] = counters.get(f"manybody.{table}.entries", 0)
    out["manybody.lift.nnz"] = counters.get("manybody.lift.nnz", 0)
    segments = calls("lanczos.segment")
    failed = counters.get("lanczos.segments_failed", 0)
    out["lanczos.matvecs"] = calls("lanczos.matvec")
    out["lanczos.matvec_s"] = secs("lanczos.matvec")
    out["lanczos.segments"] = segments
    out["lanczos.segments_failed"] = failed
    out["lanczos.segment_ok_ratio"] = (segments - failed) / segments if segments else 0.0
    out["cli.output.files"] = calls("cli.output")
    out["cli.output.bytes"] = output_bytes
    out["cli.output.s"] = secs("cli.output")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    out["trace.spans"] = len(trace["key"])
    return out
