"""Command-line pipelines over the library: ``mflab <command> [flags]``.

Commands
--------
hartree   self-consistent + gauged orbital runs: diagnostics CSV, orbital
          snapshots (``.npy``), continuity-residual series.
exact     configuration-space propagation from the Slater start: reduced
          density spectra, observable traces, and (at small sizes) a
          Krylov-vs-dense oracle file.
compare   exact state vs orbital flow: per-snapshot dictionary comparison,
          occupied-complement weight of the exact state, and the gauged-route
          consistency defect; plus a cross-N summary.
aux       truncated auxiliary co-evolution: per-snapshot error-functional CSV.
lemmas    randomized weight-algebra / conversion-bound suite: JSON report,
          exit 4 if any asserted bound is violated.

Configuration is INI-style ``section.key = value`` with embedded defaults
(a one-dimensional 16-site box, two particles).  ``--config PATH`` layers a
file over the defaults, ``--override section.key=value`` (repeatable) layers
on top of that, and ``--seed`` / ``--out`` beat everything.  Every command
writes a ``run_config.json`` sidecar holding the fully resolved configuration
(including the coupling scale resolved per particle number and the observable
dictionary that was used), so a run is reproducible from its output directory
alone.  With a fixed seed, reruns are byte-identical: floats are serialized
via ``repr`` (shortest roundtrip), JSON keys are sorted, and no timestamps
are recorded.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-finite values / stagnation), 4 contract or bound violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .counting import alpha_number_onebody, build_projections, lemma_suite
from .errors import ConfigError, ContractViolation, NumericalFailure
from .gauge import (
    continuity_residual,
    gauge_orbitals,
    require_continuity_snapshots,
    run_gauged,
)
from .grid import Field, Grid
from .hartree import run_hartree
from .manybody import (
    ConfigBasis,
    build_hamiltonian,
    gauge_manybody,
    observe,
    occupation_density,
    propagate,
    propagate_dense,
    rdm1,
    slater_state,
)
from .model import (
    InitialFamily,
    ScalingParams,
    build_potential,
    make_orbitals,
    resolve_scaling,
    step_schedule,
)

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULTS: dict[str, dict[str, str]] = {
    "grid": {"dim": "1", "sites": "16", "box": "8.0", "kinetic_mode": "lattice"},
    "potential": {
        "kind": "gaussian",
        "amplitude": "1.0",
        "width": "3.0",
        "amplitudes": "",
        "offset": "0.0",
    },
    "family": {"kind": "localized", "width": "1.2"},
    "scaling": {"n": "2", "epsilon_rule": "standard", "epsilon": ""},
    "time": {"t_final": "1.0", "dt": "0.001", "snapshot_every": ""},
    "observables": {"boxes": "8", "bump": "true"},
    "counting": {"gammas": "0.16666666666666666, 0.5, 1.0"},
    "lemmas": {"trials": "200", "sizes": "2x6, 3x8, 4x8, 3x12"},
    "run": {"seed": "0", "out": "runs"},
}

MAX_TOTAL_SITES = 4096
MAX_BASIS_DIM = 6000
# a default N = 4 run (1000 steps, one BLAS thread) took 29 s on 10 sites and
# 145 s (278 MB) on 12, over the 60 s a capped run may take
MAX_AUX_SITES = {2: 24, 3: 12, 4: 10}
# entries L**N of one lemma-suite slot tensor: a 4x12 trial takes about 0.03 s
# (one BLAS thread), while the literal sector sums cost about N * 2**N * L**(N+1)
# per trial and an 8x12 tensor alone would need 6.9 GB
MAX_LEMMA_SLOT_ENTRIES = 12**4


def _fail(section: str, key: str, value: str, want: str) -> ConfigError:
    return ConfigError(f"[{section}] {key} = {value!r}: expected {want}")


def _get_int(raw: dict, section: str, key: str) -> int:
    value = raw[section][key]
    try:
        return int(value)
    except ValueError:
        raise _fail(section, key, value, "an integer") from None


def _get_float(raw: dict, section: str, key: str) -> float:
    value = raw[section][key]
    try:
        out = float(value)
    except ValueError:
        raise _fail(section, key, value, "a number") from None
    if not math.isfinite(out):
        raise _fail(section, key, value, "a finite number")
    return out


def _get_bool(raw: dict, section: str, key: str) -> bool:
    value = raw[section][key].strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise _fail(section, key, raw[section][key], "a boolean")


def _get_list(raw: dict, section: str, key: str, cast, want: str) -> tuple:
    value = raw[section][key]
    parts = [p.strip() for p in value.split(",") if p.strip()]
    try:
        return tuple(cast(p) for p in parts)
    except ValueError:
        raise _fail(section, key, value, want) from None


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed configuration shared by all commands."""

    grid: Grid
    potential_kind: str
    potential_params: dict
    family: InitialFamily
    n_values: tuple[int, ...]
    epsilon_rule: str
    epsilon: float | None
    t_final: float
    dt: float
    snapshot_every: int | None
    boxes: int
    include_bump: bool
    gammas: tuple[float, ...]
    lemma_trials: int
    lemma_sizes: tuple[tuple[int, int], ...]
    seed: int
    out_dir: Path
    raw: dict

    def scaling_for(self, N: int) -> ScalingParams:
        return resolve_scaling(
            ScalingParams(
                N=N,
                epsilon=self.epsilon,
                epsilon_rule=self.epsilon_rule,
                t_final=self.t_final,
                dt=self.dt,
            ),
            self.grid,
        )

    def build_potential(self):
        return build_potential(self.grid, self.potential_kind, **self.potential_params)

    def initial_orbitals(self, N: int):
        return make_orbitals(self.family, N, self.grid, self.scaling_for(N))


def _read_config_file(path: Path) -> dict[str, dict[str, str]]:
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _resolve_raw(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    """Layer defaults <- config file <- --override flags <- --seed/--out."""
    raw = {section: dict(items) for section, items in DEFAULTS.items()}

    if args.config is not None:
        for section, items in _read_config_file(Path(args.config)).items():
            if section not in raw:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in items.items():
                if key not in raw[section]:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                raw[section][key] = value

    for item in args.override or ():
        head, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, dot, key = head.strip().partition(".")
        key = key.strip()
        if not dot or section not in raw or key not in raw[section]:
            raise ConfigError(f"override targets unknown key {head.strip()!r}")
        raw[section][key] = value.strip()

    if args.seed is not None:
        raw["run"]["seed"] = args.seed
    if args.out is not None:
        raw["run"]["out"] = args.out
    return raw


def load_config(args: argparse.Namespace) -> RunConfig:
    raw = _resolve_raw(args)

    grid = Grid(
        dim=_get_int(raw, "grid", "dim"),
        sites_per_dim=_get_int(raw, "grid", "sites"),
        box_length=_get_float(raw, "grid", "box"),
        kinetic_mode=raw["grid"]["kinetic_mode"].strip(),
    )
    if grid.total_sites > MAX_TOTAL_SITES:
        raise ConfigError(
            f"grid has {grid.total_sites} sites, over the {MAX_TOTAL_SITES}-site budget"
        )

    kind = raw["potential"]["kind"].strip()
    if kind == "gaussian":
        params = {
            "amplitude": _get_float(raw, "potential", "amplitude"),
            "width": _get_float(raw, "potential", "width"),
        }
    elif kind == "cosine_sum":
        params = {
            "amplitudes": _get_list(raw, "potential", "amplitudes", float, "numbers"),
            "offset": _get_float(raw, "potential", "offset"),
        }
    else:
        raise _fail("potential", "kind", kind, "'gaussian' or 'cosine_sum'")

    family = InitialFamily(
        kind=raw["family"]["kind"].strip(), width=_get_float(raw, "family", "width")
    )

    n_values = _get_list(raw, "scaling", "n", int, "integers")
    if not n_values or any(n < 1 for n in n_values):
        raise _fail("scaling", "n", raw["scaling"]["n"], "positive integers")
    epsilon = None
    if raw["scaling"]["epsilon"].strip():
        epsilon = _get_float(raw, "scaling", "epsilon")

    snapshot_every = None
    if raw["time"]["snapshot_every"].strip():
        snapshot_every = _get_int(raw, "time", "snapshot_every")
        if snapshot_every < 1:
            raise _fail("time", "snapshot_every", raw["time"]["snapshot_every"],
                        "a positive integer")

    boxes = _get_int(raw, "observables", "boxes")
    if not 1 <= boxes <= grid.sites_per_dim:
        raise ConfigError(
            f"[observables] boxes = {boxes}: need between 1 and sites per axis "
            f"({grid.sites_per_dim}) so every indicator is non-empty"
        )

    gammas = _get_list(raw, "counting", "gammas", float, "numbers")
    if not gammas or any(not 0 < g <= 1 for g in gammas):
        raise _fail("counting", "gammas", raw["counting"]["gammas"],
                    "exponents in (0, 1]")

    def _pair(token: str) -> tuple[int, int]:
        n_str, sep, l_str = token.partition("x")
        if not sep:
            raise ValueError(token)
        return (int(n_str), int(l_str))

    lemma_sizes = _get_list(raw, "lemmas", "sizes", _pair, "NxL pairs like 3x8")
    if not lemma_sizes or any(
        not 1 <= n_part <= l_modes <= 12 or l_modes**n_part > MAX_LEMMA_SLOT_ENTRIES
        for n_part, l_modes in lemma_sizes
    ):
        raise _fail("lemmas", "sizes", raw["lemmas"]["sizes"],
                    f"NxL pairs with 1 <= N <= L <= 12 and L**N <= {MAX_LEMMA_SLOT_ENTRIES}")

    lemma_trials = _get_int(raw, "lemmas", "trials")
    if lemma_trials < 1:
        raise _fail("lemmas", "trials", raw["lemmas"]["trials"], "a positive integer")

    seed = _get_int(raw, "run", "seed")
    if not 0 <= seed < 2**64:
        raise _fail("run", "seed", raw["run"]["seed"], "an unsigned 64-bit integer")

    return RunConfig(
        grid=grid,
        potential_kind=kind,
        potential_params=params,
        family=family,
        n_values=n_values,
        epsilon_rule=raw["scaling"]["epsilon_rule"].strip(),
        epsilon=epsilon,
        t_final=_get_float(raw, "time", "t_final"),
        dt=_get_float(raw, "time", "dt"),
        snapshot_every=snapshot_every,
        boxes=boxes,
        include_bump=_get_bool(raw, "observables", "bump"),
        gammas=gammas,
        lemma_trials=lemma_trials,
        lemma_sizes=lemma_sizes,
        seed=seed,
        out_dir=Path(raw["run"]["out"]),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# observable dictionary
# ---------------------------------------------------------------------------


def observable_dictionary(grid: Grid, boxes: int = 8,
                          include_bump: bool = True) -> list[tuple[str, Field]]:
    """Named multiplication observables: box indicators plus a smooth bump.

    ``boxes`` equal sub-boxes partition the domain along axis 0 (each
    observable is the 0/1 indicator of one sub-box), and the optional bump is
    cos^2(pi*u/(L/2)) on |u| <= L/4 (u the axis-0 distance from the box
    centre), i.e. a smooth function supported on half the box.  All are
    diagonal, real, and have sup-norm one.
    """
    if not 1 <= boxes <= grid.sites_per_dim:
        raise ConfigError(f"need 1 <= boxes <= {grid.sites_per_dim}, got {boxes}")
    x = grid.axis_coordinates()
    L = grid.box_length
    tail_shape = (-1,) + (1,) * (grid.dim - 1)

    def along_axis0(profile: np.ndarray) -> Field:
        vals = np.broadcast_to(profile.reshape(tail_shape), grid.shape)
        return Field(grid, np.ascontiguousarray(vals, dtype=np.float64))

    out = []
    for j in range(boxes):
        mask = (x >= j * L / boxes - 1e-12) & (x < (j + 1) * L / boxes - 1e-12)
        out.append((f"box{j}", along_axis0(mask.astype(np.float64))))
    if include_bump:
        u = x - L / 2.0
        profile = np.where(
            np.abs(u) < L / 4.0, np.cos(np.pi * u / (L / 2.0)) ** 2, 0.0
        )
        out.append(("bump", along_axis0(profile)))
    return out


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}")


def write_sidecar(cfg: RunConfig, command: str) -> None:
    dictionary = observable_dictionary(cfg.grid, cfg.boxes, cfg.include_bump)
    payload = {
        "command": command,
        "config": cfg.raw,
        "resolved_epsilon": {
            str(N): cfg.scaling_for(N).epsilon for N in cfg.n_values
        },
        "observable_dictionary": [name for name, _ in dictionary],
        "package": "mflab",
    }
    _write_json(cfg.out_dir / "run_config.json", payload)


def _exact_basis(cfg: RunConfig, N: int) -> ConfigBasis:
    dim = math.comb(cfg.grid.total_sites, N)
    if dim > MAX_BASIS_DIM:
        raise ConfigError(
            f"configuration basis for N = {N} on {cfg.grid.total_sites} modes has "
            f"dimension {dim}, over the {MAX_BASIS_DIM} budget"
        )
    return ConfigBasis(cfg.grid.total_sites, N)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_hartree(cfg: RunConfig) -> None:
    # the continuity column needs an interior snapshot: check before integrating
    _, recorded = step_schedule(cfg.t_final, cfg.dt, cfg.snapshot_every)
    require_continuity_snapshots(len(recorded))
    potential = cfg.build_potential()
    for N in cfg.n_values:
        initial = cfg.initial_orbitals(N)
        traj = run_hartree(initial, potential, cfg.t_final, cfg.dt, cfg.snapshot_every)
        _write_csv(
            cfg.out_dir / f"hartree_N{N}_diagnostics.csv",
            ["t", "energy", "orthonormality_defect", "d_value"],
            [
                [d.time, d.energy, d.orthonormality_defect, d.d_value]
                for d in traj.diagnostics
            ],
        )
        stack = np.stack([s.values for s in traj.snapshots])
        path = cfg.out_dir / f"hartree_N{N}_orbitals.npy"
        np.save(path, stack)
        print(f"wrote {path}")

        gauged = run_gauged(initial, potential, cfg.t_final, cfg.dt, cfg.snapshot_every)
        residuals = continuity_residual(gauged, potential)
        _write_csv(
            cfg.out_dir / f"hartree_N{N}_continuity.csv",
            ["t", "residual"],
            [[t, r] for t, r in zip(gauged.times[1:-1], residuals)],
        )
    write_sidecar(cfg, "hartree")


def cmd_exact(cfg: RunConfig) -> None:
    potential = cfg.build_potential()
    dictionary = observable_dictionary(cfg.grid, cfg.boxes, cfg.include_bump)
    _, recorded = step_schedule(cfg.t_final, cfg.dt, cfg.snapshot_every)
    times = [step * cfg.dt for step in sorted(recorded)]
    for N in cfg.n_values:
        basis = _exact_basis(cfg, N)
        scaling = cfg.scaling_for(N)
        hamiltonian = build_hamiltonian(basis, potential, scaling)
        initial = slater_state(cfg.initial_orbitals(N), basis)

        spectra_rows = []
        trace_rows = []
        for state in propagate(initial, hamiltonian, times):
            t = state.time
            norm = float(np.linalg.norm(state.amplitudes))
            spectrum = np.linalg.eigvalsh(rdm1(state).matrix)[::-1]
            spectra_rows.append([t, norm] + list(spectrum))
            occ = occupation_density(state)
            traces = [
                float(np.dot(M.values.real.ravel(), occ)) / N for _, M in dictionary
            ]
            trace_rows.append([t, norm] + traces)

        _write_csv(
            cfg.out_dir / f"exact_N{N}_spectra.csv",
            ["t", "norm"] + [f"eig{i}" for i in range(basis.n_modes)],
            spectra_rows,
        )
        _write_csv(
            cfg.out_dir / f"exact_N{N}_observables.csv",
            ["t", "norm"] + [f"trace_{name}" for name, _ in dictionary],
            trace_rows,
        )
        if basis.dim <= 400:
            dense = propagate_dense(initial, hamiltonian, cfg.t_final)
            diff = float(np.linalg.norm(state.amplitudes - dense.amplitudes))
            _write_json(
                cfg.out_dir / f"exact_N{N}_oracle.json",
                {"basis_dim": basis.dim, "t_final": cfg.t_final,
                 "krylov_vs_dense": diff},
            )
    write_sidecar(cfg, "exact")


def cmd_compare(cfg: RunConfig) -> None:
    potential = cfg.build_potential()
    dictionary = observable_dictionary(cfg.grid, cfg.boxes, cfg.include_bump)
    observables = [M for _, M in dictionary]
    summary: dict = {}
    for N in cfg.n_values:
        basis = _exact_basis(cfg, N)
        scaling = cfg.scaling_for(N)
        hamiltonian = build_hamiltonian(basis, potential, scaling)
        traj = run_hartree(
            cfg.initial_orbitals(N), potential, cfg.t_final, cfg.dt, cfg.snapshot_every
        )
        states = propagate(
            slater_state(traj.snapshots[0], basis),
            hamiltonian,
            [snap.time for snap in traj.snapshots],
        )

        rows = []
        for snap, state in zip(traj.snapshots, states):
            alpha_n = alpha_number_onebody(state, build_projections(snap))
            comparisons = [res.comparison for res in observe(observables, state, snap)]
            gauged_state = gauge_manybody(state, snap.time, scaling.epsilon, potential)
            gauged_snap = gauge_orbitals(snap, potential)
            gauge_defect = max(
                abs(res.comparison - c)
                for res, c in zip(observe(observables, gauged_state, gauged_snap), comparisons)
            )
            rows.append(
                [snap.time, alpha_n, max(comparisons), gauge_defect] + comparisons
            )

        _write_csv(
            cfg.out_dir / f"compare_N{N}.csv",
            ["t", "alpha_n", "comparison_max", "gauge_defect_max"]
            + [f"comparison_{name}" for name, _ in dictionary],
            rows,
        )
        summary[f"N{N}"] = {
            "initial_comparison_max": rows[0][2],
            "final_comparison_max": rows[-1][2],
            "max_alpha_n": max(row[1] for row in rows),
            "max_gauge_defect": max(row[3] for row in rows),
        }

    if {2, 4} <= set(cfg.n_values):
        summary["final_comparison_shrinks_from_N2_to_N4"] = bool(
            summary["N4"]["final_comparison_max"] < summary["N2"]["final_comparison_max"]
        )
    _write_json(cfg.out_dir / "compare_summary.json", summary)
    write_sidecar(cfg, "compare")


def cmd_aux(cfg: RunConfig) -> None:
    from .auxiliary import run_auxiliary, write_records_csv

    potential = cfg.build_potential()
    for N in cfg.n_values:
        cap = MAX_AUX_SITES.get(N)
        if cap is None:
            raise ConfigError(f"auxiliary co-evolution supports N in {{2, 3, 4}}, got {N}")
        if cfg.grid.total_sites > cap:
            raise ConfigError(
                f"auxiliary co-evolution with N = {N} needs at most {cap} modes, "
                f"got {cfg.grid.total_sites}"
            )
        run = run_auxiliary(
            cfg.initial_orbitals(N),
            potential,
            cfg.t_final,
            cfg.dt,
            gammas=cfg.gammas,
            snapshot_every=cfg.snapshot_every,
        )
        write_records_csv(run.records, cfg.gammas, cfg.out_dir / f"aux_N{N}.csv")
        print(f"wrote {cfg.out_dir / f'aux_N{N}.csv'}")
    write_sidecar(cfg, "aux")


def cmd_lemmas(cfg: RunConfig) -> None:
    path = cfg.out_dir / "lemma_report.json"
    report = lemma_suite(
        seed=cfg.seed,
        trials=cfg.lemma_trials,
        sizes=cfg.lemma_sizes,
        gammas=cfg.gammas,
        out_path=path,
    )
    print(f"wrote {path}")
    for name in sorted(report.asserted):
        entry = report.asserted[name]
        print(
            f"  {name}: {entry['trials']} checks, "
            f"max ratio {entry['max_ratio']:.6f}, violations {len(entry['violations'])}"
        )
    write_sidecar(cfg, "lemmas")
    if report.violation_count:
        raise ContractViolation(
            f"lemma suite recorded {report.violation_count} violations "
            f"of asserted bounds (see {path})"
        )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "hartree": cmd_hartree,
    "exact": cmd_exact,
    "compare": cmd_compare,
    "aux": cmd_aux,
    "lemmas": cmd_lemmas,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mflab",
        description="Mean-field comparison pipelines on a periodic grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="INI config layered over the built-in defaults")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default from config: runs)")
        p.add_argument("--seed", metavar="U64", default=None,
                       help="seed for randomized suites; recorded in the sidecar")
        p.add_argument("--override", metavar="SECTION.KEY=VALUE", action="append",
                       default=[], help="override one config value (repeatable)")
    return parser


def _run(args) -> tuple[int, str]:
    """Exit code and outcome line of one command."""
    try:
        cfg = load_config(args)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](cfg)
    except ConfigError as exc:
        return 2, f"config error: {exc}"
    except NumericalFailure as exc:
        return 3, f"numerical failure: {exc}"
    except ContractViolation as exc:
        return 4, f"contract violation: {exc}"
    return 0, ""


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Warnings raised during the run (numpy overflow on a bad input, say) are
    # shown after the outcome line, so that stderr opens with the failure.
    with warnings.catch_warnings(record=True) as caught:
        code, outcome = _run(args)
    if outcome:
        print(outcome, file=sys.stderr)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


if __name__ == "__main__":
    sys.exit(main())
