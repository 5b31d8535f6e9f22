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

``SCHEMA`` declares each key once: its default string, a parser that checks
the value's type and finiteness, and what a malformed value should have
been.  ``load_config`` parses every key for every command, checks ranges,
cross-key constraints and the command's budgets for every particle number,
and builds the objects the commands start from (their constructors check
the rest), so every configuration error is raised before any output.

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

from .counting import (
    DEFAULT_GAMMAS,
    LEMMA_SIZES,
    LEMMA_TRIALS,
    alpha_number_onebody,
    build_projections,
    gamma_suffix,
    lemma_suite,
)
from .errors import ConfigError, ContractViolation, NumericalFailure
from .gauge import continuity_residual, gauge_orbitals, require_continuity_snapshots, run_gauged
from .grid import Grid
from .hartree import OrbitalSet, run_hartree
from .manybody import (
    MAX_DENSE_DIM,
    ConfigBasis,
    build_hamiltonian,
    exact_traces,
    gauge_manybody,
    observe,
    propagate,
    propagate_dense,
    rdm1,
    slater_state,
)
from .model import (
    InitialFamily,
    InteractionPotential,
    build_potential,
    epsilon_for,
    make_orbitals,
    step_schedule,
)

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _boolean(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("true", "yes", "on", "1", "false", "no", "off", "0"):
        raise ValueError(text)
    return word in ("true", "yes", "on", "1")


def _size(text: str) -> tuple[int, int]:
    n_part, sep, l_modes = text.partition("x")
    if not sep:
        raise ValueError(text)
    return int(n_part), int(l_modes)


def _list(cast):
    """Parser of a comma-separated list of ``cast`` values; blank items are dropped."""
    return lambda text: tuple(cast(p.strip()) for p in text.split(",") if p.strip())


def _optional(cast):
    """Parser that reads a blank value as None."""
    return lambda text: cast(text) if text.strip() else None


_INTEGER = (int, "an integer")
_NUMBER = (_number, "a finite number")
_NAME = (str.strip, "a name")

# section -> key -> (default, parser, what a malformed value should have been).
# Every parser raises ValueError on a malformed value.
SCHEMA: dict[str, dict[str, tuple]] = {
    "grid": {"dim": ("1", *_INTEGER), "sites": ("16", *_INTEGER),
             "box": ("8.0", *_NUMBER), "kinetic_mode": ("lattice", *_NAME)},
    "potential": {"kind": ("gaussian", *_NAME), "amplitude": ("1.0", *_NUMBER),
                  "width": ("3.0", *_NUMBER),
                  "amplitudes": ("", _list(_number), "finite numbers"),
                  "offset": ("0.0", *_NUMBER)},
    "family": {"kind": ("localized", *_NAME), "width": ("1.2", *_NUMBER)},
    "scaling": {"n": ("2", _list(int), "integers"), "epsilon_rule": ("standard", *_NAME),
                "epsilon": ("", _optional(_number), "a finite number")},
    "time": {"t_final": ("1.0", *_NUMBER), "dt": ("0.001", *_NUMBER),
             "snapshot_every": ("", _optional(int), "an integer")},
    "observables": {"boxes": ("8", *_INTEGER), "bump": ("true", _boolean, "a boolean")},
    "counting": {"gammas": (", ".join(map(repr, DEFAULT_GAMMAS)), _list(_number),
                            "finite numbers")},
    "lemmas": {"trials": (str(LEMMA_TRIALS), *_INTEGER),
               "sizes": (", ".join(f"{N}x{L}" for N, L in LEMMA_SIZES), _list(_size),
                         "NxL pairs like 3x8")},
    "run": {"seed": ("0", *_INTEGER), "out": ("runs", Path, "a path")},
}

MAX_TOTAL_SITES = 4096
MAX_BASIS_DIM = 6000
# a default N = 4 run (1000 steps, one BLAS thread) took 29 s on 10 sites and
# 145 s (278 MB) on 12, over the 60 s a capped run may take; a default N = 3
# run on 12 sites takes 17-18 s at 132 MB since the generator lifts only its
# kept table entries (37 s at 131 MB before, the same 2-vCPU host, alternating)
MAX_AUX_SITES = {2: 24, 3: 12, 4: 10}
# entries L**N of one lemma-suite slot tensor: a 4x12 trial takes about 0.02 s
# (one BLAS thread), while the literal sector walk costs about 2**(N+1) * L**(N+1)
# per trial and an 8x12 tensor alone would need 6.9 GB
MAX_LEMMA_SLOT_ENTRIES = 12**4


def _fail(raw: dict, section: str, key: str, want: str) -> ConfigError:
    return ConfigError(f"[{section}] {key} = {raw[section][key]!r}: expected {want}")


@dataclass(frozen=True)
class RunConfig:
    """The resolved configuration: ``orbitals`` holds the initial orbitals of each
    N of ``scaling.n`` in order, each carrying its coupling epsilon, and the
    grid is ``potential.grid``."""

    potential: InteractionPotential
    orbitals: tuple[OrbitalSet, ...]
    observable_names: list[str]
    observables: np.ndarray
    t_final: float
    dt: float
    snapshot_every: int | None
    gammas: tuple[float, ...]
    lemma_trials: int
    lemma_sizes: tuple[tuple[int, int], ...]
    seed: int
    out_dir: Path
    raw: dict


def _read_config_file(path: Path) -> dict[str, dict[str, str]]:
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"unreadable config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _resolve_raw(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    """Layer defaults <- config file <- --override flags <- --seed/--out."""
    raw = {section: {key: spec[0] for key, spec in keys.items()}
           for section, keys in SCHEMA.items()}

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
    """Parse every key of ``SCHEMA``, check the whole configuration and the
    budgets of ``args.command`` for every N, and build the objects the
    commands start from."""
    raw = _resolve_raw(args)
    conf: dict[str, dict] = {section: {} for section in SCHEMA}
    for section, keys in SCHEMA.items():
        for key, (_, parse, want) in keys.items():
            try:
                conf[section][key] = parse(raw[section][key])
            except ValueError:
                raise _fail(raw, section, key, want) from None

    grid = Grid(dim=conf["grid"]["dim"], sites_per_dim=conf["grid"]["sites"],
                box_length=conf["grid"]["box"], kinetic_mode=conf["grid"]["kinetic_mode"])
    if grid.total_sites > MAX_TOTAL_SITES:
        raise ConfigError(
            f"grid has {grid.total_sites} sites, over the {MAX_TOTAL_SITES}-site budget"
        )

    n_values = conf["scaling"]["n"]
    if not n_values or any(n < 1 for n in n_values) or len(set(n_values)) < len(n_values):
        raise _fail(raw, "scaling", "n", "distinct positive integers")

    gammas = conf["counting"]["gammas"]
    if not gammas or any(not 0 < g <= 1 for g in gammas):
        raise _fail(raw, "counting", "gammas", "exponents in (0, 1]")
    if len({gamma_suffix(g) for g in gammas}) < len(gammas):  # one CSV column per exponent
        raise _fail(raw, "counting", "gammas", "exponents distinct to three significant digits")

    lemma_sizes = conf["lemmas"]["sizes"]
    if not lemma_sizes or any(
        not 1 <= n_part <= l_modes <= 12 or l_modes**n_part > MAX_LEMMA_SLOT_ENTRIES
        for n_part, l_modes in lemma_sizes
    ):
        raise _fail(raw, "lemmas", "sizes",
                    f"NxL pairs with 1 <= N <= L <= 12 and L**N <= {MAX_LEMMA_SLOT_ENTRIES}")
    if conf["lemmas"]["trials"] < 1:
        raise _fail(raw, "lemmas", "trials", "a positive integer")
    if not 0 <= conf["run"]["seed"] < 2**64:
        raise _fail(raw, "run", "seed", "an unsigned 64-bit integer")

    t_final, dt = conf["time"]["t_final"], conf["time"]["dt"]
    snapshot_every = conf["time"]["snapshot_every"]
    _, recorded = step_schedule(t_final, dt, snapshot_every)
    if args.command == "hartree":  # the continuity column needs an interior snapshot
        require_continuity_snapshots(len(recorded))
    for N in n_values:  # the budgets of the command, for every N
        if args.command in ("exact", "compare"):
            dim = math.comb(grid.total_sites, N)
            if dim > MAX_BASIS_DIM:
                raise ConfigError(
                    f"configuration basis for N = {N} on {grid.total_sites} modes has "
                    f"dimension {dim}, over the {MAX_BASIS_DIM} budget"
                )
        elif args.command == "aux":
            if N not in MAX_AUX_SITES:
                raise ConfigError(f"auxiliary co-evolution supports N in "
                                  f"{{{', '.join(map(str, MAX_AUX_SITES))}}}, got {N}")
            if grid.total_sites > MAX_AUX_SITES[N]:
                raise ConfigError(f"auxiliary co-evolution with N = {N} needs at most "
                                  f"{MAX_AUX_SITES[N]} modes, got {grid.total_sites}")

    family, explicit = InitialFamily(**conf["family"]), conf["scaling"]["epsilon"]
    # the rule is applied, and so checked, also where an explicit epsilon wins
    epsilons = [epsilon_for(N, conf["scaling"]["epsilon_rule"], grid.dim) for N in n_values]
    names, observables = observable_dictionary(
        grid, conf["observables"]["boxes"], conf["observables"]["bump"]
    )
    return RunConfig(
        potential=build_potential(grid, **conf["potential"]),
        orbitals=tuple(
            make_orbitals(family, N, grid, eps if explicit is None else explicit)
            for N, eps in zip(n_values, epsilons)
        ),
        observable_names=names,
        observables=observables,
        t_final=t_final,
        dt=dt,
        snapshot_every=snapshot_every,
        gammas=gammas,
        lemma_trials=conf["lemmas"]["trials"],
        lemma_sizes=lemma_sizes,
        seed=conf["run"]["seed"],
        out_dir=conf["run"]["out"],
        raw=raw,
    )


# ---------------------------------------------------------------------------
# observable dictionary
# ---------------------------------------------------------------------------


def observable_dictionary(grid: Grid, boxes: int = 8,
                          include_bump: bool = True) -> tuple[list[str], np.ndarray]:
    """Named multiplication observables: box indicators plus a smooth bump.

    ``boxes`` equal sub-boxes partition the domain along axis 0 (each
    observable is the 0/1 indicator of one sub-box), and the optional bump is
    cos^2(pi*u/(L/2)) on |u| <= L/4 (u the axis-0 distance from the box
    centre), i.e. a smooth function supported on half the box.  All are
    diagonal, real, and have sup-norm one.  Returns the names and one real
    (n_obs, *grid.shape) array of the observables' values, in that order.
    """
    if not 1 <= boxes <= grid.sites_per_dim:
        raise ConfigError(
            f"[observables] boxes = {boxes}: need between 1 and sites per axis "
            f"({grid.sites_per_dim}) so every indicator is non-empty"
        )
    x = grid.axis_coordinates()
    L = grid.box_length
    names, profiles = [], []
    for j in range(boxes):
        names.append(f"box{j}")
        profiles.append((x >= j * L / boxes - 1e-12) & (x < (j + 1) * L / boxes - 1e-12))
    if include_bump:
        u = x - L / 2.0
        names.append("bump")
        profiles.append(np.where(np.abs(u) < L / 4.0, np.cos(np.pi * u / (L / 2.0)) ** 2, 0.0))
    along_axis0 = np.reshape(profiles, (len(names), -1) + (1,) * (grid.dim - 1))
    values = np.broadcast_to(along_axis0, (len(names),) + grid.shape)
    return names, np.ascontiguousarray(values, dtype=np.float64)


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
    payload = {
        "command": command,
        "config": cfg.raw,
        "resolved_epsilon": {str(o.N): o.epsilon for o in cfg.orbitals},
        "observable_dictionary": cfg.observable_names,
        "package": "mflab",
    }
    _write_json(cfg.out_dir / "run_config.json", payload)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_hartree(cfg: RunConfig) -> None:
    """Self-consistent and gauged orbital runs: diagnostics, snapshots, continuity."""
    for initial in cfg.orbitals:
        N = initial.N
        traj = run_hartree(initial, cfg.potential, cfg.t_final, cfg.dt, cfg.snapshot_every)
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

        gauged = run_gauged(initial, cfg.potential, cfg.t_final, cfg.dt, cfg.snapshot_every)
        residuals = continuity_residual(gauged, cfg.potential)
        _write_csv(
            cfg.out_dir / f"hartree_N{N}_continuity.csv",
            ["t", "residual"],
            [[t, r] for t, r in zip(gauged.times[1:-1], residuals)],
        )
    write_sidecar(cfg, "hartree")


def _exact_states(cfg: RunConfig, orbitals: OrbitalSet):
    """The basis, Hamiltonian and Slater start of ``orbitals``, and the lazy
    iterator of exact states at the schedule's snapshot times."""
    basis = ConfigBasis(cfg.potential.grid.total_sites, orbitals.N)
    hamiltonian = build_hamiltonian(basis, cfg.potential, orbitals.epsilon)
    initial = slater_state(orbitals, basis)
    _, recorded = step_schedule(cfg.t_final, cfg.dt, cfg.snapshot_every)
    times = [step * cfg.dt for step in sorted(recorded)]
    return basis, hamiltonian, initial, propagate(initial, hamiltonian, times)


def cmd_exact(cfg: RunConfig) -> None:
    """Configuration-space propagation: density spectra, observable traces, oracle."""
    for orbitals in cfg.orbitals:
        N = orbitals.N
        basis, hamiltonian, initial, states = _exact_states(cfg, orbitals)
        spectra_rows = []
        trace_rows = []
        for state in states:
            t, norm = state.time, state.norm
            spectrum = np.linalg.eigvalsh(rdm1(state))[::-1]
            spectra_rows.append([t, norm] + list(spectrum))
            trace_rows.append([t, norm] + exact_traces(cfg.observables, state).tolist())

        _write_csv(
            cfg.out_dir / f"exact_N{N}_spectra.csv",
            ["t", "norm"] + [f"eig{i}" for i in range(basis.n_modes)],
            spectra_rows,
        )
        _write_csv(
            cfg.out_dir / f"exact_N{N}_observables.csv",
            ["t", "norm"] + [f"trace_{name}" for name in cfg.observable_names],
            trace_rows,
        )
        if basis.dim <= MAX_DENSE_DIM:
            dense = propagate_dense(initial, hamiltonian, cfg.t_final)
            diff = float(np.linalg.norm(state.amplitudes - dense.amplitudes))
            _write_json(
                cfg.out_dir / f"exact_N{N}_oracle.json",
                {"basis_dim": basis.dim, "t_final": cfg.t_final,
                 "krylov_vs_dense": diff},
            )
    write_sidecar(cfg, "exact")


def cmd_compare(cfg: RunConfig) -> None:
    """Exact state vs orbital flow per snapshot, plus a cross-N summary."""
    summary: dict = {}
    for orbitals in cfg.orbitals:
        N = orbitals.N
        *_, states = _exact_states(cfg, orbitals)
        traj = run_hartree(orbitals, cfg.potential, cfg.t_final, cfg.dt, cfg.snapshot_every)
        rows = []
        for snap, state in zip(traj.snapshots, states):
            alpha_n = alpha_number_onebody(state, build_projections(snap))
            exact, hart = observe(cfg.observables, state, snap)
            comparisons = np.abs(exact - hart)
            gauged_exact, gauged_hart = observe(
                cfg.observables,
                gauge_manybody(state, snap.time, orbitals.epsilon, cfg.potential),
                gauge_orbitals(snap, cfg.potential),
            )
            gauge_defect = np.max(np.abs(np.abs(gauged_exact - gauged_hart) - comparisons))
            rows.append([snap.time, alpha_n, float(comparisons.max()), float(gauge_defect),
                         *comparisons.tolist()])

        _write_csv(
            cfg.out_dir / f"compare_N{N}.csv",
            ["t", "alpha_n", "comparison_max", "gauge_defect_max"]
            + [f"comparison_{name}" for name in cfg.observable_names],
            rows,
        )
        summary[f"N{N}"] = {
            "initial_comparison_max": rows[0][2],
            "final_comparison_max": rows[-1][2],
            "max_alpha_n": max(row[1] for row in rows),
            "max_gauge_defect": max(row[3] for row in rows),
        }

    if {"N2", "N4"} <= summary.keys():
        summary["final_comparison_shrinks_from_N2_to_N4"] = bool(
            summary["N4"]["final_comparison_max"] < summary["N2"]["final_comparison_max"]
        )
    _write_json(cfg.out_dir / "compare_summary.json", summary)
    write_sidecar(cfg, "compare")


def cmd_aux(cfg: RunConfig) -> None:
    """Truncated auxiliary co-evolution: per-snapshot error-functional CSV."""
    from .auxiliary import run_auxiliary, write_records_csv

    for initial in cfg.orbitals:
        run = run_auxiliary(initial, cfg.potential, cfg.t_final, cfg.dt, gammas=cfg.gammas,
                            snapshot_every=cfg.snapshot_every)
        path = cfg.out_dir / f"aux_N{initial.N}.csv"
        write_records_csv(run.records, cfg.gammas, path)
        print(f"wrote {path}")
    write_sidecar(cfg, "aux")


def cmd_lemmas(cfg: RunConfig) -> None:
    """Randomized weight-algebra and conversion-bound suite; exit 4 on a violation."""
    path = cfg.out_dir / "lemma_report.json"
    report = lemma_suite(
        seed=cfg.seed,
        trials=cfg.lemma_trials,
        sizes=cfg.lemma_sizes,
        gammas=cfg.gammas,
    )
    report.to_json(path)
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
        try:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {cfg.out_dir}: {exc}") from None
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
