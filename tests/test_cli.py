"""End-to-end checks of the command-line pipelines.

Each test drives ``mflab.cli.main`` with a throwaway output directory and a
small configuration, checking emitted files, run invariants (constant energy
for a vanishing potential, unit norm, gauge-route consistency), byte-level
determinism, and the exit-code contract.
"""

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import mflab
from mflab.cli import MAX_AUX_SITES, main, observable_dictionary
from mflab.errors import ConfigError
from mflab.grid import Grid


def run_cli(command, out_dir, *overrides, seed=None, config=None):
    argv = [command, "--out", str(out_dir)]
    for item in overrides:
        argv += ["--override", item]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if config is not None:
        argv += ["--config", str(config)]
    return main(argv)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


SMALL = ("time.t_final=0.2", "time.dt=0.002")


def test_hartree_minimal_emits_expected_files(tmp_path):
    assert run_cli("hartree", tmp_path) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "hartree_N2_continuity.csv",
        "hartree_N2_diagnostics.csv",
        "hartree_N2_orbitals.npy",
        "run_config.json",
    ]
    rows = read_csv(tmp_path / "hartree_N2_diagnostics.csv")
    assert list(rows[0]) == ["t", "energy", "orthonormality_defect", "d_value"]
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[-1]["t"]) == pytest.approx(1.0, abs=1e-12)
    assert all(float(r["orthonormality_defect"]) < 1e-10 for r in rows)

    stack = np.load(tmp_path / "hartree_N2_orbitals.npy")
    assert stack.shape == (len(rows), 2, 16)

    sidecar = json.loads((tmp_path / "run_config.json").read_text())
    assert sidecar["command"] == "hartree"
    assert sidecar["resolved_epsilon"]["2"] == pytest.approx(2.0 ** (-2.0 / 3.0))
    assert sidecar["observable_dictionary"] == [f"box{j}" for j in range(8)] + ["bump"]
    assert sidecar["config"]["grid"]["sites"] == "16"


def test_hartree_free_potential_has_constant_energy(tmp_path):
    code = run_cli(
        "hartree", tmp_path, "potential.kind=cosine_sum",
        "potential.amplitudes=", "potential.offset=0.0", *SMALL,
    )
    assert code == 0
    energies = [float(r["energy"]) for r in read_csv(tmp_path / "hartree_N2_diagnostics.csv")]
    assert max(energies) - min(energies) < 1e-12
    residuals = [float(r["residual"]) for r in read_csv(tmp_path / "hartree_N2_continuity.csv")]
    assert max(residuals) < 1e-12


RERUNS = {
    "exact": SMALL,
    "lemmas": ("lemmas.trials=8",),
    "aux": ("grid.sites=8", "family.width=1.2", "time.t_final=0.05", "time.dt=0.005"),
}


def test_same_seed_reruns_are_byte_identical(tmp_path):
    for command, overrides in RERUNS.items():
        a, b = tmp_path / command / "a", tmp_path / command / "b"
        for out in (a, b):
            assert run_cli(command, out, *overrides, seed=7) == 0
        assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
        for path_a in sorted(a.iterdir()):
            path_b = b / path_a.name
            if path_a.name == "run_config.json":
                side_a = json.loads(path_a.read_text())
                side_b = json.loads(path_b.read_text())
                assert side_a["config"]["run"].pop("out") != side_b["config"]["run"].pop("out")
                assert side_a == side_b
            else:
                assert path_a.read_bytes() == path_b.read_bytes(), (command, path_a.name)


def test_exact_norm_column_and_dense_oracle(tmp_path):
    assert run_cli("exact", tmp_path, *SMALL) == 0
    spectra = read_csv(tmp_path / "exact_N2_spectra.csv")
    assert all(abs(float(r["norm"]) - 1.0) < 1e-10 for r in spectra)
    eigs0 = [float(spectra[0][f"eig{i}"]) for i in range(16)]
    assert eigs0[0] == pytest.approx(0.5, abs=1e-12)
    assert eigs0[2] == pytest.approx(0.0, abs=1e-12)

    traces = read_csv(tmp_path / "exact_N2_observables.csv")
    box_cols = [f"trace_box{j}" for j in range(8)]
    for row in traces:
        assert sum(float(row[c]) for c in box_cols) == pytest.approx(1.0, abs=1e-10)

    oracle = json.loads((tmp_path / "exact_N2_oracle.json").read_text())
    assert oracle["basis_dim"] == 120
    assert oracle["krylov_vs_dense"] < 1e-10


def test_exact_routes_serve_each_trajectory_from_few_krylov_spaces(tmp_path, monkeypatch):
    """exact and compare on 20 sites (about 100 snapshots per N) take at most
    100 Hamiltonian matvecs per N, where one space per snapshot took 600-700."""
    from mflab.manybody import ManyBodyOperator

    counts = {}
    matvec = ManyBodyOperator.matvec

    def counted(self, x):
        key = (command, self.basis.n_particles)
        counts[key] = counts.get(key, 0) + 1
        return matvec(self, x)

    monkeypatch.setattr(ManyBodyOperator, "matvec", counted)
    for command in ("exact", "compare"):
        assert run_cli(command, tmp_path / command, "grid.sites=20", "scaling.n=2,3,4") == 0
    assert sorted(counts) == [(c, N) for c in ("compare", "exact") for N in (2, 3, 4)]
    assert max(counts.values()) <= 100, counts


def test_exact_basis_over_budget_is_config_error(tmp_path):
    assert run_cli("exact", tmp_path, "scaling.n=6") == 2


def test_compare_t0_and_gauge_route(tmp_path):
    assert run_cli("compare", tmp_path, "scaling.n=2,3", *SMALL) == 0
    for N in (2, 3):
        rows = read_csv(tmp_path / f"compare_N{N}.csv")
        assert float(rows[0]["comparison_max"]) < 1e-12
        assert float(rows[0]["alpha_n"]) < 1e-12
        assert all(float(r["gauge_defect_max"]) < 1e-12 for r in rows)
        assert all(0.0 <= float(r["alpha_n"]) < 0.5 for r in rows)
    summary = json.loads((tmp_path / "compare_summary.json").read_text())
    assert summary["N2"]["final_comparison_max"] > summary["N2"]["initial_comparison_max"]
    assert "final_comparison_shrinks_from_N2_to_N4" not in summary


def test_aux_small_run_layout(tmp_path):
    code = run_cli(
        "aux", tmp_path, "grid.sites=8", "family.width=1.2",
        "time.t_final=0.1", "time.dt=0.005",
    )
    assert code == 0
    rows = read_csv(tmp_path / "aux_N2.csv")
    assert list(rows[0]) == [
        "t", "alpha_n", "alpha_m_g0p167", "alpha_m_g0p5", "alpha_m_g1",
        "beta", "Eg", "bad_kinetic", "norm_diff_aux_gauged",
    ]
    assert float(rows[0]["alpha_n"]) < 1e-12
    assert abs(float(rows[0]["beta"])) < 1e-10
    assert float(rows[0]["norm_diff_aux_gauged"]) < 1e-12
    assert float(rows[-1]["t"]) == pytest.approx(0.1)


def test_aux_four_particle_cap(tmp_path):
    """N = 4 stops at 10 sites; 12, the cap before, is a config error."""
    assert MAX_AUX_SITES[4] == 10
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run_cli("aux", tmp_path, "scaling.n=4", "grid.sites=12")
    assert code == 2
    assert "N = 4 needs at most 10 modes, got 12" in err.getvalue()


def test_hartree_rejects_a_two_snapshot_schedule_before_integrating(tmp_path):
    """A cadence past the step count leaves only the endpoints, so the
    continuity column has no interior snapshot: exit 2 with no output."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run_cli("hartree", tmp_path, "time.snapshot_every=1000")
    assert code == 2
    assert "continuity residual needs at least 3 snapshots" in err.getvalue()
    assert sorted(tmp_path.glob("hartree_N*")) == []


def test_lemmas_writes_clean_report(tmp_path):
    assert run_cli("lemmas", tmp_path, "lemmas.trials=5", seed=11) == 0
    report = json.loads((tmp_path / "lemma_report.json").read_text())
    assert report["seed"] == 11
    assert report["trials"] == 5
    for record in report["asserted"].values():
        assert record["violations"] == []
    assert "q_conversion" in report["asserted"]
    assert "shifted_complement" in report["asserted"]


def test_config_file_layering(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[grid]\nsites = 8\n[time]\nt_final = 0.1\ndt = 0.005\n")
    out = tmp_path / "out"
    assert run_cli("hartree", out, config=config) == 0
    sidecar = json.loads((out / "run_config.json").read_text())
    assert sidecar["config"]["grid"]["sites"] == "8"
    assert np.load(out / "hartree_N2_orbitals.npy").shape[-1] == 8

    bad = tmp_path / "bad.ini"
    bad.write_text("[nosuch]\nkey = 1\n")
    assert run_cli("hartree", out, config=bad) == 2
    assert run_cli("hartree", out, config=tmp_path / "missing.ini") == 2


def test_config_error_exit_codes(tmp_path):
    assert run_cli("hartree", tmp_path, "potential.width=abc") == 2
    assert run_cli("hartree", tmp_path, "nosuch.key=1") == 2
    assert run_cli("hartree", tmp_path, "badshape") == 2
    assert run_cli("hartree", tmp_path, seed=-1) == 2
    assert run_cli("aux", tmp_path, "scaling.n=3") == 2  # 16 sites over aux budget
    assert run_cli("hartree", tmp_path, "time.t_final=0.15", "time.dt=0.004") == 2


@pytest.mark.parametrize(
    "command, override",
    [
        ("hartree", "grid.sites=15"),
        ("hartree", "grid.kinetic_mode=foo"),
        ("hartree", "grid.dim=4"),
        ("lemmas", "lemmas.trials=-1"),
        ("lemmas", "lemmas.trials=0"),
        ("lemmas", "lemmas.sizes="),
        ("lemmas", "lemmas.sizes=,"),
        ("lemmas", "lemmas.sizes=5x12"),
    ],
)
def test_bad_values_exit_2_without_traceback(tmp_path, command, override):
    src = str(Path(mflab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mflab.cli", command, "--out", str(tmp_path),
         "--override", override],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:")
    assert not (tmp_path / "lemma_report.json").exists()


@pytest.mark.parametrize("command", ["hartree", "exact", "aux"])
def test_overflowing_potential_exits_3_without_traceback(tmp_path, command):
    src = str(Path(mflab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mflab.cli", command, "--out", str(tmp_path),
         "--override", "potential.amplitude=1e200",
         *(arg for item in SMALL for arg in ("--override", item))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("numerical failure:")
    # each command fails before it writes any output file
    assert not list(tmp_path.iterdir())


def _numbers(lo, hi):
    return st.floats(lo, hi).map(repr)


# --override values per command, drawn small (grid.sites <= 16 for hartree
# and <= 8 for the many-body commands, scaling.n <= 3 there, observables.boxes
# <= 4 <= grid.sites, time.t_final <= 0.02, lemmas.trials <= 3); at most one
# key of an example gets a malformed value instead
ORBITAL_VALUES = {
    "grid.dim": st.sampled_from(["1", "2"]),
    "grid.box": _numbers(1.0, 10.0),
    "grid.kinetic_mode": st.sampled_from(["spectral", "lattice"]),
    "potential.amplitude": _numbers(-3.0, 3.0),
    "potential.width": _numbers(0.2, 4.0),
    "family.width": _numbers(0.2, 3.0),
    "scaling.epsilon": _numbers(0.01, 2.0),
    "time.t_final": st.sampled_from(["0.004", "0.01", "0.02"]),
    "time.dt": st.sampled_from(["0.001", "0.002", "0.003", "0.005"]),
    "time.snapshot_every": st.integers(1, 10).map(str),
}
MANYBODY_VALUES = {
    **ORBITAL_VALUES,
    "grid.sites": st.integers(4, 8).map(str),
    "scaling.n": st.sampled_from(["1", "2", "3", "2,3"]),
    "observables.boxes": st.integers(1, 4).map(str),
    "observables.bump": st.sampled_from(["true", "false"]),
}
OVERRIDE_VALUES = {
    "hartree": {
        **ORBITAL_VALUES,
        "grid.sites": st.integers(4, 16).map(str),
        "scaling.n": st.sampled_from(["1", "2", "3", "4", "2,3"]),
    },
    "exact": MANYBODY_VALUES,
    "compare": MANYBODY_VALUES,
    "aux": MANYBODY_VALUES,
    "lemmas": {
        "lemmas.trials": st.integers(1, 3).map(str),
        "lemmas.sizes": st.sampled_from(["1x4", "2x6", "3x3", "2x4, 3x6"]),
        "counting.gammas": st.sampled_from(["0.5", "0.25, 1.0", "1.0"]),
        "run.seed": st.integers(0, 2**64 - 1).map(str),
    },
}
MALFORMED = st.sampled_from(["-1", "-0.5", "0", "abc", "nan", "NaN", "1e-320", ""])
MANYBODY_BOUNDED = {"grid.sites": "8", "observables.boxes": "4",
                    "time.t_final": "0.02", "time.dt": "0.002"}
BOUNDED = {
    "hartree": {"time.t_final": "0.02", "time.dt": "0.002"},
    "exact": MANYBODY_BOUNDED,
    "compare": MANYBODY_BOUNDED,
    "aux": MANYBODY_BOUNDED,
    "lemmas": {"lemmas.trials": "2", "lemmas.sizes": "2x6"},
}


@pytest.mark.parametrize("command", ["hartree", "exact", "compare", "aux", "lemmas"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_override_values_keep_exit_code_contract(command, data):
    values = OVERRIDE_VALUES[command]
    keys = data.draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=3,
                              unique=True), label="keys")
    malformed = data.draw(st.sampled_from([None, *keys]), label="malformed key")
    overrides = dict(BOUNDED[command])
    for key in keys:
        overrides[key] = data.draw(MALFORMED if key == malformed else values[key], label=key)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        code = run_cli(command, out, *(f"{k}={v}" for k, v in overrides.items()))
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_observable_dictionary_properties():
    grid = Grid(dim=1, sites_per_dim=16, box_length=8.0, kinetic_mode="lattice")
    dictionary = observable_dictionary(grid, boxes=8, include_bump=True)
    assert [name for name, _ in dictionary] == [f"box{j}" for j in range(8)] + ["bump"]

    total = sum(M.values.real for name, M in dictionary if name.startswith("box"))
    np.testing.assert_allclose(total, 1.0)  # indicators partition the box
    for name, M in dictionary:
        assert np.all(M.values.real >= 0.0)
        assert np.all(M.values.imag == 0.0)
        assert np.max(M.values.real) == pytest.approx(1.0)

    bump = dict(dictionary)["bump"].values.real
    assert np.count_nonzero(bump) == 7  # open half-box support on 16 sites
    x = grid.axis_coordinates()
    inside = np.abs(x - 4.0) <= 2.0
    np.testing.assert_allclose(
        bump[inside], np.cos(np.pi * (x[inside] - 4.0) / 4.0) ** 2, atol=1e-15
    )

    two_d = Grid(dim=2, sites_per_dim=4, box_length=8.0, kinetic_mode="lattice")
    for name, M in observable_dictionary(two_d, boxes=4):
        assert M.values.shape == (4, 4)
        assert np.all(M.values == M.values[:, :1])  # constant along the other axis

    with pytest.raises(ConfigError):
        observable_dictionary(grid, boxes=17)
