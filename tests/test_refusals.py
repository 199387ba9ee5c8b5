"""Each refusal that neither the README nor the benchmark reaches, matched by its message.

`tools/line_trace.py --tests --check` fails on a refusal that no traced run
reaches; these are the runs that reach them. CLI refusals are run through
``main`` and matched by their one stderr line; library refusals, which the
CLI cannot give, by the DomainError's whole message.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from gravidec import (
    CMHamiltonianSpec,
    DensityMatrixGrid,
    EmissionModel,
    VisibilityCurve,
    blackbody_emission_model,
    default_constants,
    power_law_cross_section,
    save_snapshots,
)
from gravidec.cli import main
from gravidec.emission import compare_timescales
from gravidec.errors import DomainError
from gravidec.internal_state import DEFAULT_MODE_LIMIT

CONSTS = default_constants()

#: Files a run may name as @name: written into its directory first.
_FILES = {
    "list.json": "[1, 2]\n",
    "constants-list.json": '{"constants": [1]}\n',
    "zero-c.json": '{"constants": {"c": 0}}\n',
    "small-c.json": '{"constants": {"c": 1e-200}}\n',
    "small-hbar.json": '{"constants": {"hbar": 1e-300}}\n',
    "many-modes.csv": "1e13\n" * (DEFAULT_MODE_LIMIT + 1),
    "unsorted.csv": "0,0\n2,1\n1,2\n",
    "one-row.csv": "0,0,0,1,0\n",
}

_TAU = ["tau", "--N", "1e23", "--dx", "1e-3"]
_CURVE = ["visibility", "--T", "300", "--dx", "1e-3", "--t-final", "1e-6"]
_EVOLVE = ["evolve", "--x1", "0", "--x2", "1e-6", "--lambda-coefficient", "1", "--dt", "1e-8",
           "--t-final", "1e-7"]
_REGIME = ["regime", "--axis1", "delta-x", "--axis1-min", "1e-6", "--axis1-max", "1e-2",
           "--t-min", "100", "--t-max", "600", "--n-modes", "1e23"]
_STATIC = ["propertime", "--x1", "6.4e6", "--x2", "6400001", "--t-final", "1"]

_TOO_MANY_MODES = (f"domain error: {DEFAULT_MODE_LIMIT + 1} modes exceeds "
                   f"DEFAULT_MODE_LIMIT={DEFAULT_MODE_LIMIT}")

_CLI_REFUSALS = [
    (["tau", "--config", "@list.json"], 2, "configuration error: config @list.json must be a "
     "JSON object"),
    (["tau", "--config", "@constants-list.json"], 2,
     'configuration error: "constants" must be a JSON object'),
    ([*_TAU, "--T", "300", "--config", "@zero-c.json"], 2,
     "configuration error: constant c must be finite and strictly positive"),
    ([*_TAU[:-2], "--dx", "1e-9", "--central-mass", "9.945e30", "--radius", "1.5e4", "--hawking",
      "--config", "@small-c.json"], 2,
     "configuration error: constant c = 1e-200: c^2 underflows to 0 in float64"),
    ([*_CURVE, "--law", "high-T", "--N", "1e23", "--n-times", "3", "--config", "@small-c.json"], 2,
     "configuration error: constant c = 1e-200: c^2 underflows to 0 in float64"),
    (["evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2", "--N", "1e23", "--T", "300",
      "--dt", "1e-8", "--t-final", "1e-6", "--config", "@small-hbar.json"], 2,
     "configuration error: constants hbar = 1e-300 and c = 2.99792e+08: (hbar c^2)^2 "
     "underflows to 0 in float64"),
    ([*_TAU, "--T", "300", "--central-mass", "1e30"], 2,
     "configuration error: central_mass and radius must be given together"),
    ([*_TAU, "--central-mass", "1e30", "--radius", "1e9"], 2,
     "configuration error: need --temperature or --hawking"),
    (_TAU, 2, "configuration error: need --temperature"),
    (["visibility", "--dtau", "1e-13", "--T", "300"], 2,
     "configuration error: --dtau needs --n-modes or --frequencies-csv"),
    ([*_CURVE, "--law", "exact-product"], 2,
     "configuration error: exact-product law needs --frequencies-csv"),
    (_CURVE, 2, "configuration error: law 'high-T' needs --n-modes"),
    (["visibility", "--N", "1e23", "--T", "300", "--dx", "1e-3"], 2,
     "configuration error: curve mode needs --t-final and --delta-x (or use --dtau)"),
    ([*_CURVE, "--N", "1e23", "--n-times", "1"], 2, "configuration error: n_times must be >= 2"),
    (["evolve", "--x1", "0", "--x2", "1e-3", "--dt", "1e-8", "--t-final", "1e-7"], 2,
     "configuration error: need --lambda-coefficient or both --n-modes and --temperature"),
    ([*_EVOLVE, "--hamiltonian", "free"], 2,
     "configuration error: hamiltonian 'free' needs --mass"),
    (_REGIME, 2, "configuration error: need --emission-csv or --sigma0 with --k0"),
    ([*_REGIME[:-2], "--sigma0", "3e-22", "--k0", "1e7"], 2,
     "configuration error: delta-x axis needs --n-modes"),
    ([*_REGIME, "--sigma0", "3e-22", "--k0", "1e7", "--n-axis1", "0"], 2,
     "configuration error: n_axis1 and n_temps must be >= 1"),
    ([*_REGIME, "--sigma0", "3e-22", "--k0", "1e7", "--axis1-min", "0"], 2,
     "configuration error: axis edges must be > 0 (grids are log-spaced)"),
    (["propertime", "--x1", "0", "--t-final", "1"], 2,
     "configuration error: need --trajectories or all of --x1, --x2, --t-final"),
    ([*_STATIC, "--potential", "schwarzschild"], 2,
     "configuration error: schwarzschild potential needs --central-mass"),
    ([*_STATIC, "--potential", "tabulated"], 2,
     "configuration error: tabulated potential needs --potential-csv"),
    ([*_STATIC[:1], "--x1", "0.5", "--x2", "1.5", "--t-final", "1", "--potential", "tabulated",
      "--potential-csv", "@unsorted.csv"], 3, "domain error: tabulated x must be strictly increasing"),
    ([*_REGIME, "--sigma0", "-1", "--k0", "1e7"], 3, "domain error: need sigma0 >= 0 and k0 > 0"),
    (["evolve", "--x1", "1e-3", "--x2", "0", "--lambda-coefficient", "1", "--dt", "1e-8",
      "--t-final", "1e-7"], 3, "domain error: need x2 > x1"),
    ([*_EVOLVE, "--n-points", "1"], 3, "domain error: n_points must be >= 2"),
    ([*_EVOLVE[:-4], "--dt", "1e-6", "--t-final", "1e-7"], 3,
     "domain error: t_final must be >= dt"),
    ([*_EVOLVE, "--store-every", "-1", "--snapshots", "@run.snap"], 3,
     "domain error: store_every must be >= 0"),
    ([*_STATIC, "--potential", "schwarzschild", "--central-mass", "-1"], 3,
     "domain error: central_mass must be > 0"),
    (["propertime", "--trajectories", "@one-row.csv"], 3,
     "domain error: need at least two time samples"),
    (["propertime", "--x1", "0", "--x2", "1", "--t-final", "0"], 3,
     "domain error: need t_final > 0 and n_samples >= 2"),
    ([*_CURVE, "--N", "-1"], 3, "domain error: n_modes, temperature and t must be >= 0"),
    # every route to the mode product refuses a table past the mode limit alike
    ([*_CURVE, "--law", "exact-product", "--frequencies-csv", "@many-modes.csv"], 3,
     _TOO_MANY_MODES),
    (["visibility", "--dtau", "1e-15", "--T", "300", "--frequencies-csv", "@many-modes.csv"], 3,
     _TOO_MANY_MODES),
    ([*_STATIC[:1], "--x1", "0", "--x2", "1", "--t-final", "1", "--T", "300",
      "--frequencies-csv", "@many-modes.csv"], 3, _TOO_MANY_MODES),
]


@pytest.mark.parametrize("argv, code, message", _CLI_REFUSALS,
                         ids=[m.split(": ", 1)[1][:40] for _, _, m in _CLI_REFUSALS])
def test_cli_refusal_is_its_one_stderr_line(capsys, tmp_path, argv, code, message):
    for name, text in _FILES.items():
        if "@" + name in argv:
            (tmp_path / name).write_text(text)
    out = tmp_path / "out.txt"

    def local(word: str) -> str:
        return str(tmp_path / word[1:]) if word.startswith("@") else word

    got = main([local(a) for a in argv] + ["--output", str(out)])
    captured = capsys.readouterr()
    expected = re.sub(r"@\S+", lambda m: local(m.group()), message)
    assert (got, captured.out, captured.err) == (code, "", f"gravidec: {expected}\n")
    assert not out.exists() and not (tmp_path / "run.snap").exists()


def _flat_model(k_grid) -> EmissionModel:
    return EmissionModel(spectral_density=np.ones_like, cross_section=np.ones_like,
                         k_grid=k_grid, label="flat")


_LIBRARY_REFUSALS = [
    (lambda: _flat_model(np.array([1.0])), "k_grid needs at least two points"),
    (lambda: blackbody_emission_model(0.0, power_law_cross_section(1e-22, 1e7, 0.0), CONSTS),
     "temperature must be > 0"),
    (lambda: compare_timescales(np.nan, 1.0), "timescales must be >= 0 and not NaN"),
    (lambda: DensityMatrixGrid(x=np.array([0.0]), rho=np.ones((1, 1)), pair=(0, 0)),
     "grid needs at least two points"),
    (lambda: DensityMatrixGrid(x=np.array([0.0, 1.0]), rho=np.eye(3) / 3, pair=(0, 1)),
     "rho must be square on the grid"),
    (lambda: CMHamiltonianSpec("free", mass=1.0, internal_mean_energy=-1.0),
     "internal_mean_energy must be >= 0"),
    (lambda: save_snapshots("unwritten.snap", np.zeros(2), np.zeros(2), np.zeros((2, 2))),
     "snapshots must be (n, m, m) matching times"),
    (lambda: save_snapshots("unwritten.snap", np.zeros(1), np.zeros(2), np.zeros((1, 2, 3))),
     "snapshot matrices must be square on the grid"),
    (lambda: VisibilityCurve(times=np.array([0.0, 1.0]), values=np.array([1.0]), law="high-T"),
     "times and values must be 1-D arrays of equal length"),
]


@pytest.mark.parametrize("call, message", _LIBRARY_REFUSALS,
                         ids=[m[:40] for _, m in _LIBRARY_REFUSALS])
def test_library_refusal_names_its_input(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
