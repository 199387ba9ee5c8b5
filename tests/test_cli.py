from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gravidec
from gravidec import default_constants, dephasing_coefficient, load_snapshots
from gravidec.cli import main

CONSTS = default_constants()


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tau_homogeneous_json(capsys, tmp_path):
    out = tmp_path / "tau.json"
    code, _, _ = _run(
        capsys, "tau", "--N", "1e23", "--T", "300", "--dx", "1e-3", "--output", str(out)
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "tau"
    assert payload["results"]["field"] == "homogeneous"
    assert math.isclose(payload["results"]["tau_dec"], 1.04317944179253e-06, rel_tol=1e-12)
    assert payload["constants"]["c"] == CONSTS.c
    assert payload["parameters"]["n_modes"] == 1e23


def test_tau_schwarzschild_with_hawking_temperature(capsys, tmp_path):
    out = tmp_path / "tau_bh.json"
    code, _, _ = _run(
        capsys,
        "tau", "--N", "1e23", "--dx", "1e-3",
        "--central-mass", "9.945e30", "--radius", "1e6",
        "--hawking", "--output", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    results = payload["results"]
    assert results["field"] == "schwarzschild"
    assert results["temperature_used"] == results["hawking_temperature"]
    assert 0 < results["hawking_temperature"] < 1e-6
    assert math.isfinite(results["tau_dec"])


def test_weak_field_caveat_is_one_warning_line(capsys, tmp_path):
    # the README's --hawking example lies inside 10 R_s
    out = tmp_path / "tau_bh.json"
    code, stdout, err = _run(
        capsys, "tau", "--N", "1e23", "--dx", "1e-9", "--central-mass", "9.945e30",
        "--radius", "1.5e4", "--hawking", "--output", str(out),
    )
    assert code == 0 and stdout == ""
    assert err == ("gravidec: warning: weak-field timescale used at R < 10 R_s; "
                   "treat as an order-of-magnitude estimate\n")
    # the file's bytes do not change with the warning channel
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "abb04856a4c6dab37a745c77e04c69a5cc266de2373df2e9f8df7c9a6ba56a85")


def test_other_warning_categories_keep_their_filters(capsys, monkeypatch):
    def noisy(*args):
        warnings.warn("overflow in a closed form", RuntimeWarning)
        return 1.0

    monkeypatch.setattr("gravidec.cli.decoherence_time", noisy)
    argv = ["tau", "--N", "1e23", "--T", "300", "--dx", "1e-3"]
    with pytest.raises(RuntimeWarning, match="overflow"):  # the suite's filter: an error
        main(argv)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default", RuntimeWarning)  # a plain run's filter: shown
        code, _, err = _run(capsys, *argv)
    assert code == 0 and "gravidec: warning" not in err
    assert [(w.category, str(w.message)) for w in shown] == [
        (RuntimeWarning, "overflow in a closed form")]


def test_repeat_runs_are_byte_identical(capsys, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "visibility", "--law", "high-T", "--N", "1e23", "--T", "300",
        "--dx", "1e-3", "--t-final", "2e-6", "--n-times", "40",
    ]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def _outputs_at_blas_threads(tmp_path, argv, exit_codes=(0,)) -> list[bytes]:
    """The output file of one CLI run in a fresh process at 1 and at 2 BLAS threads."""
    src = str(Path(gravidec.__file__).resolve().parents[1])
    script = "import sys; from gravidec.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.out"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--output", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode in exit_codes, proc.stderr
        outputs.append(out.read_bytes())
    return outputs


def test_oracle_check_output_does_not_depend_on_blas_threads(tmp_path):
    # the Monte Carlo kernel makes no BLAS call, whose threading would move
    # the last bits of its sums and hence the report's bytes
    first, second = _outputs_at_blas_threads(
        tmp_path, ["oracle-check", "--cases", "3", "--samples", "300000"],
        exit_codes=(0, 1),  # 1 is a statistical MC miss
    )
    assert first == second


def test_markovian_evolution_does_not_depend_on_blas_threads(tmp_path):
    # Strang steps are FFTs and elementwise products, no BLAS call; the README
    # states this domain, and that the full-memory form is outside it
    first, second = _outputs_at_blas_threads(tmp_path, [
        "evolve", "--form", "markovian", "--hamiltonian", "free", "--n-points", "256",
        "--mass", "1e-22", "--x1", "0", "--x2", "1e-6", "--N", "1e10", "--T", "300",
        "--dt", "1e-5", "--t-final", "2e-3",
    ])
    assert first == second


def test_visibility_single_point_at_zero_dtau(capsys):
    code, out, _ = _run(
        capsys, "visibility", "--dtau", "0", "--N", "1e20", "--T", "300", "--format", "csv"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "delta_tau,visibility,law"
    dtau, value, law = lines[1].split(",")
    assert float(dtau) == 0.0
    assert float(value) == 1.0
    assert law == "semiclassical"
    assert len(lines) == 2


def test_visibility_curve_csv(capsys):
    code, out, _ = _run(
        capsys, "visibility", "--law", "high-T", "--N", "1e23", "--T", "300",
        "--dx", "1e-3", "--t-final", "2.08635888358506e-06", "--n-times", "5",
    )
    assert code == 0
    lines = out.splitlines()
    preamble = [line for line in lines if line.startswith("#")]
    assert preamble and all(line.startswith("# ") for line in preamble)
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "t,visibility,law"
    rows = [line.split(",") for line in body[1:]]
    assert len(rows) == 5
    assert all(row[2] == "high-T" for row in rows)
    values = [float(row[1]) for row in rows]
    assert values[0] == 1.0
    assert all(a >= b for a, b in zip(values, values[1:]))
    # t_final = 2 tau_dec, so the last point sits at V(2 tau) well below 1/e
    assert values[-1] < math.exp(-1.0)


def test_evolve_csv_matches_gaussian_decay(capsys):
    lam, dx = 4.0e5, 1e-3
    code, out, _ = _run(
        capsys, "evolve", "--x1", "0", "--x2", str(dx), "--n-points", "2",
        "--lambda-coefficient", str(lam), "--dt", "1e-2", "--t-final", "0.1",
    )
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body[0] == "t,coherence_re,coherence_im,visibility"
    rows = [[float(cell) for cell in line.split(",")] for line in body[1:]]
    assert len(rows) == 11
    for t, re, im, v in rows:
        assert im == 0.0
        assert math.isclose(v, 2.0 * abs(re), rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(v, math.exp(-lam * dx**2 * t**2 / 2.0), rel_tol=1e-12)


def test_evolve_snapshots_roundtrip(capsys, tmp_path):
    snap_path = tmp_path / "run.snap"
    code, out, _ = _run(
        capsys, "evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2",
        "--lambda-coefficient", "1e5", "--dt", "1e-2", "--t-final", "0.1",
        "--store-every", "5", "--snapshots", str(snap_path), "--format", "json",
        "--output", str(tmp_path / "evolve.json"),
    )
    assert code == 0
    times, x, snaps = load_snapshots(str(snap_path))
    assert list(times) == [0.0, 0.05, 0.1]
    assert snaps.shape == (3, 2, 2)
    assert np.allclose(x, [0.0, 1e-3])
    payload = json.loads((tmp_path / "evolve.json").read_text())
    assert payload["n_snapshots"] == 3
    assert math.isclose(
        payload["lambda_coefficient"], 1e5, rel_tol=1e-15
    )


def test_evolve_internal_state_route_reports_coefficient(capsys, tmp_path):
    out = tmp_path / "evolve.json"
    code, _, _ = _run(
        capsys, "evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2",
        "--N", "1e23", "--T", "300", "--dt", "1e-8", "--t-final", "1e-7",
        "--format", "json", "--output", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    expected = dephasing_coefficient(1e23, 300.0, CONSTS.g_earth, CONSTS)
    assert math.isclose(payload["lambda_coefficient"], expected, rel_tol=1e-15)


def test_evolve_snapshots_need_store_every(capsys, tmp_path):
    code, _, err = _run(
        capsys, "evolve", "--x1", "0", "--x2", "1e-3",
        "--lambda-coefficient", "1e5", "--dt", "1e-2", "--t-final", "0.1",
        "--snapshots", str(tmp_path / "x.snap"),
    )
    assert code == 2
    assert "store-every" in err


def test_regime_csv_layout(capsys):
    code, out, _ = _run(
        capsys, "regime", "--axis1", "delta-x", "--axis1-min", "1e-6",
        "--axis1-max", "1e-2", "--n-axis1", "4", "--t-min", "100", "--t-max", "500",
        "--n-temps", "3", "--n-modes", "1e23", "--sigma0", "3e-22", "--k0", "1e7",
    )
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body[0] == "axis1,axis2,tau_dec,tau_em,flag"
    rows = [line.split(",") for line in body[1:]]
    assert len(rows) == 4 * 3
    assert {row[4] for row in rows} <= {"time_dilation", "emission", "boundary"}
    assert float(rows[0][0]) == pytest.approx(1e-6)
    assert float(rows[0][1]) == pytest.approx(100.0)


def test_regime_json_with_tabulated_model(capsys, tmp_path):
    spectrum = tmp_path / "spectrum.csv"
    k = np.linspace(1e6, 2e6, 8)
    spectrum.write_text(
        "\n".join(f"{float(ki)!r},1.0,1e-22" for ki in k) + "\n"
    )
    out = tmp_path / "map.json"
    code, _, _ = _run(
        capsys, "regime", "--axis1", "delta-x", "--axis1-min", "1e-5",
        "--axis1-max", "1e-3", "--n-axis1", "3", "--t-min", "100", "--t-max", "300",
        "--n-temps", "2", "--n-modes", "1e23", "--emission-csv", str(spectrum),
        "--format", "json", "--output", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["emission_model"] == str(spectrum)
    assert len(payload["axis1"]) == 3
    assert len(payload["flags"]) == 3 and len(payload["flags"][0]) == 2
    assert payload["axis1_kind"] == "delta_x"


def test_propertime_static_arms(capsys, tmp_path):
    out = tmp_path / "pt.json"
    code, _, _ = _run(
        capsys, "propertime", "--x1", "0", "--x2", "1", "--t-final", "1",
        "--output", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert math.isclose(
        payload["results"]["delta_tau"], 1.0915097049885998e-16, rel_tol=1e-12
    )
    assert payload["results"]["potential"] == "homogeneous"


def test_propertime_attaches_visibility(capsys, tmp_path):
    out = tmp_path / "pt.json"
    code, _, _ = _run(
        capsys, "propertime", "--x1", "0", "--x2", "1", "--t-final", "1",
        "--n-modes", "1e4", "--temperature", "300", "--output", str(out),
    )
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["law"] == "semiclassical"
    assert 0.0 < results["visibility"] <= 1.0


def test_config_file_with_flag_and_constant_overrides(capsys, tmp_path):
    cfg = tmp_path / "tau.json"
    cfg.write_text(json.dumps({"n_modes": 1e23, "temperature": 300.0, "delta_x": 1e-3}))
    base_out = tmp_path / "base.json"
    code, _, _ = _run(capsys, "tau", "--config", str(cfg), "--output", str(base_out))
    assert code == 0
    base = json.loads(base_out.read_text())["results"]["tau_dec"]

    # explicit flag overrides the file; doubling T halves the timescale exactly
    flag_out = tmp_path / "flag.json"
    code, _, _ = _run(
        capsys, "tau", "--config", str(cfg), "--T", "600", "--output", str(flag_out)
    )
    assert code == 0
    assert base / json.loads(flag_out.read_text())["results"]["tau_dec"] == 2.0

    # constants block rescales g the same way
    cfg2 = tmp_path / "tau2.json"
    cfg2.write_text(
        json.dumps(
            {
                "n_modes": 1e23,
                "temperature": 300.0,
                "delta_x": 1e-3,
                "constants": {"g_earth": 2 * CONSTS.g_earth},
            }
        )
    )
    const_out = tmp_path / "const.json"
    code, _, _ = _run(capsys, "tau", "--config", str(cfg2), "--output", str(const_out))
    assert code == 0
    assert base / json.loads(const_out.read_text())["results"]["tau_dec"] == 2.0


def test_config_errors_exit_2(capsys, tmp_path):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"n_modes": 1e23, "window": 7}))
    code, _, err = _run(capsys, "tau", "--config", str(bad_key), "--dx", "1e-3", "--T", "300")
    assert code == 2
    assert "unknown config keys" in err and "window" in err

    bad_const = tmp_path / "badconst.json"
    bad_const.write_text(
        json.dumps({"n_modes": 1e23, "temperature": 300.0, "delta_x": 1e-3,
                    "constants": {"speed": 1.0}})
    )
    code, _, err = _run(capsys, "tau", "--config", str(bad_const))
    assert code == 2
    assert "unknown constants" in err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    code, _, err = _run(capsys, "tau", "--config", str(not_json), "--dx", "1e-3")
    assert code == 2
    assert "not valid JSON" in err

    # Python refuses to parse integer literals past 4300 digits.
    too_long = tmp_path / "too_long.json"
    too_long.write_text('{"n_modes": 1' + "0" * 5000 + "}")
    code, _, err = _run(capsys, "tau", "--config", str(too_long), "--dx", "1e-3")
    assert code == 2
    assert "not valid JSON" in err

    # argparse's float gives inf for 1e400 and nan for "nan"; neither is a value
    code, out, err = _run(capsys, "tau", "--N", "1e400", "--T", "300", "--dx", "1e-3")
    assert code == 2 and out == ""
    assert "configuration error" in err and "--N" in err and "finite" in err
    code, out, err = _run(
        capsys, "evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2", "--N", "1e23",
        "--T", "300", "--dt", "nan", "--t-final", "1e-6",
    )
    assert code == 2 and out == ""
    assert "configuration error" in err and "--dt" in err and "finite" in err


_TAU_CONFIG = {"n_modes": 1e23, "temperature": 300.0, "delta_x": 1e-3}


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("tau", {**_TAU_CONFIG, "n_modes": "1e23"}, "n_modes"),
        ("tau", {**_TAU_CONFIG, "delta_x": None}, "delta_x"),
        ("evolve", {"x1": 0.0, "x2": 1e-3, "n_points": 2.0, "lambda_coefficient": 1e5,
                    "dt": 1e-2, "t_final": 0.1}, "n_points"),
        ("tau", {**_TAU_CONFIG, "hawking": "no"}, "hawking"),
        ("visibility", {"law": "bogus", "n_modes": 1e23, "temperature": 300.0,
                        "delta_x": 1e-3, "t_final": 2e-6}, "law"),
        ("tau", {**_TAU_CONFIG, "n_modes": 10**400}, "n_modes"),
        ("tau", {**_TAU_CONFIG, "delta_x": math.inf}, "delta_x"),
        ("tau", {**_TAU_CONFIG, "constants": {"hbar": math.inf}}, "constants.hbar"),
        ("tau", {**_TAU_CONFIG, "constants": {"hbar": "x"}}, "constants.hbar"),
        ("tau", {**_TAU_CONFIG, "constants": {"g_earth": True}}, "constants.g_earth"),
        ("tau", {**_TAU_CONFIG, "constants": {"G": 10**400}}, "constants.G"),
    ],
    ids=["string-for-float", "null", "float-for-int", "string-for-bool", "bad-choice",
         "int-beyond-float", "non-finite-float", "constant-non-finite", "constant-string",
         "constant-bool", "constant-int-beyond-float"],
)
def test_config_values_are_checked_like_flags(capsys, tmp_path, command, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = _run(capsys, command, "--config", str(path))
    assert code == 2
    assert "configuration error" in err and repr(key) in err
    assert out == ""


_README_RUNS = [
    (["tau", "--N", "1e23", "--T", "300", "--dx", "1e-3"],
     {"n_modes": 1e23, "temperature": 300, "delta_x": 1e-3}),
    (["visibility", "--law", "high-T", "--N", "1e23", "--T", "300", "--dx", "1e-3",
      "--t-final", "2e-6"],
     {"law": "high-T", "n_modes": 1e23, "temperature": 300, "delta_x": 1e-3,
      "t_final": 2e-6}),
    (["evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2", "--N", "1e23",
      "--T", "300", "--dt", "1e-8", "--t-final", "1e-6"],
     {"x1": 0, "x2": 1e-3, "n_points": 2, "n_modes": 1e23, "temperature": 300,
      "dt": 1e-8, "t_final": 1e-6}),
    (["regime", "--axis1", "delta-x", "--axis1-min", "1e-6", "--axis1-max", "1e-2",
      "--t-min", "100", "--t-max", "600", "--n-modes", "1e23", "--sigma0", "3e-22",
      "--k0", "1e7"],
     {"axis1": "delta-x", "axis1_min": 1e-6, "axis1_max": 1e-2, "t_min": 100,
      "t_max": 600, "n_modes": 1e23, "sigma0": 3e-22, "k0": 1e7}),
    (["propertime", "--x1", "0", "--x2", "1", "--t-final", "1"],
     {"x1": 0, "x2": 1, "t_final": 1}),
]


@pytest.mark.parametrize(
    "flags, config", _README_RUNS, ids=[flags[0] for flags, _ in _README_RUNS]
)
def test_config_file_and_flags_give_identical_bytes(capsys, tmp_path, flags, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    by_flags, by_config = tmp_path / "flags.out", tmp_path / "config.out"
    assert main(flags + ["--output", str(by_flags)]) == 0
    assert main([flags[0], "--config", str(cfg), "--output", str(by_config)]) == 0
    capsys.readouterr()
    assert by_flags.read_bytes() == by_config.read_bytes()


def test_propertime_accepts_short_aliases(capsys, tmp_path):
    short, long = tmp_path / "short.json", tmp_path / "long.json"
    base = ["propertime", "--x1", "0", "--x2", "1", "--t-final", "1"]
    assert main(base + ["--N", "1e4", "--T", "300", "--output", str(short)]) == 0
    assert main(base + ["--n-modes", "1e4", "--temperature", "300",
                        "--output", str(long)]) == 0
    capsys.readouterr()
    assert short.read_bytes() == long.read_bytes()
    assert json.loads(short.read_text())["results"]["law"] == "semiclassical"


def test_missing_required_parameters_exit_2(capsys):
    code, _, err = _run(capsys, "tau", "--N", "1e23", "--T", "300")
    assert code == 2
    assert "delta_x" in err


def test_domain_error_exit_3(capsys):
    code, _, err = _run(capsys, "tau", "--N", "-1", "--T", "300", "--dx", "1e-3")
    assert code == 3
    assert "domain error" in err


def test_visibility_refuses_non_finite_frequency_exit_3(capsys, tmp_path):
    freqs = tmp_path / "freqs.csv"
    freqs.write_text("nan\n1e13\n")
    code, out, err = _run(capsys, "visibility", "--frequencies-csv", str(freqs),
                          "--temperature", "300", "--dtau", "1e-14")
    assert code == 3 and out == ""
    assert "domain error" in err and "frequencies" in err and "Traceback" not in err


@pytest.mark.parametrize("bad_file", ["trajectories", "potential_csv"])
def test_propertime_refuses_non_finite_samples_exit_3(capsys, tmp_path, bad_file):
    traj = tmp_path / "traj.csv"
    traj.write_text("0,0,0,1,0\n1,0,0,nan,0\n2,0,0,1,0\n"
                    if bad_file == "trajectories" else "0,0,0,1,0\n1,0,0,1,0\n")
    pot = tmp_path / "pot.csv"
    pot.write_text("0,0\n1,nan\n2,1\n")
    out = tmp_path / "pt.json"
    code, stdout, err = _run(capsys, "propertime", "--trajectories", str(traj), "--potential",
                             "tabulated", "--potential-csv", str(pot), "--output", str(out))
    assert code == 3 and not out.exists() and stdout == ""
    assert "domain error" in err and "Traceback" not in err
    assert ("x_b" if bad_file == "trajectories" else "phi") in err


#: Per CSV flag: the command that reads it and a well-formed table for it.
_TABLE_RUNS = {
    "frequencies_csv": (["visibility", "--temperature", "300", "--dtau", "1e-14"],
                        "1e12\n2e12\n"),
    "trajectories": (["propertime"], "0,0,0,1,0\n1,0,0,1,0\n2,0,0,1,0\n"),
    "potential_csv": (["propertime", "--x1", "0", "--x2", "1", "--t-final", "1",
                       "--potential", "tabulated"], "-1,0\n2,3\n"),
    "emission_csv": (["regime", "--axis1", "delta-x", "--axis1-min", "1e-5",
                      "--axis1-max", "1e-3", "--n-axis1", "2", "--t-min", "100",
                      "--t-max", "300", "--n-temps", "2", "--n-modes", "1e23"],
                     "1e6,1.0,1e-22\n2e6,1.0,1e-22\n"),
}


def _last_cell(text: str, cell: str) -> str:
    """The table with the last cell of its last row replaced by ``cell``."""
    *rows, last = text.splitlines()
    head, comma, _ = last.rpartition(",")
    return "\n".join(rows + [head + comma + cell]) + "\n"


#: fault: (exit code, the table made from a good one (None: no file), what stderr
#: says after "gravidec: ", with {path} for the table's path)
_TABLE_FAULTS = {
    "missing": (2, None, "configuration error: cannot access: {path} not found."),
    "non-numeric": (3, lambda text: _last_cell(text, "abc"),
                    "domain error: {path}: could not convert string 'abc'"),
    "ragged": (3, lambda text: text + text.splitlines()[-1] + ",1\n",
               "domain error: {path}: the number of columns changed"),
    "empty": (3, lambda text: "", "domain error: {path}: table has no rows"),
    "non-finite": (3, lambda text: _last_cell(text, "nan"),
                   "domain error: tabulated sigma has non-finite entries"),
}

# A non-finite cell in the other three tables is covered by the two tests above.
_TABLE_CASES = [(flag, fault) for flag in _TABLE_RUNS for fault in _TABLE_FAULTS
                if fault != "non-finite" or flag == "emission_csv"]


@pytest.mark.parametrize("flag, fault", _TABLE_CASES, ids=[f"{f}-{x}" for f, x in _TABLE_CASES])
def test_unreadable_or_malformed_table_exits_2_or_3(capsys, tmp_path, flag, fault):
    argv, good = _TABLE_RUNS[flag]
    expected_code, make, said = _TABLE_FAULTS[fault]
    path = tmp_path / "table.csv"
    if make is not None:
        path.write_text(make(good))
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():  # as in a plain CLI run, a warning is no error here
        warnings.simplefilter("ignore")
        code, stdout, err = _run(capsys, *argv, "--" + flag.replace("_", "-"), str(path),
                                 "--output", str(out))
    assert code == expected_code
    assert "gravidec: " + said.format(path=path) in err and "Traceback" not in err
    assert stdout == "" and not out.exists()
    assert "usecols" not in err  # numpy's ragged-row advice names an argument no flag sets


@pytest.mark.parametrize("target", ["output", "snapshots"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, target):
    bad = tmp_path / "no_such_dir" / "file"
    paths = {"output": tmp_path / "out.csv", "snapshots": tmp_path / "run.snap", target: bad}
    code, stdout, err = _run(
        capsys, "evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2",
        "--lambda-coefficient", "1e5", "--dt", "1e-2", "--t-final", "0.1", "--store-every", "1",
        "--snapshots", str(paths["snapshots"]), "--output", str(paths["output"]),
    )
    assert code == 2 and stdout == ""
    assert "configuration error: cannot access" in err and str(bad) in err
    assert "Traceback" not in err and not (tmp_path / "out.csv").exists()


def test_instability_exit_4(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = _run(
            capsys, "evolve", "--x1", "0", "--x2", "1", "--n-points", "2",
            "--form", "full_memory", "--lambda-coefficient", "1e300",
            "--dt", "1", "--t-final", "10",
        )
    assert code == 4
    assert "numerical instability" in err


def test_oracle_check_small_battery(capsys, tmp_path):
    out = tmp_path / "oracle.json"
    argv = [
        "oracle-check", "--cases", "3", "--samples", "20000", "--output", str(out),
    ]
    code = main(argv)
    stdout = capsys.readouterr().out
    assert code == 0
    case_lines = [line for line in stdout.splitlines() if line.startswith("case ")]
    assert len(case_lines) >= 3
    assert all(" PASS " in line or " FAIL " in line for line in case_lines)
    assert stdout.splitlines()[-1] == "oracle-check: OK"

    payload = json.loads(out.read_text())
    assert payload["all_within_tolerance"] is True
    assert payload["n_cases"] == len(payload["cases"])
    for name in ("mc", "fock", "tensor"):
        assert payload["summary"][name]["valid"] >= 3
        assert payload["summary"][name]["agree"] == payload["summary"][name]["valid"]
    first = payload["cases"][0]
    for key in ("frequencies", "temperature", "delta_tau", "v_exact", "mc_seed",
                "n_samples", "verdicts", "errors"):
        assert key in first

    # identical invocation reproduces the report byte for byte
    again = tmp_path / "again.json"
    assert main(["oracle-check", "--cases", "3", "--samples", "20000",
                 "--output", str(again)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == again.read_bytes()


def test_oracle_check_report_layout(capsys, tmp_path):
    out = tmp_path / "oracle.json"
    code = main(["oracle-check", "--cases", "8", "--samples", "2000", "--verbose",
                 "--output", str(out)])
    stdout = capsys.readouterr().out
    assert code in (0, 1)
    payload = json.loads(out.read_text())
    names = ("mc", "fock", "tensor")
    fields = {"mc": "v_mc", "fock": "v_fock", "tensor": "v_tensor"}
    assert set(payload["summary"]) == set(names)
    skips = 0
    for case in payload["cases"]:
        assert set(case) == {
            "index", "frequencies", "temperature", "delta_tau", "v_exact", "v_mc", "se_mc",
            "v_fock", "fock_bound", "v_tensor", "errors", "mc_seed", "n_samples", "skipped",
            "verdicts", "pass"}
        assert set(case["errors"]) == set(case["verdicts"]) == set(names)
        for name in names:
            value = case[fields[name]]
            skipped = any(item.startswith(f"{name}:") for item in case["skipped"])
            skips += skipped
            assert (value is None) == (case["errors"][name] is None) \
                == (case["verdicts"][name] is None) == skipped
            if value is not None:
                assert case["errors"][name] == abs(value - case["v_exact"])
    assert skips > 0
    for name in names:
        errors = [c["errors"][name] for c in payload["cases"] if c["errors"][name] is not None]
        assert payload["summary"][name]["max_abs_err"] == max(errors)

    detail = [line for line in stdout.splitlines() if line.startswith("          modes=")]
    assert len(detail) == len(payload["cases"])
    for line in detail:
        tail = line.split(" V_exact=")[1].split()[1:]
        assert [item.split("=")[0] for item in tail] == list(names)


def test_oracle_check_stdout_modes(capsys):
    # default: human-readable lines only, no JSON blob trailing them
    code, out, _ = _run(capsys, "oracle-check", "--cases", "2", "--samples", "5000")
    assert code == 0
    assert out.splitlines()[-1] == "oracle-check: OK"
    assert '"cases"' not in out

    # explicit --format json replaces the text with the machine report
    code, out, _ = _run(
        capsys, "oracle-check", "--cases", "2", "--samples", "5000", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_within_tolerance"] is True

    code, _, err = _run(
        capsys, "oracle-check", "--cases", "2", "--samples", "5000", "--format", "csv"
    )
    assert code == 2
    assert "JSON only" in err


@pytest.mark.parametrize("cases", ["0", "-1"])
def test_oracle_check_refuses_an_empty_battery(capsys, tmp_path, cases):
    # a battery of no sets used to print "oracle-check: OK" and exit 0
    out = tmp_path / "oracle.json"
    code, stdout, err = _run(capsys, "oracle-check", "--cases", cases, "--output", str(out))
    assert code == 2
    assert "--cases must be >= 1" in err
    assert stdout == ""
    assert not out.exists()


def test_oracle_check_preset_is_overridable(capsys, tmp_path):
    # the preset bundles cases=50; an explicit flag must still win
    out = tmp_path / "preset.json"
    code = main(
        ["oracle-check", "--preset", "standard", "--cases", "2", "--samples", "5000",
         "--output", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["parameters"]["preset"] == "standard"
    assert payload["parameters"]["cases"] == 2
    assert payload["parameters"]["mc_sigmas"] == 3.0


def test_oracle_check_preset_as_config_key(capsys, tmp_path):
    cfg = tmp_path / "battery.json"
    cfg.write_text(json.dumps({"preset": "standard", "cases": 2, "samples": 5000}))
    out = tmp_path / "battery_out.json"
    code = main(["oracle-check", "--config", str(cfg), "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    params = json.loads(out.read_text())["parameters"]
    assert params["preset"] == "standard"
    assert params["cases"] == 2
    assert params["mc_sigmas"] == 3.0


def test_oracle_check_states_mc_false_alarm_rate(capsys, tmp_path):
    out = tmp_path / "battery_out.json"
    code = main(["oracle-check", "--preset", "standard", "--samples", "2000",
                 "--output", str(out)])
    capsys.readouterr()
    assert code in (0, 1)
    mc = json.loads(out.read_text())["summary"]["mc"]
    assert mc["valid"] == 70
    per_case = math.erfc(3.0 / math.sqrt(2.0))  # two-sided 3 sigma, ~0.0027
    assert mc["false_alarm_rate"] == pytest.approx(1.0 - (1.0 - per_case) ** 70, rel=1e-12)
    assert mc["false_alarm_rate"] == pytest.approx(0.172, abs=5e-4)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "gravidec" in capsys.readouterr().out
