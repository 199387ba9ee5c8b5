from __future__ import annotations

import hashlib
import io
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
from gravidec import cli
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


def _cli_output(tmp_path, argv, name, exit_codes=(0,), env=None, preexec_fn=None) -> bytes:
    """The output file of one CLI run in a fresh process, with ``env`` added."""
    src = str(Path(gravidec.__file__).resolve().parents[1])
    script = "import sys; from gravidec.cli import main; sys.exit(main(sys.argv[1:]))"
    out = tmp_path / f"{name}.out"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv, "--output", str(out)],
        env=dict(os.environ, PYTHONPATH=src, **(env or {})), preexec_fn=preexec_fn,
        capture_output=True, text=True,
    )
    assert proc.returncode in exit_codes, proc.stderr
    return out.read_bytes()


def _outputs_at_blas_threads(tmp_path, argv, exit_codes=(0,)) -> list[bytes]:
    """The output file of one CLI run in a fresh process at 1 and at 2 BLAS threads."""
    return [_cli_output(tmp_path, argv, f"blas{threads}", exit_codes,
                        {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
            for threads in ("1", "2")]


def test_oracle_check_output_does_not_depend_on_blas_threads(tmp_path):
    # the Monte Carlo kernel makes no BLAS call, whose threading would move
    # the last bits of its sums and hence the report's bytes
    first, second = _outputs_at_blas_threads(
        tmp_path, ["oracle-check", "--cases", "3", "--samples", "300000"],
        exit_codes=(0, 1),  # 1 is a statistical MC miss
    )
    assert first == second


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and at least 2 usable CPUs to compare 1 CPU against more",
)
def test_oracle_check_output_does_not_depend_on_cpu_count(tmp_path):
    # The Monte Carlo pass runs one worker per usable CPU; a child pinned to
    # one CPU runs it serially, and the README promises the same bytes.
    argv = ["oracle-check", "--cases", "3", "--samples", "300000"]
    cpu = min(os.sched_getaffinity(0))
    pinned = _cli_output(tmp_path, argv, "one_cpu", (0, 1),  # 1 is a statistical MC miss
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    unpinned = _cli_output(tmp_path, argv, "all_cpus", (0, 1))
    assert pinned == unpinned


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


_BH = {"n_modes": 1e23, "delta_x": 1e-9, "central_mass": 9.945e30, "radius": 1.5e4}
_STATIC = {"x1": 0.0, "x2": 1.0, "t_final": 1.0}
_EVOLVE = {"x1": 0.0, "x2": 1e-3, "dt": 1e-2, "t_final": 0.1, "store_every": 1,
           "snapshots": "{snapshots}"}
_REGIME = {"axis1_min": 1e-6, "axis1_max": 1e-2, "n_axis1": 2, "t_min": 100.0, "t_max": 600.0,
           "n_temps": 2, "sigma0": 3e-22, "k0": 1e7}
_POINT = {"dtau": 1e-14, "n_modes": 1e20, "temperature": 300.0}
_CURVE = {"law": "high-T", "n_modes": 1e23, "temperature": 300.0, "delta_x": 1e-3,
          "t_final": 2e-6}

#: Flag combinations the command would partly leave unused: (command, parameters,
#: the flags the refusal names). A value in _PLACEHOLDER_FILES stands for that file's path.
_IGNORED_FLAGS = {
    "hawking-without-mass": ("tau", {**_TAU_CONFIG, "hawking": True},
                             ("--hawking", "--central-mass", "--radius")),
    "g-with-mass": ("tau", {**_BH, "temperature": 300.0, "g": 3.0}, ("--g", "--central-mass")),
    "temperature-with-hawking": ("tau", {**_BH, "temperature": 300.0, "hawking": True},
                                 ("--hawking", "--temperature")),
    "modes-without-temperature": ("propertime", {**_STATIC, "n_modes": 1e23},
                                  ("--temperature", "--n-modes")),
    "table-without-temperature": ("propertime", {**_STATIC, "frequencies_csv": "{table}"},
                                  ("--temperature", "--frequencies-csv")),
    "temperature-without-state": ("propertime", {**_STATIC, "temperature": 300.0},
                                  ("--temperature", "--n-modes", "--frequencies-csv")),
    "regime-power-law-with-table": ("regime", {**_REGIME, "axis1": "delta-x", "n_modes": 1e23,
                                               "emission_csv": "{emission}"},
                                    ("--k0", "--sigma0", "--emission-csv")),
    "regime-modes-on-radius-axis": ("regime", {**_REGIME, "axis1": "radius", "mode_density": 1e28,
                                               "delta_x": 1e-3, "n_modes": 5.0},
                                    ("--n-modes", "--mode-density", "--delta-x")),
    "regime-density-on-delta-x-axis": ("regime", {**_REGIME, "axis1": "delta-x", "n_modes": 1e23,
                                                  "mode_density": 1e28},
                                       ("--mode-density", "--n-modes")),
    "evolve-mass-without-hamiltonian": ("evolve", {**_EVOLVE, "lambda_coefficient": 1e5,
                                                   "mass": 5.0},
                                        ("--mass", "--lambda-coefficient")),
    "evolve-modes-without-temperature": ("evolve", {**_EVOLVE, "lambda_coefficient": 1e5,
                                                    "n_modes": 1e23},
                                         ("--n-modes", "--lambda-coefficient")),
    "evolve-state-with-lambda": ("evolve", {**_EVOLVE, "lambda_coefficient": 1e5,
                                            "n_modes": 1e23, "temperature": 300.0},
                                 ("--n-modes", "--temperature", "--lambda-coefficient")),
    "evolve-free-state-with-lambda": ("evolve", {**_EVOLVE, "hamiltonian": "free", "mass": 1e-25,
                                                 "lambda_coefficient": 1e5, "n_modes": 1e23,
                                                 "temperature": 300.0},
                                      ("--n-modes", "--temperature", "--hamiltonian")),
    "evolve-tilt-modes-without-temperature": ("evolve", {**_EVOLVE, "mass": 1e-25,
                                                         "hamiltonian": "free_plus_linear",
                                                         "lambda_coefficient": 1e5,
                                                         "n_modes": 1e23},
                                              ("--n-modes", "--temperature")),
    "evolve-g-with-lambda": ("evolve", {**_EVOLVE, "lambda_coefficient": 1e5, "g": 3.0},
                             ("--g", "--lambda-coefficient")),
    "store-every-without-snapshots": ("evolve", {"x1": 0.0, "x2": 1e-3, "dt": 1e-2, "t_final": 0.1,
                                                 "lambda_coefficient": 1e5, "store_every": 1},
                                      ("--store-every", "--lambda-coefficient")),
    "visibility-dtau-with-curve": ("visibility", {**_POINT, "t_final": 3.0, "delta_x": 1.0},
                                   ("--delta-x", "--t-final", "--dtau")),
    "visibility-dtau-with-law": ("visibility", {**_POINT, "law": "high-T"}, ("--law", "--dtau")),
    "visibility-dtau-with-g": ("visibility", {**_POINT, "g": 3.0}, ("--g", "--dtau")),
    "visibility-high-t-with-table": ("visibility", {**_CURVE, "frequencies_csv": "{table}"},
                                     ("--frequencies-csv", "--law", "--n-modes")),
    "propertime-trajectories-with-x1": ("propertime", {"trajectories": "{trajectories}",
                                                       "x1": 0.0},
                                        ("--x1", "--trajectories")),
    "propertime-homogeneous-with-mass": ("propertime", {**_STATIC, "potential": "homogeneous",
                                                        "central_mass": 1e30},
                                         ("--central-mass", "--potential")),
}

#: Files the rows name by placeholder: file name, and contents (None: an output).
_PLACEHOLDER_FILES = {
    "{table}": ("freqs.csv", "1e12\n2e12\n"),
    "{emission}": ("emission.csv", "1e6,1.0,1e-22\n2e6,1.0,1e-22\n"),
    "{trajectories}": ("traj.csv", "0,0,0,1,0\n1,0,0,1,0\n2,0,0,1,0\n"),
    "{snapshots}": ("run.snap", None),
}


@pytest.mark.parametrize("case", _IGNORED_FLAGS)
@pytest.mark.parametrize("source", ["flags", "config"])
def test_flags_that_would_be_ignored_exit_2(capsys, tmp_path, case, source):
    command, params, named = _IGNORED_FLAGS[case]
    paths = {key: tmp_path / name for key, (name, _) in _PLACEHOLDER_FILES.items()}
    for key, (_, text) in _PLACEHOLDER_FILES.items():
        if text is not None:
            paths[key].write_text(text)
    params = {k: str(paths[v]) if v in paths else v for k, v in params.items()}
    if source == "flags":
        argv = [command]
        for key, value in params.items():
            argv += ["--" + key.replace("_", "-")] + ([] if value is True else [str(value)])
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        argv = [command, "--config", str(cfg)]
    out = tmp_path / "out.json"
    code, stdout, err = _run(capsys, *argv, "--output", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert not paths["{snapshots}"].exists()
    assert err.startswith("gravidec: configuration error: ")
    assert err.count("\n") == 1, err  # the refusal only: no warning from the discarded run
    assert all(flag in err for flag in named), err


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


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "--seed must be >= 0, got -1"),
    ("--mc-seed", "-5", "--mc-seed must be >= 0, got -5"),
    ("--mc-sigmas", "0", "--mc-sigmas must be > 0, got 0.0"),
    ("--mc-sigmas", "-1", "--mc-sigmas must be > 0, got -1.0"),
    ("--atol", "-1", "--atol must be >= 0, got -1.0"),
])
def test_oracle_check_refuses_a_negative_seed_or_an_empty_window(capsys, tmp_path, flag, value,
                                                                 message):
    # a negative seed ended in numpy's traceback, and a window that no
    # estimate can meet printed DISAGREEMENT, both with exit 1, the code
    # that means the oracles disagree
    out = tmp_path / "oracle.json"
    code, stdout, err = _run(capsys, "oracle-check", "--cases", "1", "--samples", "64",
                             flag, value, "--output", str(out))
    assert (code, stdout, err) == (2, "", f"gravidec: configuration error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("dt, t_final", [("1e-300", "1e-2"), ("1e-15", "1")])
def test_evolve_refuses_a_step_count_above_the_cap(capsys, tmp_path, dt, t_final):
    # both ended in numpy's allocation error for the time grid, with exit 1
    out, snap = tmp_path / "evolve.csv", tmp_path / "run.snap"
    code, stdout, err = _run(capsys, "evolve", "--x1", "0", "--x2", "1e-9", "--N", "1e-6",
                             "--T", "1e23", "--dt", dt, "--t-final", t_final,
                             "--store-every", "1", "--snapshots", str(snap), "--output", str(out))
    assert code == 3 and stdout == ""
    assert "above the cap of 10000000; use a larger --dt or a shorter --t-final" in err
    assert not out.exists() and not snap.exists()


def test_visibility_refuses_a_mode_phase_past_float64_exit_3(capsys, tmp_path):
    # w dtau = 5e313 overflowed to inf; sin() of it wrote visibility = nan with
    # three RuntimeWarnings and exit 0
    freqs, out = tmp_path / "freqs.csv", tmp_path / "vis.csv"
    freqs.write_text("1e13\n2e13\n5e13\n")
    code, stdout, err = _run(capsys, "visibility", "--dtau", "1e300", "--frequencies-csv",
                             str(freqs), "--T", "300", "--output", str(out))
    assert (code, stdout) == (3, "")
    assert err == ("gravidec: domain error: mode phase w*dtau overflows float64: "
                   "max |dtau| = 1e+300 s times max w = 5e+13 rad/s\n")
    assert not out.exists()


def test_tau_past_float64_range_is_inf_without_a_warning(capsys):
    # the quotient overflows: "inf" is the answer on purpose, not a raw
    # "overflow in scalar divide" warning
    code, stdout, err = _run(capsys, "tau", "--N", "1e-300", "--T", "1e-300", "--dx", "9.945e30")
    assert (code, err) == (0, "")
    assert json.loads(stdout)["results"]["tau_dec"] == "inf"


def test_evolve_refuses_a_grid_whose_squared_span_overflows(capsys, tmp_path):
    # (x_i - x_j)^2 overflowed with a raw "overflow in square" warning, and
    # lambda = 0 would have turned the inf into NaN
    out, snap = tmp_path / "evolve.csv", tmp_path / "run.snap"
    code, stdout, err = _run(capsys, "evolve", "--x1", "0", "--x2", "1e300", "--n-points", "2",
                             "--lambda-coefficient", "1", "--dt", "1", "--t-final", "3",
                             "--store-every", "1", "--snapshots", str(snap), "--output", str(out))
    assert (code, stdout) == (3, "")
    assert err == ("gravidec: domain error: grid span 1e+300 m is too wide: its square, the "
                   "dephasing's largest (x_i - x_j)^2, overflows float64\n")
    assert not out.exists() and not snap.exists()


@pytest.mark.parametrize("hamiltonian", ["none", "free", "free_plus_linear"])
@pytest.mark.parametrize("form", ["markovian", "full_memory"])
def test_evolve_overflow_inside_a_step_is_reported_by_the_finiteness_check_alone(
        capsys, form, hamiltonian):
    # lambda (x_i - x_j)^2 t dt overflows though the squared span 1e308 is
    # finite. The Markovian factor exp(-inf) = 0 is the exact factor's float64
    # value; the full-memory step's inf and NaN are refused. Either way no raw
    # numpy warning reaches stderr.
    mass = [] if hamiltonian == "none" else ["--mass", "1e-25"]
    code, stdout, err = _run(capsys, "evolve", "--form", form, "--hamiltonian", hamiltonian,
                             *mass, "--x1", "0", "--x2", "1e154", "--n-points", "2",
                             "--lambda-coefficient", "1", "--dt", "1", "--t-final", "3")
    if form == "markovian":
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in stdout.splitlines() if not line.startswith("#")]
        assert rows[0][-1] == "visibility"
        assert [float(row[-1]) for row in rows[2:]] == [0.0, 0.0, 0.0]
    else:
        assert (code, stdout) == (4, "")
        assert err == ("gravidec: numerical instability: non-finite density matrix at step 1; "
                       "reduce dt\n")


_EDGE = ["--dx", "1e300", "--t-final", "1e300"]
_PROPERTIME_OVERFLOW = "proper-time integral overflows float64: a term or their sum is inf"


@pytest.mark.parametrize("argv, refusal", [
    (["tau", "--N", "1e-320", "--T", "1e300", "--dx", "1e300"],
     "tau_dec = sqrt(2/N) hbar c^2 / (k_B T g |dx|) is inf / inf in float64"),
    (["propertime", "--x1", "0", "--x2", "1e300", "--t-final", "1e300"], _PROPERTIME_OVERFLOW),
    (["propertime", "--x1", "0", "--x2", "1e300", "--t-final", "1e300",
      "--frequencies-csv", "FREQS", "--T", "300"], _PROPERTIME_OVERFLOW),
    (["visibility", "--law", "exact-product", "--frequencies-csv", "FREQS", "--T", "300", *_EDGE],
     "mode phase w*dtau overflows float64: max |dtau| = inf s times max w = 5e+13 rad/s"),
    (["visibility", "--law", "high-T", "--N", "1e20", "--T", "300", *_EDGE], None),
    (["visibility", "--law", "gaussian", "--N", "1e20", "--T", "300", *_EDGE], None),
], ids=["tau-inf-over-inf", "propertime", "propertime-with-state", "visibility-exact-product",
        "visibility-high-T", "visibility-gaussian"])
def test_closed_forms_at_the_edge_of_float64_write_their_value_or_refuse_alone(
        capsys, tmp_path, argv, refusal):
    # Each wrote NaN or "inf", or was refused, behind a raw numpy warning. A
    # value is now written only where it is float64's value (V = 0), and a
    # refusal is the only line on stderr.
    freqs = tmp_path / "freqs.csv"
    freqs.write_text("1e13\n2e13\n5e13\n")
    code, stdout, err = _run(capsys, *(str(freqs) if a == "FREQS" else a for a in argv))
    if refusal is not None:
        assert (code, stdout) == (3, "")
        assert err == f"gravidec: domain error: {refusal}\n"
    else:
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in stdout.splitlines() if not line.startswith("#")]
        values = [float(row[1]) for row in rows[1:]]
        assert values[0] == 1.0 and set(values[1:]) == {0.0} and len(values) == 200


def _visibility_values(stdout: str) -> list[float]:
    rows = [line.split(",") for line in stdout.splitlines() if not line.startswith("#")]
    return [float(row[1]) for row in rows[1:]]


def test_high_T_law_with_no_modes_is_one_where_theta_overflows(capsys):
    # theta = inf: -N/2 log1p(theta^2) was 0 * inf, written as nan behind a
    # raw "invalid value encountered in multiply" warning
    code, stdout, err = _run(capsys, "visibility", "--law", "high-T", "--N", "0", "--T", "300",
                             *_EDGE, "--n-times", "3")
    assert (code, err) == (0, "")
    assert _visibility_values(stdout) == [1.0, 1.0, 1.0]


def test_high_T_law_is_theta_to_the_minus_n_where_theta_squared_overflows(capsys):
    # theta ~ 2e197: theta^2 overflows, and log1p(inf) wrote V = 0 where
    # V = (1 + theta^2)^(-1/2) = 1 / theta is a normal float64
    code, stdout, err = _run(capsys, "visibility", "--law", "high-T", "--N", "1", "--T", "300",
                             "--dx", "1e100", "--t-final", "1e100", "--n-times", "3")
    assert (code, err) == (0, "")
    values = _visibility_values(stdout)
    rate = CONSTS.k_B * 300.0 * CONSTS.g_earth / (CONSTS.hbar * CONSTS.c**2)  # theta / (dx t)
    expected = [1.0 / (rate * 1e100 * t) for t in (5e99, 1e100)]
    assert values[0] == 1.0 and 1e-199 < values[2] < values[1] < 1e-196
    # V is exp(log V), log V ~ -454, so V keeps about 454 eps of relative error
    assert all(math.isclose(v, e, rel_tol=1e-12) for v, e in zip(values[1:], expected))


def test_high_T_law_is_theta_to_the_minus_n_where_theta_itself_overflows(capsys):
    # theta ~ 2e597: theta = inf wrote V = 0 where V = theta^-0.5 ~ 2e-299 is
    # a float64; log theta is now the sum of its factors' logs
    code, stdout, err = _run(capsys, "visibility", "--law", "high-T", "--N", "0.5", "--T", "300",
                             *_EDGE, "--n-times", "3")
    assert (code, err) == (0, "")
    values = _visibility_values(stdout)
    log_rate = math.log(CONSTS.k_B * 300.0 * CONSTS.g_earth / (CONSTS.hbar * CONSTS.c**2))
    expected = [math.exp(-0.5 * (log_rate + math.log(1e300) + math.log(t)))
                for t in (5e299, 1e300)]
    assert values[0] == 1.0 and 1e-300 < values[2] < values[1] < 1e-298
    # log V ~ -687, so V keeps about 687 eps of relative error
    assert all(math.isclose(v, e, rel_tol=1e-12) for v, e in zip(values[1:], expected))


def test_gaussian_law_refuses_a_tau_dec_that_underflows_to_zero(capsys, tmp_path):
    # k_B T g |dx| overflows, so tau_dec = 0 and t / tau_dec is 0 / 0 at t = 0:
    # raw divide and invalid-value warnings, then a refusal naming V(0)
    out = tmp_path / "vis.csv"
    code, stdout, err = _run(capsys, "visibility", "--law", "gaussian", "--N", "1e20",
                             "--T", "1e300", "--dx", "1e300", "--t-final", "1", "--n-times", "3",
                             "--output", str(out))
    assert (code, stdout) == (3, "")
    assert err == ("gravidec: domain error: tau_dec = sqrt(2/N) hbar c^2 / (k_B T g |dx|) "
                   "underflows to 0 in float64, so the Gaussian law's t / tau_dec is 0 / 0 "
                   "at t = 0\n")
    assert not out.exists()


def test_csv_rows_are_written_as_they_are_formatted(monkeypatch):
    # each row is formatted only once the rows before it are written, so a
    # long run never holds its whole CSV text in memory
    sink, lines_at = io.StringIO(), []

    def spy(value):
        lines_at.append(sink.getvalue().count("\n"))
        return cell(value)

    cell = cli._csv_cell
    monkeypatch.setattr(sys, "stdout", sink)
    monkeypatch.setattr(cli, "_csv_cell", spy)
    assert main(["evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2",
                 "--lambda-coefficient", "1e5", "--dt", "1e-2", "--t-final", "0.1"]) == 0
    lines = sink.getvalue().splitlines()
    first = lines.index("t,coherence_re,coherence_im,visibility") + 1
    assert len(lines) - first == 11
    assert lines_at == [first + row for row in range(11) for _ in range(4)]


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
