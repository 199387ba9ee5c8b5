from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
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
    # The Monte Carlo pass runs in the calling thread, so nothing in it reads
    # the CPU count: a child pinned to one CPU writes what an unpinned one does.
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


def test_propertime_has_no_sample_count(capsys, tmp_path):
    # static arms integrate on two samples, exact for their constant
    # integrand; a sample count is refused as an unknown flag or config key
    with pytest.raises(SystemExit) as exc:
        main(["propertime", "--x1", "0", "--x2", "1", "--t-final", "1", "--n-samples", "5"])
    assert exc.value.code == 2
    cfg = tmp_path / "arms.json"
    cfg.write_text(json.dumps({"x1": 0.0, "x2": 1.0, "t_final": 1.0, "n_samples": 5}))
    code, stdout, err = _run(capsys, "propertime", "--config", str(cfg))
    assert code == 2 and stdout == "" and "n_samples" in err


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


@pytest.mark.parametrize("argv, expected", [
    # 8 pi k_B G M underflows to 0: T_H = hbar c^3 / (8 pi k_B G M) is past
    # float64's range, like its neighbour at M = 1e-291
    (["--central-mass", "1e-300", "--radius", "1", "--hawking"],
     {"hawking_temperature": "inf", "tau_dec": 0.0}),
    # R^2 overflows: g = G M / R^2 ~ 7e-411 is 0 in float64, and tau_dec is
    # past its range, like its neighbour at R = 1e150
    (["--T", "300", "--central-mass", "1", "--radius", "1e200"], {"tau_dec": "inf"}),
    # R^2 underflows to 0: g = G M / R / R ~ 7e239, and tau_dec ~ 4e-511 is 0
    (["--central-mass", "1e-250", "--radius", "1e-250", "--hawking"], {"tau_dec": 0.0}),
], ids=["hawking-denominator-underflows", "radius-squared-overflows",
        "radius-squared-underflows"])
def test_tau_near_a_mass_writes_its_float64_value_where_a_term_leaves_the_range(
        capsys, argv, expected):
    # each raised ZeroDivisionError or OverflowError, a traceback with exit 1
    code, stdout, err = _run(capsys, "tau", "--N", "1e23", "--dx", "1e-9", *argv)
    assert (code, err) == (0, "")
    results = json.loads(stdout)["results"]
    assert {key: results[key] for key in expected} == expected


def test_tau_near_a_mass_keeps_a_normal_g_where_radius_squared_overflows(capsys):
    # R^2 = 1e320 overflows, yet g = G M / R^2 ~ 7e-151 and tau_dec ~ 1.5e151
    # are normal floats: the overflow must not turn g into 0 and tau_dec into inf
    code, stdout, err = _run(capsys, "tau", "--N", "1e23", "--T", "300", "--dx", "1e-9",
                             "--central-mass", "1e180", "--radius", "1e160")
    assert (code, err) == (0, "")
    tau = json.loads(stdout)["results"]["tau_dec"]
    c = CONSTS
    exact_squared = (Fraction(2, 10**23) * (Fraction(c.hbar) * Fraction(c.c) ** 2) ** 2
                     / (Fraction(c.k_B) * 300 * Fraction(c.G) * Fraction(1e180)
                        / Fraction(1e160) ** 2 * Fraction(1e-9)) ** 2)
    assert math.isclose(tau, math.sqrt(exact_squared), rel_tol=1e-14)


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


_EVOLVE_2 = ["evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2", "--dt", "1e-8",
             "--t-final", "1e-6"]


@pytest.mark.parametrize("argv, constants", [
    (["tau", "--N", "1e23", "--T", "300", "--dx", "1e-3"], {"c": 1e200}),
    (["visibility", "--law", "high-T", "--N", "1e23", "--T", "300", "--dx", "1e-3",
      "--t-final", "1e-6"], {"c": 1e200}),
    (["tau", "--N", "1e23", "--dx", "1e-9", "--central-mass", "9.945e30", "--radius", "1.5e4",
      "--hawking"], {"c": 1e120}),
    ([*_EVOLVE_2, "--N", "1e23", "--T", "1e200"], {}),
    ([*_EVOLVE_2, "--N", "1e23", "--T", "300"], {"hbar": 1e150}),
], ids=["tau-c-squared", "visibility-c-squared", "tau-hawking-c-cubed",
        "evolve-kT-squared", "evolve-hbar-c-squared-squared"])
def test_a_power_past_float64_writes_its_value_or_refuses_by_name(capsys, tmp_path, argv,
                                                                 constants):
    # Python's float ** raised OverflowError, a traceback with exit 1, where
    # numpy's power and a product give inf: c^2 = 1e400, c^3 = 1e360,
    # (k_B T)^2 ~ 1e354 and (hbar c^2)^2 ~ 1e333
    config = tmp_path / "constants.json"
    config.write_text(json.dumps({"constants": constants}))
    code, stdout, err = _run(capsys, *argv, "--config", str(config))
    if argv[0] == "tau":  # tau_dec is past float64's range, or T_H is
        assert (code, err) == (0, "")
        results = json.loads(stdout)["results"]
        expected = ({"hawking_temperature": "inf", "tau_dec": 0.0} if "--hawking" in argv
                    else {"tau_dec": "inf"})
        assert {key: results[key] for key in expected} == expected
    elif argv[0] == "visibility":  # dtau = t g dx / c^2 is 0, and so V = 1
        assert (code, err) == (0, "")
        assert _visibility_values(stdout) == [1.0] * 200
    elif not constants:  # lambda = g^2 N (k_B T)^2 / (hbar c^2)^2 is inf
        assert (code, stdout) == (3, "")
        assert err == ("gravidec: domain error: dt, t_final and lambda_coefficient must be "
                       "finite\n")
    else:  # lambda is 0, the run without dephasing
        assert (code, err) == (0, "")
        body = [line for line in stdout.splitlines() if not line.startswith("#")]
        assert "# lambda_coefficient = 0.0" in stdout.splitlines()
        _, reference, _ = _run(capsys, *_EVOLVE_2, "--lambda-coefficient", "0")
        assert body == [line for line in reference.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("argv", [["--N", "1e23", "--T", "-0"], ["--N", "-0", "--T", "300"]],
                         ids=["T", "N"])
def test_tau_at_a_signed_zero_is_the_no_decoherence_inf(capsys, argv):
    # T = -0 gave -inf, and N = -0 was refused as inf / inf
    code, stdout, err = _run(capsys, "tau", *argv, "--dx", "1e-3")
    assert (code, err) == (0, "")
    assert json.loads(stdout)["results"]["tau_dec"] == "inf"


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


def test_oracle_check_states_mc_false_alarm_rate(capsys, tmp_path):
    # the MC window is Bonferroni over the run's MC-valid cases: 70 cases of
    # a two-sided window of z standard errors fail somewhere with chance at
    # most 70 erfc(z / sqrt 2), the stated size
    out = tmp_path / "battery_out.json"
    code = main(["oracle-check", "--preset", "standard", "--samples", "2000",
                 "--output", str(out)])
    capsys.readouterr()
    assert code in (0, 1)
    mc = json.loads(out.read_text())["summary"]["mc"]
    assert mc["valid"] == 70
    assert mc["size"] == 1e-3
    assert 70 * math.erfc(mc["window_sigmas"] / math.sqrt(2.0)) == pytest.approx(1e-3, rel=1e-9)
    assert mc["window_sigmas"] == pytest.approx(4.3394, abs=1e-4)


def test_oracle_check_standard_preset_passes_at_mc_seed_3(capsys, tmp_path):
    # one case of this correct run lies 3.015 standard errors out: a 3-sigma
    # window fails it, and the window of stated size 1e-3 holds it
    out = tmp_path / "battery_out.json"
    code = main(["oracle-check", "--preset", "standard", "--mc-seed", "3", "--output", str(out)])
    capsys.readouterr()
    payload = json.loads(out.read_text())
    z = max(abs(case["errors"]["mc"]) / case["se_mc"]
            for case in payload["cases"] if case["v_mc"] is not None)
    assert code == 0 and payload["all_within_tolerance"] is True
    assert 3.0 < z < payload["summary"]["mc"]["window_sigmas"]


def test_oracle_check_has_no_mc_sigmas_window(capsys, tmp_path):
    # the MC window follows from the case count; a user window is refused
    # as an unknown flag or config key, with exit 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--mc-sigmas", "3"])
    assert exc.value.code == 2
    cfg = tmp_path / "battery.json"
    cfg.write_text(json.dumps({"mc_sigmas": 3.0}))
    code, stdout, err = _run(capsys, "oracle-check", "--config", str(cfg))
    assert code == 2 and stdout == "" and "mc_sigmas" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "gravidec" in capsys.readouterr().out


_REGIME_EDGE = ["regime", "--axis1", "delta-x", "--axis1-min", "1e-6", "--axis1-max", "1e300",
                "--n-axis1", "3", "--t-min", "100", "--t-max", "600", "--n-temps", "2",
                "--n-modes", "1e23", "--k0", "1e7"]


def _regime_rows(stdout: str) -> list[list[str]]:
    return [line.split(",") for line in stdout.splitlines() if not line.startswith("#")][1:]


def test_regime_with_no_emission_is_time_dilation_past_float64(capsys):
    # dx^2 overflowed and times I = 0 gave tau_em = nan, flagged emission,
    # behind raw overflow and invalid-value warnings
    code, stdout, err = _run(capsys, *_REGIME_EDGE, "--sigma0", "0")
    assert (code, err) == (0, "")
    rows = _regime_rows(stdout)
    assert len(rows) == 6
    assert all(row[3] == "inf" and row[4] == "time_dilation" for row in rows)


def test_regime_tau_em_is_its_float64_value_where_dx_squared_overflows(capsys):
    code, stdout, err = _run(capsys, *_REGIME_EDGE, "--sigma0", "3e-22")
    assert (code, err) == (0, "")
    sigma = gravidec.power_law_cross_section(3e-22, 1e7, 0.0)
    for dx, temp, _, tau_em, flag in _regime_rows(stdout):
        rate = gravidec.emission_rate_integral(
            gravidec.blackbody_emission_model(float(temp), sigma, CONSTS), CONSTS)
        exact = float(1 / (Fraction(float(dx)) ** 2 * Fraction(rate)))  # correctly rounded
        # a few eps, or one unit of the last place where tau_em is subnormal
        assert math.isclose(float(tau_em), exact, rel_tol=4 * np.finfo(float).eps,
                            abs_tol=np.finfo(float).smallest_subnormal)
    assert (tau_em, flag) == ("0.0", "emission")  # 1 / (1e600 I) is below the least subnormal


_SEPARATIONS = ["--axis1", "delta-x", "--axis1-min", "1e-6", "--axis1-max", "1e-2",
                "--n-modes", "1e23", "--k0", "1e7"]


@pytest.mark.parametrize("argv, refusal", [
    (["--axis1", "radius", "--axis1-min", "1e-6", "--axis1-max", "1e200", "--mode-density",
      "1e28", "--delta-x", "1e-3", "--t-min", "100", "--t-max", "600", "--k0", "1e7"],
     "radius 1e+97 m: r^3, or the mode count (4/3) pi r^3 mode_density, overflows float64"),
    ([*_SEPARATIONS, "--t-min", "100", "--t-max", "1e300"],
     "temperature 1e+300 K is outside the blackbody stand-in's float64 range: on its "
     "wavenumbers, 1e-3 to 40 times k_B T / (hbar c), hbar c k is subnormal or k^2 overflows"),
    ([*_SEPARATIONS, "--t-min", "1e-300", "--t-max", "600"],
     "temperature 1e-300 K is outside the blackbody stand-in's float64 range: on its "
     "wavenumbers, 1e-3 to 40 times k_B T / (hbar c), hbar c k is subnormal or k^2 overflows"),
    ([*_SEPARATIONS, "--t-min", "100", "--t-max", "1e100"],
     "emission model 'blackbody-standin': the integrand k^2 c g sigma or its integral "
     "overflows float64"),
    ([*_SEPARATIONS[:-2], "--k0", "1e-300", "--alpha", "2", "--t-min", "100", "--t-max", "600"],
     "emission model 'blackbody-standin': integrand negative or not finite"),
], ids=["radius-cubed", "t-max", "t-min", "integrand", "cross-section"])
def test_regime_refuses_a_grid_past_float64_by_name(capsys, tmp_path, argv, refusal):
    # each printed raw numpy warnings, and the temperatures then blamed the model
    out = tmp_path / "regime.csv"
    code, stdout, err = _run(capsys, "regime", *argv, "--n-axis1", "3", "--n-temps", "2",
                             "--sigma0", "3e-22", "--output", str(out))
    assert (code, stdout, err) == (3, "", f"gravidec: domain error: {refusal}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [*_SEPARATIONS, "--t-min", "100", "--t-max", "1e100"],
    [*_SEPARATIONS[:-2], "--k0", "1e-300", "--alpha", "2", "--t-min", "100", "--t-max", "600"],
], ids=["integrand", "cross-section"])
def test_regime_with_no_cross_section_has_no_emission_where_its_terms_overflow(capsys, argv):
    # inf * 0 was NaN, refused with exit 3, though no cross-section means tau_em = inf
    code, stdout, err = _run(capsys, "regime", *argv, "--n-axis1", "3", "--n-temps", "2",
                             "--sigma0", "0", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(stdout)
    assert payload["tau_em"] == [["inf", "inf"]] * 3
    assert payload["flags"] == [["time_dilation", "time_dilation"]] * 3


_ONE_CELL = ["regime", "--axis1", "delta-x", "--axis1-min", "1e-6", "--axis1-max", "1e-6",
             "--n-axis1", "1", "--t-min", "300", "--t-max", "300", "--n-temps", "1",
             "--n-modes", "1e23", "--k0", "1e7"]


@pytest.mark.parametrize("alpha", ["-4", "-5"])
def test_regime_refuses_an_emission_integral_that_diverges(capsys, tmp_path, alpha):
    # the stand-in's integrand goes as k^(3 + alpha) at small k; the k grid's
    # 1e-3 k_B T / (hbar c) edge made tau_em finite (1.21e-8 s at -4, 1.10e-12 s at -5)
    out = tmp_path / "regime.csv"
    code, stdout, err = _run(capsys, *_ONE_CELL, "--sigma0", "3e-22", "--alpha", alpha,
                             "--output", str(out))
    assert (code, stdout) == (3, "")
    assert err == (f"gravidec: domain error: emission integral diverges at alpha = {alpha} "
                   "(<= -4): the stand-in's integrand goes as k^(3 + alpha) at small k\n")
    assert not out.exists()


@pytest.mark.parametrize("sigma0, alpha", [("3e-22", "-3.9"), ("0", "-5")])
def test_regime_runs_where_the_emission_integral_converges_or_is_zero(capsys, sigma0, alpha):
    code, stdout, err = _run(capsys, *_ONE_CELL, "--sigma0", sigma0, "--alpha", alpha,
                             "--format", "json")
    assert (code, err) == (0, "")
    tau_em = json.loads(stdout)["tau_em"][0][0]
    if sigma0 == "0":
        assert tau_em == "inf"
    else:
        assert 0.0 < tau_em < math.inf


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-1.e-3", "-.1e-2", "-0.001"])
def test_negative_numbers_in_scientific_notation_are_flag_values(value):
    argv = ["evolve", "--x1", value, "--x2", "1", "--dt", "1", "--t-final", "1"]
    assert cli.build_parser().parse_args(cli._joined_values(argv)).x1 == -1e-3


def test_a_negative_value_gives_the_same_bytes_as_a_flag_or_a_config_key(capsys, tmp_path):
    # argparse read --x1 -1e-3 as an unknown option and exited 2
    argv = ["evolve", "--x2", "1e-3", "--N", "1e23", "--T", "300", "--dt", "1e-8",
            "--t-final", "1e-7"]
    config = tmp_path / "x1.json"
    config.write_text('{"x1": -1e-3}\n')
    outputs = []
    for given in (["--x1", "-1e-3"], ["--x1=-1e-3"], ["--config", str(config)]):
        out = tmp_path / f"run{len(outputs)}.csv"
        assert main(argv + given + ["--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert capsys.readouterr().err == ""
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_closed_stdout_ends_with_141_and_no_traceback():
    # the BrokenPipeError was re-raised: a traceback and exit 1, the code of
    # an oracle disagreement
    src = str(Path(gravidec.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "gravidec.cli", "visibility", "--law", "high-T", "--N", "1e23",
         "--T", "300", "--dx", "1e-3", "--t-final", "2e-6", "--n-times", "200000"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")
    assert first == b'# command = "visibility"\n'


def test_propertime_in_the_schwarzschild_potential(capsys):
    code, stdout, err = _run(capsys, "propertime", "--potential", "schwarzschild",
                             "--central-mass", "5.972e24", "--x1", "6.4e6", "--x2", "6400001",
                             "--t-final", "1")
    assert (code, err) == (0, "")
    results = json.loads(stdout)["results"]
    # dtau = t GM (1/x_a - 1/x_b) / c^2, with the difference taken exactly
    gm = CONSTS.G * 5.972e24
    expected = gm * (6400001 - 6.4e6) / (6.4e6 * 6400001) / CONSTS.c**2
    # phi(x_b) - phi(x_a) cancels: it keeps about eps R / d of relative accuracy
    tol = 8.0 * np.finfo(float).eps * 6.4e6 / 1.0
    assert results["potential"] == "schwarzschild"
    assert math.isclose(results["delta_tau"], expected, rel_tol=tol)


def test_a_closed_stdout_ends_the_run_in_process_too(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    # main only returns the code: the caller's stdout and its descriptor are left as they are
    assert main(["tau", "--N", "1e23", "--T", "300", "--dx", "1e-3"]) == 141
    assert capsys.readouterr().err == ""


def _stub_the_exit(monkeypatch) -> list:
    """Record console's atexit run and raise SystemExit(code) in place of os._exit.

    Unstubbed, os._exit would end the test process, and the atexit run would
    run the test runner's own callbacks.
    """
    events: list = []
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: events.append("atexit"))

    def _exit(code):
        events.append(("_exit", code))
        raise SystemExit(code)

    monkeypatch.setattr(cli.os, "_exit", _exit)
    return events


def test_the_command_exits_141_without_flushing_a_closed_stdout(monkeypatch):
    # flushing what a closed stdout still buffers would raise BrokenPipeError again
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    events = _stub_the_exit(monkeypatch)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "argv", ["gravidec", "tau", "--N", "1e23", "--T", "300",
                                      "--dx", "1e-3"])
    with pytest.raises(SystemExit) as exit_:
        cli.console()
    assert exit_.value.code == 141
    assert events == ["atexit", ("_exit", 141)]


def test_the_command_exits_with_the_code_main_returns(capsys, monkeypatch):
    events = _stub_the_exit(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["gravidec", "tau", "--N", "1e23", "--T", "300"])
    with pytest.raises(SystemExit) as exit_:
        cli.console()
    assert exit_.value.code == 2
    assert events == ["atexit", ("_exit", 2)]
    assert capsys.readouterr().err.startswith("gravidec: configuration error: ")


def test_the_command_runs_atexit_callbacks_and_writes_what_main_writes(capsys, monkeypatch,
                                                                       tmp_path):
    # the command ends with os._exit, past the interpreter's teardown
    argv = ["oracle-check", "--cases", "2", "--samples", "20000", "--output", "report.json"]
    (tmp_path / "command").mkdir()
    (tmp_path / "main").mkdir()
    script = ("import atexit, runpy, sys\n"
              "atexit.register(lambda: sys.stderr.write('atexit callback ran\\n'))\n"
              "runpy.run_module('gravidec.cli', run_name='__main__')\n")
    src = str(Path(gravidec.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path / "command",
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"atexit callback ran\n")

    monkeypatch.chdir(tmp_path / "main")
    code, stdout, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert proc.stdout == stdout.encode()
    report = (tmp_path / "command" / "report.json").read_bytes()
    assert report == (tmp_path / "main" / "report.json").read_bytes()
    assert "summary" in json.loads(report)  # written whole, not cut at a buffer's end


def _readme_commands() -> list[list[str]]:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
    try:
        from same_bytes import readme_examples
    finally:
        sys.path.pop(0)
    return readme_examples(Path(__file__).resolve().parents[1] / "README.md")


@pytest.mark.parametrize("argv", [
    *(pytest.param(argv, id=f"readme-{i}-{argv[0]}")
      for i, argv in enumerate(_readme_commands()) if argv[0] != "oracle-check"),
    pytest.param(["oracle-check", "--cases", "2"], id="oracle-check-cases-2"),
    pytest.param(["evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2", "--N", "1e23",
                  "--T", "300", "--dt", "1e-8", "--t-final", "1e-6", "--store-every", "10",
                  "--snapshots", "run.snap", "--output", "evolve.csv"], id="evolve-snapshots"),
])
def test_main_returns_with_every_file_closed_and_no_thread_left(capsys, monkeypatch, tmp_path,
                                                               argv):
    # what lets the command end with os._exit: nothing is left to flush, close or join
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd on this platform")
    monkeypatch.chdir(tmp_path)
    before, threads = set(os.listdir(fds)), threading.active_count()
    code, _, _ = _run(capsys, *argv)
    assert code == 0
    assert set(os.listdir(fds)) <= before
    assert threading.active_count() == threads


@pytest.mark.parametrize("argv", [pytest.param(argv, id=f"readme-{i}-{argv[0]}")
                                  for i, argv in enumerate(_readme_commands())])
def test_each_readme_command_writes_what_main_writes(capsys, monkeypatch, tmp_path, argv):
    # the command, in a fresh interpreter that loads only what it runs, and
    # main in this process, where earlier tests have loaded every module
    (tmp_path / "command").mkdir()
    (tmp_path / "main").mkdir()
    src = str(Path(gravidec.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "gravidec.cli", *argv], cwd=tmp_path / "command",
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    monkeypatch.chdir(tmp_path / "main")
    code, stdout, err = _run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout.encode(), err.encode())
    written = {path.name: path.read_bytes() for path in (tmp_path / "command").iterdir()}
    assert written == {path.name: path.read_bytes() for path in (tmp_path / "main").iterdir()}
