"""Every CLI route gives the same physics in other units of length and time.

Each run goes through ``cli.main`` twice: in SI, and in millimetres and
nanoseconds, with each flag, each frequency and each ``"constants"``
override divided by its unit. A quantity of dimension m^a s^b reads
q / (MM^a NS^b) there. Mass and temperature keep their units. The value of
c changes by a factor of 1e-6 (it is 299.79 mm/ns), and those of hbar, k_B,
G and g by 1e-3, 1e-12, 1e-9 and 1e-15, so a wrong power of any of them
makes the two unit systems disagree by a factor of at least 1000.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from gravidec import default_constants
from gravidec.cli import main

#: The units of length and time, in m and s.
MM, NS = 1e-3, 1e-9

#: Relative agreement required between the two unit systems. Rescaling
#: rounds each input once; the largest difference seen was 5.6e-16 (the
#: Markovian coherence at m = 64), and a wrong power misses by 1000 or more.
RTOL = 1e-12

#: (length, time) exponents of each dimensional flag and constant, and of
#: each dimensional output key; every other number is dimensionless or in kg
#: or K.
INPUTS = {
    "--dx": (1, 0), "--x1": (1, 0), "--x2": (1, 0), "--radius": (1, 0), "--axis1-min": (1, 0),
    "--axis1-max": (1, 0), "--sigma0": (2, 0), "--k0": (-1, 0), "--t-final": (0, 1),
    "--dt": (0, 1), "--lambda-coefficient": (-2, -2),
    "hbar": (2, -1), "c": (1, -1), "k_B": (2, -2), "G": (3, -2), "g_earth": (1, -2),
}
OUTPUTS = {
    "tau_dec": (0, 1), "tau_em": (0, 1), "delta_tau": (0, 1), "times": (0, 1),
    "schwarzschild_radius": (1, 0), "axis1": (1, 0), "g_used": (1, -2),
    "lambda_coefficient": (-2, -2),
}

#: Output keys judged as one column: the parts of the complex coherence.
COLUMNS = {"coherence_re": "coherence", "coherence_im": "coherence"}

#: Output keys left out of the comparison: the inputs, given in each system.
SKIPPED = ("constants", "parameters")

#: Mode frequencies in rad/s. At dx = 1 km and t = 1 s the largest phase
#: w dtau is about 5 rad, so the mode product is far from 0 and from 1.
FREQUENCIES = (1e13, 2e13, 5e13)

RUNS = {
    "tau": ["tau", "--N", "1e23", "--T", "300", "--dx", "1e-3"],
    "tau-hawking": ["tau", "--N", "1e23", "--dx", "1e-9", "--central-mass", "9.945e30",
                    "--radius", "1.5e4", "--hawking"],
    "visibility-high-T": ["visibility", "--law", "high-T", "--N", "1e23", "--T", "300",
                          "--dx", "1e-3", "--t-final", "2e-6", "--n-times", "9"],
    "visibility-exact-product": ["visibility", "--law", "exact-product", "--frequencies-csv",
                                 "FREQS", "--T", "300", "--dx", "1e3", "--t-final", "1",
                                 "--n-times", "9"],
    # lambda from N and T; the kinetic phase hbar t / (m dx^2) is about 1
    **{f"evolve-{form}": ["evolve", "--form", form, "--hamiltonian", "free", "--mass", "1e-25",
                          "--x1", "0", "--x2", "1e-6", "--n-points", "64", "--N", "1e23",
                          "--T", "3e5", "--dt", "2e-8", "--t-final", "1e-6"]
       for form in ("markovian", "full_memory")},
    # the tilt m g x, whose phase is about 1e-2 rad here; with N and T its
    # weight m + E/c^2 would make it 4e11 rad, which float64 holds to 4e-5 rad
    "evolve-tilt": ["evolve", "--hamiltonian", "free_plus_linear", "--mass", "1e-25",
                    "--x1", "0", "--x2", "1e-6", "--n-points", "64", "--lambda-coefficient",
                    "2e24", "--dt", "2e-8", "--t-final", "1e-6"],
    "propertime": ["propertime", "--x1", "0", "--x2", "1", "--t-final", "1", "--N", "1e5",
                   "--T", "300"],
    "propertime-schwarzschild": ["propertime", "--potential", "schwarzschild", "--central-mass",
                                 "5.972e24", "--x1", "6.4e6", "--x2", "1.28e7", "--t-final", "1"],
    "regime": ["regime", "--axis1", "delta-x", "--axis1-min", "1e-6", "--axis1-max", "1e-2",
               "--n-axis1", "3", "--t-min", "100", "--t-max", "600", "--n-temps", "2",
               "--n-modes", "1e23", "--sigma0", "3e-22", "--k0", "1e7"],
}


def _in_units(value: float, dimension: tuple[int, int], to_si: bool = False) -> float:
    """value, in SI, read in millimetres and nanoseconds (or back, with to_si)."""
    length, time = dimension
    scale = MM**length * NS**time
    return value * scale if to_si else value / scale


def _run(capsys, tmp_path, argv: list[str], rescaled: bool) -> dict:
    """The JSON output of one run, in SI or in millimetres and nanoseconds."""
    folder = tmp_path / ("mm-ns" if rescaled else "si")
    folder.mkdir()
    constants = {key: _in_units(value, INPUTS[key]) if rescaled else value
                 for key, value in asdict(default_constants()).items()}
    (folder / "config.json").write_text(json.dumps({"constants": constants}))
    # a frequency is rad/s: times the unit of time
    (folder / "modes.csv").write_text("".join(f"{w * NS if rescaled else w!r}\n"
                                              for w in FREQUENCIES))
    args = [str(folder / "modes.csv") if arg == "FREQS" else arg for arg in argv]
    if rescaled:
        args[1:] = [repr(_in_units(float(arg), INPUTS[flag])) if flag in INPUTS else arg
                    for flag, arg in zip(args, args[1:])]
    code = main([*args, "--config", str(folder / "config.json"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return {key: value for key, value in json.loads(out).items() if key not in SKIPPED}


def _numbers(value, key: str, found: list) -> object:
    """value with each number taken out into found as (key, number); the shape is left."""
    if isinstance(value, dict):
        return {k: _numbers(v, k, found) for k, v in value.items()}
    if isinstance(value, list):
        return [_numbers(v, key, found) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        found.append((key, float(value)))
        return "#"
    return value


@pytest.mark.parametrize("name", list(RUNS))
def test_every_route_gives_the_same_physics_in_millimetres_and_nanoseconds(
        capsys, tmp_path, name):
    si_numbers, mm_ns_numbers = [], []
    si = _numbers(_run(capsys, tmp_path, RUNS[name], False), "", si_numbers)
    mm_ns = _numbers(_run(capsys, tmp_path, RUNS[name], True), "", mm_ns_numbers)
    assert si == mm_ns  # the same keys, strings and flags
    columns = [COLUMNS.get(key, key) for key, _ in si_numbers]
    want = np.array([value for _, value in si_numbers])
    got = np.array([_in_units(value, OUTPUTS.get(key, (0, 0)), to_si=True)
                    for key, value in mm_ns_numbers])
    # a near-zero entry (say a coherence's imaginary part) is judged against
    # its column's largest magnitude
    for column in set(columns):
        cells = np.array([c == column for c in columns])
        scale = np.max(np.abs(want[cells]))
        assert math.isfinite(scale), column
        np.testing.assert_allclose(got[cells], want[cells], rtol=RTOL, atol=RTOL * scale,
                                   err_msg=f"{name}: {column}")
