"""Physics references the benchmark judges outputs against.

Every reference here is computed with numpy from the physical law itself,
not by calling the gravidec function under test, and every comparison has a
stated tolerance instead of bit-identity, so a faster implementation that
stays within the tolerance still passes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

#: Rounding headroom for closed forms evaluated in float64 by two routes.
REL_CLOSED_FORM = 1e-12

#: Monte Carlo gate: at most K(n) excursions beyond MC_SIGMAS standard errors
#: among n valid cases, with K(n) the smallest count whose binomial tail
#: probability (per-case rate 2*Phi(-3) = 0.0027) is at most MC_FALSE_ALARM.
MC_SIGMAS = 3.0
MC_FALSE_ALARM = 1e-3


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref != 0 else abs(value)


def nbar(freqs: np.ndarray, temperature: float, consts: dict) -> np.ndarray:
    return 1.0 / np.expm1(consts["hbar"] * np.asarray(freqs) / (consts["k_B"] * temperature))


def product_law(freqs, temperature: float, dtau, consts: dict) -> np.ndarray:
    """|prod_i [1 + nbar_i (1 - exp(-i w_i dtau))]^-1| for each dtau."""
    freqs = np.asarray(freqs, dtype=float)
    n = nbar(freqs, temperature, consts)
    dtau = np.atleast_1d(np.asarray(dtau, dtype=float))
    out = np.empty(dtau.size)
    for k, d in enumerate(dtau):
        s = np.sin(0.5 * freqs * d)
        out[k] = math.exp(-0.5 * float(np.sum(np.log1p(4.0 * n * (n + 1.0) * s * s))))
    return out


def theta(temperature, g, dx, t, consts: dict):
    scale = consts["hbar"] * consts["c"] ** 2
    return consts["k_B"] * temperature * g * dx * np.asarray(t) / scale


def tau_dec(n_modes, temperature, dx, g, consts: dict) -> float:
    return (math.sqrt(2.0 / n_modes) * consts["hbar"] * consts["c"] ** 2
            / (consts["k_B"] * temperature * abs(g) * abs(dx)))


def dephasing_lambda(n_modes, temperature, g, consts: dict) -> float:
    return n_modes * (consts["k_B"] * temperature * g / (consts["hbar"] * consts["c"] ** 2)) ** 2


def mc_allowed_excursions(n_valid: int) -> int:
    """Smallest K with P(Binomial(n_valid, 2 Phi(-3)) > K) <= MC_FALSE_ALARM."""
    p = math.erfc(MC_SIGMAS / math.sqrt(2.0))
    cdf = 0.0
    for k in range(n_valid + 1):
        cdf += math.comb(n_valid, k) * p**k * (1.0 - p) ** (n_valid - k)
        if 1.0 - cdf <= MC_FALSE_ALARM:
            return k
    return n_valid


def oracle_report(payload: dict) -> list[str]:
    """Check an ``oracle-check`` JSON report case by case."""
    bad = []
    consts = payload["constants"]
    atol = payload["parameters"]["atol"]
    valid_mc = excursions = 0
    for case in payload["cases"]:
        idx = case["index"]
        ref = product_law(case["frequencies"], case["temperature"], case["delta_tau"], consts)[0]
        if rel_err(case["v_exact"], ref) > REL_CLOSED_FORM:
            bad.append(f"case {idx}: v_exact {case['v_exact']!r} vs product law {ref!r}")
        if case["v_fock"] is not None and (
            abs(case["v_fock"] - ref) > 10.0 * case["fock_bound"] + 1e-12
        ):
            bad.append(f"case {idx}: fock {case['v_fock']!r} outside its tail bound of {ref!r}")
        if case["v_tensor"] is not None and abs(case["v_tensor"] - ref) > atol:
            bad.append(f"case {idx}: tensor {case['v_tensor']!r} outside {atol} of {ref!r}")
        if case["v_mc"] is not None:
            valid_mc += 1
            excursions += abs(case["v_mc"] - ref) > MC_SIGMAS * case["se_mc"]
    allowed = mc_allowed_excursions(valid_mc)
    if excursions > allowed:
        bad.append(f"MC: {excursions} of {valid_mc} cases beyond {MC_SIGMAS} sigma "
                   f"(at most {allowed} at false-alarm rate {MC_FALSE_ALARM})")
    if valid_mc < payload["parameters"]["cases"]:
        bad.append(f"only {valid_mc} MC-valid cases")
    return bad


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """Split a gravidec CSV into its metadata preamble, header and rows."""
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = json.loads(value)
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, rows[0], rows[1:]
