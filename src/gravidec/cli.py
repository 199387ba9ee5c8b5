"""Command-line front end.

Subcommands
-----------
tau           decoherence timescale in a uniform field or outside a mass
visibility    closed-form visibility curves on a time grid
evolve        position-basis master-equation evolution
regime        map of time-dilation vs emission dominance
propertime    proper-time difference along sampled arm trajectories
oracle-check  randomized battery comparing every oracle to the product law

Every subcommand accepts ``--config FILE`` pointing at a JSON object whose
keys are the subcommand's parameter names (long flag names with dashes
replaced by underscores, ``preset`` included); explicit flags override the
file. Each value is checked against the type and choices of its flag and
converted as the flag would be (an integer given for a real-valued parameter
becomes a float); a bad value, ``null`` included, is a configuration error.
For oracle-check, values resolve in the order defaults, preset, file, flags;
its number-state oracles truncate at ``OracleConfig``'s default tail mass.
A ``"constants"`` object inside the file overrides individual physical
constants, each checked as a real-valued parameter is. Unknown keys are
rejected.

Outputs are byte-deterministic: JSON is written with sorted keys, CSV carries
a ``#``-commented metadata preamble, and nothing embeds timestamps. Exit
codes: 0 success, 1 oracle disagreement, 2 configuration error (a path that
cannot be read or written included), 3 domain error (a malformed or
non-finite input table included), 4 numerical instability. A warning from
the library, such as the weak-field caveat inside 10 R_s, is one
``gravidec: warning: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .constants import PhysicalConstants, default_constants
from .emission import (
    blackbody_emission_model,
    emission_model_from_csv,
    power_law_cross_section,
    regime_scan,
)
from .errors import DomainError, NumericalInstabilityError
from .internal_state import InternalStateSpec
from .master_equation import (
    EVOLUTION_FORMS,
    HAMILTONIAN_KINDS,
    CMHamiltonianSpec,
    DensityMatrixGrid,
    EvolutionConfig,
    evolve,
    extract_visibility,
    memory_kernel_coefficients,
    save_snapshots,
)
from .oracles import OracleConfig, run_oracle_battery, tally_verdicts
from .proper_time import (
    HomogeneousPotential,
    SchwarzschildWeakPotential,
    TabulatedPotential,
    TrajectoryPair,
    proper_time_difference,
    semiclassical_visibility,
)
from .visibility import (
    SchwarzschildSpec,
    decoherence_time,
    decoherence_time_schwarzschild,
    hawking_temperature,
    visibility_curve,
)


class ConfigError(Exception):
    """Bad command line or config file; maps to exit code 2."""


_REQUIRED = object()

#: --preset bundles for oracle-check; explicit flags still override.
_PRESETS: dict[str, dict[str, object]] = {
    "standard": {"cases": 50, "samples": 1_000_000, "mc_sigmas": 3.0, "atol": 1e-6},
}

#: Short flags that name the same parameter wherever it appears.
_ALIASES = {"n_modes": "--N", "temperature": "--T", "delta_x": "--dx"}

#: The one parameter table. Per subcommand: its help summary, its default
#: ``--format`` (None: oracle-check's case lines), and one row per parameter,
#: (name, type or choices, default or _REQUIRED, help). The long flag is the
#: name with dashes; ``bool`` rows are on/off switches. Flags, defaults, the
#: required set, the allowed config keys and the config checks all come from it.
_COMMANDS: dict[str, tuple[str, str | None, tuple]] = {
    "tau": ("decoherence timescale", "json", (
        ("n_modes", float, _REQUIRED, "internal mode count N"),
        ("temperature", float, None, None),
        ("delta_x", float, _REQUIRED, None),
        ("g", float, None, "uniform acceleration (default: Earth)"),
        ("central_mass", float, None, "use the field outside this mass"),
        ("radius", float, None, "distance from the central mass"),
        ("hawking", bool, None,
         "take the temperature to be the central mass's Hawking temperature"),
    )),
    "visibility": ("closed-form visibility curve", "csv", (
        ("law", ("exact-product", "high-T", "gaussian"), "high-T", None),
        ("n_modes", float, None, None),
        ("temperature", float, _REQUIRED, None),
        ("delta_x", float, None, None),
        ("g", float, None, None),
        ("t_final", float, None, None),
        ("n_times", int, 200, None),
        ("dtau", float, None,
         "single proper-time difference (s); emits one row instead of a curve"),
        ("frequencies_csv", str, None, "one mode frequency (rad/s) per line"),
    )),
    "evolve": ("master-equation evolution", "csv", (
        ("form", EVOLUTION_FORMS, "markovian", None),
        ("x1", float, _REQUIRED, None),
        ("x2", float, _REQUIRED, None),
        ("n_points", int, 64, None),
        ("hamiltonian", HAMILTONIAN_KINDS, "none", None),
        ("mass", float, None, None),
        ("g", float, None, None),
        ("n_modes", float, None, None),
        ("temperature", float, None, None),
        ("lambda_coefficient", float, None,
         "dephasing strength; overrides the (n-modes, temperature) route"),
        ("dt", float, _REQUIRED, None),
        ("t_final", float, _REQUIRED, None),
        ("store_every", int, 0, None),
        ("snapshots", str, None, "write stored density matrices to this binary file"),
    )),
    "regime": ("dominance map over (radius or separation) x temperature", "csv", (
        ("axis1", ("radius", "delta-x"), "radius",
         "what the first axis scans (second axis is temperature)"),
        ("axis1_min", float, _REQUIRED, None),
        ("axis1_max", float, _REQUIRED, None),
        ("n_axis1", int, 16, None),
        ("t_min", float, _REQUIRED, "temperature axis lower edge (K)"),
        ("t_max", float, _REQUIRED, None),
        ("n_temps", int, 16, None),
        ("mode_density", float, None, "internal modes per m^3 (radius axis only)"),
        ("delta_x", float, None, "fixed separation (radius axis only)"),
        ("n_modes", float, None, "fixed mode count (delta-x axis only)"),
        ("g", float, None, None),
        ("emission_csv", str, None, "tabulated k,g,sigma emission model"),
        ("sigma0", float, None, "power-law cross-section scale (m^2)"),
        ("k0", float, None, "power-law reference wavenumber (1/m)"),
        ("alpha", float, 0.0, "power-law exponent"),
    )),
    "propertime": ("proper-time difference between arms", "json", (
        ("trajectories", str, None, "CSV of t,x_a,v_a,x_b,v_b"),
        ("x1", float, None, "static arm position (alternative to CSV)"),
        ("x2", float, None, None),
        ("t_final", float, None, None),
        ("n_samples", int, 201, None),
        ("potential", ("homogeneous", "schwarzschild", "tabulated"), "homogeneous", None),
        ("g", float, None, None),
        ("central_mass", float, None, None),
        ("potential_csv", str, None, "tabulated x,phi potential"),
        ("n_modes", float, None, "attach an internal state for visibility"),
        ("temperature", float, None, None),
        ("frequencies_csv", str, None, None),
    )),
    "oracle-check": ("cross-validate the oracles", None, (
        ("preset", tuple(sorted(_PRESETS)), None,
         "named bundle of battery settings (standard: 50 cases, 1e6 samples)"),
        ("cases", int, 20, "valid parameter sets required per oracle"),
        ("samples", int, 200_000, "Monte Carlo samples per case"),
        ("seed", int, 20240811, "battery seed (draws the parameter sets)"),
        ("mc_seed", int, 0, "base seed of the sampling streams"),
        ("mc_sigmas", float, 5.0, "MC agreement window in standard errors"),
        ("atol", float, 1e-6, "deterministic-oracle agreement window"),
        ("verbose", bool, None, "print every case, not just the summary"),
    )),
}

#: JSON types a config value may have, per row type, and how to name them.
_JSON_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    bool: (bool, "true or false"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravidec",
        description="decoherence of composite particles from gravitational time dilation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, rows) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, kind, _, text in rows:
            flags = ["--" + name.replace("_", "-")]
            if name in _ALIASES:
                flags.append(_ALIASES[name])
            if kind is bool:
                p.add_argument(*flags, action="store_true", default=None, help=text)
            elif isinstance(kind, tuple):
                p.add_argument(*flags, choices=kind, help=text)
            else:
                p.add_argument(*flags, type=kind, help=text)
        p.add_argument("--config", help="JSON file of parameter defaults")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
    return parser


def _load_config(path: str) -> tuple[dict, dict]:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an integer past int_max_str_digits
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    constants = raw.pop("constants", {})
    if not isinstance(constants, dict):
        raise ConfigError('"constants" must be a JSON object')
    return raw, constants


def _check_config_value(key: str, kind, value):
    """Convert one config value as its flag would, or raise ConfigError."""
    if isinstance(kind, tuple):
        ok, expected = value in kind, "one of " + ", ".join(kind)
    else:
        types, expected = _JSON_TYPES[kind]
        ok = isinstance(value, types) and (kind is bool or not isinstance(value, bool))
    if not ok:
        raise ConfigError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
    if kind is not float:
        return value
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(
            f"config key {key!r} must be {expected} within float range, "
            f"got an integer of {len(str(abs(value)))} digits"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
    return value


def _build_constants(overrides: dict) -> PhysicalConstants:
    base = asdict(default_constants())
    unknown = sorted(set(overrides) - set(base))
    if unknown:
        raise ConfigError(f"unknown constants: {', '.join(unknown)}")
    checked = {k: _check_config_value(f"constants.{k}", float, v) for k, v in overrides.items()}
    try:
        return PhysicalConstants(**{**base, **checked})
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve(args: argparse.Namespace, command: str) -> tuple[dict, PhysicalConstants]:
    """Merge defaults, then the preset, then the config file, then the flags."""
    rows = _COMMANDS[command][2]
    kinds = {name: kind for name, kind, _, _ in rows}
    section, constants_overrides = _load_config(args.config) if args.config else ({}, {})
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config keys for {command!r}: {', '.join(unknown)}")
    section = {k: _check_config_value(k, kinds[k], v) for k, v in section.items()}
    flags = {k: v for k in kinds if (v := getattr(args, k)) is not None}
    for k, v in flags.items():
        if kinds[k] is float and not math.isfinite(v):
            flag = _ALIASES.get(k, "--" + k.replace("_", "-"))
            raise ConfigError(f"{flag} must be a finite number, got {v!r}")
    merged = {name: default for name, _, default, _ in rows}
    preset = flags.get("preset", section.get("preset"))
    if preset:
        merged.update(_PRESETS[preset])
    merged.update(section)
    merged.update(flags)
    missing = sorted(k for k, v in merged.items() if v is _REQUIRED)
    if missing:
        raise ConfigError(f"missing required parameters: {', '.join(missing)}")
    return merged, _build_constants(constants_overrides)


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _metadata(command: str, params: dict, consts: PhysicalConstants, **extra) -> dict:
    meta = {
        "version": __version__,
        "command": command,
        "parameters": _jsonable({k: v for k, v in params.items() if v is not None}),
        "constants": asdict(consts),
    }
    meta.update(extra)
    return meta


def _emit(fmt: str, output: str | None, meta: dict, json_body: dict,
          csv_header: list[str] | None = None, csv_rows=()) -> None:
    """Write JSON (sorted keys) or CSV (``#`` metadata preamble) to a file or stdout."""
    if fmt == "json":
        text = json.dumps(_jsonable({**meta, **json_body}), sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"# {k} = {json.dumps(_jsonable(v), sort_keys=True)}"
                 for k, v in sorted(meta.items())]
        lines.append(",".join(csv_header))
        lines.extend(",".join(_csv_cell(v) for v in row) for row in csv_rows)
        text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _internal_spec(params: dict) -> InternalStateSpec | None:
    """The internal state from ``frequencies_csv``, else from ``n_modes``, else None."""
    if params["frequencies_csv"] is not None:
        return InternalStateSpec.from_frequency_csv(
            params["frequencies_csv"], params["temperature"]
        )
    if params["n_modes"] is not None:
        return InternalStateSpec.high_temperature_limit(
            params["n_modes"], params["temperature"]
        )
    return None


def _cmd_tau(params: dict, consts: PhysicalConstants, output, fmt) -> int:
    results: dict = {}
    if params["central_mass"] is not None or params["radius"] is not None:
        if params["central_mass"] is None or params["radius"] is None:
            raise ConfigError("central_mass and radius must be given together")
        sw = SchwarzschildSpec(params["central_mass"], params["radius"])
        temperature = params["temperature"]
        if params["hawking"]:
            temperature = hawking_temperature(params["central_mass"], consts)
            results["hawking_temperature"] = temperature
        if temperature is None:
            raise ConfigError("need --temperature or --hawking")
        results["schwarzschild_radius"] = sw.schwarzschild_radius(consts)
        results["temperature_used"] = temperature
        results["tau_dec"] = decoherence_time_schwarzschild(
            params["n_modes"], temperature, params["delta_x"], sw, consts
        )
        results["field"] = "schwarzschild"
    else:
        if params["temperature"] is None:
            raise ConfigError("need --temperature")
        g = params["g"] if params["g"] is not None else consts.g_earth
        results["tau_dec"] = decoherence_time(
            params["n_modes"], params["temperature"], params["delta_x"], g, consts
        )
        results["temperature_used"] = params["temperature"]
        results["g_used"] = g
        results["field"] = "homogeneous"
    meta = _metadata("tau", params, consts, law="gaussian-timescale")
    keys = sorted(results)
    _emit(fmt, output, meta, {"results": results}, keys, [[results[k] for k in keys]])
    return 0


def _cmd_visibility(params: dict, consts: PhysicalConstants, output, fmt) -> int:
    g = params["g"] if params["g"] is not None else consts.g_earth

    if params["dtau"] is not None:
        # Single-point mode: visibility at one proper-time difference.
        spec = _internal_spec(params)
        if spec is None:
            raise ConfigError("--dtau needs --n-modes or --frequencies-csv")
        value = semiclassical_visibility(spec, params["dtau"], consts)
        _emit(fmt, output, _metadata("visibility", params, consts, law="semiclassical"),
              {"delta_tau": params["dtau"], "visibility": value},
              ["delta_tau", "visibility", "law"], [[params["dtau"], value, "semiclassical"]])
        return 0

    law = params["law"]
    frequencies = None
    if law == "exact-product":
        if params["frequencies_csv"] is None:
            raise ConfigError("exact-product law needs --frequencies-csv")
        frequencies = _internal_spec(params).frequencies
        n_modes = float(len(frequencies))
    else:
        if params["n_modes"] is None:
            raise ConfigError(f"law {law!r} needs --n-modes")
        n_modes = params["n_modes"]
    if params["t_final"] is None or params["delta_x"] is None:
        raise ConfigError("curve mode needs --t-final and --delta-x (or use --dtau)")
    if params["n_times"] < 2:
        raise ConfigError("n_times must be >= 2")
    times = np.linspace(0.0, params["t_final"], params["n_times"])
    curve = visibility_curve(
        law, times, n_modes, params["temperature"], params["delta_x"], g, consts,
        frequencies=frequencies,
    )
    _emit(fmt, output, _metadata("visibility", params, consts, law=law, g_used=g),
          {"times": curve.times, "values": curve.values},
          ["t", "visibility", "law"], ([t, v, law] for t, v in zip(curve.times, curve.values)))
    return 0


def _cmd_evolve(params: dict, consts: PhysicalConstants, output, fmt) -> int:
    g = params["g"] if params["g"] is not None else consts.g_earth
    kernel = None
    if params["n_modes"] is not None and params["temperature"] is not None:
        kernel = memory_kernel_coefficients(
            InternalStateSpec.high_temperature_limit(params["n_modes"], params["temperature"]),
            consts,
        )
    if params["lambda_coefficient"] is not None:
        lam = params["lambda_coefficient"]
    elif kernel is not None:
        lam = g**2 * kernel.decoherence
    else:
        raise ConfigError("need --lambda-coefficient or both --n-modes and --temperature")

    internal_energy = kernel.mean_energy if kernel is not None else 0.0
    ham_kind = params["hamiltonian"]
    if ham_kind != "none" and params["mass"] is None:
        raise ConfigError(f"hamiltonian {ham_kind!r} needs --mass")
    ham = CMHamiltonianSpec(
        kind=ham_kind,
        mass=params["mass"] or 0.0,
        g=g,
        internal_mean_energy=internal_energy,
    )
    if params["snapshots"] and params["store_every"] == 0:
        raise ConfigError("--snapshots needs --store-every >= 1")
    cfg = EvolutionConfig(
        dt=params["dt"],
        t_final=params["t_final"],
        lambda_coefficient=lam,
        form=params["form"],
        store_every=params["store_every"],
    )
    rho0 = DensityMatrixGrid.two_point_superposition(
        params["x1"], params["x2"], n_points=params["n_points"]
    )
    result = evolve(rho0, ham, cfg, consts)
    curve = extract_visibility(result)
    if params["snapshots"]:
        save_snapshots(params["snapshots"], result.snapshot_times, result.x, result.snapshots)
    meta = _metadata(
        "evolve", params, consts,
        law="master-equation", form=result.form, lambda_coefficient=lam,
        n_snapshots=int(result.snapshot_times.size),
    )
    _emit(
        fmt, output, meta,
        {
            "times": result.times,
            "coherence_re": result.coherence.real,
            "coherence_im": result.coherence.imag,
            "visibility": curve.values,
        },
        ["t", "coherence_re", "coherence_im", "visibility"],
        zip(result.times, result.coherence.real, result.coherence.imag, curve.values),
    )
    return 0


def _cmd_regime(params: dict, consts: PhysicalConstants, output, fmt) -> int:
    g = params["g"] if params["g"] is not None else consts.g_earth
    if params["emission_csv"]:
        fixed_model = emission_model_from_csv(params["emission_csv"])
        label = fixed_model.label

        def model_factory(temp: float):
            return fixed_model
    else:
        if params["sigma0"] is None or params["k0"] is None:
            raise ConfigError("need --emission-csv or --sigma0 with --k0")
        sigma = power_law_cross_section(params["sigma0"], params["k0"], params["alpha"])
        label = "blackbody-standin"

        def model_factory(temp: float):
            return blackbody_emission_model(temp, sigma, consts)

    kind = str(params["axis1"]).replace("-", "_")
    if kind == "radius" and (params["mode_density"] is None or params["delta_x"] is None):
        raise ConfigError("radius axis needs --mode-density and --delta-x")
    if kind == "delta_x" and params["n_modes"] is None:
        raise ConfigError("delta-x axis needs --n-modes")
    if params["n_axis1"] < 1 or params["n_temps"] < 1:
        raise ConfigError("n_axis1 and n_temps must be >= 1")
    edges = (params["axis1_min"], params["axis1_max"], params["t_min"], params["t_max"])
    if any(e <= 0 for e in edges):
        raise ConfigError("axis edges must be > 0 (grids are log-spaced)")
    axis1 = np.geomspace(params["axis1_min"], params["axis1_max"], params["n_axis1"])
    temps = np.geomspace(params["t_min"], params["t_max"], params["n_temps"])
    rmap = regime_scan(
        kind, axis1, temps, model_factory, g, consts,
        mode_density=params["mode_density"],
        delta_x=params["delta_x"],
        n_modes=params["n_modes"],
    )
    meta = _metadata("regime", params, consts, emission_model=label, g_used=g,
                     axis1_kind=kind, grid="log-spaced")
    _emit(
        fmt, output, meta,
        {
            "axis1": rmap.axis1,
            "temperatures": rmap.temperatures,
            "tau_dec": rmap.tau_dec,
            "tau_em": rmap.tau_em,
            "flags": [list(row) for row in rmap.flags],
        },
        ["axis1", "axis2", "tau_dec", "tau_em", "flag"],
        ([float(a), float(temp), float(rmap.tau_dec[i, j]), float(rmap.tau_em[i, j]),
          rmap.flags[i, j]]
         for i, a in enumerate(rmap.axis1)
         for j, temp in enumerate(rmap.temperatures)),
    )
    return 0


def _cmd_propertime(params: dict, consts: PhysicalConstants, output, fmt) -> int:
    if params["trajectories"]:
        pair = TrajectoryPair.from_csv(params["trajectories"])
    else:
        needed = ("x1", "x2", "t_final")
        if any(params[k] is None for k in needed):
            raise ConfigError("need --trajectories or all of --x1, --x2, --t-final")
        pair = TrajectoryPair.static(
            params["x1"], params["x2"], params["t_final"], params["n_samples"]
        )
    kind = params["potential"]
    if kind == "homogeneous":
        g = params["g"] if params["g"] is not None else consts.g_earth
        potential = HomogeneousPotential(g)
    elif kind == "schwarzschild":
        if params["central_mass"] is None:
            raise ConfigError("schwarzschild potential needs --central-mass")
        potential = SchwarzschildWeakPotential(params["central_mass"])
    else:
        if params["potential_csv"] is None:
            raise ConfigError("tabulated potential needs --potential-csv")
        potential = TabulatedPotential.from_csv(params["potential_csv"])

    dtau = proper_time_difference(pair, potential, consts)
    results: dict = {"delta_tau": dtau, "potential": kind}
    spec = _internal_spec(params) if params["temperature"] is not None else None
    if spec is not None:
        results["visibility"] = semiclassical_visibility(spec, dtau, consts)
        results["law"] = "semiclassical"
    keys = sorted(results)
    _emit(fmt, output, _metadata("propertime", params, consts), {"results": results},
          keys, [[results[k] for k in keys]])
    return 0


def _cmd_oracle_check(params: dict, consts: PhysicalConstants, output, fmt) -> int:
    if fmt == "csv":
        raise ConfigError("oracle reports are JSON only; drop --format or use json")
    if params["cases"] < 1:
        raise ConfigError(f"--cases must be >= 1, got {params['cases']}")
    cfg = OracleConfig(n_samples=params["samples"], seed=params["mc_seed"])
    cases = run_oracle_battery(params["cases"], cfg, consts, seed=params["seed"])
    summary, per_case = tally_verdicts(cases, params["mc_sigmas"], params["atol"])
    all_ok = all(case_ok for _, case_ok in per_case)
    lines = []
    reports = []
    for idx, (case, (verdicts, case_ok)) in enumerate(zip(cases, per_case)):
        marks = " ".join(
            f"{name}={'skip' if ok is None else ('ok' if ok else 'FAIL')}"
            for name, ok in verdicts.items()
        )
        lines.append(f"case {idx:3d}: {'PASS' if case_ok else 'FAIL'}  {marks}")
        if params["verbose"]:
            lines.append(
                f"          modes={len(case.frequencies)} T={case.temperature:9.3f} K "
                f"dtau={case.delta_tau:.6e} V_exact={case.v_exact:.9f} "
                + " ".join(f"{name}={'-' if v is None else format(v, '.9f')}"
                           for name, v in case.estimates().items())
            )
        reports.append({**asdict(case), "index": idx, "errors": case.errors(),
                        "verdicts": verdicts, "pass": case_ok})
    for name, row in summary.items():
        lines.append(
            f"{name:6s}: {row['agree']}/{row['valid']} within tolerance, "
            f"max |error| = {row['max_abs_err']:.3e}"
        )
    lines.append("oracle-check: " + ("OK" if all_ok else "DISAGREEMENT"))
    body = {
        "summary": summary,
        "cases": reports,
        "all_within_tolerance": all_ok,
        "n_cases": len(cases),
    }
    # ``--format json`` without ``--output`` puts the report on stdout in place of the lines.
    if fmt != "json" or output:
        sys.stdout.write("\n".join(lines) + "\n")
    if fmt == "json" or output:
        _emit("json", output, _metadata("oracle-check", params, consts), body)
    return 0 if all_ok else 1


_HANDLERS = {
    "tau": _cmd_tau,
    "visibility": _cmd_visibility,
    "evolve": _cmd_evolve,
    "regime": _cmd_regime,
    "propertime": _cmd_propertime,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A library UserWarning reaches stderr as one "gravidec: warning:" line,
    # without Python's source path; other categories keep their filters.
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            return _run(args)
    finally:
        for w in caught:
            if issubclass(w.category, UserWarning):
                print(f"gravidec: warning: {w.message}", file=sys.stderr)
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def _run(args: argparse.Namespace) -> int:
    """Run the parsed subcommand and map each error class to its exit code."""
    try:
        params, consts = _resolve(args, args.command)
        fmt = args.format or _COMMANDS[args.command][1]
        return _HANDLERS[args.command](params, consts, args.output, fmt)
    except ConfigError as exc:
        print(f"gravidec: configuration error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout closed by a reader such as head: not a path error
        raise
    except OSError as exc:  # an input that cannot be read or an --output that cannot be written
        # str(exc) names the path: numpy's FileNotFoundError carries no .filename
        print(f"gravidec: configuration error: cannot access: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"gravidec: domain error: {exc}", file=sys.stderr)
        return 3
    except NumericalInstabilityError as exc:
        print(f"gravidec: numerical instability: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
