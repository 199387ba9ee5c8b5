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
So is any parameter given, as a flag or a config key, that the run never
reads (such as ``--g`` beside ``tau --central-mass``, ``--mass`` with no
Hamiltonian, or ``--sigma0`` beside ``regime --emission-csv``): the message
names the ignored flags and then the flags the run did use, by their long
names, and nothing is written. Defaults and ``preset`` do not count.
For oracle-check, values resolve in the order defaults, preset, file, flags;
its number-state oracles truncate at ``OracleConfig``'s default tail mass.
A ``"constants"`` object inside the file overrides individual physical
constants, each checked as a real-valued parameter is, and a set whose c^2
or (hbar c^2)^2 underflows to 0 is refused. Unknown keys are rejected.

Outputs are byte-deterministic: JSON is written with sorted keys, CSV carries
a ``#``-commented metadata preamble, and nothing embeds timestamps. Each
subcommand returns its run record (metadata, JSON body, CSV header and rows,
and oracle-check's case lines and exit code); ``_run`` applies the read rule,
builds the metadata and passes the record to the one writer, which opens its
target once and writes a CSV row by row, so a long table's text is never
held in memory. A refused run writes nothing: its refusal comes before the
first write, ``evolve --snapshots`` included. Exit
codes: 0 success, 1 oracle disagreement, 2 configuration error (a path that
cannot be read or written included), 3 domain error (a malformed or
non-finite input table included), 4 numerical instability, 141 stdout closed
by its reader (say ``head``) before the output was written. A warning from
the library, such as the weak-field caveat inside 10 R_s, is one
``gravidec: warning: ...`` line on stderr; a run refused with exit code 2
prints its refusal alone.

The ``gravidec`` command and ``python -m gravidec.cli`` enter through
:func:`console`: once :func:`main` returns, it flushes stdout and stderr, runs
the ``atexit`` callbacks and ends the process with ``os._exit``, without the
interpreter's teardown. :func:`main` itself only returns the exit code, so
an in-process caller keeps its normal exit.

This module imports nothing that needs numpy: each subcommand's handler
imports the modules it calls, so ``tau`` runs without numpy. The package
registers those modules unloaded, and each loads on its first use (see
:mod:`gravidec`). This module is never deferred, and a handler first touches
every deferred module it uses on the calling thread, before oracle-check's
pool starts: the ``LazyLoader`` of Python 3.11 is not thread-safe on a first
load.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import math
import os
import re
import sys
import warnings
from collections import namedtuple
from dataclasses import asdict

from . import __version__
from .constants import (
    EVOLUTION_FORMS,
    HAMILTONIAN_KINDS,
    PhysicalConstants,
    default_constants,
    power,
)
from .errors import DomainError, NumericalInstabilityError
from .timescales import (
    SchwarzschildSpec,
    decoherence_time,
    decoherence_time_schwarzschild,
    hawking_temperature,
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
        ("samples", int, 200_000,
         "Monte Carlo precision per case, that of this many plain samples; also the "
         "most samples a case draws after its pilot"),
        ("seed", int, 20240811, "battery seed (draws the parameter sets)"),
        ("mc_seed", int, 0, "base seed of the sampling streams"),
        ("mc_sigmas", float, 5.0, "MC agreement window in standard errors"),
        ("atol", float, 1e-6, "deterministic-oracle agreement window"),
        ("verbose", bool, None, "print every case, not just the summary"),
    )),
}

#: A negative number, scientific notation included. argparse takes -1 and
#: -0.5 as values but, in some versions, reads -1e-3 as an unknown option.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")

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
        consts = PhysicalConstants(**{**base, **checked})
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    # The commands divide by c^2, hbar c^2 and (hbar c^2)^2, so none may
    # underflow to 0. A power that overflows is inf, left to the float64-edge
    # rule of the formula that meets it.
    if power(consts.c, 2) == 0.0:
        raise ConfigError(f"constant c = {consts.c:g}: c^2 underflows to 0 in float64")
    if power(consts.hbar * power(consts.c, 2), 2) == 0.0:
        raise ConfigError(f"constants hbar = {consts.hbar:g} and c = {consts.c:g}: "
                          "(hbar c^2)^2 underflows to 0 in float64")
    return consts


class _Params(dict):
    """Merged parameters that record, in ``read``, each name a run reads.

    ``given`` holds the names the user gave, as flags or config keys.
    """

    def __getitem__(self, name: str):
        self.read.add(name)
        return super().__getitem__(name)


def _resolve(args: argparse.Namespace, command: str) -> tuple[_Params, PhysicalConstants]:
    """Merge defaults, then the preset, then the config file, then the flags.

    The flags and config keys given, less ``preset``, which is consumed here,
    are recorded so that :func:`_metadata` can refuse any the run never reads.
    """
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
    params = _Params(merged)
    params.given, params.read = (set(section) | set(flags)) - {"preset"}, set()
    return params, _build_constants(constants_overrides)


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # a numpy array or scalar, without importing numpy
        return _jsonable(value.tolist())
    return value


def _long_flags(names) -> str:
    return ", ".join(sorted("--" + name.replace("_", "-") for name in names))


def _refuse_unread(params: _Params) -> None:
    """The read rule: a given parameter that the run never read is a ConfigError."""
    ignored = params.given - params.read
    if ignored:
        raise ConfigError(f"{_long_flags(ignored)} would be ignored alongside "
                          f"{_long_flags(params.given & params.read)}")


def _metadata(command: str, params: _Params, consts: PhysicalConstants, **extra) -> dict:
    """The output's metadata, once the read rule has passed."""
    _refuse_unread(params)
    meta = {
        "version": __version__,
        "command": command,
        "parameters": _jsonable({k: v for k, v in params.items() if v is not None}),
        "constants": asdict(consts),
    }
    meta.update(extra)
    return meta


#: What one run computed, for _run to write: the metadata beside version,
#: command, parameters and constants; the rest of the JSON object; the CSV
#: header and its rows, produced one at a time; oracle-check's case lines
#: (None for the other commands); and the exit code.
_Record = namedtuple("_Record", "meta body header rows lines code", defaults=((), (), None, 0))


def _write(fmt: str, output: str | None, meta: dict, record: _Record) -> None:
    """Write JSON (sorted keys) or CSV (``#`` metadata preamble, then one row at a time)."""
    with open(output, "w") if output else contextlib.nullcontext(sys.stdout) as fh:
        if fmt == "json":
            fh.write(json.dumps(_jsonable({**meta, **record.body}), sort_keys=True, indent=2)
                     + "\n")
            return
        fh.writelines(f"# {k} = {json.dumps(_jsonable(v), sort_keys=True)}\n"
                      for k, v in sorted(meta.items()))
        fh.write(",".join(record.header) + "\n")
        fh.writelines(",".join(map(_csv_cell, row)) + "\n" for row in record.rows)


def _csv_cell(value) -> str:
    if isinstance(value, float):  # numpy's float64, the type of every array cell, included
        return repr(float(value))
    return str(value)


def _results(results: dict, **meta) -> _Record:
    """One ``results`` object in JSON, or one CSV row of its values by sorted key."""
    keys = sorted(results)
    return _Record(meta, {"results": results}, keys, [[results[k] for k in keys]])


def _g(params: dict, consts: PhysicalConstants) -> float:
    """``--g``, or Earth's surface gravity when it is not given."""
    return consts.g_earth if params["g"] is None else params["g"]


def _internal_spec(params: dict) -> InternalStateSpec | None:
    """The internal state from ``frequencies_csv``, else from ``n_modes``, else None."""
    from .internal_state import InternalStateSpec

    if params["frequencies_csv"] is not None:
        return InternalStateSpec.from_frequency_csv(
            params["frequencies_csv"], params["temperature"]
        )
    if params["n_modes"] is not None:
        return InternalStateSpec.high_temperature_limit(
            params["n_modes"], params["temperature"]
        )
    return None


def _cmd_tau(params: dict, consts: PhysicalConstants) -> _Record:
    results: dict = {}
    if params["central_mass"] is not None or params["radius"] is not None:
        if params["central_mass"] is None or params["radius"] is None:
            raise ConfigError("central_mass and radius must be given together")
        sw = SchwarzschildSpec(params["central_mass"], params["radius"])
        if params["hawking"]:
            temperature = hawking_temperature(params["central_mass"], consts)
            results["hawking_temperature"] = temperature
        else:
            temperature = params["temperature"]
        if temperature is None:
            raise ConfigError("need --temperature or --hawking")
        results["schwarzschild_radius"] = sw.schwarzschild_radius(consts)
        results["temperature_used"] = temperature
        results["tau_dec"] = decoherence_time_schwarzschild(
            params["n_modes"], temperature, params["delta_x"], sw, consts
        )
        results["field"] = "schwarzschild"
    else:
        if params["hawking"]:
            raise ConfigError("--hawking needs --central-mass and --radius")
        if params["temperature"] is None:
            raise ConfigError("need --temperature")
        g = _g(params, consts)
        results["tau_dec"] = decoherence_time(
            params["n_modes"], params["temperature"], params["delta_x"], g, consts
        )
        results["temperature_used"] = params["temperature"]
        results["g_used"] = g
        results["field"] = "homogeneous"
    return _results(results, law="gaussian-timescale")


def _cmd_visibility(params: dict, consts: PhysicalConstants) -> _Record:
    import numpy as np

    from .proper_time import semiclassical_visibility
    from .visibility import visibility_curve

    if params["dtau"] is not None:
        # Single-point mode: visibility at one proper-time difference.
        spec = _internal_spec(params)
        if spec is None:
            raise ConfigError("--dtau needs --n-modes or --frequencies-csv")
        value = semiclassical_visibility(spec, params["dtau"], consts)
        return _Record({"law": "semiclassical"}, {"delta_tau": params["dtau"], "visibility": value},
                       ["delta_tau", "visibility", "law"],
                       [[params["dtau"], value, "semiclassical"]])

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
    g = _g(params, consts)
    curve = visibility_curve(
        law, times, n_modes, params["temperature"], params["delta_x"], g, consts,
        frequencies=frequencies,
    )
    return _Record({"law": law, "g_used": g}, {"times": curve.times, "values": curve.values},
                   ["t", "visibility", "law"],
                   ([t, v, law] for t, v in zip(curve.times, curve.values)))


def _cmd_evolve(params: dict, consts: PhysicalConstants) -> _Record:
    from .internal_state import InternalStateSpec
    from .master_equation import (
        CMHamiltonianSpec,
        DensityMatrixGrid,
        EvolutionConfig,
        evolve,
        extract_visibility,
        memory_kernel_coefficients,
        save_snapshots,
    )

    ham_kind, lam = params["hamiltonian"], params["lambda_coefficient"]
    # g and the internal state feed lambda (when not given) and the tilt's weight.
    g, kernel = 0.0, None
    if lam is None or ham_kind == "free_plus_linear":
        g = _g(params, consts)
        n_modes, temperature = params["n_modes"], params["temperature"]
        if (n_modes is None) != (temperature is None):
            raise ConfigError("--n-modes and --temperature must be given together")
        if n_modes is not None:
            kernel = memory_kernel_coefficients(
                InternalStateSpec.high_temperature_limit(n_modes, temperature), consts
            )
    if lam is None:
        if kernel is None:
            raise ConfigError("need --lambda-coefficient or both --n-modes and --temperature")
        lam = power(g, 2) * kernel.decoherence

    mass = params["mass"] if ham_kind != "none" else 0.0
    if mass is None:
        raise ConfigError(f"hamiltonian {ham_kind!r} needs --mass")
    ham = CMHamiltonianSpec(ham_kind, mass, g, kernel.mean_energy if kernel is not None else 0.0)
    # Snapshots are kept only to be written, so --store-every is read only with --snapshots.
    store_every = params["store_every"] if params["snapshots"] else 0
    if params["snapshots"] and store_every == 0:
        raise ConfigError("--snapshots needs --store-every >= 1")
    cfg = EvolutionConfig(
        dt=params["dt"],
        t_final=params["t_final"],
        lambda_coefficient=lam,
        form=params["form"],
        store_every=store_every,
    )
    rho0 = DensityMatrixGrid.two_point_superposition(
        params["x1"], params["x2"], n_points=params["n_points"]
    )
    result = evolve(rho0, ham, cfg, consts)
    curve = extract_visibility(result)
    if params["snapshots"]:
        _refuse_unread(params)  # the one write before the output: a refused run writes nothing
        save_snapshots(params["snapshots"], result.snapshot_times, result.x, result.snapshots)
    return _Record(
        {"law": "master-equation", "form": result.form, "lambda_coefficient": lam,
         "n_snapshots": int(result.snapshot_times.size)},
        {
            "times": result.times,
            "coherence_re": result.coherence.real,
            "coherence_im": result.coherence.imag,
            "visibility": curve.values,
        },
        ["t", "coherence_re", "coherence_im", "visibility"],
        zip(result.times, result.coherence.real, result.coherence.imag, curve.values),
    )


def _cmd_regime(params: dict, consts: PhysicalConstants) -> _Record:
    import numpy as np

    from .emission import (
        blackbody_emission_model,
        emission_model_from_csv,
        power_law_cross_section,
        regime_scan,
    )

    g = _g(params, consts)
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
    if kind == "radius":
        fixed = {"mode_density": params["mode_density"], "delta_x": params["delta_x"]}
    else:
        fixed = {"n_modes": params["n_modes"]}
    if None in fixed.values():
        raise ConfigError(f"{params['axis1']} axis needs {_long_flags(fixed)}")
    if params["n_axis1"] < 1 or params["n_temps"] < 1:
        raise ConfigError("n_axis1 and n_temps must be >= 1")
    edges = (params["axis1_min"], params["axis1_max"], params["t_min"], params["t_max"])
    if any(e <= 0 for e in edges):
        raise ConfigError("axis edges must be > 0 (grids are log-spaced)")
    axis1 = np.geomspace(params["axis1_min"], params["axis1_max"], params["n_axis1"])
    temps = np.geomspace(params["t_min"], params["t_max"], params["n_temps"])
    rmap = regime_scan(kind, axis1, temps, model_factory, g, consts, **fixed)
    return _Record(
        {"emission_model": label, "g_used": g, "axis1_kind": kind, "grid": "log-spaced"},
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


def _cmd_propertime(params: dict, consts: PhysicalConstants) -> _Record:
    from .proper_time import (
        HomogeneousPotential,
        SchwarzschildWeakPotential,
        TabulatedPotential,
        TrajectoryPair,
        proper_time_difference,
        semiclassical_visibility,
    )

    # A table takes the place of --n-modes, which is then not read, as in _internal_spec.
    has_state = params["frequencies_csv"] is not None or params["n_modes"] is not None
    if has_state != (params["temperature"] is not None):
        raise ConfigError("a visibility needs --temperature with --n-modes or --frequencies-csv")
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
        potential = HomogeneousPotential(_g(params, consts))
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
    if has_state:
        results["visibility"] = semiclassical_visibility(_internal_spec(params), dtau, consts)
        results["law"] = "semiclassical"
    return _results(results)


def _cmd_oracle_check(params: dict, consts: PhysicalConstants) -> _Record:
    from .oracles import OracleConfig, run_oracle_battery, tally_verdicts

    if params["cases"] < 1:
        raise ConfigError(f"--cases must be >= 1, got {params['cases']}")
    for name in ("seed", "mc_seed"):
        if params[name] < 0:
            raise ConfigError(f"{_long_flags([name])} must be >= 0, got {params[name]}")
    # exit 1 means the oracles disagree, so a window that no estimate can meet is refused
    if params["mc_sigmas"] <= 0:
        raise ConfigError(f"--mc-sigmas must be > 0, got {params['mc_sigmas']!r}")
    if params["atol"] < 0:
        raise ConfigError(f"--atol must be >= 0, got {params['atol']!r}")
    cfg = OracleConfig(n_samples=params["samples"], seed=params["mc_seed"])
    cases = run_oracle_battery(params["cases"], cfg, consts, seed=params["seed"])
    summary, per_case = tally_verdicts(cases, params["mc_sigmas"], params["atol"])
    verbose = params["verbose"]
    all_ok = all(case_ok for _, case_ok in per_case)
    lines = []
    reports = []
    for idx, (case, (verdicts, case_ok)) in enumerate(zip(cases, per_case)):
        marks = " ".join(
            f"{name}={'skip' if ok is None else ('ok' if ok else 'FAIL')}"
            for name, ok in verdicts.items()
        )
        lines.append(f"case {idx:3d}: {'PASS' if case_ok else 'FAIL'}  {marks}")
        if verbose:
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
    return _Record({}, body, lines=lines, code=0 if all_ok else 1)


_HANDLERS = {
    "tau": _cmd_tau,
    "visibility": _cmd_visibility,
    "evolve": _cmd_evolve,
    "regime": _cmd_regime,
    "propertime": _cmd_propertime,
    "oracle-check": _cmd_oracle_check,
}


def _joined_values(argv: list[str]) -> list[str]:
    """Each ``--flag -1e-3`` as ``--flag=-1e-3``, which every argparse reads as the flag's value."""
    joined: list[str] = []
    for token in argv:
        if joined and re.fullmatch(r"--[A-Za-z][\w-]*", joined[-1]) \
                and _NEGATIVE_NUMBER.fullmatch(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    # A library UserWarning reaches stderr as one "gravidec: warning:" line,
    # without Python's source path; other categories keep their filters. A run
    # refused with exit 2 wrote nothing, so its one line is the refusal.
    code = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            code = _run(args)
            return code
    finally:
        for w in (caught if code != 2 else ()):
            if issubclass(w.category, UserWarning):
                print(f"gravidec: warning: {w.message}", file=sys.stderr)
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def _run(args: argparse.Namespace) -> int:
    """Run the parsed subcommand, write what it returns, and map each error class to its exit code.

    A command whose default format is None (oracle-check) prints its lines
    and has no CSV; its JSON report goes to ``--output``, or to stdout in
    place of the lines under ``--format json``.
    """
    try:
        params, consts = _resolve(args, args.command)
        default = _COMMANDS[args.command][1]
        if default is None and args.format == "csv":
            raise ConfigError("oracle reports are JSON only; drop --format or use json")
        record = _HANDLERS[args.command](params, consts)
        meta = _metadata(args.command, params, consts, **record.meta)
        fmt = args.format or default or ("json" if args.output else None)
        if record.lines is not None and (args.output or fmt is None):
            sys.stdout.write("\n".join(record.lines) + "\n")
        if fmt is not None:
            _write(fmt, args.output, meta, record)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return record.code
    except BrokenPipeError:  # a reader such as head closed stdout: not a path error
        return 141
    except ConfigError as exc:
        print(f"gravidec: configuration error: {exc}", file=sys.stderr)
        return 2
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


def console() -> None:
    """Exit with what ``main`` returns: the ``gravidec`` command and ``python -m gravidec.cli``.

    Once ``main`` returns, the command is over: every file it opened is
    closed, because each write sits in a ``with``, and no thread but the
    caller's is alive, because the oracle pool is joined by its ``with``.
    So the process flushes stdout (not after 141: its reader is gone, and
    what stdout still buffers is dropped), flushes stderr, runs the
    ``atexit`` callbacks and ends with ``os._exit``, skipping the
    interpreter's teardown of its modules and its last garbage collection. A
    ``SystemExit`` from argparse and an escaping exception keep Python's
    normal exit, and so does every in-process caller of ``main``.
    """
    code = main()
    if code != 141:
        sys.stdout.flush()
    sys.stderr.flush()
    atexit._run_exitfuncs()
    os._exit(code)


if __name__ == "__main__":
    console()
