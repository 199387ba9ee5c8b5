"""Brute-force cross-checks for the closed-form visibility laws.

Three independent routes to the same number:

* :func:`mc_visibility` samples |alpha|^2 from each thermal mode's
  Glauber-Sudarshan P distribution (exponential with mean nbar) and averages
  the dephasing weight exp(|alpha|^2 (e^{-i d} - 1)).
* :func:`fock_visibility` sums the geometric number-state populations of each
  mode up to the smallest cutoff whose tail mass is below ``tail_epsilon``
  and reports the truncation bound; a mode that needs more than
  ``FOCK_MAX_CUTOFF`` quanta is refused. The joint-spectrum oracle below
  truncates by the same rule under its own cap, ``TENSOR_MAX_CUTOFF``.
* :func:`two_point_unitary_oracle` enumerates the joint Fock spectrum of all
  modes, applies the diagonal two-arm evolution, and reads the off-diagonal
  element of the reduced centre-of-mass state directly. Unlike the other two
  it never factorizes over modes, and it also returns the accumulated
  relative phase (m g dx t / hbar for a cold particle). Its size caps are
  the constants ``TENSOR_MAX_MODES``, ``TENSOR_MAX_CUTOFF`` and
  ``TENSOR_MAX_JOINT_DIM``.

:meth:`OracleCase.estimates` alone pairs each oracle with its field; the
verdicts, the tally and the ``oracle-check`` report iterate over it.

Deliberately, nothing here imports the analytic formulas: occupations are
recomputed from exp(-hbar w / k_B T) on the spot, so agreement with
``visibility.exact_visibility`` is a genuine consistency check and not a
tautology.

Monte Carlo sampling is split into fixed-size shards of 2^16 samples, each
with its own child seed derived from (seed, shard index) and one contiguous
(modes, samples) array of standard exponentials (|alpha|^2 / nbar). The
shards run on a thread pool with one worker per CPU the process may use (no
pool, and no ``concurrent.futures`` import, when there is one worker or one
shard); each worker takes a strided set of shards and scratch buffers
allocated by the caller. The shard kernel is numpy ufuncs and einsum
reductions only, with no BLAS call, and shard partial sums are combined with
a single np.sum over the shard-indexed array. The result is therefore
bit-identical at fixed (seed, n_samples) whatever the worker count, the
order in which shards run, or the BLAS thread count.

Every phase e^{i theta} here, per Monte Carlo sample or per joint Fock
state, comes from one tau = tan(theta/2) through the half-angle identities
1 + cos theta = 2 / (1 + tau^2) and sin theta = tau (1 + cos theta). numpy's
float64 tan is SIMD-vectorised, where its sin, cos and complex exp call
scalar libm for each value.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError
from .internal_state import InternalStateSpec

_SHARD = 1 << 16

#: Monte Carlo relative-variance precondition: nbar*(1-cos d) above this makes
#: the P-representation estimator too noisy to certify anything.
MC_WEIGHT_BOUND = 0.5

#: The joint-spectrum oracle is meant for small systems only.
TENSOR_MAX_MODES = 4
TENSOR_MAX_CUTOFF = 64
TENSOR_MAX_JOINT_DIM = 1 << 22

#: Per-mode number-state cap of the number-basis oracle: it holds the whole
#: battery envelope (nbar <= 5 needs 113 quanta at tail_epsilon = 1e-9).
FOCK_MAX_CUTOFF = 512

#: The oracles by name, in the order the battery runs them.
_ORACLES = ("mc", "fock", "tensor")


@dataclass(frozen=True)
class OracleConfig:
    """Knobs shared by the brute-force oracles.

    ``n_samples`` and ``seed`` drive the Monte Carlo oracle. ``tail_epsilon``
    is the thermal tail mass each number-state truncation may drop: a mode
    that needs more quanta than its oracle's cap (``FOCK_MAX_CUTOFF`` or
    ``TENSOR_MAX_CUTOFF``) is refused with the required cutoff named rather
    than silently truncated. The caps are module constants, not knobs, and
    ``oracle-check`` runs at the default ``tail_epsilon``; no flag sets it.
    """

    n_samples: int = 200_000
    seed: int = 0
    tail_epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise DomainError("n_samples must be >= 2")
        if not 0 < self.tail_epsilon < 1:
            raise DomainError("tail_epsilon must lie in (0, 1)")


def _require_explicit(spec: InternalStateSpec) -> tuple[float, ...]:
    if spec.is_high_temperature:
        raise DomainError("oracles need explicit frequencies, not the high-T marker")
    return spec.frequencies


def _boltzmann_q(omega: float, temperature: float, consts: PhysicalConstants) -> float:
    # q = exp(-hbar w / k_B T); the mean occupation is q / (1 - q).
    if temperature == 0.0:
        return 0.0
    return math.exp(-consts.hbar * omega / (consts.k_B * temperature))


def _mc_coefficients(
    spec: InternalStateSpec, delta_tau: float, consts: PhysicalConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode (nbar (cos d - 1), -nbar sin d), after the variance precondition.

    These are the real and imaginary parts of the weight's exponent per unit
    |alpha|^2 / nbar.
    """
    freqs = _require_explicit(spec)
    qs = [_boltzmann_q(w, spec.temperature, consts) for w in freqs]
    nbars = np.array([q / (1.0 - q) for q in qs])
    deltas = np.array([w * delta_tau for w in freqs])
    strain = nbars * (1.0 - np.cos(deltas))
    if np.any(strain > MC_WEIGHT_BOUND):
        worst = float(np.max(strain))
        raise DomainError(
            f"MC oracle precondition violated: max nbar*(1-cos d) = {worst:.3g} "
            f"> {MC_WEIGHT_BOUND}"
        )
    return -strain, -nbars * np.sin(deltas)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mc_buffers(modes: int, m: int) -> tuple[np.ndarray, ...]:
    """Scratch for one worker: the (modes, m) draw and three length-m rows."""
    return np.empty((modes, m)), np.empty(m), np.empty(m), np.empty(m)


def _mc_worker(
    seed: int,
    shards: range,
    n_samples: int,
    c_re: np.ndarray,
    c_im: np.ndarray,
    buffers: tuple[np.ndarray, ...],
    sums: np.ndarray,
    abs2: np.ndarray,
) -> None:
    """Write each shard's sums of the weights and of their squared moduli.

    Shard k covers samples [k * _SHARD, (k + 1) * _SHARD) and draws from
    ``SeedSequence([seed, k])`` alone, so its result does not depend on which
    other shards run, in what order, or on which worker. Only numpy ufuncs
    and einsum reductions are used: no BLAS call, whose threading would
    change the last bits of the sums. The phase row holds half of each
    weight's phase, and one tan of it gives the cosine and sine.
    """
    draw, mod, arg, tmp = buffers
    modes = c_re.size
    half_im = 0.5 * c_im  # exact, so arg holds exactly half the weight's phase
    for shard in shards:
        m = min(_SHARD, n_samples - shard * _SHARD)
        e = draw.reshape(-1)[: modes * m].reshape(modes, m)  # |alpha|^2 / nbar, contiguous
        np.random.default_rng(np.random.SeedSequence([seed, shard])).standard_exponential(out=e)
        mod_m, arg_m, tmp_m = mod[:m], arg[:m], tmp[:m]
        np.multiply(e[0], c_re[0], out=mod_m)
        np.multiply(e[0], half_im[0], out=arg_m)
        for i in range(1, modes):
            mod_m += np.multiply(e[i], c_re[i], out=tmp_m)
            arg_m += np.multiply(e[i], half_im[i], out=tmp_m)
        np.exp(mod_m, out=mod_m)  # |w|
        np.tan(arg_m, out=arg_m)  # tau
        np.multiply(arg_m, arg_m, out=tmp_m)
        tmp_m += 1.0
        np.divide(2.0, tmp_m, out=tmp_m)  # 1 + cos
        arg_m *= tmp_m  # sin
        tmp_m -= 1.0  # cos
        sums[shard] = complex(
            np.einsum("i,i->", mod_m, tmp_m), np.einsum("i,i->", mod_m, arg_m)
        )
        abs2[shard] = np.einsum("i,i->", mod_m, mod_m)


def mc_visibility(
    spec: InternalStateSpec,
    delta_tau: float,
    cfg: OracleConfig,
    consts: PhysicalConstants,
) -> tuple[float, float]:
    """P-representation Monte Carlo estimate of the visibility.

    A thermal mode's P distribution is a complex Gaussian in alpha, so
    |alpha|^2 is exponential with mean nbar; each sample draws it per mode and
    carries the weight exp(|alpha|^2 (e^{-i w dtau} - 1)). The visibility is
    the modulus of the weight's sample mean. Returns ``(visibility,
    standard_error)``.

    The shards run on one worker per usable CPU (at most one per shard),
    each taking every workers-th shard with scratch buffers allocated here;
    a single worker runs in the calling thread. The shard kernel uses no
    BLAS, and the shard sums are combined by one np.sum over the shard
    index, so the result is bit-identical at fixed (seed, n_samples) whatever
    the worker count, the schedule or the BLAS thread count.

    Raises DomainError when any mode has nbar * (1 - cos(w dtau)) above
    ``MC_WEIGHT_BOUND``: past that point the estimator's relative error grows
    too fast with mode count to be a usable cross-check.
    """
    c_re, c_im = _mc_coefficients(spec, delta_tau, consts)
    n_shards = math.ceil(cfg.n_samples / _SHARD)
    shard_sums = np.empty(n_shards, dtype=complex)
    shard_abs2 = np.empty(n_shards)
    workers = min(_usable_cpus(), n_shards)
    buffers = [_mc_buffers(c_re.size, min(_SHARD, cfg.n_samples)) for _ in range(workers)]

    def work(w: int) -> None:
        _mc_worker(cfg.seed, range(w, n_shards, workers), cfg.n_samples, c_re, c_im,
                   buffers[w], shard_sums, shard_abs2)

    if workers == 1:
        work(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))

    mean = complex(np.sum(shard_sums)) / cfg.n_samples
    var = max(float(np.sum(shard_abs2)) / cfg.n_samples - abs(mean) ** 2, 0.0)
    se = math.sqrt(var / (cfg.n_samples - 1))
    return abs(mean), se


def _thermal_populations(q: float, cfg: OracleConfig, limit: int) -> tuple[np.ndarray, float]:
    """Thermal populations (1-q) q^n truncated at n = c, and the mass q^(c+1) cut off.

    The cutoff c is the smallest with tail mass q^(c+1) <= tail_epsilon; one
    above ``limit``, the calling oracle's cap, is refused with the required
    value named. The populations are renormalized over n <= c, so V(0) = 1.
    At q = 0 the cutoff is 0 and the populations are [1.0].
    """
    c = 0 if q == 0.0 else max(math.ceil(math.log(cfg.tail_epsilon) / math.log(q)) - 1, 0)
    if c > limit:
        raise DomainError(
            f"thermal tail mass {q ** (limit + 1):.3g} above tail_epsilon="
            f"{cfg.tail_epsilon:g} at cutoff {limit}; required cutoff is {c}"
        )
    p = (1.0 - q) * q ** np.arange(c + 1)
    return p / np.sum(p), q ** (c + 1)


def fock_visibility(
    spec: InternalStateSpec,
    delta_tau: float,
    cfg: OracleConfig,
    consts: PhysicalConstants,
) -> tuple[float, float]:
    """Number-basis visibility: per mode, |sum_n p_n exp(-i n w dtau)|.

    Thermal populations p_n = (1-q) q^n are truncated at the smallest cutoff
    whose tail mass is below ``tail_epsilon`` and renormalized, so the value
    at dtau = 0 is exactly 1; a cutoff above ``FOCK_MAX_CUTOFF`` is refused
    with the required value named. Returns ``(visibility, tail_bound)`` where
    ``tail_bound`` sums the discarded mass over modes.
    """
    freqs = _require_explicit(spec)
    log_v = 0.0
    tail = 0.0
    for w in freqs:
        q = _boltzmann_q(w, spec.temperature, consts)
        p, lost = _thermal_populations(q, cfg, FOCK_MAX_CUTOFF)
        tail += lost
        chi = np.sum(p * np.exp(-1j * np.arange(p.size) * w * delta_tau))
        log_v += math.log(abs(chi)) if abs(chi) > 0 else -math.inf
    return math.exp(log_v), tail


def two_point_unitary_oracle(
    spec: InternalStateSpec,
    x1: float,
    x2: float,
    t: float,
    g: float,
    cfg: OracleConfig,
    consts: PhysicalConstants,
    mass: float = 0.0,
) -> tuple[float, float]:
    """Exact diagonal evolution of (|x1> + |x2>)/sqrt(2) x thermal state.

    Enumerates the full joint Fock spectrum (no factorization over modes),
    applies the phase (m c^2 + E_n)(phi(x1) - phi(x2)) t / (hbar c^2) with
    phi = g x, and traces out the internal state. Returns ``(visibility,
    phase)``: visibility is 2 |rho_12| of the reduced two-point state and
    ``phase`` the principal-value argument of the off-diagonal element; for
    a cold internal state it equals m g (x2 - x1) t / hbar modulo 2 pi.

    Internal energies are measured from the joint ground state, so the
    returned phase excludes the zero-point contribution. Meant for small
    systems: at most ``TENSOR_MAX_MODES`` modes, per-mode cutoff
    ``TENSOR_MAX_CUTOFF`` and ``TENSOR_MAX_JOINT_DIM`` joint states.
    """
    freqs = _require_explicit(spec)
    if len(freqs) > TENSOR_MAX_MODES:
        raise DomainError(f"joint-spectrum oracle handles at most {TENSOR_MAX_MODES} modes")
    if mass < 0:
        raise DomainError("mass must be >= 0")

    pops: list[np.ndarray] = []
    energies: list[np.ndarray] = []
    for w in freqs:
        q = _boltzmann_q(w, spec.temperature, consts)
        p, _ = _thermal_populations(q, cfg, TENSOR_MAX_CUTOFF)
        pops.append(p)
        energies.append(consts.hbar * w * np.arange(p.size))
    dims = [p.size for p in pops]
    joint_dim = math.prod(dims)
    if joint_dim > TENSOR_MAX_JOINT_DIM:
        raise DomainError(
            f"joint Fock dimension {joint_dim} exceeds max_joint_dim={TENSOR_MAX_JOINT_DIM}"
        )

    dphi = g * x1 - g * x2
    rate = dphi * t / (consts.hbar * consts.c**2)  # phase per unit energy

    strides = np.ones(len(dims), dtype=np.int64)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]

    acc = 0.0 + 0.0j
    for start in range(0, joint_dim, _SHARD):
        idx = np.arange(start, min(start + _SHARD, joint_dim), dtype=np.int64)
        prob = np.ones(idx.size)
        energy = np.zeros(idx.size)
        for i, (p, e) in enumerate(zip(pops, energies)):
            n_i = (idx // strides[i]) % dims[i]
            prob *= p[n_i]
            energy += e[n_i]
        # e^{i theta}, theta = -energy * rate: tau = tan(theta/2),
        # 1 + cos theta = 2/(1 + tau^2), sin theta = tau (1 + cos theta).
        tau = np.tan(energy * (-0.5 * rate))
        one_plus_cos = 2.0 / (1.0 + tau * tau)
        acc += complex(np.sum(prob * (one_plus_cos - 1.0)), np.sum(prob * tau * one_plus_cos))

    # rho_12 of the reduced state is acc/2; report V = 2|rho_12| = |acc|.
    amp = acc * np.exp(-1j * mass * dphi * t / consts.hbar)
    return abs(amp), float(np.angle(amp))


@dataclass(frozen=True)
class OracleCase:
    """One randomized parameter set plus every oracle's verdict on it."""

    frequencies: tuple[float, ...]
    temperature: float
    delta_tau: float
    v_exact: float
    v_mc: float | None
    se_mc: float | None
    v_fock: float | None
    fock_bound: float | None
    v_tensor: float | None
    mc_seed: int | None = None
    n_samples: int | None = None
    skipped: tuple[str, ...] = field(default=())

    def estimates(self) -> dict[str, float | None]:
        """Each oracle's visibility by name, in run order; None where it skipped."""
        return {"mc": self.v_mc, "fock": self.v_fock, "tensor": self.v_tensor}

    def errors(self) -> dict[str, float | None]:
        """Each oracle's |V - V_exact| by name; None where it skipped."""
        return {name: None if v is None else abs(v - self.v_exact)
                for name, v in self.estimates().items()}

    def agreements(self, mc_sigmas: float, det_atol: float) -> dict[str, bool | None]:
        """Per-oracle verdicts; None where the oracle skipped this set.

        MC agrees within ``mc_sigmas`` standard errors, the number-basis
        oracle within 10x its own truncation bound, the joint-spectrum
        oracle within ``det_atol`` absolute.

        The MC window is a two-sided Gaussian test, so over ``k`` MC-valid
        cases a correct build fails it somewhere with probability
        1 - (1 - erfc(mc_sigmas / sqrt 2))^k: about 17% at 3 sigma and the
        standard preset's 70 cases. ``oracle-check`` reports this as the MC
        row's ``false_alarm_rate``; that is how often its exit 1 is a false
        alarm.
        """
        windows = {
            "mc": mc_sigmas * (self.se_mc or 0.0) + 1e-12,
            "fock": 10.0 * (self.fock_bound or 0.0) + 1e-12,
            "tensor": det_atol,
        }
        return {name: None if err is None else bool(err <= windows[name])
                for name, err in self.errors().items()}


def tally_verdicts(
    cases: list[OracleCase], mc_sigmas: float, det_atol: float
) -> tuple[dict[str, dict], list[tuple[dict[str, bool | None], bool]]]:
    """Score a battery: per-oracle tallies and per-case verdicts.

    Returns ``(summary, per_case)``. ``summary`` maps each oracle to its
    count of valid cases, of cases within tolerance (see
    :meth:`OracleCase.agreements`) and its largest |V - V_exact|; the MC row
    also carries ``false_alarm_rate``, the chance that a correct build fails
    its window on some valid case. ``per_case`` holds each case's verdicts
    and whether every oracle that ran on it agreed.
    """
    summary = {name: {"valid": 0, "agree": 0, "max_abs_err": 0.0} for name in _ORACLES}
    per_case = []
    for case in cases:
        verdicts = case.agreements(mc_sigmas, det_atol)
        errors = case.errors()
        for name, ok in verdicts.items():
            if ok is None:
                continue
            row = summary[name]
            row["valid"] += 1
            row["agree"] += int(ok)
            row["max_abs_err"] = max(row["max_abs_err"], errors[name])
        per_case.append((verdicts, all(ok is not False for ok in verdicts.values())))
    mc = summary["mc"]
    mc["false_alarm_rate"] = 1.0 - (1.0 - math.erfc(mc_sigmas / math.sqrt(2.0))) ** mc["valid"]
    return summary, per_case


def run_oracle_battery(
    n_cases: int,
    cfg: OracleConfig,
    consts: PhysicalConstants,
    seed: int = 20240811,
) -> list[OracleCase]:
    """Randomized head-to-head comparison of all oracles against the product law.

    Parameter sets are drawn from the envelope 1-4 modes, nbar <= 5 and
    |w dtau| <= 0.5 (temperatures 10-1000 K), until every oracle has at
    least ``n_cases`` sets satisfying its own precondition; an oracle skips
    sets outside its domain and the case records why. The corners of the
    envelope do violate individual preconditions (nbar = 5 at the largest
    phase exceeds the MC variance bound, and needs a number-state cutoff
    beyond the joint-spectrum oracle's cap), which is exactly why skipping
    with replacement is allowed. Deterministic in ``seed``, including the
    per-case Monte Carlo streams. ``n_cases`` must be >= 1: a battery of no
    sets certifies nothing.
    """
    from .visibility import exact_visibility  # local import keeps the check one-way

    if n_cases < 1:
        raise DomainError(f"n_cases must be >= 1, got {n_cases}")
    rng = np.random.default_rng(seed)
    cases: list[OracleCase] = []
    counts = dict.fromkeys(_ORACLES, 0)
    attempts = 0
    while min(counts.values()) < n_cases and attempts < 200 * n_cases:
        attempts += 1
        n_modes = int(rng.integers(1, TENSOR_MAX_MODES + 1))
        temperature = float(10.0 * 10 ** (2.0 * rng.random()))
        kt_over_h = consts.k_B * temperature / consts.hbar
        # hbar w / k_B T in [ln(6/5), 5] maps to nbar in [0.007, 5].
        freqs = tuple(
            float(kt_over_h * math.exp(rng.uniform(math.log(math.log(6 / 5)), math.log(5.0))))
            for _ in range(n_modes)
        )
        delta_tau = float(rng.uniform(0.05, 0.5) / max(freqs))
        spec = InternalStateSpec.from_frequencies(freqs, temperature)
        v_exact = exact_visibility(spec, delta_tau, consts)

        case_seed = cfg.seed + attempts
        case_cfg = replace(cfg, seed=case_seed)
        calls = {
            "mc": lambda: mc_visibility(spec, delta_tau, case_cfg, consts),
            "fock": lambda: fock_visibility(spec, delta_tau, cfg, consts),
            # Static arms with g t (x1 - x2) / c^2 = dtau reproduce the same dtau.
            "tensor": lambda: two_point_unitary_oracle(
                spec, 0.0, -delta_tau * consts.c**2, 1.0, 1.0, case_cfg, consts
            ),
        }
        results = dict.fromkeys(calls, (None, None))
        skipped: list[str] = []
        for name, call in calls.items():
            try:
                results[name] = call()
                counts[name] += 1
            except DomainError as exc:
                skipped.append(f"{name}: {exc}")
        (mc, se_mc), (fock, fock_bound), (tensor, _) = results.values()

        cases.append(OracleCase(
            frequencies=freqs, temperature=temperature, delta_tau=delta_tau, v_exact=v_exact,
            v_mc=mc, se_mc=se_mc, v_fock=fock, fock_bound=fock_bound, v_tensor=tensor,
            mc_seed=case_seed, n_samples=cfg.n_samples, skipped=tuple(skipped),
        ))
    if min(counts.values()) < n_cases:
        raise DomainError(f"could not collect {n_cases} valid sets per oracle; got {counts}")
    return cases
