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
  ``TENSOR_MAX_JOINT_DIM``. It builds each joint state's probability and
  energy by broadcasting over the trailing modes and gathering the leading
  ones once per row, each product and sum taken mode by mode from the first.

:meth:`OracleCase.estimates` alone pairs each oracle with its field; the
verdicts, the tally and the ``oracle-check`` report iterate over it.

Deliberately, nothing here imports the analytic formulas: occupations are
recomputed from exp(-hbar w / k_B T) on the spot, so agreement with
``visibility.exact_visibility`` is a genuine consistency check and not a
tautology.

Monte Carlo samples w - sum_i beta_i (E_i - 1), the weight less one control
per mode: E_i is the mode's standard exponential draw (|alpha|^2 / nbar),
so each control has mean exactly 0 under the law sampled and the estimate
stays unbiased for any beta, and no closed form enters here. A pilot of
2^14 samples per case, from a child seed that no shard uses, fits each
beta_i and predicts the residual's variance. ``n_samples`` then names a
precision, that of n_samples plain samples of w, and a ceiling: the main
pass draws the fewest multiples of the pilot's 2^14 samples (at least one,
at most n_samples samples) whose predicted standard error, with a factor-2
margin in variance, is no larger than that of n_samples plain samples. The
reported standard error is that of the samples the main pass drew.

Main sampling is split into fixed-size shards of 2^16 samples, each with
its own child seed derived from (seed, shard index); only a case's last
shard may be short. A shard draws its standard exponentials one mode at a
time, in stream order, into one row and adds each mode's terms before
drawing the next.

The schedule is one ordered map, run after a battery has drawn all its
cases (:func:`mc_visibility` is the one-case call of the same map), with
one unit per case: the unit runs the case's pilot and then its shards in
shard order, all on one row set, and combines the shard sums with a single
np.sum in shard order. The map runs on one worker per CPU the process may
use and at most one per case: a thread pool's map, or the builtin map, in
the calling thread and with no ``concurrent.futures`` import, when there
is one worker. The calling thread makes one row set per worker, six rows of
max(2^14, min(2^16, n_samples)) samples, 3 MiB at full shards, whatever the
case and mode counts; a unit takes a set from that free list and returns it
when its case is done. A single case's shards thus run on one worker. The
pilot and the shard kernel are numpy ufuncs and einsum reductions only,
with no BLAS call, so the result is bit-identical at fixed (seed,
n_samples) whatever the worker count, the thread that runs a unit, the
other cases in the pass, or the BLAS thread count.

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

from .constants import PhysicalConstants, power
from .errors import DomainError
from .internal_state import InternalStateSpec

_SHARD = 1 << 16

#: Pilot samples per Monte Carlo case, and the factor by which the main pass
#: draws beyond the pilot's prediction of the samples its precision needs.
_PILOT = 1 << 14
_MARGIN = 2.0

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

    ``n_samples`` and ``seed`` drive the Monte Carlo oracle: ``n_samples``
    is the precision of that many plain samples, and the most main samples
    a case draws, in steps of 2^14 (see :func:`mc_visibility`).
    ``tail_epsilon`` is the thermal tail mass each number-state truncation
    may drop: a mode that needs more quanta than its oracle's cap
    (``FOCK_MAX_CUTOFF`` or ``TENSOR_MAX_CUTOFF``) is refused with the
    required cutoff named rather than silently truncated. The caps are
    module constants, not knobs, and ``oracle-check`` runs at the default
    ``tail_epsilon``; no flag sets it.
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


def _mc_draw(
    seq: np.random.SeedSequence,
    m: int,
    c_re: np.ndarray,
    c_im: np.ndarray,
    beta: np.ndarray,
    rows: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Draw m samples w - sum_i beta_i (E_i - 1) from ``seq``'s stream.

    E_i is mode i's |alpha|^2 / nbar. ``rows`` is six rows of at least m: the
    draw of one mode, the log-modulus, the phase, a temporary, and the real
    and imaginary parts of sum_i beta_i (E_i - 1). Returns views of the
    samples' real parts (the temporary row) and imaginary parts (the phase
    row). The generator fills sequentially, so drawing mode by mode reads the
    stream in the order one (modes, m) draw would. The phase row holds half
    of each weight's phase, and one tan of it gives the cosine and sine.
    Only numpy ufuncs are used: no BLAS call, whose threading would change
    the last bits.
    """
    e, mod_m, arg_m, tmp_m, cv_re, cv_im = (row[:m] for row in rows)
    half_im = 0.5 * c_im  # exact, so arg holds exactly half the weight's phase
    rng = np.random.default_rng(seq)
    mod_m.fill(0.0)
    arg_m.fill(0.0)
    cv_re.fill(-np.sum(beta.real))
    cv_im.fill(-np.sum(beta.imag))
    for i in range(c_re.size):
        rng.standard_exponential(out=e)
        mod_m += np.multiply(e, c_re[i], out=tmp_m)
        arg_m += np.multiply(e, half_im[i], out=tmp_m)
        cv_re += np.multiply(e, beta.real[i], out=tmp_m)
        cv_im += np.multiply(e, beta.imag[i], out=tmp_m)
    np.exp(mod_m, out=mod_m)  # |w|
    np.tan(arg_m, out=arg_m)  # tau
    np.multiply(arg_m, arg_m, out=tmp_m)
    tmp_m += 1.0
    np.divide(2.0, tmp_m, out=tmp_m)  # 1 + cos
    arg_m *= tmp_m  # sin
    tmp_m -= 1.0  # cos
    tmp_m *= mod_m
    tmp_m -= cv_re
    arg_m *= mod_m
    arg_m -= cv_im
    return tmp_m, arg_m


def _mc_pilot(
    seed: int, n_samples: int, c_re: np.ndarray, c_im: np.ndarray, rows: list[np.ndarray]
) -> tuple[np.ndarray, int]:
    """Each mode's control coefficient beta_i and the main samples to draw.

    ``_PILOT`` samples come from ``SeedSequence(seed, spawn_key=(0,))``, the
    first child ``SeedSequence(seed).spawn`` gives: numpy pads a spawned
    sequence's entropy to its pool size before the spawn key, so no shard's
    ``[seed, shard]`` reaches this stream. beta_i is the least-squares slope
    of the weight on its mode's centred draw alone (the modes are drawn
    independently), so a second pass over the same stream, one mode at a
    time, fits it within the six ``rows`` of :func:`_mc_draw`, whatever the
    mode count. The main pass then draws the fewest multiples of ``_PILOT``
    samples, at least one and at most ``n_samples`` samples, whose predicted
    variance of the mean, doubled as a margin, is no larger than that of
    ``n_samples`` plain samples; both variances are the pilot's sample
    variances of the weight and of its control-variate residual. The count
    need not fill whole shards: a case's last shard is then short. Ufuncs
    and einsum reductions only, with no BLAS call.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(0,))
    w_re, w_im = _mc_draw(seq, _PILOT, c_re, c_im, np.zeros(c_re.size, dtype=complex), rows)
    e, tmp, r_re, r_im = (row[:_PILOT] for row in (rows[0], rows[1], rows[4], rows[5]))
    w_re -= np.mean(w_re)
    w_im -= np.mean(w_im)
    np.copyto(r_re, w_re)
    np.copyto(r_im, w_im)
    rng = np.random.default_rng(seq)
    beta = np.empty(c_re.size, dtype=complex)
    for i in range(c_re.size):
        rng.standard_exponential(out=e)
        e -= np.mean(e)  # the centred control
        beta[i] = complex(np.einsum("i,i->", e, w_re),
                          np.einsum("i,i->", e, w_im)) / np.einsum("i,i->", e, e)
        r_re -= np.multiply(e, beta[i].real, out=tmp)
        r_im -= np.multiply(e, beta[i].imag, out=tmp)
    var_plain = np.einsum("i,i->", w_re, w_re) + np.einsum("i,i->", w_im, w_im)
    var_cv = np.einsum("i,i->", r_re, r_re) + np.einsum("i,i->", r_im, r_im)
    need = 1.0 + _MARGIN * var_cv / var_plain * (n_samples - 1) if var_plain > 0 else 1.0
    return beta, min(max(math.ceil(need / _PILOT), 1) * _PILOT, n_samples)


def _mc_shard(
    seed: int,
    shard: int,
    n_main: int,
    c_re: np.ndarray,
    c_im: np.ndarray,
    beta: np.ndarray,
    rows: list[np.ndarray],
) -> tuple[complex, float]:
    """One shard's sums of the samples and of their squared moduli.

    Shard k covers samples [k * _SHARD, (k + 1) * _SHARD) of ``n_main``
    and draws from ``SeedSequence([seed, k])`` alone (see :func:`_mc_draw`),
    so its result does not depend on which other shards run, in what order,
    or on which worker. The sums are einsum reductions, with no BLAS call.
    """
    m = min(_SHARD, n_main - shard * _SHARD)
    re, im = _mc_draw(np.random.SeedSequence([seed, shard]), m, c_re, c_im, beta, rows)
    return (complex(np.einsum("i->", re), np.einsum("i->", im)),
            np.einsum("i,i->", re, re) + np.einsum("i,i->", im, im))


def _mc_estimates(
    tasks: list[tuple[int, np.ndarray, np.ndarray]], n_samples: int
) -> list[tuple[float, float, int]]:
    """``(visibility, standard_error, main_samples)`` of each ``(seed, c_re, c_im)`` task.

    Runs the one ordered map of the module docstring, one unit per task.
    """
    workers = min(_usable_cpus(), len(tasks))
    # Six separate rows per worker, not one (workers, 6, m) block: glibc
    # raises its mmap threshold to the size of each large block it frees, and
    # later mid-size arrays then stay on the heap. On Linux with glibc, one
    # 4 MiB block left the library benchmark's peak RSS about 0.5 MB above
    # what 512 KiB rows leave. The rows are made here, in the calling
    # thread, and the passes allocate no sample-length array: blocks a
    # worker thread frees stay in its own malloc arena. Pilots that drew
    # into arrays of their own raised that peak by about 4 MB.
    length = max(_PILOT, min(_SHARD, n_samples))
    spare = [[np.empty(length) for _ in range(6)] for _ in range(workers)]

    def estimate(task) -> tuple[float, float, int]:
        seed, c_re, c_im = task
        # at most `workers` units run at once, each on a set it alone holds;
        # list.pop and list.append are each one atomic call
        rows = spare.pop()
        beta, n_main = _mc_pilot(seed, n_samples, c_re, c_im, rows)
        sums, abs2 = zip(*(_mc_shard(seed, k, n_main, c_re, c_im, beta, rows)
                           for k in range(math.ceil(n_main / _SHARD))))
        spare.append(rows)
        mean = complex(np.sum(sums)) / n_main
        var = max(float(np.sum(abs2)) / n_main - abs(mean) ** 2, 0.0)
        return abs(mean), math.sqrt(var / (n_main - 1)), n_main

    if workers == 1:
        return list(map(estimate, tasks))
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(estimate, tasks))


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
    the modulus of the sample mean of the weight less its per-mode controls
    beta_i (E_i - 1), with E_i = |alpha_i|^2 / nbar_i, whose mean is 0.
    Returns ``(visibility, standard_error)``.

    ``cfg.n_samples`` is the precision asked for, that of n_samples plain
    samples of the weight, and the most main samples drawn: a pilot of 2^14
    samples on its own child seed fits beta and predicts the residual's
    variance, and the main pass draws the fewest multiples of 2^14 samples
    (at least one, at most n_samples samples) whose predicted standard error,
    with a factor-2 margin in variance, is no larger than that precision.
    They are drawn in 2^16-sample shards, the last one short where the count
    is not a whole number of shards. The standard error is that of the
    samples drawn.

    This is the one-case call of the Monte Carlo schedule in the module
    docstring, which :func:`run_oracle_battery` runs for all its cases at
    once, so the result is bit-identical at fixed (seed, n_samples) whatever
    the worker count, the schedule or the BLAS thread count.

    Raises DomainError when any mode has nbar * (1 - cos(w dtau)) above
    ``MC_WEIGHT_BOUND``: past that point the estimator's relative error grows
    too fast with mode count to be a usable cross-check.
    """
    c_re, c_im = _mc_coefficients(spec, delta_tau, consts)
    return _mc_estimates([(cfg.seed, c_re, c_im)], cfg.n_samples)[0][:2]


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
    rate = dphi * t / (consts.hbar * power(consts.c, 2))  # phase per unit energy

    # The trailing modes whose joint block fits in a sixteenth of a shard are
    # broadcast, so the rows a shard spans overrun it by at most an eighth;
    # the leading modes are gathered once per row of that block.
    lead = next(j for j in range(len(dims) + 1) if math.prod(dims[j:]) <= _SHARD >> 4)
    block = math.prod(dims[lead:])
    acc = 0.0 + 0.0j
    for start in range(0, joint_dim, _SHARD):
        stop = min(start + _SHARD, joint_dim)
        first = start // block
        rows = np.arange(first, -(-stop // block))
        prob = np.ones(rows.size)
        energy = np.zeros(rows.size)
        # each leading mode's level in every row this shard spans (with no leading mode, none)
        levels = np.unravel_index(rows, dims[:lead]) if lead else ()
        for i in range(lead):
            prob *= pops[i][levels[i]]
            energy += energies[i][levels[i]]
        # mode by mode, so each state's product and sum still run from its first mode to its last
        for p, e in zip(pops[lead:], energies[lead:]):
            prob = prob[..., None] * p
            energy = energy[..., None] + e
        lo = start - first * block
        prob = prob.reshape(-1)[lo:lo + stop - start]
        energy = energy.reshape(-1)[lo:lo + stop - start]
        # e^{i theta}, theta = -energy * rate: tau = tan(theta/2),
        # 1 + cos theta = 2/(1 + tau^2), sin theta = tau (1 + cos theta).
        # In place: p cos theta = p ((1 + cos theta) - 1), p sin theta = (p tau)(1 + cos theta).
        tau = np.tan(energy * (-0.5 * rate))
        one_plus_cos = np.multiply(tau, tau)
        one_plus_cos += 1.0
        np.divide(2.0, one_plus_cos, out=one_plus_cos)
        tau *= prob
        tau *= one_plus_cos  # p sin theta
        one_plus_cos -= 1.0
        one_plus_cos *= prob  # p cos theta
        acc += complex(np.sum(one_plus_cos), np.sum(tau))

    # rho_12 of the reduced state is acc/2; report V = 2|rho_12| = |acc|.
    amp = acc * np.exp(-1j * mass * dphi * t / consts.hbar)
    return abs(amp), float(np.angle(amp))


@dataclass(frozen=True)
class OracleCase:
    """One randomized parameter set plus every oracle's verdict on it.

    ``n_samples`` is the number of main Monte Carlo samples the case drew
    (see :func:`mc_visibility`), None where Monte Carlo skipped it.
    """

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

    The loop checks only the Monte Carlo precondition; once every oracle has
    its sets, one Monte Carlo pass samples every case that met it (see the
    module docstring), so a battery that cannot qualify raises before it
    samples.
    """
    from .visibility import exact_visibility  # local import keeps the check one-way

    if n_cases < 1:
        raise DomainError(f"n_cases must be >= 1, got {n_cases}")
    rng = np.random.default_rng(seed)
    cases: list[OracleCase] = []
    mc_tasks: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}  # by case index
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
        skipped: list[str] = []
        # Monte Carlo runs after the loop, in one pass over every case; here
        # only its precondition decides whether the case gets a stream.
        try:
            mc_tasks[len(cases)] = (case_seed, *_mc_coefficients(spec, delta_tau, consts))
            counts["mc"] += 1
        except DomainError as exc:
            skipped.append(f"mc: {exc}")
        calls = {
            "fock": lambda: fock_visibility(spec, delta_tau, cfg, consts),
            # Static arms with g t (x1 - x2) / c^2 = dtau reproduce the same dtau.
            "tensor": lambda: two_point_unitary_oracle(
                spec, 0.0, -delta_tau * power(consts.c, 2), 1.0, 1.0, cfg, consts
            ),
        }
        results = dict.fromkeys(calls, (None, None))
        for name, call in calls.items():
            try:
                results[name] = call()
                counts[name] += 1
            except DomainError as exc:
                skipped.append(f"{name}: {exc}")
        (fock, fock_bound), (tensor, _) = results.values()

        cases.append(OracleCase(
            frequencies=freqs, temperature=temperature, delta_tau=delta_tau, v_exact=v_exact,
            v_mc=None, se_mc=None, v_fock=fock, fock_bound=fock_bound, v_tensor=tensor,
            mc_seed=case_seed, skipped=tuple(skipped),
        ))
    if min(counts.values()) < n_cases:
        raise DomainError(f"could not collect {n_cases} valid sets per oracle; got {counts}")
    estimates = _mc_estimates(list(mc_tasks.values()), cfg.n_samples)
    for index, (v_mc, se_mc, n_main) in zip(mc_tasks, estimates):
        cases[index] = replace(cases[index], v_mc=v_mc, se_mc=se_mc, n_samples=n_main)
    return cases
