"""Centre-of-mass master equation with time-dilation dephasing.

The internal thermal bath couples to the centre of mass through the position-
dependent clock rate, which at second order produces a double-commutator
dephasing term in x on top of whatever Hamiltonian the centre of mass has.
Two integrators are provided, and one stepping driver runs both:

* :func:`evolve_markovian` - the time-local equation

      drho/dt = -(i/hbar)[H, rho] - Lambda * t * [x, [x, rho]],

  whose dephasing coefficient grows linearly in t. In the position basis the
  dephasing is elementwise, so each step applies the exact factor
  exp(-Lambda (x_i - x_j)^2 * (t + dt/2) * dt); summed over steps this
  telescopes to the exact exp(-Lambda (x_i - x_j)^2 t^2 / 2), and for a
  two-point superposition of separation dx the visibility is the Gaussian
  law exp(-(t/tau_dec)^2) with Lambda dx^2 = 2 / tau_dec^2. With a
  Hamiltonian the step is Strang splitting with adjacent kinetic half-steps
  merged (first-same-as-last): one full kinetic step per step, the trailing
  half-step applied only to read the tracked pair and to snapshots.

* :func:`evolve_full_memory` - the second-order time-convolutionless form

      drho/dt = -(i/hbar)[H, rho] - Lambda * int_0^t ds [x, U_s [x, rho(t)] U_s+],

  with U_s = exp(-i H s / hbar) the centre-of-mass propagator alone. The
  state is held in the eigenbasis of H, where the sandwich by U_s is
  elementwise and the s-integral has closed form, and [H, rho] is the
  elementwise -i w rho. The time stepping is Lawson's integrating-factor RK4
  (SIAM J. Numer. Anal. 4 (1967) 372): classic RK4 in the interaction picture
  of H, so the Hamiltonian part is exact and no |w dt| stability bound
  applies; this is a genuinely different numerical path from the Markovian
  exponential. Every stage state is Hermitian, so each commutator with x
  costs one matrix product. (TCL2 proper propagates x alone,
  [x, [U_s x U_s+, rho]]; the form above is a known defect, pinned by a
  strict xfail test until it is fixed.) With no centre-of-mass Hamiltonian
  the propagators are the identity, the integral collapses to
  t * [x, [x, rho]], and both integrators must agree.

With no Hamiltonian each step of either form multiplies rho elementwise by a
factor that depends only on t, so a whole run is a cumulative product of
those factors, taken in blocks of bounded size.

Memory: a Strang step runs in one zeroed (m, m + 1) block that is allocated
once per run. Its FFT passes work on the first m columns, and its two
factors (one outer(kin, kin*) in momentum space, one Toeplitz view of a row
of 2m values in position space) each multiply the whole block once. The
shared stepping loop writes every snapshot into one preallocated
(n_snapshots, m, m) store. A Markovian run with a Hamiltonian therefore holds
the snapshots plus a few m x m arrays, and it makes no per-step allocation of
size m^2. The Lawson step keeps H's eigenbasis real, so each product with
the eigenvectors or with X is one real matrix product on the complex
operand's float view. Both steps reorder the arithmetic of the two-factor
Strang step and the complex-eigenbasis Lawson step they replaced: on a grid
near the origin, outputs agree with those within 1e-13 in V and in each
snapshot entry.

Lambda carries units 1/(m^2 s^2). For N high-temperature modes it is
N (k_B T g / (hbar c^2))^2; the general kernel is parameterized by the
internal energy variance through :func:`memory_kernel_coefficients`.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError, NumericalInstabilityError
from .internal_state import InternalStateSpec, internal_energy_variance, mean_internal_energy

HAMILTONIAN_KINDS = ("none", "free", "free_plus_linear")
EVOLUTION_FORMS = ("markovian", "full_memory")

#: Hard cap on stored snapshots (bytes); keeps long runs from exhausting RAM.
MAX_SNAPSHOT_BYTES = 1 << 30

#: Most time steps one run may take: its coherence track and times then take
#: 240 MB, allocated before the first step.
MAX_STEPS = 10**7

#: Largest grid (8192 points) whose one snapshot fits in MAX_SNAPSHOT_BYTES.
_MAX_SNAPSHOT_GRID = math.isqrt(MAX_SNAPSHOT_BYTES // 16)

_SNAPSHOT_MAGIC = b"GDSNAP01"

#: Matrix elements in one block of a whole-run product (see _products).
_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class DensityMatrixGrid:
    """Position-basis density matrix rho(x_i, x_j) on a uniform grid.

    Discrete normalization sum_i rho_ii = 1 (entries are dimensionless, not
    densities). ``pair`` marks the (i, j) element whose decay is the
    interferometric signal; every evolution records it at every step.
    """

    x: np.ndarray
    rho: np.ndarray
    pair: tuple[int, int]

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "rho", rho)
        for name, value in (("x", x), ("rho", rho)):
            if not np.all(np.isfinite(value)):
                raise DomainError(f"{name} has non-finite entries")
        if x.ndim != 1 or x.size < 2:
            raise DomainError("grid needs at least two points")
        span = float(x.max()) - float(x.min())  # Python floats overflow to inf without a warning
        if not math.isfinite(span * span):
            raise DomainError(f"grid span {span:.6g} m is too wide: its square, the dephasing's "
                              "largest (x_i - x_j)^2, overflows float64")
        dx = np.diff(x)
        if not np.all(dx > 0) or not np.allclose(dx, dx[0], rtol=1e-9, atol=0):
            raise DomainError("grid must be uniform and increasing")
        if rho.shape != (x.size, x.size):
            raise DomainError("rho must be square on the grid")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise DomainError("rho must be Hermitian")
        if abs(float(np.sum(rho.diagonal()).real) - 1.0) > 1e-10:
            raise DomainError("trace(rho) must equal 1")
        if np.min(rho.diagonal().real) < -1e-12:
            raise DomainError("diagonal of rho must be nonnegative")
        i, j = self.pair
        if not (0 <= i < x.size and 0 <= j < x.size):
            raise DomainError("pair indices outside the grid")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @classmethod
    def two_point_superposition(
        cls, x1: float, x2: float, n_points: int = 2
    ) -> "DensityMatrixGrid":
        """Equal superposition of position eigenstates at x1 and x2.

        The default 2-point grid is the exact reduced representation of this
        state; with more points the grid spans about twice the separation and
        both positions land exactly on nodes (use this with a kinetic term,
        which needs room to act).
        """
        if x2 <= x1:
            raise DomainError("need x2 > x1")
        if n_points < 2:
            raise DomainError("n_points must be >= 2")
        sep = x2 - x1
        if n_points == 2:
            grid = np.array([x1, x2])
            i1, k = 0, 1
        else:
            dx_target = 2.0 * sep / (n_points - 1)
            k = min(max(1, round(sep / dx_target)), n_points - 1)
            dx = sep / k
            i1 = (n_points - 1 - k) // 2
            grid = x1 + (np.arange(n_points) - i1) * dx
        psi = np.zeros(n_points, dtype=complex)
        psi[i1] = psi[i1 + k] = 1.0 / math.sqrt(2.0)
        return cls(x=grid, rho=np.outer(psi, psi.conj()), pair=(i1, i1 + k))


@dataclass(frozen=True)
class CMHamiltonianSpec:
    """Centre-of-mass Hamiltonian: nothing, free flight, or free + linear tilt.

    The kinetic term uses the bare mass; the gravitational tilt couples to
    the total weight, rest mass plus the mean internal energy over c^2 (a
    warm body weighs more than a cold one).
    """

    kind: str
    mass: float = 0.0
    g: float = 0.0
    internal_mean_energy: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in HAMILTONIAN_KINDS:
            raise DomainError(f"kind must be one of {HAMILTONIAN_KINDS}")
        if self.kind != "none" and self.mass <= 0:
            raise DomainError("mass must be > 0 for a dynamical centre of mass")
        if self.internal_mean_energy < 0:
            raise DomainError("internal_mean_energy must be >= 0")

    def gravitational_weight(self, consts: PhysicalConstants) -> float:
        """m + E_internal/c^2, the mass that couples to the linear potential."""
        return self.mass + self.internal_mean_energy / consts.c**2


@dataclass(frozen=True)
class EvolutionConfig:
    """Time stepping and dephasing strength for one evolution run."""

    dt: float
    t_final: float
    lambda_coefficient: float
    form: str = "markovian"
    store_every: int = 0  # 0: keep no snapshots, only the tracked pair

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.dt, self.t_final, self.lambda_coefficient))):
            raise DomainError("dt, t_final and lambda_coefficient must be finite")
        if self.dt <= 0 or self.t_final <= 0:
            raise DomainError("dt and t_final must be > 0")
        if self.t_final < self.dt:
            raise DomainError("t_final must be >= dt")
        if self.t_final / self.dt > MAX_STEPS + 0.5:
            raise DomainError(
                f"t_final / dt = {self.t_final / self.dt:.3g} steps is above the cap of "
                f"{MAX_STEPS}; use a larger --dt or a shorter --t-final"
            )
        if self.lambda_coefficient < 0:
            raise DomainError("lambda_coefficient must be >= 0")
        if self.form not in EVOLUTION_FORMS:
            raise DomainError(f"form must be one of {EVOLUTION_FORMS}")
        if self.store_every < 0:
            raise DomainError("store_every must be >= 0")

    @property
    def n_steps(self) -> int:
        n = round(self.t_final / self.dt)
        if n < 1 or abs(n * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise DomainError("t_final must be an integer multiple of dt")
        return n


@dataclass(frozen=True)
class EvolutionResult:
    """Per-step coherence track plus optional stored snapshots."""

    x: np.ndarray
    times: np.ndarray
    coherence: np.ndarray
    form: str
    snapshot_times: np.ndarray
    snapshots: np.ndarray


@dataclass(frozen=True)
class MemoryKernelCoefficients:
    """Moments and decoherence strength of the general internal-state kernel.

    ``decoherence`` times g^2 is the Lambda of the master equation. The
    force-like shift from the mean internal energy, ``mean_energy`` / c^2
    times g, is added by :meth:`CMHamiltonianSpec.gravitational_weight`.
    """

    mean_energy: float
    energy_variance: float
    decoherence: float


def memory_kernel_coefficients(
    spec: InternalStateSpec, consts: PhysicalConstants
) -> MemoryKernelCoefficients:
    e0 = mean_internal_energy(spec, consts)
    var = internal_energy_variance(spec, consts)
    return MemoryKernelCoefficients(
        mean_energy=e0,
        energy_variance=var,
        decoherence=var / (consts.hbar * consts.c**2) ** 2,
    )


def dephasing_coefficient(
    n_modes: float, temperature: float, g: float, consts: PhysicalConstants
) -> float:
    """High-temperature Lambda = N (k_B T g / (hbar c^2))^2.

    The high-temperature marker's kernel coefficient times g^2, so it is the
    same number :func:`memory_kernel_coefficients` gives.
    """
    spec = InternalStateSpec.high_temperature_limit(n_modes, temperature)
    return g**2 * memory_kernel_coefficients(spec, consts).decoherence


def _snapshot_plan(cfg: EvolutionConfig, m: int) -> list[int]:
    if cfg.store_every == 0:
        return []
    # every store_every-th step from 0, and the last; counted before any list is built
    count = cfg.n_steps // cfg.store_every + 1 + (cfg.n_steps % cfg.store_every != 0)
    need = count * m * m * 16
    if need > MAX_SNAPSHOT_BYTES:
        min_every = math.ceil(cfg.n_steps * m * m * 16 / MAX_SNAPSHOT_BYTES)
        max_t = MAX_SNAPSHOT_BYTES // (m * m * 16) * cfg.store_every * cfg.dt
        raise DomainError(
            f"snapshot storage would need {need} bytes (> {MAX_SNAPSHOT_BYTES}); "
            f"raise store_every to >= {min_every} or keep t_final <= {max_t:.6g} s"
        )
    steps = list(range(0, cfg.n_steps + 1, cfg.store_every))
    return steps if steps[-1] == cfg.n_steps else steps + [cfg.n_steps]


def _drive(rho0: DensityMatrixGrid, cfg: EvolutionConfig, form: str, state: np.ndarray,
           advance, readout, expand) -> EvolutionResult:
    """The stepping loop both integrators share: snapshot plan, finiteness
    check, tracked-pair record and result.

    ``state`` is the integrator's form of rho0. ``advance(state, step)``
    returns the states after steps step+1 .. step+k (k >= 1) stacked on a
    leading axis; ``readout(states)`` gives the tracked pair's element of
    each, and ``expand(state, out)`` writes the position-basis rho of a
    snapshot into ``out``. Every grid marks its pair, so the coherence track
    holds the pair's element at every step. Snapshots go straight into one
    store of (n_snapshots, m, m), allocated once the plan has passed its byte
    cap, so no second copy of them is ever made. Step 0 is read from rho0
    itself.
    """
    n_steps, m = cfg.n_steps, rho0.x.size
    plan = _snapshot_plan(cfg, m)
    times = np.arange(n_steps + 1) * cfg.dt
    coherence = np.empty(n_steps + 1, dtype=complex)
    coherence[0] = rho0.rho[rho0.pair]
    snapshots = np.empty((len(plan), m, m), dtype=complex)
    snapshots[:1] = rho0.rho  # step 0, when any snapshot is stored
    stored = min(1, len(plan))
    step = 0
    # A step's arithmetic may overflow float64. Where that leaves a finite
    # state (exp(-inf) = 0 is the float64 value of an exact dephasing
    # factor) the run goes on; an inf or NaN it leaves is refused by the
    # check below, which is then the only report.
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            states = advance(state, step)
            # min and max over real and imaginary parts allocate no m x m
            # temporary and cannot overflow: NaN propagates, +inf shows in the
            # max and -inf in the min. Only a failing block is searched state
            # by state.
            parts = states.reshape(len(states), -1).view(float)
            if not (math.isfinite(parts.min()) and math.isfinite(parts.max())):
                finite = np.isfinite(parts.min(axis=1)) & np.isfinite(parts.max(axis=1))
                bad = np.flatnonzero(~finite)
                raise NumericalInstabilityError(
                    f"non-finite density matrix at step {step + 1 + bad[0]}; reduce dt"
                )
            coherence[step + 1:step + 1 + len(states)] = readout(states)
            while stored < len(plan) and plan[stored] <= step + len(states):
                expand(states[plan[stored] - step - 1], snapshots[stored])
                stored += 1
            state = states[-1]
            step += len(states)
    return EvolutionResult(x=rho0.x, times=times, coherence=coherence, form=form,
                           snapshot_times=times[plan], snapshots=snapshots)


def _products(rho0: DensityMatrixGrid, cfg: EvolutionConfig, factor) -> tuple:
    """:func:`_drive` pieces for a run with no Hamiltonian.

    Each step then multiplies rho elementwise by ``factor(cfg, dsq, steps)``,
    which depends on t alone, so a block of steps is one cumulative product;
    blocks hold at most _BLOCK_ELEMENTS matrix elements.
    """
    dsq = (rho0.x[:, None] - rho0.x[None, :]) ** 2
    block = max(1, _BLOCK_ELEMENTS // dsq.size)

    def advance(rho: np.ndarray, step: int) -> np.ndarray:
        steps = np.arange(step, min(step + block, cfg.n_steps))
        return np.cumprod(np.concatenate([rho[None], factor(cfg, dsq, steps)]), axis=0)[1:]

    i, j = rho0.pair
    return rho0.rho, advance, lambda states: states[:, i, j], lambda rho, out: np.copyto(out, rho)


def _midpoint_dephasing(cfg: EvolutionConfig, dsq: np.ndarray, steps) -> np.ndarray:
    """The exact Markovian dephasing factor of each step in ``steps``."""
    t_mid = (np.asarray(steps) + 0.5) * cfg.dt
    return np.exp(-cfg.lambda_coefficient * dsq * t_mid[..., None, None] * cfg.dt)


def _kinetic(rho: np.ndarray, factor: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A rho A+ for the circulant A = ifft diag(kin) fft, written into ``out``.

    ``factor`` is outer(kin, kin*) with a spare column of zeros. The four FFT
    passes run on the first m columns of ``out``, which ``rho`` may be; the
    one factor multiplies the whole of ``out``, spare column included.
    """
    view = out[:, :rho.shape[0]]
    np.fft.fft(rho, axis=0, out=view)
    np.fft.ifft(view, axis=1, out=view)
    np.multiply(out, factor[:, :out.shape[1]], out=out)
    np.fft.ifft(view, axis=0, out=view)
    return np.fft.fft(view, axis=1, out=view)


def _hamiltonian_matrix(
    x: np.ndarray, ham: CMHamiltonianSpec, consts: PhysicalConstants
) -> np.ndarray | None:
    """Dense real symmetric H on the grid (spectral kinetic term, periodic convention)."""
    if ham.kind == "none":
        return None
    m = x.size
    dx = float(x[1] - x[0])
    k = 2.0 * math.pi * np.fft.fftfreq(m, d=dx)
    kin_diag = (consts.hbar * k) ** 2 / (2.0 * ham.mass)
    # kin_diag is even in k, so the kinetic matrix is real up to rounding
    h = np.fft.ifft(kin_diag[:, None] * np.fft.fft(np.eye(m), axis=0), axis=0).real
    if ham.kind == "free_plus_linear":
        h = h + np.diag(ham.gravitational_weight(consts) * ham.g * x)
    return 0.5 * (h + h.T)


def evolve_markovian(
    rho0: DensityMatrixGrid,
    ham: CMHamiltonianSpec,
    cfg: EvolutionConfig,
    consts: PhysicalConstants,
) -> EvolutionResult:
    """Strang-split integration of the time-local equation.

    Kinetic steps act by FFT on both indices; the potential phase and the
    dephasing factor are elementwise in the position basis. The state carried
    between steps lacks the trailing kinetic half-step, which the next step's
    leading half-step would undo into a full step. With kind="none" every
    step is exact regardless of dt.

    The state is one zeroed complex (m, m + 1) block, allocated once per run:
    the FFT passes run on its first m columns, and each elementwise factor
    multiplies the whole contiguous block (the spare column breaks the
    4 KiB row stride that makes column passes alias in cache at m = 256).
    A step is fft along axis 0, ifft along axis 1, one momentum-space factor
    outer(kin, kin*), ifft along axis 0, fft along axis 1, then one
    position-space factor. On a uniform grid the tilt phase and the
    dephasing depend on x_j - x_i = (j - i) dx alone, so that factor is a
    Toeplitz view of one row over the 2m - 1 offsets (and a spare offset of
    0): one complex exp of 2m values per step. dx is the mean spacing
    (x[-1] - x[0]) / (m - 1). Reordering the passes and merging the factors
    changes outputs by rounding only, within 1e-13 of the two-factor step in
    V and in each snapshot entry on a grid near the origin. Far from it the
    stored positions are uniform only to about |x| eps, which the dense
    x_j - x_i of the two-factor step carried and the Toeplitz row does not.
    """
    if ham.kind == "none":
        return _drive(rho0, cfg, "markovian", *_products(rho0, cfg, _midpoint_dephasing))
    m = rho0.x.size
    k = 2.0 * math.pi * np.fft.fftfreq(m, d=rho0.dx)
    half_kin = np.exp(-1j * consts.hbar * k**2 * cfg.dt / (4.0 * ham.mass))
    half, full = np.zeros((2, m, m + 1), dtype=complex)
    np.multiply.outer(half_kin, half_kin.conj(), out=half[:, :m])
    np.multiply.outer(half_kin**2, (half_kin**2).conj(), out=full[:, :m])

    # exponent[m - 1 + d] is the position factor's log at offset d = j - i,
    # x_j - x_i taken as d times the mean spacing; its imaginary part, the
    # tilt phase, is the same at every step
    offsets = np.arange(1 - m, m + 1) * ((rho0.x[-1] - rho0.x[0]) / (m - 1))
    offsets[-1] = 0.0
    neg_lam_dsq = -cfg.lambda_coefficient * offsets**2
    exponent = np.zeros(2 * m, dtype=complex)
    if ham.kind == "free_plus_linear":
        exponent.imag = ham.gravitational_weight(consts) * ham.g * offsets * cfg.dt / consts.hbar
    toeplitz = np.empty(2 * m, dtype=complex)
    position = np.lib.stride_tricks.as_strided(toeplitz[m - 1:], (m, m + 1),
                                               (-toeplitz.itemsize, toeplitz.itemsize),
                                               writeable=False)
    block = np.zeros((m, m + 1), dtype=complex)
    block[:, :m] = rho0.rho

    def advance(state: np.ndarray, step: int) -> np.ndarray:
        # state is ``block`` itself: every step overwrites it
        _kinetic(state[:, :m], half if step == 0 else full, state)
        np.multiply(neg_lam_dsq, (step + 0.5) * cfg.dt, out=exponent.real)
        np.multiply(exponent.real, cfg.dt, out=exponent.real)
        np.exp(exponent, out=toeplitz)
        np.multiply(state, position, out=state)
        return state[None]

    # The tracked pair of A rho A+ from the circulant A's rows, O(m^2).
    i, j = rho0.pair
    col = np.fft.ifft(half_kin)
    row_i = col[(i - np.arange(m)) % m]
    row_j = np.append(col[(j - np.arange(m)) % m].conj(), 0.0)
    return _drive(rho0, cfg, "markovian", block, advance,
                  lambda states: row_i @ states @ row_j,
                  lambda state, out: _kinetic(state[:, :m], half, out))


def _rk4_amplification(cfg: EvolutionConfig, dsq: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Classic RK4's factor for drho/dt = -Lambda t dsq rho over each step."""
    dt = cfg.dt
    t = (steps * dt)[:, None, None]
    a1, a2, a4 = (-cfg.lambda_coefficient * s * dsq for s in (t, t + 0.5 * dt, t + dt))
    k2 = a2 * (1.0 + 0.5 * dt * a1)
    k3 = a2 * (1.0 + 0.5 * dt * k2)
    k4 = a4 * (1.0 + dt * k3)
    return 1.0 + (dt / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)


def _kernel_window(omega: np.ndarray):
    """The map t -> int_0^t exp(-i w s) ds = (1 - e^{-i w t}) / (i w), elementwise in w.

    With tau = tan(w t / 2) the window is (2 tau / w)(1 - i tau) / (1 + tau^2):
    one vectorised tan and no complex exp, and no cancellation at small w t.
    2 / w is formed once; entries with w == 0 take the limit t.
    """
    zero = omega == 0.0
    two_over_omega = 2.0 / np.where(zero, 1.0, omega)

    def window(t: float) -> np.ndarray:
        tau = np.tan((0.5 * t) * omega)
        real = np.where(zero, t, two_over_omega * tau / (1.0 + tau * tau))
        return real - 1j * (real * tau)

    return window


def _real_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real a and complex b (last axis contiguous): one real
    product on b's float view, half the arithmetic of a complex one."""
    return (a @ b.view(float)).view(complex)


def _sandwich(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """a rho a^T for real a, as two real products: (a (a rho)^T)^T, a
    transposed view."""
    return _real_times(a, np.ascontiguousarray(_real_times(a, np.ascontiguousarray(rho)).T)).T


def evolve_full_memory(
    rho0: DensityMatrixGrid,
    ham: CMHamiltonianSpec,
    cfg: EvolutionConfig,
    consts: PhysicalConstants,
) -> EvolutionResult:
    """Lawson RK4 integration of the time-convolutionless kernel equation.

    rho is held in the eigenbasis of H, with X the position operator there:
    the H flow over dt/2 is the elementwise exp(-i w dt/2), sandwiching by
    U_s is elementwise, and int_0^t exp(-i w s) ds has closed form, computed
    once per distinct stage time. That window, (1 - e^{-i w t}) / (i w), is
    taken in its half-angle form (2 tau / w)(1 - i tau) / (1 + tau^2), tau =
    tan(w t / 2): one vectorised tan and no complex exp, and no cancellation
    at small w t (:func:`_kernel_window`). Every stage state is Hermitian, so
    [X, rho] = X rho - (X rho)+ and, the windowed commutator being
    anti-Hermitian, [X, W] = X W + (X W)+: one matmul per commutator. With
    kind="none" each step is classic RK4 of -Lambda t [x, [x, rho]], an
    elementwise factor.

    H is real symmetric, so its eigenvectors q and X = q^T x q are real, and
    every product of them with a complex matrix (both in each commutator, the
    basis change of rho0, the pair readout and each snapshot) is one real
    product on the complex operand's float view, half the arithmetic of a
    complex one. Against complex eigenvectors this changes outputs by
    rounding only, within 1e-13 in V and in each snapshot entry.
    """
    x = rho0.x
    h = _hamiltonian_matrix(x, ham, consts)
    if h is None:
        return _drive(rho0, cfg, "full_memory", *_products(rho0, cfg, _rk4_amplification))
    dt = cfg.dt
    evals, q = np.linalg.eigh(h)
    omega = (evals[:, None] - evals[None, :]) / consts.hbar
    xq = q.T @ (x[:, None] * q)
    half = np.exp(-0.5j * omega * dt)
    kernel_window = _kernel_window(omega)

    def dissipator(window: np.ndarray, rho: np.ndarray) -> np.ndarray:
        c = _real_times(xq, rho)
        d = _real_times(xq, window * (c - c.conj().T))
        return -cfg.lambda_coefficient * (d + d.conj().T)

    window_end = kernel_window(0.0)

    def advance(rho: np.ndarray, step: int) -> np.ndarray:
        nonlocal window_end
        t = step * dt
        window_start, window_mid = window_end, kernel_window(t + 0.5 * dt)
        window_end = kernel_window(t + dt)
        k1 = dissipator(window_start, rho)
        k2 = dissipator(window_mid, half * (rho + 0.5 * dt * k1))
        turned = half * rho
        k3 = dissipator(window_mid, turned + 0.5 * dt * k2)
        k4 = dissipator(window_end, half * (turned + dt * k3))
        return (half * (half * (rho + (dt / 6.0) * k1) + (dt / 3.0) * (k2 + k3))
                + (dt / 6.0) * k4)[None]

    i, j = rho0.pair
    return _drive(rho0, cfg, "full_memory", np.ascontiguousarray(_sandwich(q.T, rho0.rho)),
                  advance, lambda states: _real_times(q[i], states) @ q[j],
                  lambda rho, out: np.copyto(out, _sandwich(q, rho)))


def evolve(
    rho0: DensityMatrixGrid,
    ham: CMHamiltonianSpec,
    cfg: EvolutionConfig,
    consts: PhysicalConstants,
) -> EvolutionResult:
    """Dispatch on ``cfg.form``."""
    if cfg.form == "markovian":
        return evolve_markovian(rho0, ham, cfg, consts)
    return evolve_full_memory(rho0, ham, cfg, consts)


def extract_visibility(result: EvolutionResult):
    """Visibility V(t) = 2 |rho(x1, x2, t)| of the tracked pair, at every step.

    The pair is the one the initial state marked (``DensityMatrixGrid.pair``),
    whose element every run's coherence track holds. The curve is 2 |rho_pair|
    clipped to [0, 1] and is not rescaled: a pair whose V(0) is not 1 is a
    DomainError (``VisibilityCurve`` checks it).
    """
    from .visibility import VisibilityCurve

    values = np.clip(2.0 * np.abs(result.coherence), 0.0, 1.0)
    return VisibilityCurve(times=result.times, values=values, law="master-equation")


def save_snapshots(path: str, times: np.ndarray, x: np.ndarray, snapshots: np.ndarray) -> None:
    """Write snapshots as little-endian binary.

    Layout: magic "GDSNAP01", int64 n_snapshots, int64 m, float64 xmin,
    float64 xmax, then per snapshot a float64 time followed by m*m
    complex128 values in row-major order. A grid of more than 8192 points,
    whose one snapshot would pass ``MAX_SNAPSHOT_BYTES``, is refused, so
    every file written here reads back.
    """
    times = np.asarray(times, dtype=float)
    snapshots = np.asarray(snapshots, dtype=complex)
    x = np.asarray(x, dtype=float)
    if snapshots.ndim != 3 or snapshots.shape[0] != times.size:
        raise DomainError("snapshots must be (n, m, m) matching times")
    n, m, m2 = snapshots.shape
    if m != m2 or m != x.size:
        raise DomainError("snapshot matrices must be square on the grid")
    if m > _MAX_SNAPSHOT_GRID:
        raise DomainError(f"{path}: grid of {m} points exceeds {_MAX_SNAPSHOT_GRID}")
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_MAGIC)
        fh.write(struct.pack("<qqdd", n, m, float(x[0]), float(x[-1])))
        for t, rho in zip(times, snapshots):
            fh.write(struct.pack("<d", float(t)))
            fh.write(np.ascontiguousarray(rho, dtype="<c16"))


def load_snapshots(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`save_snapshots`; returns (times, x, snapshots).

    The header is checked before anything is allocated: its grid size
    against the largest :func:`save_snapshots` writes, then its counts
    against the file size. So a truncated or forged file is a DomainError
    naming the path, not a MemoryError. The file is then read in one pass,
    and times and snapshots are strided views of that one buffer.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_SNAPSHOT_MAGIC)) != _SNAPSHOT_MAGIC:
            raise DomainError(f"{path}: not a snapshot file")
        header = fh.read(32)
        if len(header) != 32:
            raise DomainError(f"{path}: truncated snapshot header")
        n, m, xmin, xmax = struct.unpack("<qqdd", header)
        if n < 0 or not 2 <= m <= _MAX_SNAPSHOT_GRID:
            raise DomainError(f"{path}: corrupt snapshot header")
        size = os.fstat(fh.fileno()).st_size
        expected = len(_SNAPSHOT_MAGIC) + 32 + n * (8 + 16 * m * m)
        if size != expected:
            raise DomainError(
                f"{path}: {size} bytes, but its header (n = {n}, m = {m}) needs {expected}"
            )
        # one row per snapshot: its time, then its m*m complex values as float pairs
        rows = np.fromfile(fh, dtype="<f8", count=n * (1 + 2 * m * m)).reshape(n, 1 + 2 * m * m)
    return rows[:, 0], np.linspace(xmin, xmax, m), rows[:, 1:].view("<c16").reshape(n, m, m)
