from __future__ import annotations

import functools
import math
import struct

import numpy as np
import pytest

from gravidec import (
    CMHamiltonianSpec,
    DensityMatrixGrid,
    EvolutionConfig,
    InternalStateSpec,
    decoherence_time,
    default_constants,
    dephasing_coefficient,
    evolve,
    evolve_full_memory,
    evolve_markovian,
    extract_visibility,
    gaussian_visibility,
    load_snapshots,
    memory_kernel_coefficients,
    save_snapshots,
)
from gravidec.errors import DomainError, NumericalInstabilityError
from gravidec.internal_state import internal_energy_variance, mean_internal_energy
from gravidec.master_equation import (
    MAX_STEPS,
    _SNAPSHOT_MAGIC,
    _drive,
    _hamiltonian_matrix,
    _kernel_window,
    _snapshot_plan,
)

CONSTS = default_constants()
FREE = CMHamiltonianSpec(kind="none")


def _two_point(dx: float = 1e-3) -> DensityMatrixGrid:
    return DensityMatrixGrid.two_point_superposition(0.0, dx)


def test_two_point_superposition_exact_matrix():
    grid = _two_point()
    assert grid.x.shape == (2,)
    assert grid.pair == (0, 1)
    assert np.allclose(grid.rho, 0.5 * np.ones((2, 2)))
    assert 2.0 * abs(grid.rho[grid.pair]) == pytest.approx(1.0, abs=1e-15)


def test_two_point_superposition_wide_grid_places_nodes():
    grid = DensityMatrixGrid.two_point_superposition(0.0, 1e-3, n_points=33)
    i, j = grid.pair
    assert grid.x[i] == pytest.approx(0.0, abs=1e-18)
    assert grid.x[j] == pytest.approx(1e-3, rel=1e-12)
    assert float(np.sum(grid.rho.diagonal()).real) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.xfail(
    strict=True,
    reason="for even n_points, sep / dx_target is exactly (n_points - 1) / 2, and round() "
    "breaks that tie by sep's last bit: 1e-6 at x1 = 0 takes 32 steps, at x1 = 1e-3 31",
)
def test_two_point_grid_takes_the_same_steps_for_the_same_separation_translated():
    sep = 1e-6
    steps = set()
    for x1 in (0.0, 1e-3):
        i, j = DensityMatrixGrid.two_point_superposition(x1, x1 + sep, n_points=64).pair
        steps.add(j - i)
    assert len(steps) == 1, steps


def test_grid_rejects_bad_states():
    x = np.linspace(0.0, 1.0, 4)
    ok = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    DensityMatrixGrid(x=x, rho=ok, pair=(0, 3))
    with pytest.raises(DomainError):
        DensityMatrixGrid(x=np.array([0.0, 1.0, 3.0, 4.0]), rho=ok, pair=(0, 3))  # nonuniform
    with pytest.raises(DomainError):
        DensityMatrixGrid(x=x[::-1].copy(), rho=ok, pair=(0, 3))  # decreasing
    with pytest.raises(DomainError):
        DensityMatrixGrid(x=x, rho=2.0 * ok, pair=(0, 3))  # trace 2
    bad = ok.copy()
    bad[0, 1] = 0.3
    with pytest.raises(DomainError):
        DensityMatrixGrid(x=x, rho=bad, pair=(0, 3))  # not Hermitian
    neg = np.diag([-0.25, 0.75, 0.25, 0.25]).astype(complex)
    with pytest.raises(DomainError):
        DensityMatrixGrid(x=x, rho=neg, pair=(0, 3))  # negative population
    with pytest.raises(DomainError):
        DensityMatrixGrid(x=x, rho=ok, pair=(0, 9))
    with pytest.raises(TypeError, match="pair"):
        DensityMatrixGrid(x=x, rho=ok)  # every grid tracks a pair


def test_grid_refuses_non_finite_entries():
    # NaN fails every comparison, so it slipped past the Hermiticity, trace
    # and population checks and surfaced only as an instability blaming dt
    rho = np.full((2, 2), 0.5, dtype=complex)
    rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(DomainError, match="^rho has non-finite"):
        DensityMatrixGrid(x=np.array([0.0, 1e-3]), rho=rho, pair=(0, 1))
    with pytest.raises(DomainError, match="^x has non-finite"):
        DensityMatrixGrid(x=np.array([0.0, np.inf]), rho=np.eye(2) / 2, pair=(0, 1))


def test_markovian_matches_gaussian_law_exactly():
    # pure dephasing on the 2-point grid steps by the exact midpoint factor,
    # which telescopes to exp(-Lambda dx^2 t^2 / 2) independent of dt
    dx = 2e-3
    lam = 3.7e5
    cfg = EvolutionConfig(dt=1e-3, t_final=0.1, lambda_coefficient=lam)
    result = evolve_markovian(_two_point(dx), FREE, cfg, CONSTS)
    expected = np.exp(-lam * dx**2 * result.times**2 / 2.0)
    v = 2.0 * np.abs(result.coherence)
    assert np.max(np.abs(v - expected)) < 1e-14


def test_markovian_step_size_invariance():
    dx, lam = 1e-3, 2.4e6
    coarse = evolve_markovian(
        _two_point(dx), FREE, EvolutionConfig(dt=0.05, t_final=0.2, lambda_coefficient=lam), CONSTS
    )
    fine = evolve_markovian(
        _two_point(dx), FREE, EvolutionConfig(dt=0.001, t_final=0.2, lambda_coefficient=lam), CONSTS
    )
    # only rounding separates 4 steps from 200; any dt-dependent scheme error
    # would show at the 1e-2 level here
    assert abs(coarse.coherence[-1] - fine.coherence[-1]) < 1e-13


def test_markovian_preserves_trace_hermiticity_and_diagonal():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    grid = DensityMatrixGrid(x=np.linspace(0.0, 5e-3, 6), rho=rho, pair=(0, 5))
    cfg = EvolutionConfig(
        dt=1e-2, t_final=0.3, lambda_coefficient=1e5, store_every=10
    )
    result = evolve_markovian(grid, FREE, cfg, CONSTS)
    for snap in result.snapshots:
        assert abs(np.sum(snap.diagonal()).real - 1.0) < 1e-12
        assert np.max(np.abs(snap - snap.conj().T)) < 1e-12
        # pure dephasing never moves population between positions
        assert np.max(np.abs(snap.diagonal() - rho.diagonal())) < 1e-14


def test_dephasing_coefficient_reproduces_decoherence_time():
    # Lambda dx^2 = 2 / tau_dec^2 ties the master equation to the closed form
    n, t, g, dx = 1e23, 300.0, 9.81, 1e-3
    lam = dephasing_coefficient(n, t, g, CONSTS)
    tau = decoherence_time(n, t, g, dx, CONSTS)
    assert math.isclose(lam * dx**2, 2.0 / tau**2, rel_tol=1e-12)
    with pytest.raises(DomainError):
        dephasing_coefficient(-1.0, t, g, CONSTS)


def test_config_rejects_non_dividing_dt():
    with pytest.raises(DomainError):
        EvolutionConfig(dt=0.3, t_final=1.0, lambda_coefficient=0.0).n_steps
    with pytest.raises(DomainError):
        EvolutionConfig(dt=0.0, t_final=1.0, lambda_coefficient=0.0)
    with pytest.raises(DomainError):
        EvolutionConfig(dt=0.1, t_final=1.0, lambda_coefficient=-1.0)
    with pytest.raises(DomainError):
        EvolutionConfig(dt=0.1, t_final=1.0, lambda_coefficient=0.0, form="exact")
    for bad in ({"dt": math.nan}, {"t_final": math.inf}, {"lambda_coefficient": math.inf},
                {"lambda_coefficient": math.nan}):
        with pytest.raises(DomainError, match="finite"):
            EvolutionConfig(**{"dt": 0.1, "t_final": 1.0, "lambda_coefficient": 0.0, **bad})


def test_full_memory_reduces_to_markovian_without_hamiltonian():
    dx, lam = 1.5e-3, 8e5
    cfg_m = EvolutionConfig(dt=2e-3, t_final=0.2, lambda_coefficient=lam)
    cfg_f = EvolutionConfig(dt=2e-3, t_final=0.2, lambda_coefficient=lam, form="full_memory")
    vm = 2.0 * np.abs(evolve_markovian(_two_point(dx), FREE, cfg_m, CONSTS).coherence)
    vf = 2.0 * np.abs(evolve_full_memory(_two_point(dx), FREE, cfg_f, CONSTS).coherence)
    # RK4 error only; the kernels are identical when the propagator is trivial
    assert np.max(np.abs(vm - vf)) < 1e-10


def test_evolve_dispatches_on_form():
    cfg = EvolutionConfig(dt=1e-2, t_final=0.1, lambda_coefficient=1e4, form="full_memory")
    result = evolve(_two_point(), FREE, cfg, CONSTS)
    assert result.form == "full_memory"


def test_full_memory_with_free_hamiltonian_stays_physical():
    grid = DensityMatrixGrid.two_point_superposition(0.0, 1e-6, n_points=32)
    ham = CMHamiltonianSpec(kind="free", mass=1e-20)
    cfg = EvolutionConfig(
        dt=5e-4, t_final=0.05, lambda_coefficient=1e11, form="full_memory", store_every=20
    )
    result = evolve_full_memory(grid, ham, cfg, CONSTS)
    for snap in result.snapshots:
        assert abs(np.sum(snap.diagonal()).real - 1.0) < 1e-9
        assert np.max(np.abs(snap - snap.conj().T)) < 1e-9
    assert np.all(2.0 * np.abs(result.coherence) <= 1.0 + 1e-9)


def _libm_window(omega: np.ndarray, t: float) -> np.ndarray:
    """(1 - e^{-i w t}) / (i w) by complex exp, with a first-order Taylor
    branch below |w t| = 1e-8: the form the half-angle window replaced."""
    wt = omega * t
    small = np.abs(wt) < 1e-8
    omega_safe = np.where(small, 1.0, omega)
    with np.errstate(invalid="ignore"):
        full = (1.0 - np.exp(-1j * wt)) / (1j * omega_safe)
    return np.where(small, t * (1.0 - 0.5j * wt), full)


def test_kernel_window_matches_libm_form():
    # A free-flight spectrum: w == 0 on the diagonal, near-degenerate +-k
    # pairs with |w t| < 1e-8, and |w t| up to ~9 at the last t; plus
    # hand-picked w that put w t at +-pi, 2 pi and 1e-300.
    grid = DensityMatrixGrid.two_point_superposition(0.0, 1e-6, n_points=32)
    evals = np.linalg.eigvalsh(
        _hamiltonian_matrix(grid.x, CMHamiltonianSpec(kind="free", mass=1e-24), CONSTS))
    spectrum = (evals[:, None] - evals[None, :]) / CONSTS.hbar
    w_max = float(np.max(spectrum))
    special = np.array([0.0, 1.0, -1.0, math.pi, -math.pi, 2.0 * math.pi, 1e-300, -1e-300])
    eps = np.finfo(float).eps
    for omega, times in ((spectrum, (0.0, 1e-12, 1e-7, math.pi / w_max, 7e-5)),
                         (special, (0.0, 1.0, 0.5, math.pi))):
        window = _kernel_window(omega)
        for t in times:
            new, ref = window(t), _libm_window(omega, t)
            small = np.abs(omega * t) < 1e-8
            # a few ulps of |window| <= |t|, plus the libm form's own
            # cancellation in 1 - cos(w t), eps / |w|, above its Taylor branch
            bound = 4.0 * eps * np.abs(ref) + np.where(
                small, 0.0, 2.0 * eps / np.abs(np.where(small, 1.0, omega)))
            assert np.all(np.abs(new - ref) <= bound), t
            assert np.all(new[omega == 0.0] == t)  # the w -> 0 limit, exactly
    # exact endpoints: nothing accumulated at t = 0, and at w t = 1e-300
    # (w = 1, so 2/w is exact) the window is t - 0j like the Taylor branch
    assert np.all(_kernel_window(spectrum)(0.0) == 0.0)
    tiny = _kernel_window(np.array([1.0, -1.0]))(1e-300)
    assert np.all(tiny == 1e-300)


@pytest.mark.parametrize("m", [32, 64])
def test_full_memory_free_flight_keeps_its_visibility(m):
    # With kind="free" the +-k pairs are degenerate up to rounding, so most
    # off-diagonal w are tiny (|w t| < 1e-8 for 30 of 32^2 and 62 of 64^2
    # entries): the regime a Taylor branch once guarded. At m = 64, |w t|
    # also passes pi. V every 25 steps was recorded from that complex-exp
    # window; the half-angle form reproduces it to within 1 ulp here, held
    # to 1e-12 against eigensolver rounding. Dephasing moves the final V
    # from 0.51 to 0.31 (m = 32) and from 0.067 to 0.036 (m = 64).
    recorded = {
        32: [0.9999999999999998, 0.9776073931458402, 0.9144281324193947, 0.8209859308010111,
             0.7107853913848866, 0.5965843317085708, 0.48799255665113767, 0.3907786402078529,
             0.30738936140200157],
        64: [0.9999999999999998, 0.8419925167991464, 0.4993211923277096, 0.20240446905359927,
             0.07047245883218295, 0.07174676420678387, 0.0957347055734835, 0.07730843499137074,
             0.03605649959184132],
    }
    grid = DensityMatrixGrid.two_point_superposition(0.0, 1e-6, n_points=m)
    ham = CMHamiltonianSpec(kind="free", mass=1e-24)
    cfg = EvolutionConfig(dt=1e-7, t_final=2e-5, lambda_coefficient=4e21, form="full_memory")
    v = 2.0 * np.abs(evolve_full_memory(grid, ham, cfg, CONSTS).coherence)
    assert np.all(np.isfinite(v))
    assert np.max(np.abs(v[::25] - recorded[m])) < 1e-12


def test_tilted_hamiltonian_only_adds_phase_to_two_point_coherence():
    # the equal two-point superposition is a kinetic eigenstate, so free
    # flight plus tilt rotates rho_12 by m g dx t / hbar without damping it;
    # parameters keep the per-step phase below 1 rad so nothing wraps
    dx, lam = 1e-3, 5e5
    ham = CMHamiltonianSpec(kind="free_plus_linear", mass=1e-26, g=9.81)
    cfg = EvolutionConfig(dt=1e-6, t_final=1e-4, lambda_coefficient=lam)
    with_h = evolve_markovian(_two_point(dx), ham, cfg, CONSTS)
    without = evolve_markovian(_two_point(dx), FREE, cfg, CONSTS)
    assert np.allclose(np.abs(with_h.coherence), np.abs(without.coherence), atol=1e-10)
    phase = float(np.angle(with_h.coherence[-1] / without.coherence[-1]))
    expected = ham.mass * 9.81 * dx * cfg.t_final / CONSTS.hbar
    diff = (phase - expected + math.pi) % (2 * math.pi) - math.pi
    assert abs(diff) < 1e-9


def test_memory_kernel_coefficients_from_internal_state():
    spec = InternalStateSpec.from_frequencies((3e11, 9e11, 2e12), 250.0)
    coeffs = memory_kernel_coefficients(spec, CONSTS)
    e0 = mean_internal_energy(spec, CONSTS)
    var = internal_energy_variance(spec, CONSTS)
    assert coeffs.mean_energy == e0
    assert coeffs.energy_variance == var
    assert math.isclose(
        coeffs.decoherence, var / (CONSTS.hbar * CONSTS.c**2) ** 2, rel_tol=1e-15
    )


def test_gravitational_weight_includes_internal_energy():
    ham = CMHamiltonianSpec(kind="free", mass=2e-25, internal_mean_energy=3e-8)
    assert math.isclose(
        ham.gravitational_weight(CONSTS), 2e-25 + 3e-8 / CONSTS.c**2, rel_tol=1e-15
    )
    with pytest.raises(DomainError):
        CMHamiltonianSpec(kind="free", mass=0.0)
    with pytest.raises(DomainError):
        CMHamiltonianSpec(kind="spline")


def test_snapshot_plan_and_roundtrip(tmp_path):
    cfg = EvolutionConfig(dt=1e-2, t_final=0.1, lambda_coefficient=1e5, store_every=3)
    result = evolve_markovian(_two_point(), FREE, cfg, CONSTS)
    # steps 0, 3, 6, 9 plus the forced final step 10
    assert result.snapshots.shape == (5, 2, 2)
    assert np.allclose(result.snapshot_times, [0.0, 0.03, 0.06, 0.09, 0.10])

    path = tmp_path / "run.snap"
    save_snapshots(str(path), result.snapshot_times, result.x, result.snapshots)
    times, x, snaps = load_snapshots(str(path))
    assert np.array_equal(times, result.snapshot_times)
    assert np.allclose(x, result.x)
    assert np.array_equal(snaps, result.snapshots)


def test_snapshot_files_hold_grids_whose_one_snapshot_fits_the_byte_cap(tmp_path):
    # 16 * 8192^2 B is MAX_SNAPSHOT_BYTES; n = 0 keeps both files header-only
    edge = tmp_path / "edge.snap"
    save_snapshots(str(edge), np.empty(0), np.linspace(0.0, 1.0, 8192),
                   np.empty((0, 8192, 8192), dtype=complex))
    assert load_snapshots(str(edge))[2].shape == (0, 8192, 8192)
    over = tmp_path / "over.snap"
    with pytest.raises(DomainError, match="grid of 8193 points exceeds 8192") as info:
        save_snapshots(str(over), np.empty(0), np.linspace(0.0, 1.0, 8193),
                       np.empty((0, 8193, 8193), dtype=complex))
    assert str(over) in str(info.value) and not over.exists()


def test_snapshot_memory_guard_names_remedy():
    grid = DensityMatrixGrid.two_point_superposition(0.0, 1e-3, n_points=512)
    cfg = EvolutionConfig(dt=1e-6, t_final=1.0, lambda_coefficient=0.0, store_every=1)
    with pytest.raises(DomainError, match="store_every"):
        evolve_markovian(grid, FREE, cfg, CONSTS)


def test_config_caps_the_step_count_before_anything_is_allocated():
    # the cap holds at t_final / dt = MAX_STEPS; above it, and for a ratio
    # past float range, the refusal names the remedy
    assert EvolutionConfig(dt=1e-7, t_final=1.0, lambda_coefficient=0.0).n_steps == MAX_STEPS
    for dt, t_final in ((1e-7, 1.0 + 2e-7), (1e-300, 1e-2), (1e-300, 1e10)):
        with pytest.raises(DomainError, match="use a larger --dt or a shorter --t-final"):
            EvolutionConfig(dt=dt, t_final=t_final, lambda_coefficient=0.0)


def test_snapshot_plan_refuses_by_its_count_before_building_the_plan():
    # 10^6 + 1 snapshots of a 64-point grid pass the 1 GiB cap; the plan is
    # refused by arithmetic, where a list of every step held 10^6 ints
    import tracemalloc

    cfg = EvolutionConfig(dt=1e-6, t_final=1.0, lambda_coefficient=0.0, store_every=1)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="store_every to >= 62 "):
            _snapshot_plan(cfg, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    plan = EvolutionConfig(dt=1e-2, t_final=0.1, lambda_coefficient=0.0, store_every=5)
    assert _snapshot_plan(plan, 64) == [0, 5, 10]


def test_load_snapshots_rejects_foreign_file(tmp_path):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"not a snapshot file at all")
    with pytest.raises(DomainError, match="not a snapshot"):
        load_snapshots(str(path))


@pytest.mark.parametrize(
    "forge, message",
    [
        (lambda head, body: head[:20], "truncated snapshot header"),
        (lambda head, body: head[:8] + struct.pack("<qq", 1, 1) + head[24:] + body,
         "corrupt snapshot header"),
        (lambda head, body: head[:8] + struct.pack("<qq", -1, 2) + head[24:] + body,
         "corrupt snapshot header"),
        (lambda head, body: head[:8] + struct.pack("<q", 2**40) + head[16:] + body,
         "but its header"),
        (lambda head, body: head + body[:-1], "but its header"),
        (lambda head, body: head + body + b"\0", "but its header"),
        # n = 0 matches a bare 40-byte header for any m, so m is bounded first
        (lambda head, body: head[:8] + struct.pack("<qq", 0, 2**24) + head[24:],
         "corrupt snapshot header"),
        (lambda head, body: head[:8] + struct.pack("<qq", 0, 2**40) + head[24:],
         "corrupt snapshot header"),
    ],
    ids=["short-header", "m-below-2", "negative-n", "forged-n", "one-byte-short", "one-byte-long",
         "empty-m-2^24", "empty-m-2^40"],
)
def test_load_snapshots_checks_header_against_size(tmp_path, forge, message):
    cfg = EvolutionConfig(dt=1e-2, t_final=0.05, lambda_coefficient=1e5, store_every=1)
    result = evolve_markovian(_two_point(), FREE, cfg, CONSTS)
    good = tmp_path / "run.snap"
    save_snapshots(str(good), result.snapshot_times, result.x, result.snapshots)
    data = good.read_bytes()
    path = tmp_path / "forged.snap"
    path.write_bytes(forge(data[:40], data[40:]))
    with pytest.raises(DomainError, match=message) as info:
        load_snapshots(str(path))
    assert str(path) in str(info.value)


def test_extract_visibility_reads_the_tracked_pair():
    dx = 1e-3
    cfg = EvolutionConfig(dt=1e-2, t_final=0.2, lambda_coefficient=3e5, store_every=5)
    result = evolve_markovian(_two_point(dx), FREE, cfg, CONSTS)
    curve = extract_visibility(result)
    assert curve.values[0] == pytest.approx(1.0, abs=1e-12)
    assert curve.times.size == result.times.size
    assert np.all(np.diff(curve.values) <= 1e-15)


def test_extract_visibility_refuses_a_pair_whose_initial_visibility_is_not_one():
    # V(0) = 2 |rho_12| = 0.5: the curve is refused, not rescaled to start at 1
    grid = DensityMatrixGrid(x=np.array([0.0, 1e-3]), rho=np.array([[0.5, 0.25], [0.25, 0.5]]),
                             pair=(0, 1))
    cfg = EvolutionConfig(dt=1e-2, t_final=0.1, lambda_coefficient=1e5)
    result = evolve_markovian(grid, FREE, cfg, CONSTS)
    with pytest.raises(DomainError, match="visibility at t = 0 must be 1"):
        extract_visibility(result)


def test_runaway_coefficient_raises_instability():
    cfg = EvolutionConfig(
        dt=1.0, t_final=10.0, lambda_coefficient=1e300, form="full_memory"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalInstabilityError, match="reduce dt"):
            evolve_full_memory(_two_point(1.0), FREE, cfg, CONSTS)


# Reference integrators: the step-by-step forms that the shared driver's
# merged, eigenbasis and whole-run routes must reproduce.


def _kinetic_half(grid: DensityMatrixGrid, ham: CMHamiltonianSpec, dt: float) -> np.ndarray:
    k = 2.0 * math.pi * np.fft.fftfreq(grid.x.size, d=grid.dx)
    return np.exp(-1j * CONSTS.hbar * k**2 * dt / (4.0 * ham.mass))


def _potential(grid: DensityMatrixGrid, ham: CMHamiltonianSpec) -> np.ndarray:
    if ham.kind != "free_plus_linear":
        return np.zeros(grid.x.size)
    return ham.gravitational_weight(CONSTS) * ham.g * grid.x


def _track(grid, cfg, step_fn):
    """Run ``rho = step_fn(rho, step)``; return the pair track and snapshots."""
    rho = grid.rho.copy()
    coherence, snaps = [rho[grid.pair]], [rho.copy()]
    for step in range(cfg.n_steps):
        rho = step_fn(rho, step)
        if not np.all(np.isfinite(rho)):
            raise NumericalInstabilityError(
                f"non-finite density matrix at step {step + 1}; reduce dt"
            )
        coherence.append(rho[grid.pair])
        if cfg.store_every and ((step + 1) % cfg.store_every == 0 or step + 1 == cfg.n_steps):
            snaps.append(rho.copy())
    return np.array(coherence), np.array(snaps)


def _kinetic_alloc(rho: np.ndarray, kin: np.ndarray) -> np.ndarray:
    """A rho A+ for the circulant A = ifft diag(kin) fft, a fresh array per pass."""
    rho = np.fft.ifft(kin[:, None] * np.fft.fft(rho, axis=0), axis=0)
    return np.fft.fft(kin.conj()[None, :] * np.fft.ifft(rho, axis=1), axis=1)


def _strang_unmerged(grid, ham, cfg):
    """Both kinetic half-steps in every step."""
    half = _kinetic_half(grid, ham, cfg.dt)
    v = _potential(grid, ham)
    pot = np.exp(-1j * (v[:, None] - v[None, :]) * cfg.dt / CONSTS.hbar)
    dsq = (grid.x[:, None] - grid.x[None, :]) ** 2

    def step_fn(rho, step):
        t_mid = (step + 0.5) * cfg.dt
        rho = _kinetic_alloc(rho, half) * pot
        return _kinetic_alloc(rho * np.exp(-cfg.lambda_coefficient * dsq * t_mid * cfg.dt), half)

    return _track(grid, cfg, step_fn)


def _strang_two_factor(grid, ham, cfg):
    """The merged Strang step of the two-factor form, the pass order and
    factors the one-block step replaced: per step fft and ifft along axis 0
    around the kinetic factor of the rows, then ifft and fft along axis 1
    around that of the columns, then the dense tilt phase and the dense
    dephasing factor, each a multiply of its own."""
    m = grid.x.size
    half = _kinetic_half(grid, ham, cfg.dt)
    full = half**2
    pot = 1.0
    if ham.kind == "free_plus_linear":
        v = _potential(grid, ham)
        pot = np.exp(-1j * (v[:, None] - v[None, :]) * cfg.dt / CONSTS.hbar)
    dsq = (grid.x[:, None] - grid.x[None, :]) ** 2
    i, j = grid.pair
    col = np.fft.ifft(half)
    row_i = col[(i - np.arange(m)) % m]
    row_j = col[(j - np.arange(m)) % m].conj()
    rho = grid.rho
    coherence, snaps = [rho[grid.pair]], [rho.copy()]
    for step in range(cfg.n_steps):
        t_mid = (np.asarray(step) + 0.5) * cfg.dt
        rho = _kinetic_alloc(rho, half if step == 0 else full) * pot
        rho = rho * np.exp(-cfg.lambda_coefficient * dsq * t_mid[..., None, None] * cfg.dt)
        coherence.append((row_i @ rho[None] @ row_j)[0])
        if (step + 1) % cfg.store_every == 0 or step + 1 == cfg.n_steps:
            snaps.append(_kinetic_alloc(rho, half))
    return np.array(coherence), np.array(snaps)


def _strang_merged_allocating(grid, ham, cfg):
    """The merged Strang step with a fresh array for every FFT pass and
    factor: fft along axis 0, ifft along axis 1, the momentum-space factor
    outer(kin, kin*), ifft along axis 0, fft along axis 1, then the
    position-space factor built densely from (j - i) times the mean spacing.
    The pair is read from a stack of one state, and snapshots are collected
    in a list. The one-block step must reproduce it bit for bit."""
    m = grid.x.size
    half = _kinetic_half(grid, ham, cfg.dt)
    full = half**2
    outer_half = np.multiply.outer(half, half.conj())
    outer_full = np.multiply.outer(full, full.conj())
    spacing = (grid.x[-1] - grid.x[0]) / (m - 1)
    offset = (np.arange(m)[None, :] - np.arange(m)[:, None]) * spacing
    tilt = np.zeros((m, m))
    if ham.kind == "free_plus_linear":
        tilt = ham.gravitational_weight(CONSTS) * ham.g * offset * cfg.dt / CONSTS.hbar
    i, j = grid.pair
    col = np.fft.ifft(half)
    row_i = col[(i - np.arange(m)) % m]
    row_j = col[(j - np.arange(m)) % m].conj()

    def kinetic(rho, outer):
        rho = np.fft.ifft(np.fft.fft(rho, axis=0), axis=1) * outer
        return np.fft.fft(np.fft.ifft(rho, axis=0), axis=1)

    rho = grid.rho
    coherence, snaps = [rho[grid.pair]], [rho.copy()]
    for step in range(cfg.n_steps):
        exponent = np.empty((m, m), dtype=complex)
        exponent.real = -cfg.lambda_coefficient * offset**2 * ((step + 0.5) * cfg.dt) * cfg.dt
        exponent.imag = tilt
        rho = kinetic(rho, outer_half if step == 0 else outer_full) * np.exp(exponent)
        coherence.append((row_i @ rho[None] @ row_j)[0])
        if (step + 1) % cfg.store_every == 0 or step + 1 == cfg.n_steps:
            snaps.append(kinetic(rho, outer_half))
    return np.array(coherence), np.array(snaps)


def _lawson_complex_eigenbasis(grid, ham, cfg):
    """Lawson RK4 of the kernel equation in the eigenbasis of a complex
    Hermitian H: zheevd's eigenvectors, a complex X, and complex matrix
    products for every product with them, the form the real eigenbasis
    replaced."""
    m = grid.x.size
    k = 2.0 * math.pi * np.fft.fftfreq(m, d=grid.dx)
    h = np.fft.ifft(((CONSTS.hbar * k) ** 2 / (2.0 * ham.mass))[:, None]
                    * np.fft.fft(np.eye(m), axis=0), axis=0)
    if ham.kind == "free_plus_linear":
        h = h + np.diag(_potential(grid, ham)).astype(complex)
    evals, q = np.linalg.eigh(0.5 * (h + h.conj().T))
    omega = (evals[:, None] - evals[None, :]) / CONSTS.hbar
    qh = q.conj().T
    xq = qh @ (grid.x[:, None] * q)
    half = np.exp(-0.5j * omega * cfg.dt)
    window, lam, dt = _kernel_window(omega), cfg.lambda_coefficient, cfg.dt

    def dissipator(w, rho):
        c = xq @ rho
        d = xq @ (w * (c - c.conj().T))
        return -lam * (d + d.conj().T)

    i, j = grid.pair
    rho = qh @ grid.rho @ q
    coherence, snaps = [grid.rho[grid.pair]], [grid.rho.copy()]
    for step in range(cfg.n_steps):
        t = step * dt
        k1 = dissipator(window(t), rho)
        k2 = dissipator(window(t + 0.5 * dt), half * (rho + 0.5 * dt * k1))
        k3 = dissipator(window(t + 0.5 * dt), half * rho + 0.5 * dt * k2)
        k4 = dissipator(window(t + dt), half * (half * rho + dt * k3))
        rho = (half * (half * (rho + (dt / 6.0) * k1) + (dt / 3.0) * (k2 + k3))
               + (dt / 6.0) * k4)
        coherence.append(q[i] @ rho @ q[j].conj())
        if (step + 1) % cfg.store_every == 0 or step + 1 == cfg.n_steps:
            snaps.append(q @ rho @ qh)
    return np.array(coherence), np.array(snaps)


def _kind_none_per_step(grid, cfg):
    """Exact midpoint factor (Markovian) or classic RK4 (full memory), one step at a time."""
    dsq = (grid.x[:, None] - grid.x[None, :]) ** 2
    lam, dt = cfg.lambda_coefficient, cfg.dt

    def markovian(rho, step):
        return rho * np.exp(-lam * dsq * ((step + 0.5) * dt) * dt)

    def full_memory(rho, step):
        t = step * dt
        k1 = -lam * t * dsq * rho
        k2 = -lam * (t + 0.5 * dt) * dsq * (rho + 0.5 * dt * k1)
        k3 = -lam * (t + 0.5 * dt) * dsq * (rho + 0.5 * dt * k2)
        k4 = -lam * (t + dt) * dsq * (rho + dt * k3)
        return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _track(grid, cfg, markovian if cfg.form == "markovian" else full_memory)


def _position_basis_rk4(grid, ham, cfg):
    """Classic RK4 of the kernel equation in the position basis, with dense H."""
    m = grid.x.size
    k = 2.0 * math.pi * np.fft.fftfreq(m, d=grid.dx)
    kinetic = np.fft.ifft(((CONSTS.hbar * k) ** 2 / (2.0 * ham.mass))[:, None]
                          * np.fft.fft(np.eye(m), axis=0), axis=0)
    h = kinetic + np.diag(_potential(grid, ham))
    h = 0.5 * (h + h.conj().T)
    evals, q = np.linalg.eigh(h)
    omega = (evals[:, None] - evals[None, :]) / CONSTS.hbar
    xdiff = grid.x[:, None] - grid.x[None, :]

    def rhs(t, rho):
        small = np.abs(omega * t) < 1e-8
        window = (1.0 - np.exp(-1j * omega * t)) / (1j * np.where(small, 1.0, omega))
        window = np.where(small, t * (1.0 - 0.5j * omega * t), window)
        w = q @ (window * (q.conj().T @ (xdiff * rho) @ q)) @ q.conj().T
        return -1j * (h @ rho - rho @ h) / CONSTS.hbar - cfg.lambda_coefficient * (xdiff * w)

    def step_fn(rho, step):
        t, dt = step * cfg.dt, cfg.dt
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _track(grid, cfg, step_fn)


def _strang_case(m: int, n_steps: int, kind: str, store_every: int, form: str = "markovian"):
    """Free flight (or with a tilt) at |w dt| = 0.05, dephasing to V ~ 1/e by t_final."""
    sep, mass = 1e-6, 1e-24
    grid = DensityMatrixGrid.two_point_superposition(0.0, sep, n_points=m)
    ham = CMHamiltonianSpec(kind=kind, mass=mass, g=9.81)
    omega = CONSTS.hbar * (math.pi * (m - 1) / (2.0 * sep)) ** 2 / (2.0 * mass)
    dt = 0.05 / omega
    cfg = EvolutionConfig(dt=dt, t_final=n_steps * dt, form=form, store_every=store_every,
                          lambda_coefficient=2.0 / (sep * n_steps * dt) ** 2)
    return grid, ham, cfg


@pytest.mark.parametrize("m", [64, 256])
@pytest.mark.parametrize("kind", ["free", "free_plus_linear"])
def test_merged_strang_matches_unmerged_half_steps(kind, m):
    grid, ham, cfg = _strang_case(m, 100, kind, store_every=3)
    result = evolve_markovian(grid, ham, cfg, CONSTS)
    coherence, snaps = _strang_unmerged(grid, ham, cfg)
    assert result.snapshots.shape == snaps.shape == (35, m, m)
    assert np.max(np.abs(result.coherence - coherence)) < 1e-12
    assert np.max(np.abs(result.snapshots - snaps)) < 1e-12
    assert abs(2.0 * abs(coherence[-1]) - 1.0) > 0.1  # the run does decay


@pytest.mark.parametrize("m", [64, 256])
@pytest.mark.parametrize("kind", ["free", "free_plus_linear"])
def test_in_place_strang_is_bit_identical_to_allocating_step(kind, m):
    grid, ham, cfg = _strang_case(m, 60, kind, store_every=7)
    result = evolve_markovian(grid, ham, cfg, CONSTS)
    coherence, snaps = _strang_merged_allocating(grid, ham, cfg)
    assert result.snapshots.shape == snaps.shape == (10, m, m)
    # bytes, not array_equal, so that a sign flip of an exact zero shows
    assert result.coherence.tobytes() == coherence.tobytes()
    assert result.snapshots.tobytes() == snaps.tobytes()


@pytest.mark.parametrize("form, m, n_steps", [("markovian", 64, 60), ("markovian", 256, 60),
                                              ("full_memory", 64, 60), ("full_memory", 256, 20)])
@pytest.mark.parametrize("kind", ["free", "free_plus_linear"])
def test_evolve_matches_the_two_factor_strang_and_complex_eigenbasis_lawson_steps(
        kind, form, m, n_steps):
    # the one-block Strang step and the real-eigenbasis Lawson step reorder
    # and merge the arithmetic of the forms they replaced: rounding only
    grid, ham, cfg = _strang_case(m, n_steps, kind, store_every=7, form=form)
    result = evolve(grid, ham, cfg, CONSTS)
    reference = _strang_two_factor if form == "markovian" else _lawson_complex_eigenbasis
    coherence, snaps = reference(grid, ham, cfg)
    assert result.snapshots.shape == snaps.shape
    assert np.max(np.abs(2.0 * np.abs(result.coherence) - 2.0 * np.abs(coherence))) <= 1e-13
    assert np.max(np.abs(result.coherence - coherence)) <= 1e-13
    assert np.max(np.abs(result.snapshots - snaps)) <= 1e-13


@pytest.mark.parametrize("form", ["markovian", "full_memory"])
def test_evolve_reads_no_uninitialised_memory(form, monkeypatch):
    # Every buffer np.empty hands out is filled with NaN bytes, so a step that
    # reads an element it never wrote (the Strang block's spare column, say)
    # leaves a NaN that the finiteness check refuses or that shows in the bytes.
    grid, ham, cfg = _strang_case(64, 30, "free_plus_linear", store_every=7, form=form)
    clean = evolve(grid, ham, cfg, CONSTS)
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.view(np.uint8).fill(0xFF)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    result = evolve(grid, ham, cfg, CONSTS)
    assert result.coherence.tobytes() == clean.coherence.tobytes()
    assert result.snapshots.tobytes() == clean.snapshots.tobytes()


@pytest.mark.parametrize("form", ["markovian", "full_memory"])
def test_evolve_leaves_rho0_alone_and_snapshots_own_their_memory(form):
    grid, ham, cfg = _strang_case(32, 40, "free_plus_linear", store_every=9, form=form)
    before = grid.rho.copy()
    grid.rho.flags.writeable = False  # any write into rho0 raises
    result = evolve(grid, ham, cfg, CONSTS)
    assert np.array_equal(grid.rho, before)
    snaps = result.snapshots
    assert snaps.shape[0] == 6 and np.array_equal(snaps[0], before)
    for k in range(snaps.shape[0]):
        assert not np.shares_memory(snaps[k], grid.rho)
        for other in range(k):
            assert not np.shares_memory(snaps[k], snaps[other])


@pytest.mark.parametrize("form", ["markovian", "full_memory"])
def test_snapshot_run_holds_one_copy_of_its_snapshots(form, traced_peak):
    # 101 snapshots of 128^2 are 25.25 MiB. Collecting them in a list and
    # stacking them held two copies (peak ~2.05x); the preallocated store and
    # the one-buffer Strang step leave room for 32 m x m temporaries at most.
    m = 128
    grid, ham, cfg = _strang_case(m, 300, "free_plus_linear", store_every=3, form=form)
    result, peak = traced_peak(lambda: evolve(grid, ham, cfg, CONSTS))
    assert result.snapshots.shape == (101, m, m)
    assert peak <= result.snapshots.nbytes + 32 * m * m * 16, peak / result.snapshots.nbytes


def _save_snapshots_astype(path, times, x, snapshots) -> None:
    """The packing save_snapshots used before it wrote from each buffer:
    astype + tobytes, two copies per snapshot."""
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_MAGIC)
        fh.write(struct.pack("<qqdd", snapshots.shape[0], x.size, float(x[0]), float(x[-1])))
        for t, rho in zip(times, snapshots):
            fh.write(struct.pack("<d", float(t)))
            fh.write(rho.astype("<c16").tobytes(order="C"))


def test_save_snapshots_writes_the_bytes_of_the_old_packing(tmp_path):
    grid, ham, cfg = _strang_case(16, 20, "free_plus_linear", store_every=4)
    result = evolve_markovian(grid, ham, cfg, CONSTS)
    # a C-ordered store, and a transposed (non-contiguous) view of it
    for k, snaps in enumerate((result.snapshots, result.snapshots.transpose(0, 2, 1))):
        new, old = tmp_path / f"new{k}.snap", tmp_path / f"old{k}.snap"
        save_snapshots(str(new), result.snapshot_times, result.x, snaps)
        _save_snapshots_astype(str(old), result.snapshot_times, result.x, snaps)
        assert new.read_bytes() == old.read_bytes()
        assert new.stat().st_size == 40 + 6 * (8 + 16 * 16 * 16)


@pytest.mark.parametrize("form", ["markovian", "full_memory"])
def test_whole_run_products_match_per_step_loop(form):
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = a @ a.conj().T
    grid = DensityMatrixGrid(x=np.linspace(0.0, 5e-3, 6), rho=rho / np.trace(rho).real,
                             pair=(1, 4))
    # 1500 steps span several blocks of the whole-run product at m = 6
    cfg = EvolutionConfig(dt=1e-4, t_final=0.15, lambda_coefficient=2e7, form=form,
                          store_every=7)
    result = evolve(grid, FREE, cfg, CONSTS)
    coherence, snaps = _kind_none_per_step(grid, cfg)
    if form == "markovian":
        assert np.array_equal(result.coherence, coherence)
        assert np.array_equal(result.snapshots, snaps)
    else:
        assert np.max(np.abs(result.coherence - coherence)) < 1e-14
        assert np.max(np.abs(result.snapshots - snaps)) < 1e-14


def test_instability_names_the_first_bad_step():
    # RK4's factor for -Lambda t dx^2 is ~1e28 or more per step, so the
    # product overflows part-way through the run (step 8), not in its first step
    cfg = EvolutionConfig(dt=1.0, t_final=40.0, lambda_coefficient=1e10, form="full_memory")
    grid = _two_point(1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalInstabilityError) as expected:
            _kind_none_per_step(grid, cfg)
        first_bad = str(expected.value)
        assert "step 1;" not in first_bad
        with pytest.raises(NumericalInstabilityError) as got:
            evolve_full_memory(grid, FREE, cfg, CONSTS)
    assert str(got.value) == first_bad


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drive_names_the_step_of_one_non_finite_element(seed, value, part, block):
    # ``advance`` is a stub returning ``block`` states a call; every entry is
    # finite, many of them +-finfo.max, except one part of one element
    m, n_steps = 5, 20
    rng = np.random.default_rng([seed, block])
    bad_step = int(rng.integers(1, n_steps + 1))
    i, j = (int(k) for k in rng.integers(m, size=2))
    huge = np.finfo(float).max
    grid = DensityMatrixGrid.two_point_superposition(0.0, 1e-6, n_points=m)
    cfg = EvolutionConfig(dt=1.0, t_final=float(n_steps), lambda_coefficient=0.0)

    def advance(state, step):
        steps = range(step + 1, min(step + block, n_steps) + 1)
        states = np.empty((len(steps), m, m), dtype=complex)
        states.real = rng.choice([huge, -huge, 0.0, -0.0, 1.0], size=states.shape)
        states.imag = rng.choice([huge, -huge, 0.0, -0.0, 1.0], size=states.shape)
        if bad_step in steps:
            getattr(states[steps.index(bad_step)], part)[i, j] = value
        return states

    with pytest.raises(NumericalInstabilityError, match=f"at step {bad_step};"):
        _drive(grid, cfg, "markovian", grid.rho, advance,
               lambda states: states[:, 0, 0], lambda rho, out: np.copyto(out, rho))


def _lawson_case(n_steps: int, turns: float):
    """m = 16 with a tilt; t_final is ``turns`` / (spectral radius of H / hbar)."""
    m, sep, mass = 16, 1e-6, 1e-24
    grid = DensityMatrixGrid.two_point_superposition(0.0, sep, n_points=m)
    ham = CMHamiltonianSpec(kind="free_plus_linear", mass=mass, g=9.81)
    spacing = grid.dx
    omega = (CONSTS.hbar * (math.pi / spacing) ** 2 / (2.0 * mass)
             + mass * 9.81 * (m - 1) * spacing / CONSTS.hbar)
    t_final = turns / omega
    cfg = EvolutionConfig(dt=t_final / n_steps, t_final=t_final,
                          lambda_coefficient=2.0 / (sep * t_final) ** 2, form="full_memory")
    return grid, ham, cfg


def test_lawson_rk4_is_fourth_order():
    # |w dt| from 3.5 down to 0.9: explicit RK4 would be unstable at the
    # coarsest step; Lawson's error still falls as dt^4
    final = {n: evolve_full_memory(*_lawson_case(n, 140.0), CONSTS).coherence[-1]
             for n in (40, 80, 160, 1280)}
    errors = [abs(final[n] - final[1280]) for n in (40, 80, 160)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(3.8 < p < 4.5 for p in orders), orders


def _ladder_orders(form: str, ladder: tuple[int, ...]) -> list[float]:
    """Observed orders in dt from successive differences of the final coherence.

    H is free on 64 points, Lambda = 2e17 and t = 2 us, and each rung of the
    ladder doubles the step count. At 3e-31 kg the kinetic phase
    hbar k^2 t / 2m is about 3.4 rad at the grid's largest k, so the time
    step's error is far above round-off; at 1e-27 kg it is about 1e-3 rad
    and both integrators' errors sit at round-off.
    """
    grid = DensityMatrixGrid.two_point_superposition(0.0, 1e-3, n_points=64)
    ham = CMHamiltonianSpec(kind="free", mass=3e-31)
    final = [evolve(grid, ham, EvolutionConfig(dt=2e-6 / n, t_final=2e-6, lambda_coefficient=2e17,
                                               form=form), CONSTS).coherence[-1]
             for n in ladder]
    steps = [abs(a - b) for a, b in zip(final, final[1:])]
    return [math.log2(a / b) for a, b in zip(steps, steps[1:])]


def test_strang_is_second_order_in_dt():
    # 16 to 256 steps give orders within 0.003 of 2, and a Lie splitting
    # gives 0.96 to 0.99. The margin of 0.1 allows a change in rounding and
    # no change of order.
    orders = _ladder_orders("markovian", (16, 32, 64, 128, 256))
    assert all(abs(p - 2.0) < 0.1 for p in orders), orders


def test_lawson_rk4_is_fourth_order_in_dt_with_free_hamiltonian():
    # 16 to 128 steps give orders 3.96 and 3.98. The kernel that propagates
    # x alone, [x, [U_s x U_s+, rho]], gives 3.86 and 3.94, because its
    # ladder is still approaching the asymptote at 16 steps. The margin of
    # 0.25 holds both. An RK4 stage weight of 1/3 in place of 1/6 gives
    # orders near 1.
    orders = _ladder_orders("full_memory", (16, 32, 64, 128))
    assert all(abs(p - 4.0) < 0.25 for p in orders), orders


def test_lawson_rk4_matches_position_basis_rk4_at_small_dt():
    grid, ham, cfg = _lawson_case(400, 5.0)
    result = evolve_full_memory(grid, ham, cfg, CONSTS)
    coherence, _ = _position_basis_rk4(grid, ham, cfg)
    assert np.max(np.abs(result.coherence - coherence)) < 1e-10
    assert 2.0 * abs(coherence[-1]) < 0.6


def _heavy_mass_run(form: str):
    # the tilt puts |w dt| near 2e7 on this grid: explicit RK4 in the position
    # basis overflows within a dozen steps, Strang and Lawson RK4 do not
    grid = DensityMatrixGrid.two_point_superposition(0.0, 1e-3, n_points=64)
    ham = CMHamiltonianSpec(kind="free_plus_linear", mass=1e-17, g=9.81)
    cfg = EvolutionConfig(dt=1e-8, t_final=1e-6, form=form, store_every=100,
                          lambda_coefficient=dephasing_coefficient(1e23, 300.0, 9.81, CONSTS))
    return evolve(grid, ham, cfg, CONSTS)


def test_full_memory_runs_where_explicit_rk4_overflows():
    final = _heavy_mass_run("full_memory").snapshots[-1]
    assert abs(np.trace(final).real - 1.0) < 1e-10
    assert np.max(np.abs(final - final.conj().T)) < 1e-12


def test_strang_with_tilt_matches_gaussian_law_at_every_step():
    # a 1e-17 kg particle barely moves in 1 us, so the tilt only adds phase to
    # the two-point coherence: with |w dt| near 2e7 Strang must still give
    # the closed form
    result = _heavy_mass_run("markovian")
    expected = gaussian_visibility(1e23, 300.0, 1e-3, 9.81, result.times, CONSTS)
    assert result.times.size == 101
    assert np.max(np.abs(2.0 * np.abs(result.coherence) - expected)) < 1e-12


@pytest.mark.xfail(
    reason="the full-memory kernel propagates [x, rho] (U_s [x, rho] U_s+) where TCL2 "
    "propagates x alone ([x(-s), rho]); with w t >> 1 it decoheres far too little",
)
def test_full_memory_agrees_with_strang_where_omega_t_is_large():
    v_full = 2.0 * abs(_heavy_mass_run("full_memory").coherence[-1])
    v_strang = 2.0 * abs(_heavy_mass_run("markovian").coherence[-1])
    assert abs(v_full - v_strang) < 1e-4


# The exact witness. In the paper's model the internal Hamiltonian commutes
# with everything, so on each internal energy level the centre of mass
# evolves unitarily under H + dE g x / c^2, and the exact reduced state is
# the mixture over the energy distribution. For the Gaussian one that Lambda
# encodes, rho(t) = sum_k w_k U_k rho0 U_k+, U_k = exp(-i (H + hbar sqrt(Lambda)
# z_k x) t / hbar), over probabilists' Gauss-Hermite nodes z_k with weights
# w_k normalised to sum to 1: at H = 0 it is the Gaussian law
# exp(-Lambda (x - x')^2 t^2 / 2). 80 and 120 nodes agree to 1.6e-16 in V
# on the runs below.

#: (mass kg, separation m, dt s, T K, N modes) of the first three full-memory
#: runs the benchmark draws: 64 points, free_plus_linear, 400 steps of
#: |w dt| = 0.05.
_MIXTURE_RUNS = [
    (2.5697428407387943e-24, 1.1740537289031114e-06, 7.112552886058679e-08,
     177.36442692967853, 3.046695595434789e26),
    (5.544822991373614e-25, 8.08952002326077e-07, 3.224187406157295e-08,
     725.0332069088927, 2.0939445414449883e26),
    (1.2295508186145755e-24, 7.615751031446521e-07, 5.442145751397065e-08,
     253.14467548824595, 1.0491912532037653e27),
]


def _mixture_setup(index: int):
    mass, sep, dt, temperature, n_modes = _MIXTURE_RUNS[index]
    grid = DensityMatrixGrid.two_point_superposition(0.0, sep, n_points=64)
    return grid, mass, dephasing_coefficient(n_modes, temperature, CONSTS.g_earth, CONSTS), dt


@functools.lru_cache
def _mixture_visibility(index: int) -> float:
    """V of the exact mixture at the run's t_final, from H built here."""
    grid, mass, lam, dt = _mixture_setup(index)
    m, x, t = grid.x.size, grid.x, 400 * dt
    k = 2.0 * math.pi * np.fft.fftfreq(m, d=grid.dx)
    column = np.fft.ifft(CONSTS.hbar**2 * k**2 / (2.0 * mass)).real  # circulant kinetic term
    h = (column[np.subtract.outer(np.arange(m), np.arange(m)) % m]
         + np.diag(mass * CONSTS.g_earth * x))
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    i, j = grid.pair
    coherence = 0j
    for z, w in zip(nodes, weights / weights.sum()):
        e, q = np.linalg.eigh(h + np.diag(CONSTS.hbar * math.sqrt(lam) * z * x))
        u = (q * np.exp(-1j * e * t / CONSTS.hbar)) @ q.T
        coherence += w * (u[i] @ grid.rho @ u[j].conj())
    return 2.0 * abs(coherence)


def _mixture_gap(index: int, form: str) -> float:
    """|V from ``evolve`` in ``form`` - V of the exact mixture| at t_final."""
    grid, mass, lam, dt = _mixture_setup(index)
    cfg = EvolutionConfig(dt=dt, t_final=400 * dt, lambda_coefficient=lam, form=form)
    ham = CMHamiltonianSpec(kind="free_plus_linear", mass=mass, g=CONSTS.g_earth)
    return abs(2.0 * abs(evolve(grid, ham, cfg, CONSTS).coherence[-1]) - _mixture_visibility(index))


def test_strang_agrees_with_the_exact_mixture():
    # Strang reads 1.2e-5, 3.5e-4 and 7.4e-5 from the mixture. That is the
    # Markovian model's own error, not the time step's: it dephases at the
    # rate Lambda t (x - x')^2 of the positions of the moment and forgets
    # that the kinetic term moved the particle during the run. The bound of
    # 1e-3 is about three times the largest.
    gaps = [_mixture_gap(n, "markovian") for n in range(3)]
    assert max(gaps) < 1e-3, gaps


@pytest.mark.xfail(
    reason="the full-memory kernel propagates [x, rho] (U_s [x, rho] U_s+) where TCL2 "
    "propagates x alone; it reads 0.097, 8.9e-4 and 0.012 from the mixture",
)
def test_full_memory_agrees_with_the_exact_mixture():
    # TCL2 is second order in the coupling, and its model error against the
    # mixture is 2.5e-6 to 3.3e-5 here with the kernel fixed
    gaps = [_mixture_gap(n, "full_memory") for n in range(3)]
    assert max(gaps) < 1e-3, gaps
