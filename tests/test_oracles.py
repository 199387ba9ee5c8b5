from __future__ import annotations

import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import gravidec
from gravidec import (
    InternalStateSpec,
    OracleConfig,
    default_constants,
    exact_visibility,
    fock_visibility,
    mc_visibility,
    run_oracle_battery,
    two_point_unitary_oracle,
)
from gravidec.errors import DomainError
from gravidec import oracles
from gravidec.oracles import _SHARD, _mc_buffers, _mc_coefficients, _mc_worker

CONSTS = default_constants()


def _omega_for_nbar(nbar: float, temperature: float) -> float:
    return math.log1p(1.0 / nbar) * CONSTS.k_B * temperature / CONSTS.hbar


def _spec(nbars, temperature: float = 300.0) -> InternalStateSpec:
    freqs = tuple(_omega_for_nbar(nb, temperature) for nb in nbars)
    return InternalStateSpec.from_frequencies(freqs, temperature)


def test_mc_is_deterministic_and_shard_invariant():
    spec = _spec((1.0, 0.3))
    dtau = 0.25 / max(spec.frequencies)
    cfg = OracleConfig(n_samples=70_000, seed=42)  # not a multiple of the shard size
    first = mc_visibility(spec, dtau, cfg, CONSTS)
    second = mc_visibility(spec, dtau, cfg, CONSTS)
    assert first == second
    assert first[1] > 0.0


def test_mc_is_bit_identical_under_any_shard_schedule(monkeypatch):
    spec = _spec((1.0, 0.3, 2.0))
    dtau = 0.5 / max(spec.frequencies)
    cfg = OracleConfig(n_samples=200_001, seed=11)  # 4 shards, the last one short
    c_re, c_im = _mc_coefficients(spec, dtau, CONSTS)
    n_shards = math.ceil(cfg.n_samples / _SHARD)
    assert n_shards == 4 and cfg.n_samples - (n_shards - 1) * _SHARD < _SHARD

    def run(shard_sets, mapper=map):
        sums, abs2 = np.zeros(n_shards, dtype=complex), np.zeros(n_shards)

        def work(shards):
            buffers = _mc_buffers(c_re.size, _SHARD)
            _mc_worker(cfg.seed, shards, cfg.n_samples, c_re, c_im, buffers, sums, abs2)

        list(mapper(work, shard_sets))
        return sums, abs2

    # each shard alone, in fresh buffers, is the reference for every schedule
    alone = [run([range(k, k + 1)]) for k in range(n_shards)]
    ref_sums = np.array([sums[k] for k, (sums, _) in enumerate(alone)])
    ref_abs2 = np.array([abs2[k] for k, (_, abs2) in enumerate(alone)])
    schedules = {"reversed, short shard first": run([range(n_shards - 1, -1, -1)])}
    with ThreadPoolExecutor(max_workers=2) as pool:
        schedules["2-thread pool"] = run([range(0, n_shards, 2), range(1, n_shards, 2)], pool.map)
    for name, (sums, abs2) in schedules.items():
        assert np.array_equal(sums, ref_sums) and np.array_equal(abs2, ref_abs2), name

    mean = complex(np.sum(ref_sums)) / cfg.n_samples
    var = max(float(np.sum(ref_abs2)) / cfg.n_samples - abs(mean) ** 2, 0.0)
    expected = (abs(mean), math.sqrt(var / (cfg.n_samples - 1)))
    # up to one worker per shard, more than the cores, switching threads often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(oracles, "_usable_cpus", lambda workers=workers: workers)
            assert mc_visibility(spec, dtau, cfg, CONSTS) == expected, workers
    finally:
        sys.setswitchinterval(interval)


def _libm_shard(seed: int, m: int, c_re: np.ndarray, c_im: np.ndarray) -> tuple[complex, float]:
    """One shard's sums from the same draws, with the phase by np.cos and np.sin."""
    e = np.random.default_rng(np.random.SeedSequence([seed, 0])).standard_exponential(
        size=(c_re.size, m))
    mod = np.exp(sum(e[i] * c_re[i] for i in range(c_re.size)))
    arg = sum(e[i] * c_im[i] for i in range(c_re.size))
    total = complex(np.einsum("i,i->", mod, np.cos(arg)), np.einsum("i,i->", mod, np.sin(arg)))
    return total, float(np.einsum("i->", mod))


@pytest.mark.parametrize("nbars, phase", [((5.0, 0.3, 2.0), 0.3), ((5.0,), 0.4), ((1.0, 2.0), 1.0)])
def test_mc_shard_sums_match_libm_phase_on_the_same_draws(nbars, phase):
    # The summed phases reach |theta| of 2.5 to 20 here, so tan(theta/2)
    # crosses its poles. Per sample the half-angle cos and sin are within
    # 1.5 ulp of libm (measured); the sums are held to 4 eps * sum |w|.
    # At theta = 0 and |theta| < 1e-9 the two forms agree bit for bit.
    spec = _spec(nbars)
    c_re, c_im = _mc_coefficients(spec, phase / max(spec.frequencies), CONSTS)
    eps = np.finfo(float).eps
    m, seed = 50_000, 3
    for scale in (1.0, 0.0, 1e-12):
        sums, abs2 = np.zeros(1, dtype=complex), np.zeros(1)
        _mc_worker(seed, range(1), m, c_re, scale * c_im, _mc_buffers(c_re.size, m), sums, abs2)
        ref, moduli = _libm_shard(seed, m, c_re, scale * c_im)
        if scale == 1.0:
            assert abs(sums[0].real - ref.real) <= 4.0 * eps * moduli
            assert abs(sums[0].imag - ref.imag) <= 4.0 * eps * moduli
        else:
            assert sums[0] == ref, scale
        assert sums[0].imag != 0.0 or scale == 0.0


def test_single_shard_mc_starts_no_thread_pool():
    # a one-shard call stays serial and leaves concurrent.futures unimported,
    # so CLI start-up pays nothing for the pool
    code = (
        "import sys\n"
        "import gravidec.cli\n"
        "from gravidec import InternalStateSpec, OracleConfig, default_constants, mc_visibility\n"
        "spec = InternalStateSpec.from_frequencies((1e13, 3e13), 300.0)\n"
        "mc_visibility(spec, 1e-14, OracleConfig(n_samples=64), default_constants())\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gravidec.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_mc_standard_error_matches_theory():
    # E|w|^2 = prod 1/(1 + 2 nbar (1 - cos d)) for the thermal P weight, so
    # Var w = E|w|^2 - V^2; a mis-scaled |alpha|^2 draw (nbar/2 per mode)
    # puts the ratio of se to theory near 0.61 here.
    nbars = np.array([1.0, 0.3, 2.0])
    spec = _spec(tuple(nbars))
    dtau = 0.8 / max(spec.frequencies)
    deltas = np.array(spec.frequencies) * dtau
    v = float(np.prod(1.0 / np.abs(1.0 + nbars * (1.0 - np.exp(-1j * deltas)))))
    second = float(np.prod(1.0 / (1.0 + 2.0 * nbars * (1.0 - np.cos(deltas)))))
    n = 400_000
    se_theory = math.sqrt((second - v * v) / (n - 1))
    for seed in range(4):
        _, se = mc_visibility(spec, dtau, OracleConfig(n_samples=n, seed=seed), CONSTS)
        assert se == pytest.approx(se_theory, rel=0.05), seed


def test_mc_agrees_with_product_law():
    spec = _spec((1.0,))
    dtau = 0.3 / spec.frequencies[0]
    v_exact = exact_visibility(spec, dtau, CONSTS)
    v_mc, se = mc_visibility(spec, dtau, OracleConfig(n_samples=200_000, seed=7), CONSTS)
    assert abs(v_mc - v_exact) < 5.0 * se
    assert se < 1e-3


def test_mc_error_shrinks_with_samples():
    spec = _spec((0.5,))
    dtau = 0.2 / spec.frequencies[0]
    _, se_small = mc_visibility(spec, dtau, OracleConfig(n_samples=20_000, seed=1), CONSTS)
    _, se_large = mc_visibility(spec, dtau, OracleConfig(n_samples=320_000, seed=1), CONSTS)
    # 16x the samples should cut the standard error about 4x
    assert se_large < 0.35 * se_small


def test_mc_refuses_high_variance_regime():
    spec = _spec((5.0,))
    dtau = 2.0 / spec.frequencies[0]  # nbar (1 - cos 2) = 7.08 >> bound
    with pytest.raises(DomainError, match="precondition"):
        mc_visibility(spec, dtau, OracleConfig(), CONSTS)


def test_oracles_require_explicit_frequencies():
    marker = InternalStateSpec.high_temperature_limit(1e20, 300.0)
    with pytest.raises(DomainError, match="explicit frequencies"):
        mc_visibility(marker, 1e-15, OracleConfig(), CONSTS)
    with pytest.raises(DomainError, match="explicit frequencies"):
        fock_visibility(marker, 1e-15, OracleConfig(), CONSTS)


def test_fock_matches_product_law_within_tail_bound():
    spec = _spec((0.5, 2.0))
    dtau = 0.35 / max(spec.frequencies)
    v_exact = exact_visibility(spec, dtau, CONSTS)
    v_fock, tail = fock_visibility(spec, dtau, OracleConfig(), CONSTS)
    assert tail < 1e-8
    assert abs(v_fock - v_exact) <= 10.0 * tail + 1e-12
    assert fock_visibility(spec, 0.0, OracleConfig(), CONSTS)[0] == pytest.approx(1.0, abs=1e-15)


def test_fock_refusal_names_required_cutoff():
    spec = _spec((30.0,))  # q = 30/31 needs cutoff 632 for the default tail
    with pytest.raises(DomainError, match="at cutoff 512; required cutoff is 632"):
        fock_visibility(spec, 1e-15, OracleConfig(), CONSTS)


def test_tensor_cold_particle_phase():
    w = _omega_for_nbar(1.0, 300.0)
    spec = InternalStateSpec.from_frequencies((w,), 0.0)
    mass, g, dx, t = 1e-26, 9.81, 1e-3, 1e-6
    v, phase = two_point_unitary_oracle(spec, 0.0, dx, t, g, OracleConfig(), CONSTS, mass=mass)
    assert v == pytest.approx(1.0, abs=1e-12)
    expected = mass * g * dx * t / CONSTS.hbar  # 0.93 rad, safely inside (-pi, pi]
    assert abs(phase - expected) < 1e-9


def _joint_spectrum_exp(spec, delta_tau: float, mass: float) -> complex:
    """The joint-spectrum amplitude with the phase by complex exp, on the same
    populations, energies and phase rate as the oracle's static-arm call."""
    pops, energies = [], []
    for w in spec.frequencies:
        q = oracles._boltzmann_q(w, spec.temperature, CONSTS)
        p, _ = oracles._thermal_populations(q, OracleConfig(), oracles.TENSOR_MAX_CUTOFF)
        pops.append(p)
        energies.append(CONSTS.hbar * w * np.arange(p.size))
    prob, energy = np.ones(1), np.zeros(1)
    for p, e in zip(pops, energies):
        prob = (prob[:, None] * p[None, :]).ravel()
        energy = (energy[:, None] + e[None, :]).ravel()
    dphi = 0.0 - 1.0 * (-delta_tau * CONSTS.c**2)
    rate = dphi * 1.0 / (CONSTS.hbar * CONSTS.c**2)
    acc = complex(np.sum(prob * np.exp(-1j * energy * rate)))
    return acc * np.exp(-1j * mass * dphi * 1.0 / CONSTS.hbar)


def test_tensor_phase_form_matches_complex_exp():
    # Same inputs as the complex-exp form: |d acc| <= 1e-14 (at most 2.8e-16
    # measured here), so V within 1e-14 and the phase within 1e-14 / V.
    # A cold state has one joint state at energy 0: theta = 0, V exactly 1.
    cases = [(nbars, phase, mass) for (nbars, phase), mass
             in zip(_large_phase_cases()[:30], [0.0, 1e-26] * 15)]
    compared = 0
    for nbars, phase, mass in cases:
        spec = _spec(nbars)
        dtau = phase / max(spec.frequencies)
        try:
            v, angle = two_point_unitary_oracle(spec, 0.0, -dtau * CONSTS.c**2, 1.0, 1.0,
                                                OracleConfig(), CONSTS, mass=mass)
        except DomainError:  # beyond the cutoff cap; the oracle names it
            continue
        compared += 1
        ref = _joint_spectrum_exp(spec, dtau, mass)
        assert abs(v - abs(ref)) <= 1e-14, (nbars, phase)
        assert abs(math.remainder(angle - np.angle(ref), 2.0 * math.pi)) <= 1e-14 / v
    assert compared >= 15
    cold = InternalStateSpec.from_frequencies((1e13, 3e13), 0.0)
    assert two_point_unitary_oracle(cold, 0.0, 1e-3, 1.0, 9.81, OracleConfig(), CONSTS)[0] == 1.0


def test_tensor_matches_product_law_without_factorizing():
    spec = _spec((0.3, 1.0, 2.5))
    dtau = 0.3 / max(spec.frequencies)
    v_exact = exact_visibility(spec, dtau, CONSTS)
    # static arms: g t (x1 - x2) / c^2 equals dtau
    v_tensor, _ = two_point_unitary_oracle(
        spec, 0.0, -dtau * CONSTS.c**2, 1.0, 1.0, OracleConfig(), CONSTS
    )
    assert abs(v_tensor - v_exact) < 1e-6


def _large_phase_cases():
    """(nbars, largest |w dtau|) pairs: 30 random draws with phases up to 20,
    then equal-mode sets at odd multiples of pi, where V = (1 + 2 nbar)^-k
    is as small as each oracle's cutoff cap allows (about 1e-6 for four
    nbar = 15 modes; the joint-spectrum oracle's cap of 64 per mode and
    2^22 joint states stops it at nbar 2.6 for three modes and 1.7 for four)."""
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(30):
        nbars = np.exp(rng.uniform(math.log(0.01), math.log(15.0), int(rng.integers(1, 5))))
        cases.append((tuple(nbars), float(rng.uniform(0.5, 20.0))))
    for k in (1, 2, 3, 4):
        for turns in (0.5, 1.5, 2.5):
            cases.append(((15.0,) * k, 2.0 * math.pi * turns * (1.0 + 1e-3)))
        cases.append(((2.6 if k < 4 else 1.7,) * k, 5.0 * math.pi * (1.0 - 1e-3)))
    cases.append(((0.7, 2.0), 19.9))
    return cases


def test_deterministic_oracles_match_product_law_at_large_phase():
    # Both oracles truncate each mode at tail mass t_i and renormalize; with
    # chi_i the untruncated factor, |ln|chi~_i| - ln|chi_i|| <=
    # -ln(1 - t_i) - ln(1 - t_i / |chi_i|), and |chi_i| >= V, so
    # |d ln V| <= 2 tail / (V - tail) with tail = sum t_i, the number-basis
    # oracle's reported bound (the joint-spectrum oracle truncates by the
    # same rule, so the number-basis oracle at its cfg reports its tail).
    # Rounding adds at most 16 eps per unit of phase per quantum, about
    # 16 eps (1 + sum nbar_i |w_i dtau|) in |chi|, over V.
    eps = np.finfo(float).eps
    fock_cfg = OracleConfig(tail_epsilon=1e-12)
    tensor_cfg = OracleConfig()
    reached = {"fock": [], "tensor": []}
    for nbars, phase in _large_phase_cases():
        spec = _spec(nbars)
        dtau = phase / max(spec.frequencies)
        v_exact = exact_visibility(spec, dtau, CONSTS)
        quanta_phase = sum(nb * w * dtau for nb, w in zip(nbars, spec.frequencies))
        for name, cfg in (("fock", fock_cfg), ("tensor", tensor_cfg)):
            try:
                v, tail = fock_visibility(spec, dtau, cfg, CONSTS)
                if name == "tensor":
                    v, _ = two_point_unitary_oracle(
                        spec, 0.0, -dtau * CONSTS.c**2, 1.0, 1.0, cfg, CONSTS
                    )
            except DomainError:
                continue  # beyond this oracle's cutoff cap
            bound = (2.0 * tail + 16.0 * eps * (1.0 + quanta_phase)) / (v_exact - tail)
            assert abs(math.log(v) - math.log(v_exact)) <= bound, (name, nbars, phase)
            reached[name].append((v_exact, phase))
    # the comparison really covers small V and phases far past 2 pi
    assert min(v for v, _ in reached["fock"]) < 2e-6
    assert min(v for v, _ in reached["tensor"]) < 5e-3
    assert min(len(r) for r in reached.values()) >= 20
    assert min(max(p for _, p in r) for r in reached.values()) > 19.0


def test_tensor_limits(monkeypatch):
    spec5 = _spec((0.5,) * 5)
    with pytest.raises(DomainError, match="at most 4"):
        two_point_unitary_oracle(spec5, 0.0, 1e-3, 1.0, 9.81, OracleConfig(), CONSTS)
    spec3 = _spec((0.3, 1.0, 2.5))
    monkeypatch.setattr(oracles, "TENSOR_MAX_JOINT_DIM", 1000)
    with pytest.raises(DomainError, match="max_joint_dim"):
        two_point_unitary_oracle(spec3, 0.0, 1e-3, 1.0, 9.81, OracleConfig(), CONSTS)
    with pytest.raises(DomainError, match="mass"):
        two_point_unitary_oracle(
            _spec((1.0,)), 0.0, 1e-3, 1.0, 9.81, OracleConfig(), CONSTS, mass=-1.0
        )


def test_battery_small_run_is_deterministic_and_consistent():
    cfg = OracleConfig(n_samples=20_000, seed=3)
    cases = run_oracle_battery(5, cfg, CONSTS)
    again = run_oracle_battery(5, cfg, CONSTS)
    assert cases == again
    per_oracle = {"mc": 0, "fock": 0, "tensor": 0}
    for case in cases:
        verdicts = case.agreements(mc_sigmas=5.0, det_atol=1e-6)
        for name, verdict in verdicts.items():
            if verdict is None:
                assert any(item.startswith(name) for item in case.skipped)
            else:
                assert verdict, (case.frequencies, case.temperature, name)
                per_oracle[name] += 1
    assert min(per_oracle.values()) >= 5


def test_tally_verdicts_counts_each_oracle_and_fails_a_case_on_any_disagreement():
    def case(v_mc, v_fock, v_tensor):
        return oracles.OracleCase(frequencies=(1e13,), temperature=300.0, delta_tau=1e-14,
                                  v_exact=0.5, v_mc=v_mc, se_mc=1e-3, v_fock=v_fock,
                                  fock_bound=1e-9, v_tensor=v_tensor)

    cases = [case(0.5005, 0.5, 0.5), case(0.51, 0.5, None), case(None, 0.5 + 2e-8, 0.5 + 1e-7)]
    summary, per_case = oracles.tally_verdicts(cases, mc_sigmas=3.0, det_atol=1e-6)
    assert [ok for _, ok in per_case] == [True, False, False]
    assert per_case[1][0] == {"mc": False, "fock": True, "tensor": None}
    assert {name: (row["valid"], row["agree"]) for name, row in summary.items()} == {
        "mc": (2, 1), "fock": (3, 2), "tensor": (2, 2)}
    assert summary["mc"]["max_abs_err"] == pytest.approx(0.01)
    assert summary["tensor"]["max_abs_err"] == pytest.approx(1e-7)
    assert summary["mc"]["false_alarm_rate"] == pytest.approx(
        1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** 2)


def test_battery_raises_when_an_oracle_cannot_qualify(monkeypatch):
    # a 2-dimensional joint-spectrum budget is below any thermal cutoff in
    # the sampled envelope, so the tensor oracle can never reach quota
    monkeypatch.setattr(oracles, "TENSOR_MAX_JOINT_DIM", 2)
    cfg = OracleConfig(n_samples=2, seed=1)
    with pytest.raises(DomainError, match="could not collect"):
        run_oracle_battery(2, cfg, CONSTS)


@pytest.mark.parametrize("n_cases", [0, -3])
def test_battery_refuses_to_certify_no_sets(n_cases):
    with pytest.raises(DomainError, match="n_cases must be >= 1"):
        run_oracle_battery(n_cases, OracleConfig(n_samples=2), CONSTS)


def test_config_validation():
    with pytest.raises(DomainError):
        OracleConfig(n_samples=1)
    with pytest.raises(DomainError):
        OracleConfig(tail_epsilon=0.0)
