from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
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
from gravidec.oracles import _PILOT, _SHARD, _mc_coefficients, _mc_shard

CONSTS = default_constants()


def _omega_for_nbar(nbar: float, temperature: float) -> float:
    return math.log1p(1.0 / nbar) * CONSTS.k_B * temperature / CONSTS.hbar


def _spec(nbars, temperature: float = 300.0) -> InternalStateSpec:
    freqs = tuple(_omega_for_nbar(nb, temperature) for nb in nbars)
    return InternalStateSpec.from_frequencies(freqs, temperature)


def _mc_pilot(seed: int, n_samples: int, c_re: np.ndarray, c_im: np.ndarray):
    """The pilot's (beta, main samples), in rows of its own."""
    return oracles._mc_pilot(seed, n_samples, c_re, c_im, [np.empty(_PILOT) for _ in range(6)])


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
    # a margin no pilot meets, so the main pass draws all n_samples
    monkeypatch.setattr(oracles, "_MARGIN", 1e12)
    beta, n_main = _mc_pilot(cfg.seed, cfg.n_samples, c_re, c_im)
    n_shards = math.ceil(cfg.n_samples / _SHARD)
    assert n_main == cfg.n_samples and np.all(beta != 0)
    assert n_shards == 4 and cfg.n_samples - (n_shards - 1) * _SHARD < _SHARD

    def run(shard_sets, mapper=map):
        sums, abs2 = np.zeros(n_shards, dtype=complex), np.zeros(n_shards)

        def work(shards):
            buffers = [np.empty(_SHARD) for _ in range(6)]
            for k in shards:
                sums[k], abs2[k] = _mc_shard(cfg.seed, k, cfg.n_samples, c_re, c_im, beta, buffers)

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
    """One shard's sum of the weights from the same draws, with the phase by
    np.cos and np.sin, and the sum of their moduli."""
    e = np.random.default_rng(np.random.SeedSequence([seed, 0])).standard_exponential(
        size=(c_re.size, m))
    mod = np.exp(sum(e[i] * c_re[i] for i in range(c_re.size)))
    arg = sum(e[i] * c_im[i] for i in range(c_re.size))
    total = complex(np.einsum("i->", mod * np.cos(arg)), np.einsum("i->", mod * np.sin(arg)))
    return total, float(np.einsum("i->", mod))


@pytest.mark.parametrize("nbars, phase", [((5.0, 0.3, 2.0), 0.3), ((5.0,), 0.4), ((1.0, 2.0), 1.0)])
def test_mc_shard_sums_match_libm_phase_on_the_same_draws(nbars, phase):
    # The summed phases reach |theta| of 2.5 to 20 here, so tan(theta/2)
    # crosses its poles. Per sample the half-angle cos and sin are within
    # 1.5 ulp of libm (measured); the sums are held to 4 eps * sum |w|.
    # At theta = 0 and |theta| < 1e-9 the two forms agree bit for bit.
    # With no control (beta = 0) the kernel's samples are the weights.
    spec = _spec(nbars)
    c_re, c_im = _mc_coefficients(spec, phase / max(spec.frequencies), CONSTS)
    eps = np.finfo(float).eps
    m, seed = 50_000, 3
    for scale in (1.0, 0.0, 1e-12):
        total, _ = _mc_shard(seed, 0, m, c_re, scale * c_im, 0j, [np.empty(m) for _ in range(6)])
        ref, moduli = _libm_shard(seed, m, c_re, scale * c_im)
        if scale == 1.0:
            assert abs(total.real - ref.real) <= 4.0 * eps * moduli
            assert abs(total.imag - ref.imag) <= 4.0 * eps * moduli
        else:
            assert total == ref, scale
        assert total.imag != 0.0 or scale == 0.0


def _one_draw_shards(seed, shards, n_samples, c_re, c_im, beta, sums, abs2) -> None:
    """The shard kernel with every mode drawn at once into one (modes, m)
    array: the reference the row-by-row kernel must match bit for bit."""
    modes = c_re.size
    draw, (mod, arg, tmp, z_re, z_im) = np.empty((modes, _SHARD)), np.empty((5, _SHARD))
    half_im = 0.5 * c_im
    for shard in shards:
        m = min(_SHARD, n_samples - shard * _SHARD)
        e = draw.reshape(-1)[: modes * m].reshape(modes, m)
        np.random.default_rng(np.random.SeedSequence([seed, shard])).standard_exponential(out=e)
        mod_m, arg_m, tmp_m, z_re_m, z_im_m = mod[:m], arg[:m], tmp[:m], z_re[:m], z_im[:m]
        mod_m.fill(0.0)
        arg_m.fill(0.0)
        for i in range(modes):
            mod_m += np.multiply(e[i], c_re[i], out=tmp_m)
            arg_m += np.multiply(e[i], half_im[i], out=tmp_m)
        np.subtract(mod_m, np.sum(c_re), out=z_re_m)
        np.multiply(arg_m, 2.0, out=z_im_m)
        z_im_m -= np.sum(c_im)
        np.exp(mod_m, out=mod_m)
        np.tan(arg_m, out=arg_m)
        np.multiply(arg_m, arg_m, out=tmp_m)
        tmp_m += 1.0
        np.divide(2.0, tmp_m, out=tmp_m)
        arg_m *= tmp_m
        tmp_m -= 1.0
        tmp_m *= mod_m
        arg_m *= mod_m
        spare = e[0]
        tmp_m -= np.multiply(z_re_m, beta.real, out=spare)
        tmp_m += np.multiply(z_im_m, beta.imag, out=spare)
        arg_m -= np.multiply(z_im_m, beta.real, out=spare)
        arg_m -= np.multiply(z_re_m, beta.imag, out=spare)
        sums[shard] = complex(np.einsum("i->", tmp_m), np.einsum("i->", arg_m))
        abs2[shard] = np.einsum("i,i->", tmp_m, tmp_m) + np.einsum("i,i->", arg_m, arg_m)


@pytest.mark.parametrize("nbars", [(1.0,), (0.3, 2.0), (5.0, 0.3, 2.0), (1.0, 0.3, 2.0, 0.05)])
def test_row_by_row_draws_give_the_one_draw_kernel_bits(nbars):
    # Two full shards of 2^16 samples and a short last one, at the pilot's
    # beta: the row-by-row kernel reads the generator in the same order, so
    # every shard's sums keep their bytes.
    spec = _spec(nbars)
    c_re, c_im = _mc_coefficients(spec, 0.3 / max(spec.frequencies), CONSTS)
    n_samples = 2 * _SHARD + 12_345
    beta, _ = _mc_pilot(19, n_samples, c_re, c_im)
    assert np.all(beta.real != 0) and np.all(beta.imag != 0)
    shards = range(3)
    got = np.zeros(3, dtype=complex), np.zeros(3)
    ref = np.zeros(3, dtype=complex), np.zeros(3)
    rows = [np.empty(_SHARD) for _ in range(6)]
    for k in shards:
        got[0][k], got[1][k] = _mc_shard(19, k, n_samples, c_re, c_im, beta, rows)
    _one_draw_shards(19, shards, n_samples, c_re, c_im, beta, *ref)
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()


@pytest.mark.parametrize("n_samples", [1_000, 200_001])
@pytest.mark.parametrize("nbars", [(1.0,), (1.0, 0.3, 2.0, 0.05)])
def test_mc_worker_scratch_is_six_rows_whatever_the_mode_count(monkeypatch, nbars, n_samples):
    # One case alone, then a battery of 1-, 2- and 4-mode cases: each case
    # runs its pilot and then every shard of the main samples its pilot
    # chose, in shard order, on one thread and one set of six rows of
    # max(_PILOT, min(_SHARD, n_samples)), whatever the case and mode
    # counts. At most one set per worker and per case serves a call, and no
    # set serves two cases at once.
    calls = []  # holds every row it saw, so no id is reused while recorded
    # a margin no pilot meets, so the main pass draws all n_samples: the
    # 200_001-sample runs then have four shards per case
    monkeypatch.setattr(oracles, "_MARGIN", 1e12)

    def recording_shard(seed, shard, n, c_re, c_im, beta, rows):
        calls.append((seed, shard, threading.get_ident(), tuple(rows)))
        return _mc_shard(seed, shard, n, c_re, c_im, beta, rows)

    pilot = oracles._mc_pilot

    def recording_pilot(seed, n, c_re, c_im, rows):
        calls.append((seed, None, threading.get_ident(), tuple(rows)))
        return pilot(seed, n, c_re, c_im, rows)

    monkeypatch.setattr(oracles, "_mc_shard", recording_shard)
    monkeypatch.setattr(oracles, "_mc_pilot", recording_pilot)
    length = max(_PILOT, min(_SHARD, n_samples))
    cfg = OracleConfig(n_samples=n_samples)
    n_shards = math.ceil(n_samples / _SHARD)
    spec = _spec(nbars)

    def check(n_cases: int, most: int) -> None:
        assert all([row.shape for row in rows] == [(length,)] * 6 for *_, rows in calls)
        by_case: dict[int, list] = {}
        for index, (seed, shard, thread, rows) in enumerate(calls):
            by_case.setdefault(seed, []).append((index, shard, thread, tuple(map(id, rows))))
        assert len(by_case) == n_cases
        spans: dict[tuple, list] = {}  # each set's cases, as (first, last) call indices
        for records in by_case.values():
            assert [shard for _, shard, _, _ in records] == [None, *range(n_shards)]
            assert len({(thread, ids) for _, _, thread, ids in records}) == 1
            spans.setdefault(records[0][3], []).append((records[0][0], records[-1][0]))
        assert len(spans) <= most
        for cases in spans.values():
            cases.sort()
            assert all(last < first for (_, last), (first, _) in zip(cases, cases[1:]))

    # up to more workers than cores, switching threads often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracles, "_usable_cpus", lambda workers=workers: workers)
            calls.clear()
            mc_visibility(spec, 0.3 / max(spec.frequencies), cfg, CONSTS)
            check(1, 1)
            calls.clear()
            cases = [case for case in run_oracle_battery(2, cfg, CONSTS, seed=3)
                     if case.v_mc is not None]
            assert len({len(case.frequencies) for case in cases}) == 3
            assert all(case.n_samples == n_samples for case in cases)
            check(len(cases), workers)
    finally:
        sys.setswitchinterval(interval)


def test_single_shard_mc_starts_no_thread_pool():
    # a one-shard call, and a battery of one case of one shard, stay serial
    # and leave concurrent.futures unimported, so CLI start-up pays nothing
    # for the pool
    code = (
        "import sys\n"
        "import gravidec.cli\n"
        "from gravidec import (InternalStateSpec, OracleConfig, default_constants,\n"
        "                      mc_visibility, run_oracle_battery)\n"
        "spec = InternalStateSpec.from_frequencies((1e13, 3e13), 300.0)\n"
        "mc_visibility(spec, 1e-14, OracleConfig(n_samples=64), default_constants())\n"
        "cases = run_oracle_battery(1, OracleConfig(n_samples=64), default_constants())\n"
        "assert len(cases) == 1 and cases[0].v_mc is not None, cases\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gravidec.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_mc_standard_error_matches_theory():
    # Per mode the weight is exp(a E) with E standard exponential and
    # a = nbar (e^{-i d} - 1), so E w = prod 1/(1 - a_i), E|w|^2 = prod
    # 1/(1 + 2 nbar (1 - cos d)) and Cov(E_i, w) = E w a_i / (1 - a_i). The
    # control is Z = sum a_i (E_i - 1), with E|Z|^2 = sum |a_i|^2 and
    # E conj(Z) w = sum conj(a_i) Cov(E_i, w). At the pilot's beta, a sample
    # w - beta Z has the variance Var w - 2 Re conj(beta) E conj(Z) w
    # + |beta|^2 E|Z|^2, and the main pass draws the samples the pilot
    # chose; a mis-scaled |alpha|^2 draw (nbar/2 per mode) moves the ratio
    # of se to theory far from 1.
    nbars = np.array([1.0, 0.3, 2.0])
    spec = _spec(tuple(nbars))
    dtau = 0.8 / max(spec.frequencies)
    deltas = np.array(spec.frequencies) * dtau
    a = nbars * (np.exp(-1j * deltas) - 1.0)
    mean = complex(np.prod(1.0 / (1.0 - a)))
    second = float(np.prod(1.0 / (1.0 + 2.0 * nbars * (1.0 - np.cos(deltas)))))
    cov = mean * a / (1.0 - a)
    c_re, c_im = _mc_coefficients(spec, dtau, CONSTS)
    n = 400_000
    for seed in range(4):
        beta, n_main = _mc_pilot(seed, n, c_re, c_im)
        var = (second - abs(mean) ** 2 - 2.0 * (np.conj(beta) * np.sum(np.conj(a) * cov)).real
               + abs(beta) ** 2 * np.sum(np.abs(a) ** 2))
        se_theory = math.sqrt(var / (n_main - 1))
        _, se = mc_visibility(spec, dtau, OracleConfig(n_samples=n, seed=seed), CONSTS)
        assert se == pytest.approx(se_theory, rel=0.05), seed
        assert _SHARD < n_main < n  # past the one-shard floor, below the ceiling


def test_mc_pilot_stream_is_no_shards_stream():
    # the pilot's child seed is SeedSequence(seed).spawn's first child, whose
    # padded entropy no [seed, shard] pair reaches, including a neighbouring
    # case's seed + 1
    for seed in (0, 7, 2**32 + 5):
        pilot = np.random.SeedSequence(seed, spawn_key=(0,)).generate_state(4)
        assert np.array_equal(pilot, np.random.SeedSequence(seed).spawn(1)[0].generate_state(4))
        for base in (seed, seed + 1):
            for shard in range(64):
                shard_state = np.random.SeedSequence([base, shard]).generate_state(4)
                assert not np.array_equal(pilot, shard_state), (seed, base, shard)


def _plain_se(case: oracles.OracleCase, n: int) -> float:
    """The closed-form standard error of n plain samples of the case's weight."""
    freqs = np.array(case.frequencies)
    nbars = 1.0 / np.expm1(CONSTS.hbar * freqs / (CONSTS.k_B * case.temperature))
    deltas = freqs * case.delta_tau
    v = float(np.prod(1.0 / np.abs(1.0 + nbars * (1.0 - np.exp(-1j * deltas)))))
    second = float(np.prod(1.0 / (1.0 + 2.0 * nbars * (1.0 - np.cos(deltas)))))
    return math.sqrt((second - v * v) / (n - 1))


#: The 0.999 quantile of chi^2 with 70 degrees of freedom, one per MC-valid
#: case of the standard preset.
_CHI2_70_999 = 112.32


@pytest.mark.parametrize("mc_seed", [0, 7])
def test_standard_preset_is_as_precise_as_plain_sampling_from_a_quarter_of_the_samples(mc_seed):
    # oracle-check --preset standard: 50 sets per oracle, 10^6 samples. Each
    # MC-valid case's se is no larger than n_samples plain samples give, and
    # the main passes draw at most a quarter of the 10^6 per case that plain
    # sampling drew; in steps of the pilot's size, about a tenth (6.83e6 and
    # 6.93e6 of the 7e7 at seeds 0 and 7).
    #
    # se is not too small either: sum z^2, z = (v_mc - v_exact) / se_mc,
    # stays at or below chi^2_70's 0.999 quantile. se_mc is the standard error
    # of the complex mean, at least the radial error that |mean| carries, so
    # each z has variance at most 1 and a correct build fails this check
    # with probability at most 1e-3 per seed. It is one-sided on purpose: the
    # z have a variance of about 0.81 (sum z^2 = 57.68 and 60.39 at seeds 0
    # and 7), so a lower bound would not have that size. Halving se_mc gives
    # about 231 and 242.
    cfg = OracleConfig(n_samples=1_000_000, seed=mc_seed)
    cases = [case for case in run_oracle_battery(50, cfg, CONSTS) if case.v_mc is not None]
    assert len(cases) == 70
    for case in cases:
        assert case.se_mc <= _plain_se(case, cfg.n_samples), case
        assert 2 <= case.n_samples <= cfg.n_samples
        assert case.n_samples % _PILOT == 0 or case.n_samples == cfg.n_samples
    assert sum(case.n_samples for case in cases) <= 0.25 * len(cases) * cfg.n_samples
    assert sum(case.n_samples for case in cases) <= 7.0e6
    sum_z2 = sum(((case.v_mc - case.v_exact) / case.se_mc) ** 2 for case in cases)
    assert sum_z2 <= _CHI2_70_999, f"sum z^2 = {sum_z2:.2f} over {len(cases)} cases"


@pytest.mark.parametrize("n_samples", [2, 1000, _PILOT - 1, _PILOT, _PILOT + 1, 100_000,
                                       1_000_000, 10**9])
def test_mc_pilot_draws_whole_pilot_steps_up_to_n_samples(n_samples):
    # the main pass draws a multiple of _PILOT in [_PILOT, n_samples], or
    # n_samples itself when that is fewer
    drawn = set()
    for nbars, phase in (((0.5,), 0.2), ((1.0, 0.3, 2.0), 0.5), ((0.01,) * 4, 0.05)):
        spec = _spec(nbars)
        c_re, c_im = _mc_coefficients(spec, phase / max(spec.frequencies), CONSTS)
        for seed in range(3):
            n_main = _mc_pilot(seed, n_samples, c_re, c_im)[1]
            assert n_main == n_samples or (n_main % _PILOT == 0
                                           and _PILOT <= n_main < n_samples), (nbars, seed)
            drawn.add(n_main)
    if n_samples <= _PILOT:
        assert drawn == {n_samples}
    if n_samples >= 1_000_000:  # past the first step, and not in whole shards only
        assert any(n % _SHARD for n in drawn) and max(drawn) > _PILOT


def test_mc_agrees_with_product_law():
    spec = _spec((1.0,))
    dtau = 0.3 / spec.frequencies[0]
    v_exact = exact_visibility(spec, dtau, CONSTS)
    v_mc, se = mc_visibility(spec, dtau, OracleConfig(n_samples=200_000, seed=7), CONSTS)
    assert abs(v_mc - v_exact) < 5.0 * se
    assert se < 1e-3


def test_mc_error_shrinks_with_samples():
    # --samples N asks for the precision of N plain samples. Here the control
    # variate cuts the variance about 90x, so both sizes are past the
    # one-shard floor, where the main pass draws in proportion to N.
    spec = _spec((0.5,))
    dtau = 0.2 / spec.frequencies[0]
    c_re, c_im = _mc_coefficients(spec, dtau, CONSTS)
    small, large = 16_000_000, 256_000_000
    assert _mc_pilot(1, small, c_re, c_im)[1] > 2 * _SHARD
    _, se_small = mc_visibility(spec, dtau, OracleConfig(n_samples=small, seed=1), CONSTS)
    _, se_large = mc_visibility(spec, dtau, OracleConfig(n_samples=large, seed=1), CONSTS)
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
    # no modes: one joint state at energy 0, so V is exactly 1 and, at mass 0, the phase 0
    bare = InternalStateSpec.from_frequencies((), 300.0)
    assert two_point_unitary_oracle(bare, 0.0, 1e-3, 1.0, 9.81, OracleConfig(), CONSTS) == (1, 0)


def test_tensor_matches_product_law_without_factorizing():
    spec = _spec((0.3, 1.0, 2.5))
    dtau = 0.3 / max(spec.frequencies)
    v_exact = exact_visibility(spec, dtau, CONSTS)
    # static arms: g t (x1 - x2) / c^2 equals dtau
    v_tensor, _ = two_point_unitary_oracle(
        spec, 0.0, -dtau * CONSTS.c**2, 1.0, 1.0, OracleConfig(), CONSTS
    )
    assert abs(v_tensor - v_exact) < 1e-6


def _gathered_joint_spectrum(spec, x1, x2, t, g, mass):
    """The joint-spectrum oracle as one gather per state and mode: each joint
    state's levels by np.unravel_index, its probability and energy built mode
    by mode from the left, and each 2^16-state shard summed in turn."""
    pops, energies = [], []
    for w in spec.frequencies:
        q = oracles._boltzmann_q(w, spec.temperature, CONSTS)
        p, _ = oracles._thermal_populations(q, OracleConfig(), oracles.TENSOR_MAX_CUTOFF)
        pops.append(p)
        energies.append(CONSTS.hbar * w * np.arange(p.size))
    dims = [p.size for p in pops]
    joint_dim = math.prod(dims)
    dphi = g * x1 - g * x2
    rate = dphi * t / (CONSTS.hbar * CONSTS.c**2)
    acc = 0.0 + 0.0j
    for start in range(0, joint_dim, _SHARD):
        idx = np.arange(start, min(start + _SHARD, joint_dim))
        prob = np.ones(idx.size)
        energy = np.zeros(idx.size)
        levels = np.unravel_index(idx, dims) if dims else ()
        for i, (p, e) in enumerate(zip(pops, energies)):
            prob *= p[levels[i]]
            energy += e[levels[i]]
        tau = np.tan(energy * (-0.5 * rate))
        one_plus_cos = 2.0 / (1.0 + tau * tau)
        acc += complex(np.sum(prob * (one_plus_cos - 1.0)), np.sum(prob * tau * one_plus_cos))
    amp = acc * np.exp(-1j * mass * dphi * t / CONSTS.hbar)
    return abs(amp), float(np.angle(amp)), dims


def _spec_with_dims(dims, temperature: float = 300.0) -> InternalStateSpec:
    """A spec whose modes truncate at the given number-state counts: a mode
    with Boltzmann factor q = tail_epsilon^(1 / (d - 1/2)) keeps d states."""
    eps = OracleConfig().tail_epsilon
    kt_over_h = CONSTS.k_B * temperature / CONSTS.hbar
    return InternalStateSpec.from_frequencies(
        tuple(-math.log(eps) / (d - 0.5) * kt_over_h for d in dims), temperature)


@pytest.mark.parametrize("dims", [
    (),  # no modes: one joint state
    (40,),  # one mode
    (5, 34, 38, 27),  # 174420 states: the last shard is short
    (34, 26, 63, 43),  # two leading modes gathered per row
    (16, 64, 64),  # exactly one shard
    (33, 45, 50),  # 74250 states, a short second shard
])
def test_tensor_broadcast_matches_one_gather_per_state_bit_for_bit(dims):
    spec = _spec_with_dims(dims)
    dtau = 0.7 / max(spec.frequencies, default=1e13)
    for mass in (0.0, 1e-36):
        args = (0.0, -dtau * CONSTS.c**2, 1.0, 1.0)
        *ref, ref_dims = _gathered_joint_spectrum(spec, *args, mass)
        assert ref_dims == list(dims)
        got = two_point_unitary_oracle(spec, *args, OracleConfig(), CONSTS, mass=mass)
        assert got == tuple(ref), (dims, mass)
        assert 0.0 < got[0] <= 1.0 and (not dims or got[1] != 0.0)


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


def test_battery_mc_is_bit_identical_at_any_worker_count_and_to_each_case_alone(monkeypatch):
    # 18 cases, one skipped by MC, of 4 shards each with a short last one:
    # 17 case units that 1, 2 and 3 workers claim in different
    # interleavings, switching threads often. Each case must also equal
    # mc_visibility on its own stream, so an estimate moved to its
    # neighbour's case fails.
    cfg = OracleConfig(n_samples=200_001)
    assert cfg.n_samples % _SHARD != 0
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracles, "_usable_cpus", lambda workers=workers: workers)
            runs[workers] = run_oracle_battery(8, cfg, CONSTS, seed=137)
    finally:
        sys.setswitchinterval(interval)
    cases = runs[1]
    assert runs[2] == cases and runs[3] == cases
    assert len(cases) == 18 and sum(case.v_mc is None for case in cases) == 1

    monkeypatch.setattr(oracles, "_usable_cpus", lambda: 1)  # a serial reference
    for case in cases:
        if case.v_mc is None:
            assert case.se_mc is None
            assert any(reason.startswith("mc: ") for reason in case.skipped)
            continue
        spec = InternalStateSpec.from_frequencies(case.frequencies, case.temperature)
        case_cfg = OracleConfig(n_samples=cfg.n_samples, seed=case.mc_seed)
        assert (case.v_mc, case.se_mc) == mc_visibility(spec, case.delta_tau, case_cfg, CONSTS)


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
    # and it refuses before the Monte Carlo pass draws a sample
    monkeypatch.setattr(oracles, "_mc_pilot", lambda *args: pytest.fail("sampled"))
    monkeypatch.setattr(oracles, "_mc_shard", lambda *args: pytest.fail("sampled"))
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
