import math
import tracemalloc

import numpy as np
import pytest

from sgdmlab import concentration
from sgdmlab.concentration import (
    a_sequence,
    anytime_bound,
    anytime_constants,
    anytime_coverage,
    gamma_constants,
    initial_energy,
    mgf_lemma_check,
    supermartingale_trace,
    tail_lemma_check,
)
from sgdmlab.optimizers import StepSchedule, run_ensemble, schedule_eval
from sgdmlab.problems import NoiseModel, quadratic_new
from sgdmlab.seeding import rng_for

from test_problems import random_spd


def anytime_schedule(L=1.0, scale=1.0):
    return StepSchedule(kind="anytime_log2", L=L, scale=scale)


def traced_peak_mb(fn, *args, **kwargs):
    """Peak traced allocation, in MB, of one call fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def reference_gamma_endpoints(schedule, sigma2, K):
    """gamma_constants' four endpoints from the full (K,) arrays of a_k and
    log1p(a_k sigma2), each summed in ceil(sqrt(K))-term blocks at once."""
    c = concentration
    A, q = c._series_params(schedule)
    a = a_sequence(schedule, np.arange(1, K + 1, dtype=float))

    def head_sum(terms):
        b = math.isqrt(K - 1) + 1
        full = (K // b) * b
        total = float(np.sum(terms[:full].reshape(-1, b).sum(axis=1)) + np.sum(terms[full:]))
        return total, (2.0 * b + c._TERM_ULPS) * c._EPS * total

    shrink, grow = 1.0 - c._TERM_ULPS * c._EPS, 1.0 + c._TERM_ULPS * c._EPS
    tail_lo = shrink * A * (1.0 / ((q - 1.0) * np.log(K + 3.0) ** (q - 1.0)))
    tail_hi = grow * A * (1.0 + 2.0 / K) * (1.0 / ((q - 1.0) * np.log(K + 2.0) ** (q - 1.0)))
    s_head, s_err = head_sum(a)
    log_head, log_err = head_sum(np.log1p(a * sigma2))
    a_next = float(a_sequence(schedule, K + 1.0))
    log_tail_hi = grow * sigma2 * tail_hi
    log_tail_lo = max(0.0, shrink * (sigma2 * tail_lo - 0.5 * sigma2 * a_next * log_tail_hi))
    return (c._down(s_head - s_err + tail_lo), c._up(s_head + s_err + tail_hi),
            c._down(math.exp(c._down(log_head - log_err + log_tail_lo))),
            c._up(math.exp(c._up(log_head + log_err + log_tail_hi))))


def reference_supermartingale(obj, noise, schedule, K, M, master_seed, x0=None,
                              k_trunc=1_000_000):
    """supermartingale_trace's mean, stderr, overflow flag and drift residual
    from full (K+1, M) arrays: S, M(k), the drift, the penalty, log N and N."""
    x0 = np.ones(obj.dim) if x0 is None else np.asarray(x0, dtype=float)
    sigma2 = noise.hp_sigma2
    g2 = gamma_constants(schedule, sigma2, k_trunc).gamma2_upper
    t = 1.0 / g2
    a = a_sequence(schedule, np.arange(1, K + 1, dtype=float))
    tr = run_ensemble(obj, noise, schedule, K=K, M=M, master_seed=master_seed,
                      x0=x0, record=("energy", "theta"))
    S = np.zeros((K + 1, M))
    S[1:] = np.cumsum(a[:, None] * tr.theta_sq, axis=0)
    mart = tr.energy - S
    drift = mart[1:] - mart[:-1] - np.sqrt(a)[:, None] * tr.theta_tau
    max_residual = float(np.max(drift / (1.0 + np.abs(mart[1:]))))
    log_partial = np.concatenate([[0.0], np.cumsum(np.log1p(a * sigma2))])
    tail_prod = np.exp(np.log(g2) - log_partial)
    penalty = np.zeros((K + 1, M))
    penalty[1:] = np.cumsum(a[:, None] * S[:-1], axis=0)
    log_n = tail_prod[:, None] * t * mart - t * sigma2 * g2 * penalty
    n_vals = np.exp(np.minimum(log_n, 700.0))
    return {
        "mean": np.mean(n_vals, axis=1),
        "stderr": np.std(n_vals, axis=1, ddof=1) / np.sqrt(M),
        "overflow_clamped": bool(np.any(log_n > 700.0)),
        "pathwise_max_residual": max_residual,
    }


class TestASequence:
    def test_formula(self):
        s = anytime_schedule(L=2.0)
        for k in (1, 5, 40):
            assert a_sequence(s, k) == pytest.approx(16.0 * schedule_eval(s, k) / k)
            # closed form for this schedule: scale / (L^2 k log^2(k+2))
            assert a_sequence(s, k) == pytest.approx(1.0 / (4.0 * k * math.log(k + 2) ** 2))


class TestGammaConstants:
    def test_brackets_contain_brute_force_partial_sums(self):
        """A direct 10^7-term summation must land inside the bracket computed
        from a 10^5-term truncation (plus its integral tail)."""
        s = anytime_schedule()
        br = gamma_constants(s, sigma2=1.0, k_trunc=100_000)
        ks = np.arange(1, 10_000_001, dtype=float)
        a = a_sequence(s, ks)
        partial = float(np.sum(a))
        # the true value is partial + tail(1e7), with the tail itself below
        # (1 + 2e-7) / log(1e7 + 2); the bracket must respect both sides
        tail_cap = (1.0 + 2e-7) / math.log(1e7 + 2.0)
        assert br.gamma1_lower <= partial + tail_cap
        assert partial <= br.gamma1_upper
        log_partial = float(np.sum(np.log1p(a)))
        assert math.exp(log_partial) <= br.gamma2_upper

    @pytest.mark.parametrize("L", [1.0, 1.7])
    @pytest.mark.parametrize("scale", [0.5, 0.9])
    @pytest.mark.parametrize("sigma2", [1.0, 2.3])
    def test_brackets_contain_exactly_rounded_reference(self, L, scale, sigma2):
        """At k_trunc = 10^3 the brackets must contain their own endpoints
        recomputed with math.fsum and math.log, so rounding in the 10^3-term
        head sums never moves an endpoint inward (without the widening, most
        of these cases fail by an ulp or two)."""
        K = 1000
        br = gamma_constants(anytime_schedule(L=L, scale=scale), sigma2, k_trunc=K)
        # a_k = scale / (L^2 k log^2(k+2)), so a_k = A / (k log^2(k+2)) with A = scale / L^2
        A = scale / L**2
        a = [A / (k * math.log(k + 2.0) ** 2) for k in range(1, K + 1)]
        tail_lo = A / math.log(K + 3.0)
        tail_hi = A * (1.0 + 2.0 / K) / math.log(K + 2.0)
        head = math.fsum(a)
        assert br.gamma1_lower <= head + tail_lo
        assert head + tail_hi <= br.gamma1_upper
        log_head = math.fsum(math.log1p(ak * sigma2) for ak in a)
        a_next = A / ((K + 1) * math.log(K + 3.0) ** 2)
        log_tail_lo = sigma2 * tail_lo - 0.5 * sigma2**2 * a_next * tail_hi
        assert br.gamma2_lower <= math.exp(log_head + log_tail_lo)
        assert math.exp(log_head + sigma2 * tail_hi) <= br.gamma2_upper
        # the widening is a rounding-level allowance, not a loss of accuracy
        assert br.gamma1_upper - (head + tail_hi) <= 1e-12 * head
        assert br.gamma2_upper / math.exp(log_head + sigma2 * tail_hi) - 1.0 <= 1e-12

    def test_brackets_are_nested_as_truncation_grows(self):
        s = anytime_schedule()
        coarse = gamma_constants(s, 2.0, k_trunc=10_000)
        fine = gamma_constants(s, 2.0, k_trunc=1_000_000)
        assert coarse.gamma1_lower <= fine.gamma1_lower
        assert fine.gamma1_upper <= coarse.gamma1_upper
        assert coarse.gamma2_lower <= fine.gamma2_lower + 1e-12
        assert fine.gamma2_upper <= coarse.gamma2_upper + 1e-12

    def test_width_shrinks_with_truncation(self):
        s = anytime_schedule()
        w1 = gamma_constants(s, 1.0, k_trunc=1_000).gamma1_width
        w2 = gamma_constants(s, 1.0, k_trunc=100_000).gamma1_width
        assert w2 < w1 / 10.0

    def test_unit_series_analytic_ceiling(self):
        # sum 1/(k log^2(k+2)) is provably below 4
        br = gamma_constants(anytime_schedule(), 1.0, k_trunc=1_000_000)
        assert br.gamma1_upper <= 4.0

    def test_schedule_scaling_relation(self):
        """The wide-stepsize schedule has weights exactly 16x the conservative
        one at equal scale, so the series scales by 16."""
        br_a = gamma_constants(anytime_schedule(), 0.0, k_trunc=50_000)
        br_e = gamma_constants(StepSchedule(kind="expectation_log2", L=1.0), 0.0,
                               k_trunc=50_000)
        assert br_e.gamma1_upper == pytest.approx(16.0 * br_a.gamma1_upper, rel=1e-12)

    def test_epsilon_schedule_tail_exponent(self):
        s = StepSchedule(kind="epsilon_log", L=1.0, epsilon=0.5)
        br = gamma_constants(s, 1.0, k_trunc=100_000)
        # tail integral 1/(eps log^eps(K+2)) is much fatter than the log^2 case
        br2 = gamma_constants(anytime_schedule(), 1.0, k_trunc=100_000)
        assert br.gamma1_width > br2.gamma1_width

    @pytest.mark.parametrize("kind", ["anytime_log2", "expectation_log2", "epsilon_log"])
    @pytest.mark.parametrize("K", [1, 7, 1000, 12_345, 1_000_000])
    def test_endpoints_equal_full_array_reference(self, kind, K):
        """Summing slab by slab keeps every block sum, hence every endpoint,
        bit for bit those of the full-array computation."""
        sched = StepSchedule(kind=kind, L=1.3, scale=0.8, epsilon=0.5)
        br = gamma_constants(sched, 1.7, k_trunc=K)
        got = (br.gamma1_lower, br.gamma1_upper, br.gamma2_lower, br.gamma2_upper)
        assert got == reference_gamma_endpoints(sched, 1.7, K)

    def test_memory_is_sublinear_in_truncation(self):
        """At k_trunc = 10^6 the full arrays of a_k and log1p(a_k sigma2)
        alone would take 16 MB; the slabs and block sums take well under 2."""
        assert traced_peak_mb(gamma_constants, anytime_schedule(), 1.0, 1_000_000) <= 2.0

    def test_divergent_schedules_rejected(self):
        with pytest.raises(ValueError, match="divergent"):
            gamma_constants(StepSchedule(kind="sqrt_k", scale=1.0), 1.0)
        with pytest.raises(ValueError, match="divergent"):
            gamma_constants(StepSchedule(kind="constant", scale=0.1), 1.0)
        with pytest.raises(ValueError, match="sigma2"):
            gamma_constants(anytime_schedule(), -1.0)
        with pytest.raises(ValueError, match="k_trunc"):
            gamma_constants(anytime_schedule(), 1.0, k_trunc=0)


class TestAnytimeBound:
    def test_constants_formula(self):
        s = anytime_schedule()
        const = anytime_constants(s, E0=2.0, L=3.0, sigma2=0.5, k_trunc=10_000)
        g1, g2 = const.brackets.gamma1_upper, const.brackets.gamma2_upper
        cross = 3.0 * 0.5 * (1.0 + 0.5 * g1 * g2) * g1
        assert const.C1 == pytest.approx(3.0 * g2 * 2.0 + cross, rel=1e-12)
        assert const.C2 == pytest.approx(3.0 * g2 + cross, rel=1e-12)
        assert const.log_power == 1.0

    def test_envelope_shape_and_beta_monotonicity(self):
        const = anytime_constants(anytime_schedule(), 1.0, 1.0, 1.0, k_trunc=10_000)
        k = 100
        expect = (const.C1 + const.C2 * math.log(20.0)) * math.log(102.0) / math.sqrt(101.0)
        assert anytime_bound(const, k, 0.05) == pytest.approx(expect, rel=1e-12)
        assert anytime_bound(const, k, 0.01) > anytime_bound(const, k, 0.2)

    def test_epsilon_schedule_uses_reduced_log_power(self):
        s = StepSchedule(kind="epsilon_log", L=1.0, epsilon=0.5)
        const = anytime_constants(s, 1.0, 1.0, 1.0, k_trunc=10_000)
        assert const.log_power == pytest.approx(0.75)

    def test_invalid_beta_rejected(self):
        const = anytime_constants(anytime_schedule(), 1.0, 1.0, 1.0, k_trunc=1_000)
        for beta in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError, match="beta"):
                anytime_bound(const, 10, beta)

    def test_initial_energy_hand_value(self):
        obj = quadratic_new(np.eye(2))
        s = anytime_schedule(L=obj.lipschitz)
        x0 = np.array([1.0, 1.0])
        eta0 = schedule_eval(s, 0)
        expect = 2.0 + 4.0 * math.sqrt(eta0) * 1.0  # f_gap(x0) = 1
        assert initial_energy(obj, s, x0) == pytest.approx(expect, rel=1e-12)


class TestCoverage:
    def test_conservative_bound_never_violated_in_small_run(self):
        obj = quadratic_new(random_spd(5, 0))
        noise = NoiseModel.gaussian(5, 0.01)
        sched = anytime_schedule(L=obj.lipschitz)
        rep = anytime_coverage(obj, noise, sched, K=500, M=50, beta=0.05,
                               master_seed=0, k_trunc=100_000)
        assert rep["fraction_violating"] == 0.0
        assert rep["passed"]
        assert rep["min_margin"] > 0.0
        assert rep["nominal_level"] == pytest.approx(0.1)


    def test_locates_the_first_violation(self, monkeypatch):
        """With the envelope replaced by one that some runs cross at k = 50
        or k = 120, the report names the lowest violating run and its first
        k, as read off an independent rerun of the same ensemble."""
        obj = quadratic_new(random_spd(3, 1))
        noise = NoiseModel.gaussian(3, 1.0)
        sched = anytime_schedule(L=obj.lipschitz)
        K, M = 200, 8
        f_gap = run_ensemble(obj, noise, sched, K=K, M=M, master_seed=4,
                             x0=np.ones(3)).f_gap[1:]  # rows k = 1..K
        bound = f_gap.max(axis=1) + 1.0
        for k in (50, 120):
            bound[k - 1] = np.median(f_gap[k - 1])
        monkeypatch.setattr(concentration, "anytime_bound", lambda const, k, beta: bound)
        rep = anytime_coverage(obj, noise, sched, K=K, M=M, beta=0.05,
                               master_seed=4, k_trunc=10_000)
        bad = [i for i in range(M) if any(f_gap[k, i] > bound[k] for k in range(K))]
        assert 0 < len(bad) < M
        assert rep["n_violating"] == len(bad)
        assert rep["first_violating_run"] == bad[0]
        ks = [k + 1 for k in range(K) if f_gap[k, bad[0]] > bound[k]]
        assert rep["first_violating_k"] == ks[0]
        assert rep["min_margin"] == np.min(bound[:, None] - f_gap)

    def test_no_violation_has_null_locator(self):
        obj = quadratic_new(random_spd(3, 1))
        rep = anytime_coverage(obj, NoiseModel.gaussian(3, 0.01),
                               anytime_schedule(L=obj.lipschitz), K=50, M=4, beta=0.05,
                               master_seed=0, k_trunc=10_000)
        assert rep["n_violating"] == 0
        assert rep["first_violating_run"] is None and rep["first_violating_k"] is None


class TestSupermartingale:
    def test_mean_trace_non_increasing_and_pathwise_drift(self):
        obj = quadratic_new(np.array([[1.0]]))
        noise = NoiseModel.gaussian(1, 0.01)
        rep = supermartingale_trace(obj, noise, anytime_schedule(), K=60, M=2000,
                                    master_seed=0, k_trunc=100_000)
        assert rep["pathwise_ok"], rep["pathwise_max_residual"]
        assert not rep["overflow_clamped"]
        m, se = rep["mean"], rep["stderr"]
        slack = 3.0 * np.hypot(se[1:], se[:-1])
        assert np.all(np.diff(m) <= slack)
        # the start value is exp(gamma2 t E(0)) with t = 1/gamma2_upper
        e0 = initial_energy(obj, anytime_schedule(), np.ones(1))
        assert m[0] == pytest.approx(math.exp(e0), rel=1e-8)

    @pytest.mark.parametrize("K, M", [(100, 10_000), (57, 3_000), (5, 40_000), (30, 7)])
    def test_blocks_equal_full_array_reference(self, K, M):
        """The row blocks split K+1 rows unevenly, hold one row (M > 2^16/2)
        or all of them (small M); the result is that of the full arrays."""
        obj = quadratic_new(np.array([[1.0]]))
        args = (obj, NoiseModel.gaussian(1, 0.01), anytime_schedule(), K, M, 3)
        rep = supermartingale_trace(*args, k_trunc=100_000)
        ref = reference_supermartingale(*args, k_trunc=100_000)
        np.testing.assert_array_equal(rep["mean"], ref["mean"])
        np.testing.assert_array_equal(rep["stderr"], ref["stderr"])
        assert rep["pathwise_max_residual"] == ref["pathwise_max_residual"]
        assert rep["overflow_clamped"] is ref["overflow_clamped"] is False

    # N(k) clamped at exp(700) overflows its square in the standard error
    # (stderr = inf), in the full-array formulas as in the blocked ones
    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
    def test_clamped_overflow_equals_full_array_reference(self):
        obj = quadratic_new(random_spd(2, 4))
        args = (obj, NoiseModel.gaussian(2, 0.01), anytime_schedule(L=obj.lipschitz),
                40, 5_000, 1)
        x0 = 1e3 * np.ones(2)
        rep = supermartingale_trace(*args, x0=x0, k_trunc=10_000)
        ref = reference_supermartingale(*args, x0=x0, k_trunc=10_000)
        assert rep["overflow_clamped"] and ref["overflow_clamped"]
        np.testing.assert_array_equal(rep["mean"], ref["mean"])
        np.testing.assert_array_equal(rep["stderr"], ref["stderr"])
        assert rep["pathwise_max_residual"] == ref["pathwise_max_residual"]

    def test_memory_beyond_recorded_fields_is_a_block(self):
        """K = 100, M = 10^4: the ensemble's recorded fields and its noise
        buffer take about 40 MB; the full-array trace peaked at about 85."""
        obj = quadratic_new(np.array([[1.0]]))
        peak = traced_peak_mb(supermartingale_trace, obj, NoiseModel.gaussian(1, 0.01),
                              anytime_schedule(), K=100, M=10_000, master_seed=6)
        assert peak <= 48.0

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_single_run(self):
        obj = quadratic_new(np.array([[1.0]]))
        with pytest.raises(ValueError, match="two runs"):
            supermartingale_trace(obj, NoiseModel.gaussian(1, 0.01), anytime_schedule(),
                                  K=10, M=1, master_seed=0, k_trunc=10_000)

    def test_rejects_oversized_transform_parameter(self):
        obj = quadratic_new(np.array([[1.0]]))
        noise = NoiseModel.gaussian(1, 0.01)
        with pytest.raises(ValueError, match="1/gamma2"):
            supermartingale_trace(obj, noise, anytime_schedule(), K=10, M=5,
                                  master_seed=0, t=10.0, k_trunc=10_000)

    def test_rejects_t_beyond_certified_endpoint(self):
        """t between 1/gamma2_upper and 1/gamma2_lower is not certified."""
        obj = quadratic_new(np.array([[1.0]]))
        noise = NoiseModel.gaussian(1, 0.01)
        br = gamma_constants(anytime_schedule(), noise.hp_sigma2, 10_000)
        lo, hi = 1.0 / br.gamma2_upper, 1.0 / br.gamma2_lower
        t = 0.5 * (lo + hi)
        assert lo < t < hi
        with pytest.raises(ValueError, match="1/gamma2_upper"):
            supermartingale_trace(obj, noise, anytime_schedule(), K=10, M=5,
                                  master_seed=0, t=t, k_trunc=10_000)
        rep = supermartingale_trace(obj, noise, anytime_schedule(), K=10, M=5,
                                    master_seed=0, t=lo, k_trunc=10_000)
        assert rep["t"] == lo

    def test_rejects_stepsizes_violating_drift_hypothesis(self):
        obj = quadratic_new(np.array([[1.0]]))
        noise = NoiseModel.gaussian(1, 0.01)
        sched = anytime_schedule(scale=40.0)  # eta_k > k/(16 L^2) at small k
        with pytest.raises(ValueError, match="16"):
            supermartingale_trace(obj, noise, sched, K=10, M=5, master_seed=0,
                                  k_trunc=10_000)


class TestScalarLemmas:
    def test_mgf_rows_pass_at_moderate_sample_size(self):
        rows = mgf_lemma_check([0.25, 1.0], n_samples=100_000, seed=0)
        for row in rows:
            assert row["passed"]
            assert row["mean"] >= 1.0 - 3.0 * row["stderr"]  # Jensen: mean >= exp(0)=1

    def test_mgf_blocked_draws_equal_one_full_draw(self):
        """The noise is drawn and projected 2^16 samples at a time; the rows
        equal those computed from one (n_samples, dim) draw."""
        n, lams = 150_001, [0.25, 1.0]
        rng = rng_for(4, 0)
        w = rng.standard_normal(5)
        w /= np.linalg.norm(w)
        noise = NoiseModel.gaussian(5, 1.0)
        gamma = noise.sample(rng, n) @ w
        rows = mgf_lemma_check(lams, n_samples=n, seed=4)
        for lam, row in zip(lams, rows):
            vals = np.exp(lam * gamma / np.sqrt(noise.hp_sigma2))
            assert row["mean"] == float(np.mean(vals))
            assert row["stderr"] == float(np.std(vals, ddof=1) / np.sqrt(n))

    def test_mgf_ceiling_formula(self):
        rows = mgf_lemma_check([0.5], n_samples=1_000, seed=1)
        assert rows[0]["ceiling"] == pytest.approx(math.exp(0.75 * 0.25))

    def test_tail_rows_pass_and_fractions_decrease(self):
        rows = tail_lemma_check([0.5, 1.0, 2.0], n_terms=20, n_samples=40_000, seed=0)
        fracs = [r["fraction"] for r in rows]
        assert all(r["passed"] for r in rows)
        assert fracs == sorted(fracs, reverse=True)

    def test_tail_certificates_hold_per_term(self):
        # the per-term scale sigma_l^2 = 2 s_l^2/(1-e^-2) certifies the scalar
        # exponential-moment condition: (1 - 2 s^2/sigma^2)^(-1/2) <= e
        s2 = 1.7
        sigma2 = 2.0 * s2 / (1.0 - math.exp(-2.0))
        assert (1.0 - 2.0 * s2 / sigma2) ** -0.5 <= math.e
