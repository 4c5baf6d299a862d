"""Unit tests for the sampling statistics of Fig. 6."""

import math

import pytest

from repro.stats import (
    DEFAULT_FALLBACK,
    achievable,
    proportion_interval,
    sample_size,
    wilson_interval,
    z_value,
)


class TestZValue:
    def test_95_percent(self):
        assert abs(z_value(0.95) - 1.9600) < 1e-3

    def test_90_percent(self):
        assert abs(z_value(0.90) - 1.6449) < 1e-3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            z_value(1.0)
        with pytest.raises(ValueError):
            z_value(0.0)


class TestSampleSize:
    def test_paper_settings_unbounded(self):
        # c = 95%, w = 0.05 -> n0 = 1.96^2 * 0.25 / 0.0025 ~= 385
        assert sample_size(0.95, 0.05) == 385

    def test_fallback_settings(self):
        # c' = 90%, w' = 0.15 -> ~31 points
        assert sample_size(0.90, 0.15) == 31

    def test_finite_population_correction_reduces_n(self):
        unbounded = sample_size(0.95, 0.05)
        corrected = sample_size(0.95, 0.05, population=1000)
        assert corrected < unbounded
        assert corrected <= 1000

    def test_tiny_population_capped(self):
        assert sample_size(0.95, 0.05, population=10) <= 10

    def test_zero_population(self):
        assert sample_size(0.95, 0.05, population=0) == 0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            sample_size(0.95, 0.0)


class TestAchievable:
    def test_large_population_achievable(self):
        assert achievable(0.95, 0.05, 100_000)

    def test_small_population_not_achievable(self):
        assert not achievable(0.95, 0.05, 50)

    def test_fallback_reaches_smaller_spaces(self):
        # Some sizes achievable at (90%, 0.15) but not (95%, 0.05).
        size = 200
        assert not achievable(0.95, 0.05, size)
        assert achievable(0.90, 0.15, size)


class TestEdgeCases:
    def test_volume_smaller_than_fallback_sample_size(self):
        """Fig. 6's last resort: an RIS below even the fallback n₀ is a
        census — not achievable at either accuracy, sample capped at V."""
        fallback_n0 = sample_size(*DEFAULT_FALLBACK)
        for volume in range(1, fallback_n0 + 1):
            assert not achievable(*DEFAULT_FALLBACK, volume)
            assert sample_size(*DEFAULT_FALLBACK, population=volume) <= volume
        assert achievable(*DEFAULT_FALLBACK, fallback_n0 + 1)

    def test_width_one_or_more_rejected(self):
        for width in (1.0, 1.5, 2.0):
            with pytest.raises(ValueError):
                sample_size(0.95, width)

    def test_width_just_below_one_needs_tiny_sample(self):
        assert sample_size(0.95, 0.999) == 1

    def test_confidence_approaching_one_diverges(self):
        """n₀ grows without bound as c → 1 (z diverges), monotonically."""
        sizes = [sample_size(c, 0.05) for c in (0.9, 0.99, 0.999, 0.999999)]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)  # strictly increasing
        assert sizes[-1] > 8 * sizes[0]

    def test_confidence_exactly_one_rejected(self):
        with pytest.raises(ValueError):
            sample_size(1.0, 0.05)

    def test_achievable_monotone_in_population(self):
        threshold = sample_size(0.95, 0.05)
        assert not achievable(0.95, 0.05, threshold)
        assert achievable(0.95, 0.05, threshold + 1)

    def test_population_one_is_a_census(self):
        assert sample_size(0.95, 0.05, population=1) == 1


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(30, 100, 0.95)
        assert lo < 0.3 < hi

    def test_zero_successes_has_nondegenerate_upper_bound(self):
        """The Wald interval collapses to a point at p̂ = 0; Wilson must
        keep an upper bound ≈ z²/(n+z²) so containment checks stay honest."""
        lo, hi = wilson_interval(0, 100, 0.95)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0.01 < hi < 0.1

    def test_all_successes_has_nondegenerate_lower_bound(self):
        lo, hi = wilson_interval(100, 100, 0.95)
        assert hi == 1.0
        assert 0.9 < lo < 0.99

    def test_empty_sample(self):
        assert wilson_interval(0, 0, 0.95) == (0.0, 0.0)

    def test_narrower_with_more_samples(self):
        lo1, hi1 = wilson_interval(30, 100, 0.95)
        lo2, hi2 = wilson_interval(300, 1000, 0.95)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_tighter_than_wald_never_escapes_unit_interval(self):
        for successes, n in [(0, 10), (1, 10), (9, 10), (10, 10)]:
            lo, hi = wilson_interval(successes, n, 0.99)
            assert 0.0 <= lo <= hi <= 1.0


class TestProportionInterval:
    def test_contains_point_estimate(self):
        lo, hi = proportion_interval(30, 100, 0.95)
        assert lo <= 0.3 <= hi

    def test_clamped_to_unit_interval(self):
        lo, hi = proportion_interval(0, 100, 0.95)
        assert lo == 0.0
        lo, hi = proportion_interval(100, 100, 0.95)
        assert hi == 1.0

    def test_empty_sample(self):
        assert proportion_interval(0, 0, 0.95) == (0.0, 0.0)

    def test_narrower_with_more_samples(self):
        lo1, hi1 = proportion_interval(30, 100, 0.95)
        lo2, hi2 = proportion_interval(300, 1000, 0.95)
        assert (hi2 - lo2) < (hi1 - lo1)


class TestMatchesScipy:
    """``sample_size`` uses :class:`statistics.NormalDist`, not SciPy; its
    quantiles differ from ``norm.ppf`` in the last ulp, which must never
    move a sample size the solvers, the CLI or the benchmarks draw."""

    #: Every (c, w) the code, CLI, serve protocol, harness and benchmarks use.
    PAIRS = sorted(
        {DEFAULT_FALLBACK, (0.95, 0.999)}
        | {(c, w) for c in (0.80, 0.90, 0.95, 0.99, 0.999)
           for w in (0.15, 0.10, 0.05, 0.03)}
    )

    @staticmethod
    def _ris_volumes() -> set:
        from repro import prepare
        from repro.kernels import build_hydro, build_mgrid, build_mmt
        from repro.programs import (
            build_applu_like,
            build_swim_like,
            build_tomcatv_like,
        )

        programs = [
            build_tomcatv_like(40, 2), build_swim_like(40, 2),
            build_applu_like(20, 2), build_hydro(), build_mgrid(),
            build_mmt(), build_hydro(32, 32), build_mgrid(12),
            build_mgrid(10), build_mmt(24, 24, 12), build_mmt(32, 16, 8),
        ]
        volumes = set()
        for program in programs:
            nprog = prepare(program).nprog
            volumes |= {nprog.ris(leaf).count() for leaf in nprog.leaves}
        return volumes

    def test_sample_sizes_equal_scipy(self):
        np = pytest.importorskip("numpy")
        norm = pytest.importorskip("scipy.stats").norm
        populations = np.arange(1, 200_001, dtype=np.float64)
        volumes = self._ris_volumes()
        for c, w in self.PAIRS:
            z_ours = z_value(c)
            z_scipy = float(norm.ppf((1.0 + c) / 2.0))

            def sizes(z, pop):
                # sample_size's float arithmetic, one population per element
                n0 = z * z * 0.5 * (1.0 - 0.5) / (w * w)
                return np.minimum(pop, np.ceil(n0 / (1.0 + (n0 - 1.0) / pop)))

            ours = sizes(z_ours, populations)
            assert (ours == sizes(z_scipy, populations)).all(), (c, w)
            assert sample_size(c, w) == math.ceil(
                z_scipy * z_scipy * 0.25 / (w * w)
            )
            # The vectorized mirror is sample_size itself...
            for pop in range(1, 200_001, 997):
                assert sample_size(c, w, pop) == int(ours[pop - 1])
            # ...and every RIS volume of Table 6 and Fig. 8 agrees too.
            for volume in volumes:
                expected = sizes(z_scipy, np.float64(volume))
                assert sample_size(c, w, volume) == int(expected), (c, w, volume)
