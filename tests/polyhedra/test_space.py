"""Unit and property tests for bounded integer spaces."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.polyhedra import Affine, BoundedSpace, ConstraintSet, Var
from repro.polyhedra import space as space_module


def box(nx, ny):
    return BoundedSpace(
        ("x", "y"),
        [(Affine.const(1), Affine.const(nx)), (Affine.const(1), Affine.const(ny))],
    )


def triangle(n):
    """{(x, y) : 1 <= x <= n, x <= y <= n} — the shape of L(1,1) in Fig. 2."""
    return BoundedSpace(
        ("x", "y"),
        [(Affine.const(1), Affine.const(n)), (Var("x"), Affine.const(n))],
    )


def diagonal(n):
    """A guarded space: the diagonal of an n x n box (like S1 in Fig. 2)."""
    return BoundedSpace(
        ("x", "y"),
        [(Affine.const(1), Affine.const(n)), (Affine.const(1), Affine.const(n))],
        ConstraintSet([Var("y").eq(Var("x"))]),
    )


class TestCount:
    def test_box(self):
        assert box(4, 5).count() == 20

    def test_triangle(self):
        assert triangle(10).count() == 55

    def test_diagonal(self):
        assert diagonal(7).count() == 7

    def test_empty_range(self):
        s = BoundedSpace(("x",), [(Affine.const(5), Affine.const(1))])
        assert s.count() == 0

    def test_trivially_empty_guard(self):
        s = BoundedSpace(
            ("x",),
            [(Affine.const(1), Affine.const(3))],
            ConstraintSet([Affine.const(-1).ge(0)]),
        )
        assert s.is_trivially_empty()
        assert s.count() == 0

    def test_count_matches_enumeration(self):
        for space in (box(3, 4), triangle(6), diagonal(5)):
            assert space.count() == len(list(space.enumerate_points()))

    def test_single_point(self):
        s = BoundedSpace(("x",), [(Affine.const(2), Affine.const(2))])
        assert s.count() == 1
        assert list(s.enumerate_points()) == [(2,)]


class TestCountCache:
    """The cross-instance count cache stays bounded in a long-lived
    process (the daemon analyses ever more distinct systems)."""

    @staticmethod
    def rectangle(k):
        return BoundedSpace(
            ("x", "y"),
            [(Affine.const(1), Affine.const(k)), (Affine.const(0), Affine.const(2))],
        )

    def test_bounded_and_exact_after_eviction(self):
        cap = space_module.COUNT_CACHE_CAP
        space_module.clear_count_cache()
        try:
            for k in range(1, cap + 1001):
                assert self.rectangle(k).count() == 3 * k
            assert space_module.count_cache_size() <= cap
            # The oldest systems were evicted first; fresh instances of
            # them recount exactly, as do the newest (still cached) ones.
            for k in (1, 2, 500, cap + 1000):
                assert self.rectangle(k).count() == 3 * k
            assert space_module.count_cache_size() <= cap
        finally:
            space_module.clear_count_cache()


class TestContains:
    def test_box_membership(self):
        s = box(3, 3)
        assert s.contains((1, 1))
        assert s.contains((3, 3))
        assert not s.contains((0, 1))
        assert not s.contains((4, 1))

    def test_triangle_membership(self):
        s = triangle(5)
        assert s.contains((2, 2))
        assert s.contains((2, 5))
        assert not s.contains((3, 2))

    def test_guard_membership(self):
        s = diagonal(5)
        assert s.contains((3, 3))
        assert not s.contains((3, 4))

    def test_wrong_arity(self):
        assert not box(3, 3).contains((1,))


class TestEnumeration:
    def test_lexicographic_order(self):
        points = list(triangle(4).enumerate_points())
        assert points == sorted(points)

    def test_enumeration_respects_guard(self):
        points = list(diagonal(4).enumerate_points())
        assert points == [(1, 1), (2, 2), (3, 3), (4, 4)]

    def test_inner_bound_depends_on_outer(self):
        points = set(triangle(3).enumerate_points())
        assert points == {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}


class TestValidation:
    def test_bound_cannot_reference_inner_variable(self):
        with pytest.raises(ValueError):
            BoundedSpace(
                ("x", "y"),
                [(Var("y"), Affine.const(3)), (Affine.const(1), Affine.const(3))],
            )

    def test_guard_cannot_reference_unknown_variable(self):
        with pytest.raises(ValueError):
            BoundedSpace(
                ("x",),
                [(Affine.const(1), Affine.const(3))],
                ConstraintSet([Var("z").ge(0)]),
            )

    def test_bound_arity_mismatch(self):
        with pytest.raises(ValueError):
            BoundedSpace(("x", "y"), [(Affine.const(1), Affine.const(3))])


class TestSampling:
    def test_samples_are_members(self):
        s = triangle(8)
        rng = random.Random(7)
        for p in s.sample(200, rng):
            assert s.contains(p)

    def test_sampling_empty_space_raises(self):
        s = BoundedSpace(("x",), [(Affine.const(5), Affine.const(1))])
        with pytest.raises(ValueError):
            s.sample(1, random.Random(0))

    def test_sampling_guarded_space(self):
        s = diagonal(6)
        rng = random.Random(3)
        for p in s.sample(50, rng):
            assert p[0] == p[1]

    def test_uniformity_on_triangle(self):
        """Row x has (n + 1 - x) points; frequencies must follow that weight."""
        n = 6
        s = triangle(n)
        rng = random.Random(11)
        draws = s.sample(6000, rng)
        total = s.count()
        for x in range(1, n + 1):
            expected = (n + 1 - x) / total
            observed = sum(1 for p in draws if p[0] == x) / len(draws)
            assert abs(observed - expected) < 0.05

    def test_var_ranges_box(self):
        r = triangle(5).var_ranges()
        assert r["x"] == (1, 5)
        assert r["y"] == (1, 5)


def linear_scan_sample_one(space, rng):
    """The original draw: rescan every candidate value of every dimension.

    Kept verbatim as the oracle of the cumulative-table sampler: both make
    one ``rng.randrange(total)`` call per dimension, so for any seed they
    must return the same points.
    """
    env = {}
    point = []
    for d in range(space._n):
        lo = space.bounds[d][0].evaluate(env)
        hi = space.bounds[d][1].evaluate(env)
        var = space.dims[d]
        cons = space._cons_at[d]
        weights = []
        running = 0
        for value in range(lo, hi + 1):
            env[var] = value
            if all(c.satisfied(env) for c in cons):
                w = space._count_from(d + 1, env)
                if w:
                    running += w
                    weights.append((value, running))
        if not weights:
            raise ValueError("cannot sample from an empty space")
        pick = rng.randrange(weights[-1][1])
        chosen = weights[-1][0]
        for value, cumulative in weights:
            if pick < cumulative:
                chosen = value
                break
        env[var] = chosen
        point.append(chosen)
    return tuple(point)


def zero_weight_levels():
    """Outer values with empty subtrees: y runs x..4, so x = 5..9 weigh 0,
    and the guard z != y empties z's range whenever y == 1."""
    return BoundedSpace(
        ("x", "y", "z"),
        [
            (Affine.const(1), Affine.const(9)),
            (Var("x"), Affine.const(4)),
            (Affine.const(1), Affine.const(1)),
        ],
        ConstraintSet([(Var("y") - Var("z")).ge(1)]),
    )


def guarded_3d():
    return BoundedSpace(
        ("x", "y", "z"),
        [
            (Affine.const(1), Affine.const(7)),
            (Affine.const(2), Var("x") + 3),
            (Var("y") - 1, Affine.const(9)),
        ],
        ConstraintSet([(Var("x") + Var("z") - Var("y")).ge(2), (Var("z") - 8).le(0)]),
    )


def extent_one_levels():
    """Extent-1 levels (``randrange(1)`` rejects half its words) around a
    real one, like the padding levels of a normalised RIS."""
    return BoundedSpace(
        ("x", "y", "z"),
        [
            (Affine.const(3), Affine.const(3)),
            (Affine.const(1), Affine.const(6)),
            (Affine.const(0), Affine.const(0)),
        ],
    )


def above_power_of_two():
    """Every level's ``randrange`` bound just above a power of two:
    ``n_0 = 65``, ``n_1 = 5`` (close to half of their words rejected)."""
    return BoundedSpace(
        ("x", "y"),
        [(Affine.const(-6), Affine.const(6)), (Affine.const(1), Affine.const(5))],
    )


def tiled():
    """A tiled (translated-bound) space, like MMT's blocked loops: the
    inner bounds move with the tile index but keep a constant extent."""
    return BoundedSpace(
        ("t", "i", "j"),
        [
            (Affine.const(0), Affine.const(4)),
            (Var("t") * 4 + 1, Var("t") * 4 + 4),
            (Var("i") - Var("t"), Var("i") - Var("t") + 2),
        ],
    )


def box_1d(lo, hi):
    return BoundedSpace(("x",), [(Affine.const(lo), Affine.const(hi))])


def descend(space, n, rng):
    """The count-weighted descent, one :meth:`_sample_one` per draw."""
    return [space._sample_one(rng) for _ in range(n)]


@pytest.fixture
def no_array_path(monkeypatch):
    """Make taking the whole-sample NumPy path a test failure."""
    import repro.polyhedra.batch as batch

    def refuse(*args):
        raise AssertionError("took the array path")

    monkeypatch.setattr(batch, "sample_points_array", refuse)


class TestSamplingMatchesLinearScan:
    SPACES = {
        "rectangular": lambda: box(13, 7),
        "triangular": lambda: triangle(11),
        "guarded": lambda: diagonal(9),
        "guarded-3d": guarded_3d,
        "zero-weight-levels": zero_weight_levels,
        "extent-one-levels": extent_one_levels,
        "above-power-of-two": above_power_of_two,
        "tiled": tiled,
    }
    #: Spaces whose every ``randrange`` bound is a constant.
    CONSTANT_EXTENT = {
        "rectangular", "extent-one-levels", "above-power-of-two", "tiled",
    }

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_draws_equal_over_seeds(self, name):
        """Points *and* the generator's end state match the oracle, so the
        rest of a caller's stream is untouched by the path taken."""
        for seed in range(20):
            fast, oracle = self.SPACES[name](), self.SPACES[name]()
            assert oracle.count() == fast.count() > 0
            assert (fast.constant_extents() is not None) == (
                name in self.CONSTANT_EXTENT
            )
            rng, fast_rng = random.Random(seed), random.Random(seed)
            expected = [linear_scan_sample_one(oracle, rng) for _ in range(60)]
            drawn = fast.sample(60, fast_rng)
            assert drawn.shape == (60, fast.ndim)
            assert [tuple(p) for p in drawn.tolist()] == expected, (name, seed)
            assert fast_rng.getstate() == rng.getstate(), (name, seed)

    @pytest.mark.parametrize("name", sorted(CONSTANT_EXTENT))
    def test_array_path_equals_descent(self, name, monkeypatch):
        """The constant-extent spaces really take the array path, and it
        agrees with the descent for sample sizes up to Table 6's."""
        cases = [(1, 1), (2, 31), (3, 385), (4, 1000)]
        expected = {}
        for seed, n in cases:
            oracle_rng = random.Random(seed)
            points = descend(self.SPACES[name](), n, oracle_rng)
            expected[seed] = (points, oracle_rng.getstate())
        monkeypatch.setattr(
            BoundedSpace, "_sample_one",
            lambda *args: pytest.fail("took the descent"),
        )
        space = self.SPACES[name]()
        for seed, n in cases:
            rng = random.Random(seed)
            drawn = [tuple(p) for p in space.sample(n, rng).tolist()]
            assert (drawn, rng.getstate()) == expected[seed], (name, seed)

    def test_too_few_words_retries_with_more(self, monkeypatch):
        """With no slack, the first batch of words runs short (each
        ``randrange(1)`` level rejects half of them) and is drawn again."""
        import repro.polyhedra.batch as batch

        monkeypatch.setattr(batch, "_WORD_SLACK", 0.0)
        space = extent_one_levels()
        rng, oracle_rng = random.Random(9), random.Random(9)
        drawn = [tuple(p) for p in space.sample(385, rng).tolist()]
        assert drawn == descend(extent_one_levels(), 385, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()

    @pytest.mark.parametrize(
        "name", sorted(set(SPACES) - CONSTANT_EXTENT)
    )
    def test_guarded_and_varying_extent_spaces_descend(
        self, name, no_array_path
    ):
        space = self.SPACES[name]()
        assert space.constant_extents() is None
        drawn = space.sample(40, random.Random(3))
        assert drawn.shape == (40, space.ndim)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_zero_draws(self, name):
        space = self.SPACES[name]()
        rng = random.Random(8)
        before = rng.getstate()
        drawn = space.sample(0, rng)
        assert drawn.shape == (0, space.ndim)
        assert drawn.dtype.name == "int64"
        assert rng.getstate() == before

    def test_bound_just_below_two_to_the_32_is_drawn_in_numpy(
        self, monkeypatch
    ):
        """``n_0 = 2**32 − 1``: every 32-bit word is a candidate."""
        oracle_rng = random.Random(6)
        expected = descend(box_1d(0, 2**32 - 2), 50, oracle_rng)
        monkeypatch.setattr(
            BoundedSpace, "_sample_one",
            lambda *args: pytest.fail("took the descent"),
        )
        rng = random.Random(6)
        drawn = box_1d(0, 2**32 - 2).sample(50, rng)
        assert [tuple(p) for p in drawn.tolist()] == expected
        assert rng.getstate() == oracle_rng.getstate()

    @pytest.mark.parametrize("extents", [(2**32,), (2, 2**31), (3, 2**32 + 5)])
    def test_bound_of_two_to_the_32_or_more_descends(
        self, extents, no_array_path
    ):
        """``randrange`` then takes more than one word per try."""
        space = BoundedSpace(
            tuple(f"v{k}" for k in range(len(extents))),
            [(Affine.const(0), Affine.const(e - 1)) for e in extents],
        )
        assert space.constant_extents() == extents
        drawn = space.sample(30, random.Random(2))
        assert [tuple(p) for p in drawn.tolist()] == descend(
            space, 30, random.Random(2)
        )

    def test_random_subclass_descends(self, no_array_path):
        """Only exactly :class:`random.Random` is known to draw
        ``randrange`` from 32-bit words; a subclass may override them."""

        class Subclass(random.Random):
            pass

        space = box(13, 7)
        drawn = space.sample(60, Subclass(4))
        oracle_rng = random.Random(4)
        assert [tuple(p) for p in drawn.tolist()] == descend(
            box(13, 7), 60, oracle_rng
        )

    def test_zero_weight_levels_never_drawn(self):
        s = zero_weight_levels()
        draws = s.sample(300, random.Random(5)).tolist()
        assert {p[0] for p in draws} == {1, 2, 3, 4}
        assert all(p[1] > 1 for p in draws)
        assert all(s.contains(p) for p in draws)


dims3 = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


class TestProperties:
    @given(dims3)
    def test_box_count_is_product(self, dims):
        a, b, c = dims
        s = BoundedSpace(
            ("x", "y", "z"),
            [
                (Affine.const(1), Affine.const(a)),
                (Affine.const(1), Affine.const(b)),
                (Affine.const(1), Affine.const(c)),
            ],
        )
        assert s.count() == a * b * c

    @given(st.integers(1, 12))
    def test_triangle_count_closed_form(self, n):
        assert triangle(n).count() == n * (n + 1) // 2

    @settings(max_examples=25)
    @given(st.integers(2, 8), st.integers(0, 100))
    def test_enumerated_points_all_contained(self, n, seed):
        s = triangle(n)
        pts = list(s.enumerate_points())
        assert all(s.contains(p) for p in pts)
        rng = random.Random(seed)
        outside = (0, 0)
        assert not s.contains(outside)
        assert rng is not None
