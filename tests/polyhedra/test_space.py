"""Unit and property tests for bounded integer spaces."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.polyhedra import Affine, BoundedSpace, ConstraintSet, Var


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


class TestSamplingMatchesLinearScan:
    SPACES = {
        "rectangular": lambda: box(13, 7),
        "triangular": lambda: triangle(11),
        "guarded": lambda: diagonal(9),
        "guarded-3d": guarded_3d,
        "zero-weight-levels": zero_weight_levels,
    }

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_draws_equal_over_seeds(self, name):
        for seed in range(20):
            fast, oracle = self.SPACES[name](), self.SPACES[name]()
            assert oracle.count() == fast.count() > 0
            rng = random.Random(seed)
            expected = [linear_scan_sample_one(oracle, rng) for _ in range(60)]
            assert fast.sample(60, random.Random(seed)) == expected, (name, seed)

    def test_zero_weight_levels_never_drawn(self):
        s = zero_weight_levels()
        draws = s.sample(300, random.Random(5))
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
