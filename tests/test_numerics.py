"""Substrate tests: PRNG stream, matmul contract, finite differences."""

import numpy as np
import pytest

from spikeclm import numerics
from spikeclm.errors import EvaluationError, ShapeError

MASK = (1 << 64) - 1


def splitmix64_reference(seed: int, n: int) -> list:
    """Plain-integer splitmix64, written independently of the vectorized one."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z = z ^ (z >> 31)
        out.append(z)
    return out


class TestRng:
    def test_matches_scalar_reference(self):
        """Vectorized stream equals the integer-by-integer recurrence."""
        for seed in (0, 1, 42, 0xDEADBEEF, MASK):
            rng = numerics.Rng(seed)
            got = [rng.next_u64() for _ in range(20)]
            assert got == splitmix64_reference(seed, 20)

    def test_block_draws_match_scalar_draws(self):
        """Drawing 100 at once equals drawing one at a time."""
        a = numerics.Rng(7)._raw(100)
        b = np.array([numerics.Rng(7).next_u64() for _ in range(1)])
        rng = numerics.Rng(7)
        one_by_one = [rng.next_u64() for _ in range(100)]
        assert list(a) == one_by_one
        assert b[0] == one_by_one[0]

    def test_same_seed_same_stream(self):
        a = numerics.Rng(123).normal((50,))
        b = numerics.Rng(123).normal((50,))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(numerics.Rng(7).uniform(1000),
                                      numerics.Rng(7).uniform(1000))

    def test_different_seeds_differ(self):
        a = numerics.Rng(1).uniform((50,))
        b = numerics.Rng(2).uniform((50,))
        assert not np.array_equal(a, b)

    def test_uniform_range_and_resolution(self):
        u = numerics.Rng(9).uniform((10000,))
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_normal_moments(self):
        z = numerics.Rng(11).normal((50000,))
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02
        assert np.isfinite(z).all()

    def test_normal_std_scaling(self):
        a = numerics.Rng(5).normal((100,), std=1.0)
        b = numerics.Rng(5).normal((100,), std=0.02)
        np.testing.assert_allclose(b, 0.02 * a, rtol=1e-12)



class TestMatmul:
    def test_associativity(self):
        """(AB)C == A(BC) within 1e-10 relative tolerance."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            m, k, n, q = rng.integers(1, 6, size=4)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            c = rng.normal(size=(n, q))
            left = numerics.matmul(numerics.matmul(a, b), c)
            right = numerics.matmul(a, numerics.matmul(b, c))
            np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-12)

    def test_identity(self):
        a = np.random.default_rng(0).normal(size=(3, 3))
        np.testing.assert_array_equal(numerics.matmul(a, np.eye(3)), a)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            numerics.matmul(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(ShapeError):
            numerics.matmul(np.ones(3), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            numerics.matmul(np.ones((2, 2, 3)), np.ones((3, 3, 2)))

    @pytest.mark.parametrize("a_shape,b_shape,text", [
        ((3,), (3, 2), "matmul: operands need rank >= 2, got (3,) and (3, 2)"),
        ((2, 3), (4, 2), "matmul: inner dims differ, (2, 3) @ (4, 2)"),
        ((2, 2, 3), (3, 4, 2), "matmul: inner dims differ, (2, 2, 3) @ (3, 4, 2)"),
        ((2, 2, 3), (3, 3, 2), "matmul: batch dims do not broadcast, (2, 2, 3) @ (3, 3, 2)"),
    ])
    def test_shape_error_messages(self, a_shape, b_shape, text):
        with pytest.raises(ShapeError) as err:
            numerics.matmul(np.ones(a_shape), np.ones(b_shape))
        assert str(err.value) == text

    def test_mac_count_of_broadcast_product(self):
        """Batch axes broadcast against each other: [2, 1] x [5] is 10 products."""
        with numerics.count_macs() as c:
            out = numerics.matmul(np.ones((2, 1, 3, 4)), np.ones((5, 4, 6)))
        assert out.shape == (2, 5, 3, 6)
        assert c.macs == 2 * 5 * 3 * 4 * 6

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 2, 3))
        b = rng.normal(size=(3, 5))
        out = numerics.matmul(a, b)
        assert out.shape == (4, 2, 5)
        np.testing.assert_allclose(out[2], a[2] @ b, rtol=1e-12)

    def test_mac_counter_plain(self):
        with numerics.count_macs() as c:
            numerics.matmul(np.ones((2, 3)), np.ones((3, 4)))
        assert c.macs == 2 * 3 * 4

    def test_mac_counter_batched_and_nested(self):
        with numerics.count_macs() as outer:
            numerics.matmul(np.ones((5, 2, 3)), np.ones((3, 4)))
            with numerics.count_macs() as inner:
                numerics.matmul(np.ones((1, 1)), np.ones((1, 1)))
            assert inner.macs == 1
        assert outer.macs == 5 * 2 * 3 * 4 + 1

    def test_mac_counter_nested_with_equal_counts(self):
        """An inner counter leaves by identity when the outer one holds the same count."""
        with numerics.count_macs() as outer:
            with numerics.count_macs() as inner:
                numerics.matmul(np.ones((2, 3)), np.ones((3, 4)))
            assert inner.macs == outer.macs == 24
            numerics.matmul(np.ones((2, 3)), np.ones((3, 4)))
        assert inner.macs == 24
        assert outer.macs == 48

    def test_counter_off_outside_context(self):
        with numerics.count_macs() as c:
            pass
        numerics.matmul(np.ones((2, 2)), np.ones((2, 2)))
        assert c.macs == 0


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        """grad of sum(x^2) is 2x."""
        x = np.array([1.0, -2.0, 0.5])
        g = numerics.finite_diff_grad(lambda v: float((v ** 2).sum()), x)
        np.testing.assert_allclose(g, 2 * x, rtol=1e-6, atol=1e-8)

    def test_matrix_input(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 2))
        g = numerics.finite_diff_grad(lambda v: float(np.sum(v @ w)), x)
        np.testing.assert_allclose(g, np.ones((2, 2)) @ w.T, rtol=1e-6, atol=1e-8)

    def test_non_finite_raises(self):
        with pytest.raises(EvaluationError):
            numerics.finite_diff_grad(lambda v: float("nan"), np.ones(2))

    def test_input_restored(self):
        x = np.array([1.0, 2.0])
        before = x.copy()
        numerics.finite_diff_grad(lambda v: float(v.sum()), x)
        np.testing.assert_array_equal(x, before)
