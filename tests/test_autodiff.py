"""Tape engine tests: every op against central finite differences."""

import numpy as np
import pytest

from spikeclm import autodiff as ad
from spikeclm import numerics

from reference import gather_last, same_bits


def tape_grad(f, x: np.ndarray) -> np.ndarray:
    """Gradient of scalar-valued f at x through the tape."""
    v = ad.Var(x.copy())
    out = f(v)
    out.backward()
    return v.grad


def check_against_fd(f, x, rtol=1e-5, atol=1e-7):
    got = tape_grad(f, x)
    want = numerics.finite_diff_grad(lambda v: float(f(ad.Var(v)).data), x)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


@pytest.fixture()
def built_vars(monkeypatch):
    """Every Var constructed while the test runs, in order."""
    built = []
    init = ad.Var.__init__

    def counting_init(var, *args, **kwargs):
        built.append(var)
        init(var, *args, **kwargs)
    monkeypatch.setattr(ad.Var, "__init__", counting_init)
    return built


class TestElementwise:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_add_mul_sub_div(self):
        x = self.rng.normal(size=(3, 4))
        c = self.rng.normal(size=(3, 4))
        check_against_fd(lambda v: ((v + c) * (v - 2.0) / 3.0).sum(), x)

    def test_pow_and_rsub(self):
        x = self.rng.uniform(0.5, 2.0, size=(5,))
        check_against_fd(lambda v: ((1.0 - v) ** 3).sum(), x)
        check_against_fd(lambda v: (v ** -0.5).sum(), x)

    def test_exp_log_relu(self):
        x = self.rng.normal(size=(20,)) + 0.01  # keep away from the kink
        check_against_fd(lambda v: (ad.relu(v) * 3.0).sum(), x)

    def test_broadcast_grads(self):
        """Gradients sum correctly over broadcast dimensions."""
        x = self.rng.normal(size=(1, 4))
        c = self.rng.normal(size=(3, 4))
        check_against_fd(lambda v: (v * c).sum(), x)
        b = self.rng.normal(size=(4,))
        vb = ad.Var(b)
        out = (c + vb).sum()
        out.backward()
        np.testing.assert_allclose(vb.grad, np.full(4, 3.0))


class TestMatmulShapes:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_matmul_both_sides(self):
        a = self.rng.normal(size=(3, 4))
        b = self.rng.normal(size=(4, 2))
        check_against_fd(lambda v: (v @ b).sum(), a)
        vb = ad.Var(b.copy())
        out = ad.matmul(a, vb).sum()
        out.backward()
        fd = numerics.finite_diff_grad(lambda w: float((a @ w).sum()), b)
        np.testing.assert_allclose(vb.grad, fd, rtol=1e-5, atol=1e-7)

    def test_batched_matmul_broadcast_weight(self):
        """[B, L, k] @ [k, n] accumulates the weight grad over the batch."""
        x = self.rng.normal(size=(5, 2, 3))
        w = self.rng.normal(size=(3, 4))
        vw = ad.Var(w.copy())
        (ad.matmul(x, vw) ** 2).sum().backward()
        fd = numerics.finite_diff_grad(lambda v: float(((x @ v) ** 2).sum()), w)
        np.testing.assert_allclose(vw.grad, fd, rtol=1e-4, atol=1e-6)

    def test_linear_is_one_node(self):
        """linear(x, w, b) is one node over (x, w, b) whose gradients equal
        the two-node (x @ w) + b bit for bit."""
        rng = np.random.default_rng(11)
        arrays = rng.normal(size=(2, 5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        seed = rng.normal(size=(2, 5, 4))

        def run(f):
            leaves = [ad.Var(a.copy()) for a in arrays]
            out = f(*leaves)
            out.backward(seed)
            return out, leaves

        one, leaves = run(ad.linear)
        assert one._parents == tuple(leaves)
        two, ref = run(lambda x, w, b: (x @ w) + b)
        assert same_bits(one.data, two.data)
        for got, want in zip(leaves, ref):
            assert same_bits(got.grad, want.grad)

    @pytest.mark.parametrize("shape", [(6, 3), (2, 5, 3), (2, 3, 4, 3), "decode"])
    def test_linear_forward_is_x_at_w_plus_b(self, shape):
        """Bit for bit, on plain and taped x of every rank the models use,
        including the non-contiguous last-row slice of a decode step."""
        x = self.rng.normal(size=(2, 3, 4, 3))
        x = x[:, :, -1:] if shape == "decode" else self.rng.normal(size=shape)
        w, b = self.rng.normal(size=(3, 5)), self.rng.normal(size=5)
        want = x @ w + b
        assert same_bits(ad.linear(x, w, b), want)
        assert same_bits(ad.linear(ad.Var(x), ad.Var(w), b).data, want)

    @pytest.mark.parametrize("shape", [(6, 3), (2, 5, 3), (2, 3, 4, 3)])
    def test_linear_grads_match_einsum(self, shape):
        x, w, b = (self.rng.normal(size=s) for s in (shape, (3, 5), (5,)))
        g = self.rng.normal(size=shape[:-1] + (5,))
        leaves = [ad.Var(a.copy()) for a in (x, w, b)]
        ad.linear(*leaves).backward(g)
        lead = list(range(x.ndim - 1))
        want = (np.einsum("...n,kn->...k", g, w),
                np.einsum(x, lead + [40], g, lead + [41], [40, 41]),
                np.einsum(g, lead + [41], [41]))
        for leaf, ref in zip(leaves, want):
            np.testing.assert_allclose(leaf.grad, ref, rtol=1e-12)

    def test_broadcast_weight_grad_of_matmul_matches_einsum(self):
        x, w = self.rng.normal(size=(2, 3, 4, 3)), self.rng.normal(size=(3, 5))
        g = self.rng.normal(size=(2, 3, 4, 5))
        vx, vw = ad.Var(x), ad.Var(w)
        ad.matmul(vx, vw).backward(g)
        np.testing.assert_allclose(
            vw.grad, np.einsum(x, [0, 1, 2, 8], g, [0, 1, 2, 9], [8, 9]), rtol=1e-12)
        np.testing.assert_allclose(vx.grad, np.einsum("...n,kn->...k", g, w), rtol=1e-12)

    def test_linear_counts_forward_macs_only(self):
        x, w, b = (self.rng.normal(size=s) for s in ((2, 3, 4, 3), (3, 5), (5,)))
        leaves = [ad.Var(a) for a in (x, w, b)]
        with numerics.count_macs() as c:
            out = ad.linear(*leaves)
            assert c.macs == 2 * 3 * 4 * 3 * 5
            out.backward(np.ones(out.shape))
        assert c.macs == 2 * 3 * 4 * 3 * 5

    def test_reshape_swapaxes_getitem(self):
        x = self.rng.normal(size=(4, 6))
        check_against_fd(lambda v: v.reshape(2, 12).sum(axis=0).sum(), x)
        check_against_fd(lambda v: (v.swapaxes(0, 1) @ np.ones((4, 1))).sum(), x)
        check_against_fd(lambda v: (v[1:3] * 2.0).sum(), x)

    def test_sum_mean_axes(self):
        x = self.rng.normal(size=(3, 4, 2))
        check_against_fd(lambda v: v.sum(axis=1).mean(), x)
        check_against_fd(lambda v: v.mean(axis=(0, 2), keepdims=True).sum(), x)


class TestSoftmaxFamily:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def test_softmax_grad(self):
        x = self.rng.normal(size=(2, 5))
        c = self.rng.normal(size=(2, 5))
        check_against_fd(lambda v: (ad.softmax(v) * c).sum(), x)

    def test_log_softmax_grad(self):
        x = self.rng.normal(size=(3, 4))
        c = self.rng.normal(size=(3, 4))
        check_against_fd(lambda v: (ad.log_softmax(v) * c).sum(), x)

    def test_softmax_rows_sum_to_one(self):
        x = self.rng.normal(size=(4, 7)) * 30  # large logits stay stable
        s = ad.softmax(ad.Var(x)).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), rtol=1e-12)
        assert np.isfinite(ad.log_softmax(x)).all()

    def test_plain_array_dispatch(self, built_vars):
        """On plain inputs every module op and custom_op returns an ndarray,
        builds no Var and equals the taped op's value bit for bit."""
        x = self.rng.normal(size=(2, 3))
        w = self.rng.normal(size=(3, 4))
        b = self.rng.normal(size=4)
        table = self.rng.normal(size=(5, 3))
        cases = [
            (ad.relu, (x,)),
            (ad.softmax, (x,)),
            (ad.log_softmax, (x,)),
            (ad.matmul, (x, w)),
            (ad.linear, (x, w, b)),
            (lambda t: ad.take_rows(t, np.array([[4, 0], [4, 2]])), (table,)),
            (lambda v: gather_last(v, np.array([2, 0])), (x,)),
            (lambda v: ad.custom_op(ad.value(v) * 2.0, (v, None)), (x,)),
        ]
        for op, args in cases:
            plain = op(*args)
            assert type(plain) is np.ndarray and built_vars == []
            taped = op(*(ad.Var(a) for a in args))
            assert same_bits(plain, taped.data)
            built_vars.clear()

    def test_plain_operand_builds_one_var(self, built_vars):
        """A plain operand of a taped op is read as is, not wrapped in a Var."""
        x = ad.Var(np.array([1.0, -2.0]))
        built_vars.clear()
        c = np.array([0.5, 3.0])
        for op in (lambda: x * c, lambda: x + c, lambda: c - x):
            out = op()
            assert built_vars == [out] and out._parents == (x,)
            built_vars.clear()


class TestGatherOps:
    def test_take_rows_accumulates_repeats(self):
        """Same row used twice gets twice the gradient."""
        w = np.arange(6.0).reshape(3, 2)
        ids = np.array([[0, 1], [1, 1]])
        vw = ad.Var(w)
        ad.take_rows(vw, ids).sum().backward()
        np.testing.assert_array_equal(vw.grad, [[1, 1], [3, 3], [0, 0]])

    def test_take_rows_plain_path(self):
        w = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(ad.take_rows(w, np.array([2, 0])), w[[2, 0]])

    def test_gather_last(self):
        x = np.arange(12.0).reshape(2, 2, 3)
        ids = np.array([[0, 2], [1, 1]])
        v = ad.Var(x)
        out = gather_last(v, ids)
        np.testing.assert_array_equal(out.data, [[0, 5], [7, 10]])
        out.sum().backward()
        fd = numerics.finite_diff_grad(
            lambda z: float(np.take_along_axis(z, ids[..., None], -1).sum()), x)
        np.testing.assert_allclose(v.grad, fd, rtol=1e-6, atol=1e-8)


class TestBackwardMechanics:
    def test_zero_seed_gives_zero_grads(self):
        x = ad.Var(np.ones((2, 2)))
        ((x * 3.0) ** 2).sum().backward(seed=0.0)
        np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))

    def test_grad_accumulates_over_reuse(self):
        """A node consumed twice receives both contributions."""
        x = ad.Var(np.array([2.0]))
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_seed_array_is_not_modified(self):
        x = ad.Var(np.array([1.0, 2.0]))
        seed = np.array([1.0, -3.0])
        (x + x * 3.0).backward(seed)
        np.testing.assert_array_equal(seed, [1.0, -3.0])
        np.testing.assert_array_equal(x.grad, [4.0, -12.0])

    def test_shared_gradient_is_not_written_through(self):
        """x + y hands one g to both leaves; x's later contribution must not reach y."""
        x = ad.Var(np.array([1.0, 2.0]))
        y = ad.Var(np.array([5.0, 7.0]))
        ((x + y) + x * 3.0).sum().backward()
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])
        np.testing.assert_array_equal(x.grad, [4.0, 4.0])

    def test_second_backward_adds_the_same_gradients(self):
        """y = (3x) x at x = 2: each pass adds dy/dx = 12, so two give 24."""
        x = ad.Var(np.array([2.0]))
        y = (x * 3.0) * x
        y.backward()
        np.testing.assert_array_equal(x.grad, [12.0])
        y.backward()
        np.testing.assert_array_equal(x.grad, [24.0])

    def test_only_leaves_keep_gradients(self):
        """After backward every node with a VJP has dropped its .grad."""
        rng = np.random.default_rng(4)
        x = ad.Var(rng.normal(size=(3, 4)))
        w = ad.Var(rng.normal(size=(4, 5)))
        b = ad.Var(rng.normal(size=5))
        h = ad.relu(ad.linear(x, w, b))
        loss = (ad.log_softmax(h @ w.swapaxes(0, 1), axis=-1)[:, 0] * h.sum(axis=1)).mean()
        loss.backward()
        nodes, stack = [], [loss]
        while stack:
            node = stack.pop()
            if all(node is not n for n in nodes):
                nodes.append(node)
                stack.extend(node._parents)
        inner = [n for n in nodes if n._backward is not None]
        assert len(inner) > 5 and all(n.grad is None for n in inner)
        assert {id(n) for n in nodes if n._backward is None} == {id(x), id(w), id(b)}
        assert all(np.count_nonzero(v.grad) for v in (x, w, b))

    def test_sub_is_one_node(self):
        x = ad.Var(np.array([5.0, 1.0]))
        y = ad.Var(np.array([2.0, 3.0]))
        d = x - y
        assert d._parents == (x, y)
        (d * np.array([1.0, 2.0])).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 2.0])
        np.testing.assert_array_equal(y.grad, [-1.0, -2.0])

    def test_two_layer_chain_matches_fd(self):
        """Composite mlp-style function end to end."""
        rng = np.random.default_rng(5)
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 2))
        x = rng.normal(size=(5, 3))

        def f(v):
            h = ad.relu(ad.matmul(x, v))
            return ad.log_softmax(h @ w2).mean()

        check_against_fd(f, w1, rtol=1e-4, atol=1e-6)

    def test_custom_op_wiring(self):
        """Each taped operand gets its vjp summed down to its shape; plain
        operands join no tape."""
        x = ad.Var(np.array([1.0, -1.0]))
        b = ad.Var(np.array(3.0))
        local = np.array([0.5, 0.25])
        out = ad.custom_op(np.array([1.0, 0.0]), (x, lambda g: g * local),
                           (b, lambda g: g * 4.0), (np.ones(2), None))
        assert out._parents == (x, b)
        np.testing.assert_array_equal(out.data, [1.0, 0.0])
        (out * np.array([2.0, 2.0])).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * local)
        assert b.grad.shape == () and float(b.grad) == 16.0
