"""Reverse-mode tape: every operation against central finite differences."""

import numpy as np
import pytest

from qcnet.autodiff import (affine, concat, constant, gather_rows, no_grad,
                            normalize, pair_silu, parameter, project,
                            scatter_rows, segment_mean, segment_sum,
                            sigmoid_np, silu_np)

ATOL = 1e-8
RTOL = 1e-4


def fd_check(build, arrays, eps=1e-6):
    """Compare tape gradients of scalar build(*tensors) with central FD."""
    tensors = [parameter(a) for a in arrays]
    out = build(*tensors)
    assert out.data.shape == ()
    out.backward()
    for t, base in zip(tensors, arrays):
        flat = base.ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            plus = flat.copy()
            plus[i] += eps
            minus = flat.copy()
            minus[i] -= eps
            fplus = build(*[parameter(plus.reshape(base.shape))
                            if u is t else constant(v)
                            for u, v in zip(tensors, arrays)]).data
            fminus = build(*[parameter(minus.reshape(base.shape))
                             if u is t else constant(v)
                             for u, v in zip(tensors, arrays)]).data
            num[i] = (fplus - fminus) / (2 * eps)
        np.testing.assert_allclose(t.grad.ravel(), num,
                                   rtol=RTOL, atol=ATOL)


class TestScalarHelpers:
    def test_sigmoid_stable(self):
        x = np.array([-750.0, -30.0, 0.0, 30.0, 750.0])
        out = sigmoid_np(x)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 or out[0] < 1e-300
        assert out[2] == 0.5
        assert out[-1] == 1.0 or out[-1] > 1.0 - 1e-12

    def test_sigmoid_matches_logistic(self):
        x = np.linspace(-30.0, 30.0, 6001)
        np.testing.assert_allclose(sigmoid_np(x), 1.0 / (1.0 + np.exp(-x)),
                                   rtol=0, atol=1e-15)

    def test_silu_zero(self):
        assert silu_np(np.array([0.0]))[0] == 0.0


class TestElementwiseOps:
    def setup_method(self):
        self.rng = np.random.default_rng(30)

    def test_add_sub_mul(self):
        a = self.rng.standard_normal((3, 4))
        b = self.rng.standard_normal((3, 4))
        fd_check(lambda x, y: ((x + y) * (x - y)).sum(), [a, b])

    def test_broadcast_row(self):
        # Constants broadcast; gradients do not: an operand that requires a
        # gradient must have the result's shape.
        a = self.rng.standard_normal((3, 4))
        row = constant(self.rng.standard_normal((1, 4)))
        fd_check(lambda x: (x * row + row).sum(), [a])
        for op in (lambda x, y: x * y, lambda x, y: x + y):
            out = op(parameter(a), parameter(row.data)).sum()
            with pytest.raises(ValueError):
                out.backward()

    def test_scalar_mixing(self):
        a = self.rng.standard_normal((2, 3))
        fd_check(lambda x: ((x * 2.0 + 1.0) * 3.0 - 0.5).sum(), [a])

    def test_rsub(self):
        a = self.rng.standard_normal((2, 3))
        fd_check(lambda x: (1.0 - x).sum(), [a])

    def test_square(self):
        a = self.rng.standard_normal((3, 3))
        fd_check(lambda x: x.square().sum(), [a])

    def test_abs_away_from_zero(self):
        a = self.rng.standard_normal((3, 3))
        a[np.abs(a) < 0.2] = 0.5  # kink at 0 breaks FD
        fd_check(lambda x: x.abs().sum(), [a])

    def test_sigmoid_silu(self):
        a = self.rng.standard_normal((3, 4)) * 2.0
        fd_check(lambda x: (x.sigmoid() + x.silu()).sum(), [a])

    def test_neg(self):
        a = self.rng.standard_normal((2, 2))
        fd_check(lambda x: (-x).sum(), [a])


class TestAffine:
    def setup_method(self):
        self.rng = np.random.default_rng(37)

    def test_value_is_matmul_plus_row(self):
        x = self.rng.standard_normal((5, 3))
        w = self.rng.standard_normal((3, 2))
        b = self.rng.standard_normal(2)
        out = affine(constant(x), constant(w), constant(b))
        assert out.data.tobytes() == (x @ w + b).tobytes()

    def test_gradient_x_w_b(self):
        x = self.rng.standard_normal((5, 3))
        w = self.rng.standard_normal((3, 2))
        b = self.rng.standard_normal(2)
        c = self.rng.standard_normal((5, 2))
        fd_check(lambda x, w, b: (affine(x, w, b).silu() * c).sum(),
                 [x, w, b])


def pair_affine_silu(h, w_face, h_cof, w_cof, w, b, tau, coface):
    """An attention key or value path as the model builds it: each row half
    of ``w`` projected once per source row, then gathered per pair."""
    split = w_face.shape[1]
    top, bottom = slice(0, split), slice(split, 2 * split)
    return pair_silu(project(h, w_face, w, top), tau,
                     project(h_cof, w_cof, w, bottom), coface, b)


class TestProject:
    def setup_method(self):
        self.rng = np.random.default_rng(36)

    def operands(self):
        rng = self.rng
        return [rng.standard_normal((4, 2)), rng.standard_normal((2, 3)),
                rng.standard_normal((6, 5))]

    @pytest.mark.parametrize("rows", [slice(0, 3), slice(3, 6)],
                             ids=["top", "bottom"])
    def test_value_is_chained_matmul(self, rows):
        x, w_in, w = self.operands()
        out = project(constant(x), constant(w_in), constant(w), rows)
        assert out.data.tobytes() == ((x @ w_in) @ w[rows]).tobytes()

    @pytest.mark.parametrize("rows", [slice(0, 3), slice(3, 6)],
                             ids=["top", "bottom"])
    def test_gradient_every_operand(self, rows):
        c = self.rng.standard_normal((4, 5))
        fd_check(lambda x, w_in, w: (project(x, w_in, w, rows).silu()
                                     * c).sum(), self.operands())

    def test_gradient_outside_rows_is_zero(self):
        x, w_in, w = (parameter(a) for a in self.operands())
        project(x, w_in, w, slice(3, 6)).sum().backward()
        assert w.grad.shape == (6, 5)
        assert not w.grad[:3].any() and w.grad[3:].all()


class TestPairSilu:
    """Rows of ``a`` 1 and 4 and of ``b`` 2 and 4 are never referenced, and
    both indices repeat unsorted."""

    A_INDEX = np.array([3, 0, 3, 2, 0])
    B_INDEX = np.array([5, 5, 0, 3, 1])

    def setup_method(self):
        self.rng = np.random.default_rng(35)

    def operands(self):
        rng = self.rng
        return [rng.standard_normal((5, 3)), rng.standard_normal((6, 3)),
                rng.standard_normal(3)]

    def test_value_is_gathered_sum_then_silu(self):
        a, b, bias = self.operands()
        out = pair_silu(constant(a), self.A_INDEX, constant(b),
                        self.B_INDEX, constant(bias))
        z = a[self.A_INDEX] + b[self.B_INDEX] + bias
        np.testing.assert_allclose(out.data, silu_np(z), rtol=1e-15,
                                   atol=1e-15)

    @pytest.mark.parametrize("a_index, b_index",
                             [(A_INDEX, B_INDEX), ([4], [2]), ([], [])],
                             ids=["repeated-and-unreferenced", "one-pair",
                                  "no-pairs"])
    def test_gradient_every_operand(self, a_index, b_index):
        c = self.rng.standard_normal((len(a_index), 3))
        fd_check(lambda a, b, bias: (pair_silu(a, a_index, b, b_index, bias)
                                     * c).sum(), self.operands())


class TestPairAffineSilu:
    """The key or value path, ``project`` twice then ``pair_silu``, against
    the unsplit map.  Face rows 1 and 4 and coface rows 2 and 4 are never
    referenced, tau and coface repeat unsorted, and h_cof is taller than
    h."""

    TAU = np.array([3, 0, 3, 2, 0])
    COFACE = np.array([5, 5, 0, 3, 1])

    def setup_method(self):
        self.rng = np.random.default_rng(38)

    def operands(self, hidden=2):
        rng = self.rng
        return [rng.standard_normal((5, hidden)),
                rng.standard_normal((hidden, hidden)),
                rng.standard_normal((6, hidden)),
                rng.standard_normal((hidden, hidden)),
                rng.standard_normal((2 * hidden, 2 * hidden)) * 0.7,
                rng.standard_normal(2 * hidden)]

    @staticmethod
    def reference(h, w_face, h_cof, w_cof, w, b, tau, coface):
        """The unsplit map: per-pair rows, concat, then one affine."""
        x = np.concatenate([h[tau] @ w_face, h_cof[coface] @ w_cof], axis=1)
        return silu_np(x @ w + b)

    def test_value_matches_unsplit_map(self):
        arrays = self.operands(3)
        out = pair_affine_silu(*map(constant, arrays), self.TAU, self.COFACE)
        np.testing.assert_allclose(
            out.data, self.reference(*arrays, self.TAU, self.COFACE),
            rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("tau, coface", [(TAU, COFACE),
                                             ([4], [2])],
                             ids=["repeated-and-unreferenced", "one-pair"])
    def test_gradient_every_operand(self, tau, coface):
        arrays = self.operands()
        c = self.rng.standard_normal((len(tau), 4))
        fd_check(lambda *t: (pair_affine_silu(*t, tau, coface) * c).sum(),
                 arrays)

    def test_no_grad_equal_values_and_no_parents(self):
        tensors = [parameter(a) for a in self.operands()]
        recorded = pair_affine_silu(*tensors, self.TAU, self.COFACE)
        with no_grad():
            out = pair_affine_silu(*tensors, self.TAU, self.COFACE)
        assert recorded._parents and recorded.requires_grad
        assert out._parents == () and out._pullback is None
        assert not out.requires_grad
        assert out.data.tobytes() == recorded.data.tobytes()


class TestScatterRows:
    @staticmethod
    def oracle(values, index, n_rows):
        out = np.zeros((n_rows,) + values.shape[1:])
        np.add.at(out, index, values)
        return out

    @pytest.mark.parametrize("shape", [(40, 3), (40,), (40, 2, 3), (0, 3)])
    def test_bitwise_equal_to_add_at(self, shape):
        # Wide magnitudes make every sum depend on its order; rows 0, 5 and
        # 9 receive nothing.
        rng = np.random.default_rng(39)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -8, 9, shape)
        index = rng.choice([1, 2, 3, 4, 6, 7, 8], size=shape[0])
        got = scatter_rows(values, index, 10)
        assert got.shape == (10,) + shape[1:]
        np.testing.assert_array_equal(got, self.oracle(values, index, 10))
        assert got[[0, 5, 9]].tobytes() == bytes(8 * got[[0, 5, 9]].size)


class TestMatmul:
    def test_matmul_both_sides(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        fd_check(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_chain(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 3))
        fd_check(lambda x, y: ((x @ y) @ y).silu().sum(), [a, b])


class TestReductions:
    def setup_method(self):
        self.rng = np.random.default_rng(33)

    def test_sum_axes(self):
        for shape in [(4,), (3, 4), (2, 3, 2)]:
            a = self.rng.standard_normal(shape)
            fd_check(lambda x: x.sum() * x.sum(), [a])

    def test_mean(self):
        a = self.rng.standard_normal((4, 5))
        fd_check(lambda x: x.mean(), [a])


class TestNormalize:
    def setup_method(self):
        self.rng = np.random.default_rng(36)

    def affine_pair(self):
        return (self.rng.standard_normal(4) + 1.0,
                self.rng.standard_normal(4))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_values_and_statistics(self, axis):
        a = self.rng.standard_normal((5, 4)) * 3.0 + 1.0
        gamma, beta = self.affine_pair()
        out, mean, var = normalize(constant(a), constant(gamma),
                                   constant(beta), axis, 1e-5)
        np.testing.assert_allclose(mean, a.mean(axis=axis), atol=1e-12)
        np.testing.assert_allclose(var, a.var(axis=axis), atol=1e-12)
        expected = ((a - a.mean(axis=axis, keepdims=True))
                    / np.sqrt(a.var(axis=axis, keepdims=True) + 1e-5))
        np.testing.assert_allclose(out.data, expected * gamma + beta,
                                   atol=1e-12)
        given, mean2, var2 = normalize(constant(a), constant(gamma),
                                       constant(beta), axis, 1e-5,
                                       (mean, var))
        assert given.data.tobytes() == out.data.tobytes()
        assert (mean2.tobytes(), var2.tobytes()) == (mean.tobytes(),
                                                     var.tobytes())

    @pytest.mark.parametrize("axis", [0, 1])
    def test_gradient_random_weights(self, axis):
        # sum(xhat**2) sends g = 2 xhat, whose mean along the axis is zero,
        # so only a weighted objective exercises the mean(g) term.
        a = self.rng.standard_normal((5, 4)) * 2.0
        w = self.rng.standard_normal((5, 4))
        fd_check(lambda x, g, b: (normalize(x, g, b, axis, 1e-5)[0]
                                  * w).sum(), [a, *self.affine_pair()])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_gradient_given_statistics(self, axis):
        # Given statistics are constants: x only scales and shifts.
        a = self.rng.standard_normal((5, 4)) * 2.0
        w = self.rng.standard_normal((5, 4))
        n = a.shape[1 - axis]
        stats = (self.rng.standard_normal(n), self.rng.uniform(0.5, 2.0, n))
        fd_check(lambda x, g, b: (normalize(x, g, b, axis, 1e-5, stats)[0]
                                  * w).sum(), [a, *self.affine_pair()])
        x = parameter(a)
        gamma, beta = self.affine_pair()
        normalize(x, constant(gamma), constant(beta), axis, 1e-5,
                  stats)[0].sum().backward()
        inv_std = 1.0 / np.sqrt(np.expand_dims(stats[1], axis) + 1e-5)
        np.testing.assert_allclose(x.grad, np.broadcast_to(
            gamma * inv_std, a.shape), rtol=1e-15)


class TestStructuredOps:
    def setup_method(self):
        self.rng = np.random.default_rng(34)

    def test_concat(self):
        a = self.rng.standard_normal((3, 2))
        b = self.rng.standard_normal((3, 4))
        fd_check(lambda x, y: concat([x, y], axis=1).square().sum(), [a, b])

    def test_gather_rows_with_repeats(self):
        a = self.rng.standard_normal((4, 3))
        idx = np.array([0, 2, 2, 1, 0, 0])
        fd_check(lambda x: gather_rows(x, idx).square().sum(), [a])

    def test_gather_grad_counts(self):
        a = parameter(np.ones((3, 2)))
        idx = np.array([0, 0, 2])
        out = gather_rows(a, idx).sum()
        out.backward()
        np.testing.assert_array_equal(a.grad,
                                      [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_segment_sum(self):
        a = self.rng.standard_normal((6, 3))
        seg = np.array([0, 1, 1, 0, 2, 2])
        fd_check(lambda x: segment_sum(x, seg, 3).square().sum(), [a])

    def test_segment_sum_empty_segment(self):
        a = parameter(np.ones((2, 2)))
        out = segment_sum(a, np.array([0, 2]), 4)
        np.testing.assert_array_equal(out.data[1], 0.0)
        np.testing.assert_array_equal(out.data[3], 0.0)

    def test_segment_mean(self):
        a = self.rng.standard_normal((5, 2))
        seg = np.array([0, 0, 1, 1, 1])
        fd_check(lambda x: segment_mean(x, seg, 2).square().sum(), [a])

    def test_segment_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            segment_mean(parameter(np.ones((2, 2))), np.array([0, 0]), 2)

    def test_gather_scatter_duality(self):
        # gather pullback == segment-style scatter of the upstream grad
        a = parameter(np.zeros((3, 2)))
        idx = np.array([2, 0, 2])
        g = np.array([[1.0, 2], [3, 4], [5, 6]])
        out = (gather_rows(a, idx) * g).sum()
        out.backward()
        expected = np.zeros((3, 2))
        np.add.at(expected, idx, g)
        np.testing.assert_array_equal(a.grad, expected)


class TestGraphMechanics:
    def test_diamond_accumulation(self):
        x = parameter(np.array([[3.0]]))
        y = x * x + x * x
        y.sum().backward()
        assert x.grad[0, 0] == pytest.approx(12.0)

    def test_reuse_through_two_paths(self):
        x = parameter(np.array([[2.0]]))
        a = x.square()
        out = (a * x + a).sum()  # x^3 + x^2, gradient 3x^2 + 2x = 16 at x=2
        out.backward()
        assert x.grad[0, 0] == pytest.approx(16.0)

    def test_deep_chain_iterative(self):
        x = parameter(np.ones((1, 1)))
        y = x
        for _ in range(2000):
            y = y + 0.001
        y.sum().backward()
        assert x.grad[0, 0] == 1.0

    def test_zero_grad(self):
        x = parameter(np.ones((2, 2)))
        x.sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None or np.all(x.grad == 0.0)

    def test_constant_gets_no_grad(self):
        x = constant(np.ones((2, 2)))
        y = parameter(np.ones((2, 2)))
        (x * y).sum().backward()
        assert x.grad is None
        assert y.grad is not None

    def test_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(35)
            x = parameter(rng.standard_normal((4, 4)))
            y = parameter(rng.standard_normal((4, 4)))
            out = ((x @ y).silu() + (x * y).sigmoid()).mean()
            out.backward()
            return x.grad.tobytes(), y.grad.tobytes()
        assert run() == run()


class TestTapeRule:
    @staticmethod
    def graph(x, y):
        return concat([(x @ y).silu(), gather_rows(x, np.array([1, 0]))]
                      ).mean()

    def test_constant_ops_keep_no_tape(self):
        out = (constant(np.ones((2, 2))) * 3.0).sigmoid()
        assert not out.requires_grad
        assert out._parents == () and out._pullback is None

    def test_no_grad_records_nothing_and_leaves_keep_flags(self):
        rng = np.random.default_rng(4)
        x = parameter(rng.standard_normal((2, 2)))
        y = parameter(rng.standard_normal((2, 2)))
        with no_grad():
            out = self.graph(x, y)
        assert not out.requires_grad
        assert out._parents == () and out._pullback is None
        assert x.requires_grad and y.requires_grad
        recorded = self.graph(x, y)
        assert recorded.requires_grad and recorded._parents
        assert out.data.tobytes() == recorded.data.tobytes()

    def test_nesting_and_exceptions_restore_recording(self):
        x = parameter(np.ones((1, 1)))
        with no_grad():
            with no_grad():
                pass
            assert not (x * x).requires_grad
        assert (x * x).requires_grad
        with pytest.raises(ZeroDivisionError):
            with no_grad():
                raise ZeroDivisionError
        assert (x * x).requires_grad
