"""Reverse-mode tape: every operation against central finite differences."""

import numpy as np
import pytest

from qcnet.autodiff import (Workspace, affine, concat, constant,
                            gated_message, message_sum, no_grad, normalize,
                            parameter, project, scatter_rows, segment_mean)

from conftest import gather_rows, segment_sum, sigmoid, sigmoid_np, silu_np

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
        fd_check(lambda x: (sigmoid(x) + x.silu()).sum(), [a])

    def test_silu_saturates(self):
        # exp(-z) overflows below z = -709: the SiLU and its gradient are
        # the limits, zeros, with no warning; above, they match x * sigma.
        x = parameter(np.array([[-800.0, -30.0, 0.0, 30.0, 800.0]]))
        out = x.silu()
        out.sum().backward()
        assert out.data[0, 0] == 0.0 and x.grad[0, 0] == 0.0
        np.testing.assert_allclose(out.data, silu_np(x.data), rtol=1e-15,
                                   atol=1e-15)
        assert out.data[0, -1] == 800.0 and x.grad[0, -1] == 1.0

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
    """An attention key or value path as the model builds it: the map
    projected once per source row, its face rows then its coface rows,
    then gathered per pair, summed and activated (which ``gated_message``
    does inside its node)."""
    rows = project(h, h_cof, w_face, w_cof, w, b)
    return (gather_rows(rows, tau)
            + gather_rows(rows, np.asarray(coface) + h.shape[0])).silu()


class TestProject:
    """Face rows x (4, 2) through w_face (2, 3); coface rows x_cof taller
    (6) or shorter (2) than them through w_cof (2, 3); w is (6, 5)."""

    def setup_method(self):
        self.rng = np.random.default_rng(36)

    def operands(self, n_cof=6):
        rng = self.rng
        return [rng.standard_normal((4, 2)), rng.standard_normal((n_cof, 2)),
                rng.standard_normal((2, 3)), rng.standard_normal((2, 3)),
                rng.standard_normal((6, 5)), rng.standard_normal(5)]

    @pytest.mark.parametrize("half", ["top", "bottom"])
    def test_value_is_chained_matmul(self, half):
        # The face rows use w's top rows and the bias, the coface rows its
        # bottom rows.
        x, x_cof, w_face, w_cof, w, bias = self.operands()
        out = project(*map(constant, (x, x_cof, w_face, w_cof, w, bias)))
        assert out.shape == (10, 5)
        if half == "top":
            assert out.data[:4].tobytes() == (
                (x @ w_face) @ w[:3] + bias).tobytes()
        else:
            assert out.data[4:].tobytes() == (
                (x_cof @ w_cof) @ w[3:]).tobytes()

    @pytest.mark.parametrize("n_cof", [6, 2], ids=["taller", "shorter"])
    def test_gradient_every_operand(self, n_cof):
        c = self.rng.standard_normal((4 + n_cof, 5))
        fd_check(lambda *t: (project(*t).silu() * c).sum(),
                 self.operands(n_cof))

    def test_bias_every_row_and_gradient(self):
        # The bias is added to every face row and to no coface row.
        x, x_cof, w_face, w_cof, w, bias = self.operands()
        tensors = list(map(constant, (x, x_cof, w_face, w_cof, w)))
        out = project(*tensors, constant(bias)).data
        base = project(*tensors, constant(np.zeros(5))).data
        assert out[:4].tobytes() == (base[:4] + bias).tobytes()
        assert out[4:].tobytes() == base[4:].tobytes()
        c = self.rng.standard_normal((10, 5))
        fd_check(lambda b: (project(*tensors, b).silu() * c).sum(), [bias])

    def test_gradient_outside_rows_is_zero(self):
        # w's top rows take gradient only from the face rows, its bottom
        # rows only from the coface rows.
        top, bottom = slice(0, 3), slice(3, 6)
        for rows, w_rows, w_other in ((slice(0, 4), top, bottom),
                                      (slice(4, 10), bottom, top)):
            tensors = [parameter(a) for a in self.operands()]
            out = project(*tensors)
            weight = np.zeros(out.shape)
            weight[rows] = 1.0
            (out * weight).sum().backward()
            w_grad = tensors[4].grad
            assert w_grad[w_rows].all() and not w_grad[w_other].any()


class TestPairAffineSilu:
    """The key or value path, ``project`` then the pair SiLU, against
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


def gated_reference(q, key, val, sigma, tau, coface, gamma, beta, eps,
                    stats):
    """``gated_message`` written out in plain numpy."""
    k = silu_np(key[tau] + key[coface])
    qq = np.concatenate([q, q], axis=1) / np.sqrt(2 * q.shape[1])
    alpha = qq[sigma] * k
    mean, var = ((alpha.mean(axis=0), alpha.var(axis=0)) if stats is None
                 else stats)
    y = (alpha - mean) / np.sqrt(var + eps) * gamma + beta
    return sigmoid_np(y) * silu_np(val[tau] + val[coface]), mean, var


class TestGatedMessage:
    """H = 2.  Receiver rows 1 and 3 of ``q``, face rows 1 and 4 and coface
    rows 2 and 4 (key and val rows 7 and 9) are never referenced; every
    index repeats, tau and coface unsorted.  Key and val hold 5 face rows,
    then 6 coface rows, so cofaces index from 5."""

    SIGMA = np.array([0, 0, 2, 2, 2])
    TAU = np.array([3, 0, 3, 2, 0])
    COFACE = np.array([5, 5, 0, 3, 1]) + 5
    INDICES = {"repeated-and-unreferenced": (SIGMA, TAU, COFACE),
               "one-pair": ([2], [4], [7]),
               "no-pairs": ([], [], [])}
    STATS = (np.array([0.1, -0.2, 0.3, 0.05]), np.array([1.0, 2.0, 0.5, 4.0]))

    def setup_method(self):
        self.rng = np.random.default_rng(45)

    def operands(self):
        rng = self.rng
        return [rng.standard_normal((4, 2)), rng.standard_normal((11, 4)),
                rng.standard_normal((11, 4)), rng.uniform(0.5, 1.5, 4),
                rng.uniform(-0.5, 0.5, 4)]

    @staticmethod
    def call(tensors, indices, stats, work=None):
        q, key, val, gamma, beta = tensors
        sigma, tau, coface = (np.array(i, dtype=np.int64) for i in indices)
        return gated_message(q, key, val, sigma, tau, coface, gamma, beta,
                             1e-5, stats, work)

    @pytest.mark.parametrize("given", [False, True], ids=["batch", "given"])
    @pytest.mark.parametrize("case", ["repeated-and-unreferenced"])
    def test_values_recorded_and_in_place(self, case, given):
        arrays = self.operands()
        indices = self.INDICES[case]
        stats = self.STATS if given else None
        want, mean, var = gated_reference(*arrays[:3], *indices,
                                          *arrays[3:], 1e-5, stats)
        recorded = self.call([parameter(a) for a in arrays], indices, stats)
        with no_grad():
            in_place = self.call([parameter(a) for a in arrays], indices,
                                 stats)
        assert recorded[0]._parents and in_place[0]._parents == ()
        # One kernel: recording changes where the arrays come from only.
        out, got_mean, got_var = recorded
        assert in_place[0].data.tobytes() == out.data.tobytes()
        assert in_place[1].tobytes() == got_mean.tobytes()
        assert in_place[2].tobytes() == got_var.tobytes()
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got_mean, mean, rtol=1e-13)
        np.testing.assert_allclose(got_var, var, rtol=1e-13)

    @pytest.mark.parametrize("case, given", [
        (case, given) for case in INDICES for given in (False, True)
        # Batch statistics need a pair.
        if given or case != "no-pairs"])
    def test_gradient_every_operand(self, case, given):
        indices = self.INDICES[case]
        c = self.rng.standard_normal((len(indices[0]), 4))
        stats = self.STATS if given else None
        fd_check(lambda *t: (self.call(t, indices, stats)[0] * c).sum(),
                 self.operands())

    @pytest.mark.parametrize("given", [False, True], ids=["batch", "given"])
    @pytest.mark.parametrize("case", ["repeated-and-unreferenced"])
    def test_matches_unfused_chain(self, case, given):
        # The chain of plain tape ops the node replaces: values and every
        # gradient agree.
        sigma, tau, coface = self.INDICES[case]
        stats = self.STATS if given else None
        c = self.rng.standard_normal((len(sigma), 4))

        def chain(q, key, val, gamma, beta):
            qq = concat([q, q]) * (1.0 / np.sqrt(4.0))
            k = (gather_rows(key, tau) + gather_rows(key, coface)).silu()
            y = normalize(gather_rows(qq, sigma) * k, gamma, beta, 0, 1e-5,
                          stats)[0]
            return sigmoid(y) * (gather_rows(val, tau)
                                 + gather_rows(val, coface)).silu()
        arrays = self.operands()
        fused = [parameter(a) for a in arrays]
        plain = [parameter(a) for a in arrays]
        out = self.call(fused, (sigma, tau, coface), stats)[0]
        want = chain(*plain)
        np.testing.assert_allclose(out.data, want.data, rtol=1e-13,
                                   atol=1e-15)
        (out * c).sum().backward()
        (want * c).sum().backward()
        for t, ref in zip(fused, plain):
            np.testing.assert_allclose(t.grad, ref.grad, rtol=1e-11,
                                       atol=1e-14)

    def test_workspace_reused_across_calls(self):
        # The result is the workspace's buffer, so a later call overwrites
        # it; each call's values are those of a fresh workspace.
        tensors = [constant(a) for a in self.operands()]
        work = Workspace()
        for case in ("repeated-and-unreferenced", "one-pair"):
            indices = self.INDICES[case]
            fresh = self.call(tensors, indices, self.STATS)[0].data.copy()
            reused = self.call(tensors, indices, self.STATS, work)[0].data
            assert reused.tobytes() == fresh.tobytes()


def message_reference(m, w, b, gamma, beta, segment, n_rows):
    """``message_sum`` written out in plain numpy."""
    z = m @ w + b
    z = (z - z.mean(axis=1, keepdims=True)) / np.sqrt(
        z.var(axis=1, keepdims=True) + 1e-5)
    out = np.zeros((n_rows, w.shape[1]))
    np.add.at(out, segment, silu_np(z * gamma + beta))
    return out


class TestMessageSum:
    """Receiver rows 1 and 4 hear nothing; the unsorted case's pairs are
    out of receiver order, which the sum does not need."""

    SEGMENTS = {"gaps": ([0, 0, 2, 2, 3], 5), "one-pair": ([3], 4),
                "no-pairs": ([], 2), "unsorted": ([3, 0, 2, 0, 2], 5)}

    def setup_method(self):
        self.rng = np.random.default_rng(46)

    def operands(self, n_pairs):
        rng = self.rng
        return [rng.standard_normal((n_pairs, 4)),
                rng.standard_normal((4, 3)), rng.standard_normal(3),
                rng.uniform(0.5, 1.5, 3), rng.uniform(-0.5, 0.5, 3)]

    @staticmethod
    def call(tensors, segment, n_rows):
        return message_sum(*tensors, 1e-5, np.array(segment, dtype=np.int64),
                           n_rows)

    @pytest.mark.parametrize("case", list(SEGMENTS))
    def test_values_recorded_and_in_place(self, case):
        segment, n_rows = self.SEGMENTS[case]
        arrays = self.operands(len(segment))
        want = message_reference(*arrays, segment, n_rows)
        recorded = self.call([parameter(a) for a in arrays], segment, n_rows)
        with no_grad():
            in_place = self.call([parameter(a) for a in arrays], segment,
                                 n_rows)
        assert recorded._parents and in_place._parents == ()
        assert in_place.data.tobytes() == recorded.data.tobytes()
        np.testing.assert_allclose(recorded.data, want, rtol=1e-12,
                                   atol=1e-15)

    @pytest.mark.parametrize("case", list(SEGMENTS))
    def test_gradient_every_operand(self, case):
        segment, n_rows = self.SEGMENTS[case]
        c = self.rng.standard_normal((n_rows, 3))
        fd_check(lambda *t: (self.call(t, segment, n_rows) * c).sum(),
                 self.operands(len(segment)))

    def test_matches_unfused_chain(self):
        # The chain of plain tape ops the node replaces: values and every
        # gradient agree.
        segment, n_rows = self.SEGMENTS["gaps"]
        segment = np.array(segment)
        arrays = self.operands(len(segment))
        c = self.rng.standard_normal((n_rows, 3))
        fused = [parameter(a) for a in arrays]
        plain = [parameter(a) for a in arrays]
        m, w, b, gamma, beta = plain
        want = segment_sum(normalize(affine(m, w, b), gamma, beta, 1,
                                     1e-5)[0].silu(), segment, n_rows)
        out = self.call(fused, segment, n_rows)
        np.testing.assert_allclose(out.data, want.data, rtol=1e-13,
                                   atol=1e-15)
        (out * c).sum().backward()
        (want * c).sum().backward()
        for t, ref in zip(fused, plain):
            np.testing.assert_allclose(t.grad, ref.grad, rtol=1e-11,
                                       atol=1e-14)


class TestBlocks:
    """The model's per-pair chain on receiver-sorted pairs cut into blocks:
    one ``gated_message`` and one ``message_sum`` per block, each block
    summing into its own receiver rows, the sums concatenated."""

    SIGMA = np.array([0, 0, 1, 1, 1, 3, 4])
    TAU = np.array([2, 4, 0, 3, 3, 1, 0])
    COFACE = np.array([1, 0, 2, 2, 5, 4, 3])

    @staticmethod
    def operands(rng):
        """q, then key and val with 5 face rows and 6 coface rows, the
        batch norm's gamma and beta, W_m, b_m and the layer norm's."""
        return [rng.standard_normal((5, 2)), rng.standard_normal((11, 4)),
                rng.standard_normal((11, 4)), rng.uniform(0.5, 1.5, 4),
                rng.uniform(-0.5, 0.5, 4), rng.standard_normal((4, 3)),
                rng.standard_normal(3), rng.uniform(0.5, 1.5, 3),
                rng.uniform(-0.5, 0.5, 3)]

    @pytest.mark.parametrize("given", [False, True], ids=["batch", "given"])
    def test_gradient_through_three_blocks(self, given):
        rng = np.random.default_rng(48)
        arrays = self.operands(rng)
        stats = TestGatedMessage.STATS if given else None
        coface = self.COFACE + 5
        # Pairs [0, 2) -> rows [0, 1), [2, 5) -> [1, 3), [5, 7) -> [3, 5).
        spans = [(0, 2, 0, 1), (2, 5, 1, 3), (5, 7, 3, 5)]
        c = rng.standard_normal((5, 3))

        def chain(q, key, val, bn_g, bn_b, w, b, ln_g, ln_b):
            sums = []
            for lo, hi, first, stop in spans:
                m = gated_message(q, key, val, self.SIGMA[lo:hi],
                                  self.TAU[lo:hi], coface[lo:hi], bn_g,
                                  bn_b, 1e-5, stats)[0]
                sums.append(message_sum(m, w, b, ln_g, ln_b, 1e-5,
                                        self.SIGMA[lo:hi] - first,
                                        stop - first))
            return (concat(sums, axis=0) * c).sum()
        fd_check(chain, arrays)
        recorded = chain(*map(parameter, arrays))
        with no_grad():
            in_place = chain(*map(parameter, arrays))
        assert in_place.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("given", [False, True], ids=["batch", "given"])
    def test_recorded_call_keeps_its_buffers(self, given):
        # A recorded call takes no buffer from the workspace it is passed,
        # so an unrecorded call on that workspace between the forward and
        # backward() leaves every gradient as it was.
        rng = np.random.default_rng(49)
        arrays, others = self.operands(rng), self.operands(rng)
        stats = TestGatedMessage.STATS if given else None
        c = rng.standard_normal((5, 3))

        def chain(tensors, work):
            q, key, val, bn_g, bn_b, w, b, ln_g, ln_b = tensors
            m = gated_message(q, key, val, self.SIGMA, self.TAU,
                              self.COFACE + 5, bn_g, bn_b, 1e-5, stats,
                              work)[0]
            return message_sum(m, w, b, ln_g, ln_b, 1e-5, self.SIGMA, 5,
                               work)

        def gradients(intervene):
            work = Workspace()
            tensors = [parameter(a) for a in arrays]
            loss = (chain(tensors, work) * c).sum()
            assert not work._arrays
            if intervene:
                with no_grad():
                    chain([parameter(a) for a in others], work)
                assert sorted(work._arrays) == ["a", "b", "c"]
            loss.backward()
            return [t.grad.tobytes() for t in tensors]
        assert gradients(True) == gradients(False)


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
        # The test-local reference behind ``TestMessageSum``'s unfused chain.
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

    def test_segment_mean_is_one_node(self):
        # The sum and the division by the bucket sizes are one tape node.
        a = parameter(np.ones((3, 2)))
        out = segment_mean(a, np.array([1, 0, 1]), 2)
        assert out._parents == (a,)
        np.testing.assert_array_equal(out.data, 1.0)

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

    def test_constant_gets_no_grad(self):
        x = constant(np.ones((2, 2)))
        y = parameter(np.ones((2, 2)))
        (x * y).sum().backward()
        assert x.grad is None
        assert y.grad is not None

    def test_backward_releases_the_tape(self):
        def graph():
            rng = np.random.default_rng(36)
            x = parameter(rng.standard_normal((4, 3)))
            w = parameter(rng.standard_normal((3, 3)))
            b = parameter(rng.standard_normal(3))
            hidden = affine(x, w, b).silu()
            out = concat([hidden, x * 0.5]).mean() + hidden.square().sum()
            return out, hidden, (x, w, b)

        def keep_tape_backward(out):
            # The same walk without the release.
            topo, seen, stack = [], set(), [(out, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    topo.append(node)
                elif id(node) not in seen:
                    seen.add(id(node))
                    stack.append((node, True))
                    stack += [(p, False) for p in node._parents
                              if id(p) not in seen]
            out._accumulate(np.ones_like(out.data))
            for node in reversed(topo):
                if node._pullback is not None and node.grad is not None:
                    node._pullback(node.grad)

        out, hidden, leaves = graph()
        out.backward()
        assert hidden.grad is None and hidden._pullback is None
        assert hidden._parents == () and out._parents == ()
        kept_out, kept_hidden, kept_leaves = graph()
        keep_tape_backward(kept_out)
        assert kept_hidden.grad is not None
        for leaf, kept in zip(leaves, kept_leaves):
            assert leaf.grad.tobytes() == kept.grad.tobytes()

    def test_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(35)
            x = parameter(rng.standard_normal((4, 4)))
            y = parameter(rng.standard_normal((4, 4)))
            out = ((x @ y).silu() + sigmoid(x * y)).mean()
            out.backward()
            return x.grad.tobytes(), y.grad.tobytes()
        assert run() == run()


class TestTapeRule:
    @staticmethod
    def graph(x, y):
        return concat([(x @ y).silu(), gather_rows(x, np.array([1, 0]))]
                      ).mean()

    def test_constant_ops_keep_no_tape(self):
        out = sigmoid(constant(np.ones((2, 2))) * 3.0)
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
