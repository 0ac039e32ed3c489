"""Attention model: hand traces, invariances, gradients, checkpoints."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcnet.autodiff as ad
import qcnet.model as model_mod
import qcnet.structures
from qcnet.autodiff import constant, parameter
from qcnet.complexes import MessagingPairs, build_complex, edge_pairs, \
    vertex_pairs
from qcnet.features import AtomFeatureTable, raw_features
from qcnet.model import (BatchNorm, CheckpointMismatchError, EmptyComplexError,
                         LayerNorm, AttentionLayer, ModelConfig,
                         NonFiniteActivationError, SimplexTransformer,
                         _attention_stage, _attention_update,
                         _checkpoint_layout, _loss_tensor, _predict_tensor,
                         batch_loss, forward, load_checkpoint,
                         loss_and_gradients, merge_batch, predict,
                         read_sidecar, save_checkpoint)
from qcnet.periodic import neighbor_list
from qcnet.structures import CrystalStructure
from qcnet.training import evaluate, synthetic_overfit_dataset

from conftest import open_failing_at, random_rotation, random_structure

TABLE = AtomFeatureTable.random(0)


def featurized(s, k=12):
    c = build_complex(neighbor_list(s, k=k))
    return c, raw_features(c, s.species, TABLE)


def tiny_model(hidden=4, seed=0):
    return SimplexTransformer.init(ModelConfig(hidden_dim=hidden,
                                               head_hidden=hidden), seed=seed)


def fd_loss(model, items, targets, loss, train):
    """Tape-free loss on batch (``train``) or running statistics; the
    finite-difference side of every gradient check."""
    with ad.no_grad():
        pred = _predict_tensor(model, merge_batch(items), train)
        return float(_loss_tensor(pred, targets, loss).item())


def backprop_running_stats(model, items, targets, loss="mae"):
    """Gradients of the loss on running statistics, in declared order."""
    model.zero_grad()
    _loss_tensor(_predict_tensor(model, merge_batch(items), False), targets,
                 loss).backward()
    return [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
            for _, t in model.parameters()]


class TestNormalization:
    def test_batchnorm_train_uses_batch_stats(self):
        bn = BatchNorm.init(3)
        x = np.array([[1.0, 2, 3], [3.0, 6, 9]])
        out = bn.apply(constant(x), True).data
        mean = x.mean(axis=0)
        var = x.var(axis=0)  # biased
        np.testing.assert_allclose(out, (x - mean) / np.sqrt(var + 1e-5),
                                   atol=1e-12)

    def test_batchnorm_running_update(self):
        bn = BatchNorm.init(2)
        x = np.array([[2.0, 4.0], [4.0, 8.0]])
        bn.apply(constant(x), True)
        np.testing.assert_allclose(bn.run_mean, 0.1 * x.mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_allclose(bn.run_var,
                                   0.9 * 1.0 + 0.1 * x.var(axis=0),
                                   atol=1e-12)

    def test_batchnorm_eval_frozen(self):
        bn = BatchNorm.init(2)
        bn.run_mean[:] = [1.0, 2.0]
        bn.run_var[:] = [4.0, 9.0]
        x = np.array([[3.0, 5.0]])
        out = bn.apply(constant(x), False).data
        expected = (x - [1.0, 2.0]) / np.sqrt(np.array([4.0, 9.0]) + 1e-5)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_array_equal(bn.run_mean, [1.0, 2.0])  # untouched

    def test_batchnorm_single_row_train_is_beta(self):
        bn = BatchNorm.init(3)
        bn.beta.data[:] = [0.5, -1.0, 2.0]
        out = bn.apply(constant(np.array([[7.0, 8.0, 9.0]])), True).data
        np.testing.assert_allclose(out[0], [0.5, -1.0, 2.0], atol=1e-12)

    def test_batchnorm_gradient_through_batch_stats(self):
        bn = BatchNorm.init(2)
        x = parameter(np.array([[1.0, 2.0], [3.0, 5.0], [4.0, 7.0]]))
        bn.apply(x, True).square().sum().backward()
        eps = 1e-6
        num = np.zeros_like(x.data)
        for i in range(3):
            for j in range(2):
                xp = x.data.copy()
                xp[i, j] += eps
                xm = x.data.copy()
                xm[i, j] -= eps
                bn2 = BatchNorm.init(2)
                fp = bn2.apply(constant(xp), True).square().sum().data
                bn3 = BatchNorm.init(2)
                fm = bn3.apply(constant(xm), True).square().sum().data
                num[i, j] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(x.grad, num, rtol=1e-5, atol=1e-8)

    def test_norms_and_affine_are_one_tape_node(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = parameter(rng.standard_normal((5, 3)))
        w, b = parameter(rng.standard_normal((3, 2))), parameter(np.zeros(2))
        bn, ln = BatchNorm.init(3), LayerNorm.init(3)
        calls = {"batch-stat BatchNorm": lambda: bn.apply(x, True),
                 "running-stat BatchNorm": lambda: bn.apply(x, False),
                 "LayerNorm": lambda: ln.apply(x),
                 "affine": lambda: ad.affine(x, w, b)}
        created = []
        init = ad.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            created.append(tensor)
        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        counts = {}
        for name, call in calls.items():
            before = len(created)
            call()
            counts[name] = len(created) - before
        monkeypatch.undo()
        assert counts == dict.fromkeys(calls, 1)
        assert all(t.requires_grad and len(t._parents) == 3 for t in created)

    def test_training_attention_stage_node_count(self, monkeypatch):
        # One node each: the doubled q map, its matmul, the 1/sqrt(2H)
        # scale and the gather to the pairs; the face and coface
        # projections and the per-pair SiLU of the key and of the value;
        # alpha, the batch norm and its gate; the gated value, the message
        # map, its layer norm and activation; the sum over receivers.  The
        # training step is one block, so nothing repeats.
        rng = np.random.default_rng(1)
        layer = AttentionLayer.init(3, rng)
        pairs = MessagingPairs(np.array([0, 1, 1]), np.array([1, 0, 2]),
                               np.array([0, 1, 1]))
        h = parameter(rng.standard_normal((3, 3)))
        h_cof = parameter(rng.standard_normal((2, 3)))
        created = []
        init = ad.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            created.append(tensor)
        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        _attention_stage(h, h_cof, pairs, layer, True)
        monkeypatch.undo()
        assert sum(t._pullback is not None for t in created) == 18

    def test_layernorm_rows(self):
        ln = LayerNorm.init(4)
        x = np.array([[1.0, 2.0, 3.0, 4.0], [10.0, 10.0, 10.0, 10.0]])
        out = ln.apply(constant(x)).data
        np.testing.assert_allclose(out[0].mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-9)  # zero variance row


def _silu(x):
    return x / (1.0 + np.exp(-x))


class TestAttentionHandTrace:
    """``_attention_stage`` on one (sigma, tau, coface) pair against the
    module docstring formula written out in plain numpy."""

    @staticmethod
    def _layer(hidden, seed):
        rng = np.random.default_rng(seed)
        layer = AttentionLayer.init(hidden, rng)
        for norm in (layer.attn_bn, layer.msg_ln):
            norm.gamma.data[:] = rng.uniform(0.5, 1.5, norm.gamma.shape)
            norm.beta.data[:] = rng.uniform(-0.5, 0.5, norm.beta.shape)
        return layer

    @staticmethod
    def _stage(layer, hidden, train, seed):
        """(h_sigma, h_tau, h_coface, stage output row) for one pair."""
        hs, ht, hc = np.random.default_rng(seed).standard_normal((3, hidden))
        pairs = MessagingPairs(np.array([0]), np.array([1]), np.array([0]))
        out = _attention_stage(constant(np.stack([hs, ht])),
                               constant(hc[None]), pairs, layer, train)
        return hs, ht, hc, out.data[0]

    @staticmethod
    def _unscaled_alpha(hs, ht, hc, layer):
        q = hs @ layer.q.data
        k = np.concatenate([ht @ layer.k_face.data, hc @ layer.k_cof.data])
        return (np.concatenate([q, q])
                * _silu(k @ layer.key_w.data + layer.key_b.data))

    @staticmethod
    def _message(gate, ht, hc, layer):
        v = np.concatenate([ht @ layer.v_face.data, hc @ layer.v_cof.data])
        m = gate * _silu(v @ layer.val_w.data + layer.val_b.data)
        z = m @ layer.msg_w.data + layer.msg_b.data
        z = (z - z.mean()) / np.sqrt(z.var() + 1e-5)
        return _silu(z * layer.msg_ln.gamma.data + layer.msg_ln.beta.data)

    def _eval_reference(self, hs, ht, hc, layer, hidden):
        bn = layer.attn_bn
        alpha = (self._unscaled_alpha(hs, ht, hc, layer)
                 / np.sqrt(2.0 * hidden))
        norm = (alpha - bn.run_mean) / np.sqrt(bn.run_var + 1e-5)
        gate = 1.0 / (1.0 + np.exp(-(norm * bn.gamma.data + bn.beta.data)))
        return self._message(gate, ht, hc, layer)

    def test_alpha_formula(self):
        hidden = 3
        layer = self._layer(hidden, 40)
        hs, ht, hc, got = self._stage(layer, hidden, False, 41)
        np.testing.assert_allclose(
            got, self._eval_reference(hs, ht, hc, layer, hidden), atol=1e-12)

    def test_message_eval_uses_running_stats(self):
        hidden = 2
        layer = self._layer(hidden, 42)
        layer.attn_bn.run_mean[:] = [0.1, -0.2, 0.3, 0.05]
        layer.attn_bn.run_var[:] = [1.0, 2.0, 0.5, 4.0]
        hs, ht, hc, got = self._stage(layer, hidden, False, 43)
        np.testing.assert_allclose(
            got, self._eval_reference(hs, ht, hc, layer, hidden), atol=1e-12)
        np.testing.assert_array_equal(layer.attn_bn.run_mean,
                                      [0.1, -0.2, 0.3, 0.05])

    def test_message_train_single_pair_centers_to_zero(self):
        hidden = 2
        layer = self._layer(hidden, 44)
        _, ht, hc, got = self._stage(layer, hidden, True, 45)
        # One message: alpha - mean(alpha) is identically zero, so the gate
        # is sigmoid(beta).
        gate = 1.0 / (1.0 + np.exp(-layer.attn_bn.beta.data))
        np.testing.assert_allclose(got, self._message(gate, ht, hc, layer),
                                   atol=1e-12)

    def test_scaling_factor_sqrt_2h(self):
        for hidden in (1, 2, 8):
            layer = self._layer(hidden, 46)
            hs, ht, hc, got = self._stage(layer, hidden, False, 47)
            np.testing.assert_allclose(
                got, self._eval_reference(hs, ht, hc, layer, hidden),
                atol=1e-12)
            # A train step on one message moves run_mean from 0 to 0.1 alpha,
            # which exposes alpha itself even where LayerNorm over a single
            # feature (H = 1) hides it from the message.
            self._stage(layer, hidden, True, 47)
            np.testing.assert_allclose(
                layer.attn_bn.run_mean / 0.1 * np.sqrt(2.0 * hidden),
                self._unscaled_alpha(hs, ht, hc, layer), atol=1e-12)


class TestResidualIdentity:
    def test_zeroed_update_path_is_exact_identity(self, catio3):
        c, _ = featurized(catio3)
        vp = vertex_pairs(c)
        rng = np.random.default_rng(47)
        layer = AttentionLayer.init(4, rng)
        layer.upd_w.data[:] = 0.0
        layer.upd_b.data[:] = 0.0
        h = rng.standard_normal((c.n_vertices, 4))
        h_cof = rng.standard_normal((c.n_edges, 4))
        for train in (True, False):
            out = _attention_update(constant(h), constant(h_cof), vp, layer,
                                    train).data
            assert np.array_equal(out, h)  # bitwise

    def test_no_pairs_identity_with_zero_update(self, cubic1):
        # k=6 cube has no triangles, so the edge tier gets zero pairs.
        c, _ = featurized(cubic1, k=6)
        ep = edge_pairs(c)
        assert ep.n_pairs == 0
        rng = np.random.default_rng(48)
        layer = AttentionLayer.init(4, rng)
        layer.upd_w.data[:] = 0.0
        layer.upd_b.data[:] = 0.0
        h = rng.standard_normal((c.n_edges, 4))
        out = _attention_update(constant(h), constant(np.zeros((0, 4))), ep,
                                layer, False).data
        assert np.array_equal(out, h)


class TestForwardShape:
    def test_forward_scalar(self, catio3):
        c, fs = featurized(catio3)
        m = tiny_model()
        value = forward(m, c, fs)
        assert isinstance(value, float)
        assert np.isfinite(value)

    def test_predict_batch_shape(self, catio3, cubic1):
        items = [featurized(catio3), featurized(cubic1)]
        m = tiny_model()
        out = predict(m, items)
        assert out.shape == (2,)

    def test_eval_prediction_batch_independent(self, catio3, cubic1):
        m = tiny_model()
        a_alone = predict(m, [featurized(catio3)])[0]
        pair = predict(m, [featurized(catio3), featurized(cubic1)])
        assert a_alone == pytest.approx(pair[0], abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyComplexError):
            merge_batch([])

    def test_feature_row_mismatch_rejected(self, catio3):
        c, fs = featurized(catio3)
        bad = type(fs)(h0_raw=fs.h0_raw[:-1], h1_raw=fs.h1_raw,
                       h2_raw=fs.h2_raw)
        with pytest.raises(ValueError):
            merge_batch([(c, bad)])

    def test_training_step_updates_buffers(self, catio3):
        items = [featurized(catio3)]
        m = tiny_model()
        before = [buf.copy() for _, buf in m.buffers()]
        loss_and_gradients(m, items, np.array([0.3]))
        unchanged = [name for (name, buf), snap in zip(m.buffers(), before)
                     if np.array_equal(buf, snap)]
        assert not unchanged

    def test_inference_leaves_model_bit_identical(self, catio3):
        items = [featurized(catio3, k=4)]
        targets = np.array([0.3])
        records = synthetic_overfit_dataset(n_samples=3, seed=7)
        m = tiny_model()
        for after_step in (False, True):
            if after_step:
                loss_and_gradients(m, items, targets)
            before = [a.tobytes() for a in m.state()]
            predict(m, items)
            forward(m, *items[0])
            batch_loss(m, items, targets)
            evaluate(m, records, TABLE, 4)
            assert [a.tobytes() for a in m.state()] == before


class TestInvariance:
    def test_permutation(self):
        rng = np.random.default_rng(50)
        m = tiny_model(hidden=4, seed=1)
        for _ in range(4):
            s = random_structure(rng, n_atoms=4)
            perm = rng.permutation(4)
            permuted = CrystalStructure(lattice=s.lattice,
                                        species=s.species[perm],
                                        frac=s.frac[perm])
            a = forward(m, *featurized(s, k=6))
            b = forward(m, *featurized(permuted, k=6))
            assert b == pytest.approx(a, rel=1e-9)

    def test_rotation_translation(self):
        rng = np.random.default_rng(51)
        m = tiny_model(hidden=4, seed=2)
        for _ in range(4):
            s = random_structure(rng)
            q = random_rotation(rng)
            shift = rng.uniform(-0.4, 0.4, size=3)
            moved = CrystalStructure(lattice=s.lattice @ q,
                                     species=s.species, frac=s.frac + shift)
            a = forward(m, *featurized(s, k=8))
            b = forward(m, *featurized(moved, k=8))
            assert b == pytest.approx(a, rel=1e-9)


class TestGradients:
    def _fd_sweep(self, model, items, targets, train, n_coords=2, seed=60):
        if train:
            _, grads = loss_and_gradients(model, items, targets, loss="mse")
        else:
            grads = backprop_running_stats(model, items, targets, loss="mse")
        names = [name for name, _ in model.parameters()]
        tensors = [t for _, t in model.parameters()]
        rng = np.random.default_rng(seed)
        # eps = 1e-6 leaves visible truncation error where a LayerNorm row
        # has near-zero variance (third derivative ~ 1/std^3); 1e-7 keeps
        # roundoff ~1e-9 while shrinking truncation 100x.
        eps = 1e-7
        for name, tensor, grad in zip(names, tensors, grads):
            flat_idx = rng.integers(0, tensor.data.size,
                                    size=min(n_coords, tensor.data.size))
            for fi in flat_idx:
                idx = np.unravel_index(int(fi), tensor.data.shape)
                orig = tensor.data[idx]
                tensor.data[idx] = orig + eps
                fp = fd_loss(model, items, targets, "mse", train)
                tensor.data[idx] = orig - eps
                fm = fd_loss(model, items, targets, "mse", train)
                tensor.data[idx] = orig
                num = (fp - fm) / (2 * eps)
                np.testing.assert_allclose(
                    grad[idx], num, rtol=1e-4, atol=1e-8,
                    err_msg=f"{name}{idx}, train={train}")

    def test_every_parameter_train_mode(self, cubic1):
        items = [featurized(cubic1, k=12)]
        model = tiny_model(hidden=4, seed=3)
        self._fd_sweep(model, items, np.array([0.7]), True)

    def test_every_parameter_eval_mode(self, cubic1):
        items = [featurized(cubic1, k=12)]
        model = tiny_model(hidden=4, seed=4)
        self._fd_sweep(model, items, np.array([-0.3]), False)

    def test_mae_loss_gradient(self, cubic1):
        items = [featurized(cubic1, k=12)]
        model = tiny_model(hidden=4, seed=5)
        loss, grads = loss_and_gradients(model, items, np.array([10.0]),
                                         loss="mae")
        # Far-off target: d|e|/de = -1, so gradients mirror the prediction
        # gradient; just check a couple against FD.
        tensor = model.head.w3
        idx = (0, 0)
        eps = 1e-6
        orig = tensor.data[idx]
        tensor.data[idx] = orig + eps
        fp = fd_loss(model, items, np.array([10.0]), "mae", True)
        tensor.data[idx] = orig - eps
        fm = fd_loss(model, items, np.array([10.0]), "mae", True)
        tensor.data[idx] = orig
        head_slot = [i for i, (n, t) in enumerate(model.parameters())
                     if t is tensor][0]
        np.testing.assert_allclose(grads[head_slot][idx],
                                   (fp - fm) / (2 * eps), rtol=1e-4)


class TestTapeFreeEval:
    """predict, batch_loss and evaluate run without recording a tape."""

    def test_eval_leaves_no_gradients_or_parents(self, catio3):
        items = [featurized(catio3, k=4)]
        m = tiny_model(seed=5)
        predict(m, items)
        batch_loss(m, items, np.array([0.2]))
        evaluate(m, synthetic_overfit_dataset(n_samples=3, seed=7), TABLE, 4)
        assert all(t.grad is None for _, t in m.parameters())
        with ad.no_grad():
            out = _predict_tensor(m, merge_batch(items), False)
        assert out._parents == () and out._pullback is None

    def test_nonfinite_activation_restores_recording(self, catio3):
        items = [featurized(catio3, k=4)]
        m = tiny_model(seed=5)
        dict(m.parameters())["node.0.upd_b"].data[0] = np.nan
        with pytest.raises(NonFiniteActivationError):
            predict(m, items)
        with pytest.raises(NonFiniteActivationError):
            batch_loss(m, items, np.array([0.2]))
        out = _predict_tensor(tiny_model(seed=5), merge_batch(items), False)
        assert out.requires_grad and out._parents

    @pytest.mark.parametrize("names, value", [
        (["head.b3"], np.inf),
        (["head.w1", "head.w2", "head.w3"], 1e300)], ids=["inf", "1e300"])
    def test_nonfinite_prediction_names_head(self, catio3, names, value):
        items = [featurized(catio3, k=4)]
        m = tiny_model(seed=5)
        for name in names:
            dict(m.parameters())[name].data[...] = value
        for run in (lambda: predict(m, items),
                    lambda: forward(m, *items[0]),
                    lambda: batch_loss(m, items, np.array([0.2]))):
            with pytest.raises(NonFiniteActivationError,
                               match="^layer head produced non-finite"):
                run()

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_gradients_unchanged_by_prior_eval(self, catio3, train):
        items = [featurized(catio3, k=4)]
        targets = np.array([0.4])

        def gradients(eval_first):
            m = tiny_model(seed=6)
            if eval_first:
                predict(m, items)
                batch_loss(m, items, targets)
            if train:
                _, grads = loss_and_gradients(m, items, targets)
            else:
                grads = backprop_running_stats(m, items, targets)
            return [g.tobytes() for g in grads]
        assert gradients(True) == gradients(False)

    def test_predict_peak_memory_under_half_of_tape(self):
        rng = np.random.default_rng(31)
        lattice = np.diag([7.0, 7.5, 8.0]) + rng.uniform(-0.5, 0.5, (3, 3))
        s = CrystalStructure(lattice=lattice,
                             species=rng.choice([8, 20, 22], size=32),
                             frac=rng.uniform(0.0, 1.0, (32, 3)))
        items = [featurized(s)]
        batch = merge_batch(items)
        m = tiny_model(hidden=8, seed=2)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        with_tape = peak(lambda: _predict_tensor(m, batch, False))
        tape_free = peak(lambda: predict(m, items))
        assert tape_free < 0.5 * with_tape


def bench_style_cells(count, seed):
    """``count`` triclinic cells of 2-32 atoms (log-uniform midpoint
    quantiles) at 0.08 atoms per cubic angstrom, Z in 1-83, featurized at
    k = 12: the predict benchmark's cell recipe."""
    rng = np.random.default_rng(seed)
    sizes = 2 * 16 ** ((np.arange(count) + 0.5) / count)
    items = []
    for n in np.rint(sizes).astype(int):
        lattice = np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3))
        lattice *= (n / 0.08 / abs(np.linalg.det(lattice))) ** (1.0 / 3.0)
        items.append(featurized(CrystalStructure(
            lattice=lattice, species=rng.integers(1, 84, n),
            frac=rng.uniform(0.0, 1.0, (n, 3)))))
    return items


class TestPairBlocks:
    """Forward-only attention runs its pairs in receiver-aligned blocks."""

    @staticmethod
    def blocks(sigma, n_rows, limit):
        return list(model_mod._pair_blocks(np.asarray(sigma), n_rows, limit))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8),
           st.lists(st.integers(0, 3), min_size=1, max_size=8),
           st.integers(1, 9))
    def test_cuts_only_where_the_receiver_changes(self, runs, gaps, limit):
        # Receiver runs of the given lengths; gaps are receivers without
        # pairs, also before the first and after the last run.
        sigma, row = [], 0
        for length, gap in zip(runs, gaps * len(runs)):
            row += gap
            sigma += [row] * length
            row += 1
        n_rows = row + gaps[-1]
        sigma = np.array(sigma, dtype=np.int64)
        blocks = self.blocks(sigma, n_rows, limit)
        assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
        assert blocks[-1][1] == sigma.size
        assert [b[2] for b in blocks] == [0] + [b[3] for b in blocks[:-1]]
        assert blocks[-1][3] == n_rows
        run_ends = set(np.flatnonzero(np.diff(sigma)) + 1) | {sigma.size}
        for lo, hi, first, stop in blocks:
            assert hi in run_ends and lo < hi
            assert first <= sigma[lo] and sigma[hi - 1] < stop
            one_receiver = sigma[lo] == sigma[hi - 1]
            assert hi - lo <= limit or one_receiver
            # Greedy: the next receiver's run would not have fit.
            if hi < sigma.size:
                assert min(e for e in run_ends if e > hi) - lo > limit

    def test_receiver_over_the_limit_is_one_block(self):
        sigma = [0] * 3 + [1] * 10 + [2] * 2
        assert self.blocks(sigma, 4, 4) == [(0, 3, 0, 1), (3, 13, 1, 2),
                                            (13, 15, 2, 4)]

    def test_training_step_is_one_block(self, catio3, monkeypatch):
        # Batch statistics over every pair, whatever the block size.
        c, _ = featurized(catio3)
        rng = np.random.default_rng(50)
        h = constant(rng.standard_normal((c.n_edges, 4)))
        h_cof = constant(rng.standard_normal((c.n_triangles, 4)))
        stats = []
        for size in (1, 10 ** 9):
            monkeypatch.setattr(model_mod, "_EVAL_BLOCK_PAIRS", size)
            layer = AttentionLayer.init(4, np.random.default_rng(51))
            out = _attention_stage(h, h_cof, edge_pairs(c), layer, True)
            stats.append((out.data.tobytes(), layer.attn_bn.run_mean.tobytes(),
                          layer.attn_bn.run_var.tobytes()))
        assert stats[0] == stats[1]

    def test_unsorted_pairs_rejected(self):
        with pytest.raises(ValueError, match="sorted by receiver"):
            self.blocks([0, 2, 1], 3, 7)

    @pytest.mark.parametrize("case", ["catio3", "merged"])
    def test_blocked_predict_equals_one_block(self, case, catio3,
                                              monkeypatch):
        items = ([featurized(catio3)] if case == "catio3"
                 else bench_style_cells(6, 8))
        batch = merge_batch(items)
        m = tiny_model(hidden=8, seed=9)
        # Running statistics away from the (0, 1) defaults.
        for _, bn in m.batch_norms():
            bn.run_mean = np.full_like(bn.run_mean, 0.05)
            bn.run_var = np.full_like(bn.run_var, 1.7)
        monkeypatch.setattr(model_mod, "_EVAL_BLOCK_PAIRS", 10 ** 9)
        whole = predict(m, items)
        monkeypatch.setattr(model_mod, "_EVAL_BLOCK_PAIRS", 7)
        for pairs, n_rows in ((batch.vp, sum(c.n_vertices for c, _ in items)),
                              (batch.ep, sum(c.n_edges for c, _ in items))):
            assert len(self.blocks(pairs.sigma, n_rows, 7)) > 1
        np.testing.assert_allclose(predict(m, items), whole, rtol=1e-12,
                                   atol=0.0)

    def test_running_stats_gradients_through_blocks(self, cubic1,
                                                    monkeypatch):
        # Seven edge blocks, some of several receivers.
        monkeypatch.setattr(model_mod, "_EVAL_BLOCK_PAIRS", 24)
        items = [featurized(cubic1, k=12)]
        sigma = merge_batch(items).ep.sigma
        blocks = self.blocks(sigma, items[0][0].n_edges, 24)
        assert len(blocks) == 7
        assert any(sigma[lo] != sigma[hi - 1] for lo, hi, _, _ in blocks)
        TestGradients()._fd_sweep(tiny_model(hidden=4, seed=4), items,
                                  np.array([-0.3]), False)

    def test_predict_peak_memory_bounded(self):
        # 16 merged cells, hidden 64: the one-block forward with the
        # merged raw features held throughout peaked at 217 MB here.
        items = bench_style_cells(16, 0)
        m = tiny_model(hidden=64, seed=11)
        tracemalloc.start()
        try:
            predict(m, items)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 217 / 4 * 2 ** 20


class TestParameterBookkeeping:
    def test_parameter_count(self):
        m = tiny_model(hidden=8, seed=0)
        assert m.n_parameters() == 15937
        assert len(m.parameters()) == 183

    def test_buffer_count(self):
        m = tiny_model()
        assert len(m.buffers()) == 9 * 2 * 2  # 9 layers x 2 BN x (mean, var)

    LAYER_PARAMS = ["q", "k_face", "k_cof", "v_face", "v_cof", "key_w",
                    "key_b", "val_w", "val_b", "attn_bn.gamma",
                    "attn_bn.beta", "msg_w", "msg_b", "msg_ln.gamma",
                    "msg_ln.beta", "upd_w", "upd_b", "upd_bn.gamma",
                    "upd_bn.beta"]

    def test_declared_parameter_order(self):
        # The checkpoint layout is this order; pinning the names keeps a
        # field reorder from silently changing the file format.
        names = [name for name, _ in tiny_model().parameters()]
        assert names[:6] == ["embed.0.w", "embed.0.b", "embed.1.w",
                             "embed.1.b", "embed.2.w", "embed.2.b"]
        prefixes = [f"node.{i}" for i in range(5)] + [
            "edge_node.0.edge", "edge_node.0.node",
            "edge_node.1.edge", "edge_node.1.node"]
        layers = [f"{p}.{n}" for p in prefixes for n in self.LAYER_PARAMS]
        assert names[6:-6] == layers
        assert names[-6:] == ["head.w1", "head.b1", "head.w2", "head.b2",
                              "head.w3", "head.b3"]

    def test_declared_buffer_order(self):
        m = tiny_model()
        assert [n for n, _ in m.batch_norms()][:2] == ["node.0.attn_bn",
                                                      "node.0.upd_bn"]
        assert [n for n, _ in m.buffers()][:4] == [
            "node.0.attn_bn.run_mean", "node.0.attn_bn.run_var",
            "node.0.upd_bn.run_mean", "node.0.upd_bn.run_var"]
        assert [n for n, _ in m.buffers()][-1] == \
            "edge_node.1.node.upd_bn.run_var"

    def test_state_round_trip(self, catio3):
        src = tiny_model(seed=3)
        # A training step drifts the buffers.
        loss_and_gradients(src, [featurized(catio3)], np.array([0.0]))
        dst = tiny_model(seed=4)
        held = [t for _, t in dst.parameters()]
        dst.load_state(src.state())
        for a, b in zip(src.state(), dst.state()):
            np.testing.assert_array_equal(a, b)
        # Parameters are written in place; buffers are copies.
        assert all(t is u for t, (_, u) in zip(held, dst.parameters()))
        assert all(a is not b for (_, a), (_, b) in zip(src.buffers(),
                                                      dst.buffers()))

    def test_layer_structure_fixed(self):
        m = tiny_model()
        assert len(m.node_layers) == 5
        assert len(m.edge_node_blocks) == 2
        with pytest.raises(ValueError):
            SimplexTransformer(ModelConfig(4, 4), m.embeds,
                               m.node_layers[:3], m.edge_node_blocks, m.head)

    def test_seeded_init_deterministic(self):
        a = tiny_model(hidden=4, seed=9)
        b = tiny_model(hidden=4, seed=9)
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)
        c = tiny_model(hidden=4, seed=10)
        assert any(not np.array_equal(ta.data, tc.data)
                   for (_, ta), (_, tc) in zip(a.parameters(),
                                               c.parameters()))

    def test_clone_is_independent(self, catio3):
        m = tiny_model()
        clone = m.clone()
        item = featurized(catio3)
        before = forward(m, *item)
        clone.head.b3.data[:] = 99.0
        assert forward(m, *item) == before
        assert forward(clone, *item) != before

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(hidden_dim=4, head_hidden=-1)


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self, tmp_path, catio3):
        m = tiny_model(hidden=4, seed=11)
        item = featurized(catio3)
        # A training step drifts the buffers away from init.
        loss_and_gradients(m, [item], np.array([0.0]))
        expected = forward(m, *item)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert forward(loaded, *item) == expected
        for (_, a), (_, b) in zip(m.buffers(), loaded.buffers()):
            np.testing.assert_array_equal(a, b)

    def test_save_is_byte_deterministic(self, tmp_path):
        m = tiny_model(hidden=4, seed=12)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sidecar_extra(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path, extra={"k_neighbors": 4})
        meta = read_sidecar(path)
        assert meta["extra"]["k_neighbors"] == 4
        assert meta["hidden_dim"] == 4

    def test_hidden_dim_mismatch_named(self, tmp_path):
        m = tiny_model(hidden=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        with pytest.raises(CheckpointMismatchError, match="hidden_dim"):
            load_checkpoint(path, config=ModelConfig(hidden_dim=8,
                                                     head_hidden=4))

    def test_truncated_file(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(CheckpointMismatchError, match="magic|format"):
            load_checkpoint(path)

    @pytest.mark.parametrize("hidden,head_hidden", [(1, 1), (3, 5), (8, 2)])
    def test_layout_closed_form_matches_file(self, tmp_path, hidden,
                                             head_hidden):
        m = SimplexTransformer.init(ModelConfig(hidden, head_hidden))
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        assert _checkpoint_layout(hidden, head_hidden) == (
            len(m.parameters()) + len(m.buffers()), path.stat().st_size)

    @staticmethod
    def _blob(tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "reference.ckpt"
        if not path.exists():
            save_checkpoint(tiny_model(hidden=4, seed=12), path)
        return path.read_bytes()

    # 36 header bytes: magic, version, hidden_dim (bytes 12-15),
    # head_hidden, the two layer counts, the tensor count.
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(bit=st.integers(0, 36 * 8 - 1))
    @example(bit=15 * 8 + 7)   # hidden_dim 4 -> 2**31 + 4
    @example(bit=12 * 8 + 10)  # hidden_dim 4 -> 1028, gigabytes of weights
    def test_header_bit_flip_rejected(self, tmp_path_factory, bit):
        blob = bytearray(self._blob(tmp_path_factory))
        blob[bit // 8] ^= 1 << (bit % 8)
        path = tmp_path_factory.getbasetemp() / "flipped.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(cut=st.integers(0, _checkpoint_layout(4, 4)[1] - 1))
    @example(cut=0)
    @example(cut=36)
    @example(cut=_checkpoint_layout(4, 4)[1] - 1)
    def test_truncation_rejected(self, tmp_path_factory, cut):
        path = tmp_path_factory.getbasetemp() / "cut.ckpt"
        path.write_bytes(self._blob(tmp_path_factory)[:cut])
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)

    @pytest.mark.parametrize("failing_file", [0, 1],
                             ids=["binary", "sidecar"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                   monkeypatch, failing_file):
        path = tmp_path / "m.ckpt"
        old = tiny_model(seed=1)
        save_checkpoint(old, path, extra={"k_neighbors": 4})
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        opened = []
        monkeypatch.setattr(qcnet.structures, "open",
                            open_failing_at(failing_file, opened),
                            raising=False)
        with pytest.raises(OSError):
            save_checkpoint(tiny_model(seed=2), path,
                            extra={"k_neighbors": 8})
        monkeypatch.undo()
        assert len(opened) == failing_file + 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        loaded = load_checkpoint(path)
        for (_, a), (_, b) in zip(old.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert read_sidecar(path)["extra"] == {"k_neighbors": 4}
