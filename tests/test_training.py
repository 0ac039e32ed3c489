"""Optimizer, schedule, metrics, and deterministic training loops."""

import numpy as np
import pytest

import qcnet.complexes
import qcnet.periodic
import qcnet.training
from qcnet.features import AtomFeatureTable
from qcnet.model import SimplexTransformer, ModelConfig, \
    NonFiniteActivationError, load_checkpoint, predict, save_checkpoint
from qcnet.structures import DatasetRecord
from qcnet.training import (ADAM_CHUNK, AdamW, NonFiniteLossError,
                            TooFewSamplesError, TrainConfig, evaluate,
                            finetune, metrics_report, one_cycle_lr,
                            prepare_items, synthetic_overfit_dataset, train)

TABLE = AtomFeatureTable.random(0)


def tiny_config(tmp_path=None, **kw):
    defaults = dict(epochs=3, batch_size=4, peak_lr=0.003,
                    k_neighbors=4, seed=5, hidden_dim=4, head_hidden=4)
    defaults.update(kw)
    if tmp_path is not None:
        defaults.setdefault("checkpoint_path", str(tmp_path / "m.ckpt"))
    return TrainConfig(**defaults)


class TestOneCycle:
    TOTAL = 20000
    PEAK = 0.005

    def lr(self, step):
        return one_cycle_lr(step, self.TOTAL, self.PEAK)

    def test_exact_anchors(self):
        warm = int(0.3 * self.TOTAL)
        assert self.lr(0) == pytest.approx(self.PEAK / 25, abs=0.0)
        assert self.lr(warm) == pytest.approx(self.PEAK, abs=0.0)
        assert self.lr(self.TOTAL - 1) == pytest.approx(self.PEAK / 1e4,
                                                        abs=0.0)

    def test_monotone_up_then_down(self):
        warm = int(0.3 * self.TOTAL)
        values = [self.lr(s) for s in range(self.TOTAL)]
        for s in range(warm):
            assert values[s + 1] >= values[s]
        for s in range(warm, self.TOTAL - 1):
            assert values[s + 1] <= values[s]

    def test_no_jump_at_warmup_boundary(self):
        warm = int(0.3 * self.TOTAL)
        gap = abs(self.lr(warm) - self.lr(warm - 1))
        # Neighboring cosine samples: the curve is continuous through the
        # hand-off, so the gap is bounded by one cosine step.
        assert gap < self.PEAK * (np.pi / (2 * warm))

    def test_single_step_schedule(self):
        assert one_cycle_lr(0, 1, 0.005) == pytest.approx(0.005 / 1e4)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            one_cycle_lr(-1, 10, 0.005)
        with pytest.raises(ValueError):
            one_cycle_lr(10, 10, 0.005)


class TestAdamW:
    def test_first_step_hand_computed(self):
        p = np.array([1.0])
        opt = AdamW(p, weight_decay=0.0)
        opt.step(lr=0.1, grad=np.array([1.0]))
        # Bias-corrected m^ = 1, v^ = 1: step = lr / (1 + eps)
        assert p[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-15)

    def test_zero_grad_zero_decay_is_identity(self):
        p = np.array([2.0, -3.0])
        opt = AdamW(p, weight_decay=0.0)
        before = p.copy()
        for _ in range(3):
            opt.step(lr=0.5, grad=np.zeros(2))
        np.testing.assert_array_equal(p, before)

    def test_decay_is_decoupled(self):
        p = np.array([4.0])
        opt = AdamW(p, weight_decay=0.01)
        opt.step(lr=0.1, grad=np.zeros(1))
        # Zero gradient: only the decay term fires.
        assert p[0] == pytest.approx(4.0 * (1 - 0.1 * 0.01), abs=1e-15)

    def test_chunked_step_is_the_elementwise_formula(self):
        # A length two chunks and a remainder long; each element follows
        # the per-element update bit for bit, whatever chunk it is in.
        rng = np.random.default_rng(3)
        n = 2 * ADAM_CHUNK + 37
        p = rng.standard_normal(n)
        m, v, want = np.zeros(n), np.zeros(n), p.copy()
        opt = AdamW(p, weight_decay=0.01)
        for t in range(1, 4):
            g = rng.standard_normal(n)
            lr = 0.01 * t
            opt.step(lr, g)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            want -= lr * 0.01 * want
            want -= lr * (m / (1.0 - 0.9 ** t)) / (
                np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        assert p.tobytes() == want.tobytes()


class TestMetrics:
    def test_hand_worked_cod(self):
        rep = metrics_report(np.array([0.0, 1.0, 2.0]),
                             np.array([0.0, 1.0, 4.0]))
        assert rep.cod == -1.0  # SSres 4 over SStot 2, exactly
        assert rep.mae == pytest.approx(2.0 / 3.0)
        assert rep.mse == pytest.approx(4.0 / 3.0)
        assert rep.status == "ok"

    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.5])
        rep = metrics_report(y, y.copy())
        assert rep.cod == 1.0
        assert rep.pcc == pytest.approx(1.0)
        assert rep.mae == 0.0
        assert rep.rmse == 0.0
        assert rep.mad_mae_ratio is None  # ratio undefined at mae = 0

    def test_constant_mean_predictor(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        pred = np.full(4, y.mean())
        rep = metrics_report(y, pred)
        assert rep.cod == pytest.approx(0.0, abs=1e-15)
        assert rep.pcc is None  # zero prediction variance

    def test_zero_variance_targets(self):
        rep = metrics_report(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
        assert rep.status == "zero_variance"
        assert rep.cod is None
        assert np.isfinite(rep.mae)

    def test_mad_and_ratio(self):
        # MAD is the target spread (mean |y - ybar|): the error a
        # mean-of-targets baseline would make.
        y = np.array([0.0, 1.0, 2.0, 3.0])
        pred = y + 1.0
        rep = metrics_report(y, pred)
        assert rep.mae == 1.0
        assert rep.mad == pytest.approx(1.0)
        assert rep.mad_mae_ratio == pytest.approx(1.0)

    def test_to_dict_json_safe(self):
        rep = metrics_report(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
        d = rep.to_dict()
        assert d["cod"] is None
        assert d["status"] == "zero_variance"


class TestSyntheticDataset:
    def test_shapes_and_targets(self):
        recs = synthetic_overfit_dataset(n_samples=16, seed=7)
        assert len(recs) == 16
        n_two_atom = sum(1 for r in recs if r.structure.n_atoms == 2)
        assert n_two_atom == 4  # every fourth structure
        for r in recs:
            assert np.isfinite(r.target) and r.target > 0.0

    def test_deterministic(self):
        a = synthetic_overfit_dataset(n_samples=8, seed=3)
        b = synthetic_overfit_dataset(n_samples=8, seed=3)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.structure.frac,
                                          rb.structure.frac)
            assert ra.target == rb.target


class TestTrainLoop:
    def _records(self, n=6, seed=7):
        return synthetic_overfit_dataset(n_samples=n, seed=seed)

    def test_byte_identical_reruns(self, tmp_path):
        recs = self._records()
        out = []
        for tag in ("a", "b"):
            cfg = tiny_config(checkpoint_path=str(tmp_path / f"{tag}.ckpt"))
            result = train(cfg, recs, recs[:2], TABLE)
            out.append((result.history,
                        (tmp_path / f"{tag}.ckpt").read_bytes()))
        assert out[0][0] == out[1][0]
        assert out[0][1] == out[1][1]

    def test_seed_changes_outcome(self, tmp_path):
        recs = self._records()
        r1 = train(tiny_config(seed=1), recs, (), TABLE)
        r2 = train(tiny_config(seed=2), recs, (), TABLE)
        p1 = [t.data for _, t in r1.model.parameters()]
        p2 = [t.data for _, t in r2.model.parameters()]
        assert any(not np.array_equal(a, b) for a, b in zip(p1, p2))

    def test_history_contents(self):
        recs = self._records()
        result = train(tiny_config(epochs=2), recs, recs[:2], TABLE)
        assert len(result.history) == 2
        for i, entry in enumerate(result.history):
            assert entry["epoch"] == i
            assert np.isfinite(entry["train_loss"])
            assert np.isfinite(entry["val_loss"])
            assert entry["lr"] > 0.0

    def test_best_val_model_restored(self):
        recs = self._records(n=8)
        cfg = tiny_config(epochs=6, loss="mae")
        result = train(cfg, recs[:6], recs[6:], TABLE)
        best_val = min(e["val_loss"] for e in result.history)
        assert result.history[result.best_epoch]["val_loss"] == best_val
        # The returned model is the best-epoch snapshot: its full-batch
        # eval-mode MAE equals the recorded best validation loss.
        rep = evaluate(result.model, recs[6:], TABLE, cfg.k_neighbors)
        assert rep.mae == pytest.approx(best_val, abs=1e-12)

    def test_train_without_val_tracks_train_loss(self):
        recs = self._records()
        result = train(tiny_config(epochs=2), recs, (), TABLE)
        assert result.history[-1]["val_loss"] is None
        assert result.best_epoch in (0, 1)

    def test_nonfinite_loss_raises(self, tmp_path):
        # The absurd learning rate overflows by design; the loop must stop
        # with a diagnosed error, not march on with NaNs, and must not
        # leave the checkpoint of an earlier improving epoch behind.
        recs = self._records()
        cfg = tiny_config(tmp_path, peak_lr=1e25, epochs=8, loss="mse")
        with pytest.raises(NonFiniteLossError):
            train(cfg, recs, (), TABLE)
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_written_once_and_holds_returned_model(
            self, tmp_path, monkeypatch):
        writes = []
        real_save = qcnet.training.save_checkpoint

        def counting_save(model, path, extra=None):
            writes.append(path)
            real_save(model, path, extra)

        monkeypatch.setattr(qcnet.training, "save_checkpoint", counting_save)
        recs = self._records(n=8)
        cfg = tiny_config(tmp_path, epochs=6)
        result = train(cfg, recs[:6], recs[6:], TABLE)
        assert writes == [cfg.checkpoint_path]
        loaded = load_checkpoint(cfg.checkpoint_path)
        for a, b in zip(result.model.state(), loaded.state()):
            np.testing.assert_array_equal(a, b)

    def test_overflowing_model_writes_no_checkpoint(self, tmp_path):
        # The loss of the one step stays finite, but the step leaves
        # weights whose forward overflows; that model is not written.
        recs = synthetic_overfit_dataset(6)
        cfg = tiny_config(tmp_path, epochs=1, batch_size=8, peak_lr=1e308,
                          hidden_dim=8, head_hidden=8, k_neighbors=4)
        with pytest.raises(NonFiniteActivationError, match="node.0"):
            train(cfg, recs, (), TABLE)
        assert list(tmp_path.iterdir()) == []

    def test_no_records_rejected(self):
        with pytest.raises(TooFewSamplesError):
            train(tiny_config(), [], (), TABLE)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(epochs=-1)
        with pytest.raises(ValueError):
            tiny_config(batch_size=0)
        with pytest.raises(ValueError):
            tiny_config(loss="huber")
        with pytest.raises(ValueError):
            tiny_config(peak_lr=0.0)
        for weight_decay in (-1e-5, np.nan, np.inf):
            with pytest.raises(ValueError,
                               match="^weight_decay must be >= 0 and finite$"):
                tiny_config(weight_decay=weight_decay)


class TestColumnarPipeline:
    def test_no_edge_or_triangle_records_built(self, monkeypatch):
        # The hot path reads the columns; the records are views for callers.
        def forbidden(*args, **kwargs):
            raise AssertionError("per-edge or per-triangle record built")
        monkeypatch.setattr(qcnet.periodic, "PeriodicEdge", forbidden)
        monkeypatch.setattr(qcnet.complexes, "Triangle", forbidden)
        records = synthetic_overfit_dataset(2, seed=7)
        items = prepare_items(records, TABLE, 12)
        assert all(c.n_triangles > 0 for c, _ in items)
        result = train(tiny_config(epochs=1, batch_size=2, k_neighbors=12),
                       records, table=TABLE)
        assert len(result.history) == 1
        assert np.all(np.isfinite(predict(result.model, items)))


class TestFinetune:
    def _records(self):
        return synthetic_overfit_dataset(n_samples=6, seed=7)

    def test_zero_epochs_returns_checkpoint_model(self, tmp_path):
        recs = self._records()
        cfg = tiny_config(tmp_path)
        result = train(cfg, recs, (), TABLE)
        save_checkpoint(result.model, tmp_path / "done.ckpt")
        tuned = finetune(str(tmp_path / "done.ckpt"),
                         tiny_config(epochs=0), recs, (), TABLE)
        for (_, a), (_, b) in zip(result.model.parameters(),
                                  tuned.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_zero_epochs_writes_checkpoint_once(self, tmp_path, monkeypatch):
        m = SimplexTransformer.init(ModelConfig(hidden_dim=4, head_hidden=4),
                                    seed=3)
        save_checkpoint(m, tmp_path / "src.ckpt")
        writes = []
        real_save = qcnet.training.save_checkpoint

        def counting_save(model, path, extra=None):
            writes.append(path)
            real_save(model, path, extra)

        monkeypatch.setattr(qcnet.training, "save_checkpoint", counting_save)
        out = str(tmp_path / "out.ckpt")
        finetune(str(tmp_path / "src.ckpt"),
                 tiny_config(epochs=0, checkpoint_path=out),
                 self._records(), (), TABLE)
        assert writes == [out]
        assert (tmp_path / "out.ckpt").read_bytes() == \
            (tmp_path / "src.ckpt").read_bytes()

    def test_zero_epochs_of_overflowing_checkpoint_writes_nothing(
            self, tmp_path):
        # The run scores the loaded model before it writes, as train()
        # does; head weights of 1e300 overflow that forward.
        m = SimplexTransformer.init(ModelConfig(hidden_dim=4, head_hidden=4),
                                    seed=3)
        for name in ("head.w1", "head.w2", "head.w3"):
            dict(m.parameters())[name].data[...] = 1e300
        save_checkpoint(m, tmp_path / "big.ckpt")
        out = tmp_path / "out.ckpt"
        with pytest.raises(NonFiniteActivationError, match="head"):
            finetune(str(tmp_path / "big.ckpt"),
                     tiny_config(epochs=0, checkpoint_path=str(out)),
                     self._records(), (), TABLE)
        assert not out.exists()

    def test_scratch_equals_finetune_from_seed_init(self, tmp_path):
        # Training from a checkpoint holding the seed-matched random init
        # must replay the scratch run byte for byte: the shuffle stream is
        # drawn from the same spawned child either way.
        recs = self._records()
        cfg = tiny_config(checkpoint_path=str(tmp_path / "scratch.ckpt"))
        scratch = train(cfg, recs, recs[:2], TABLE)

        init_only = train(tiny_config(epochs=0, seed=cfg.seed), recs, (),
                          TABLE)
        save_checkpoint(init_only.model, tmp_path / "init.ckpt")
        cfg2 = tiny_config(checkpoint_path=str(tmp_path / "tuned.ckpt"),
                           seed=cfg.seed)
        tuned = finetune(str(tmp_path / "init.ckpt"), cfg2, recs, recs[:2],
                         TABLE)
        assert scratch.history == tuned.history
        assert (tmp_path / "scratch.ckpt").read_bytes() == \
            (tmp_path / "tuned.ckpt").read_bytes()

    def test_hidden_dim_mismatch(self, tmp_path):
        m = SimplexTransformer.init(ModelConfig(hidden_dim=8, head_hidden=8),
                                    seed=0)
        save_checkpoint(m, tmp_path / "wide.ckpt")
        from qcnet.model import CheckpointMismatchError
        with pytest.raises(CheckpointMismatchError, match="hidden_dim"):
            finetune(str(tmp_path / "wide.ckpt"), tiny_config(),
                     self._records(), (), TABLE)

    def test_finetune_deterministic(self, tmp_path):
        recs = self._records()
        base = train(tiny_config(), recs, (), TABLE)
        save_checkpoint(base.model, tmp_path / "base.ckpt")
        a = finetune(str(tmp_path / "base.ckpt"), tiny_config(epochs=2),
                     recs, (), TABLE)
        b = finetune(str(tmp_path / "base.ckpt"), tiny_config(epochs=2),
                     recs, (), TABLE)
        for (_, ta), (_, tb) in zip(a.model.parameters(),
                                    b.model.parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)


class TestEvaluate:
    def test_report_against_manual_predictions(self):
        recs = synthetic_overfit_dataset(n_samples=5, seed=9)
        result = train(tiny_config(epochs=1), recs, (), TABLE)
        rep = evaluate(result.model, recs, TABLE, 4)
        assert rep.n == 5
        assert np.isfinite(rep.mae)

    def test_checkpoint_round_trip_evaluates_identically(self, tmp_path):
        recs = synthetic_overfit_dataset(n_samples=5, seed=9)
        result = train(tiny_config(epochs=2), recs, (), TABLE)
        save_checkpoint(result.model, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        a = evaluate(result.model, recs, TABLE, 4)
        b = evaluate(loaded, recs, TABLE, 4)
        assert a.mae == b.mae and a.mse == b.mse
