"""Training loop, optimizer, schedule, metrics, and dataset splitting.

Runs are deterministic down to the byte: model init and epoch shuffling use
independent seeded streams spawned from the config seed, batches keep their
slice order (the last partial batch included), and the optimizer touches
parameters in declared order.  Two runs with the same config, data, and
thread settings produce identical histories and checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor
from .complexes import QuotientComplex, build_complex
from .features import AtomFeatureTable, FeatureSet, raw_features
from .model import ModelConfig, SimplexTransformer, batch_loss, \
    load_checkpoint, loss_and_gradients, predict, save_checkpoint
from .periodic import neighbor_list
from .structures import CrystalStructure, DatasetRecord


# One-cycle schedule: the warmup share of the steps, and the start and end
# learning rates as fractions of the peak.
WARMUP_FRAC = 0.3
DIV_FACTOR = 25.0
FINAL_DIV_FACTOR = 1e4

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteLossError(ArithmeticError):
    """Loss left the reals; names the epoch and batch where it happened."""


class TooFewSamplesError(ValueError):
    """Not enough samples for the requested operation."""


@dataclass
class TrainConfig:
    """Hyperparameters of one run.  ``epochs = 0`` means no optimizer steps
    (useful to round-trip a checkpoint through the finetune path)."""

    epochs: int = 500
    batch_size: int = 64
    peak_lr: float = 0.005
    weight_decay: float = 1e-5
    loss: str = "mae"
    k_neighbors: int = 12
    seed: int = 0
    hidden_dim: int = 64
    head_hidden: int = 64
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (self.peak_lr > 0 and math.isfinite(self.peak_lr)):
            raise ValueError("peak_lr must be positive and finite")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ValueError("weight_decay must be >= 0 and finite")
        if self.loss not in ("mae", "mse"):
            raise ValueError("loss must be 'mae' or 'mse'")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


def one_cycle_lr(step: int, total_steps: int, peak_lr: float) -> float:
    """Cosine warmup then cosine decay, exact at the anchor points.

    lr(0) = peak/DIV_FACTOR, lr(warmup) = peak (the boundary step belongs to
    the decay phase, whose cosine starts at exactly 1), and
    lr(total_steps - 1) = peak/FINAL_DIV_FACTOR.
    """
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    warm = int(WARMUP_FRAC * total_steps)
    if step < warm:
        lo = peak_lr / DIV_FACTOR
        frac = step / warm
        return lo + (peak_lr - lo) * (1.0 - math.cos(math.pi * frac)) / 2.0
    final = peak_lr / FINAL_DIV_FACTOR
    span = total_steps - warm - 1
    if span <= 0:
        return final
    frac = (step - warm) / span
    return final + (peak_lr - final) * (1.0 + math.cos(math.pi * frac)) / 2.0


class AdamW:
    """Adam with decoupled weight decay and bias correction.

    With zero gradients and zero decay a step is an exact no-op: the moment
    estimates stay zero and bias correction divides zero by a positive
    number.
    """

    def __init__(self, tensors: list[Tensor], weight_decay: float = 1e-5):
        self.tensors = tensors
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(t.data) for t in tensors]
        self.v = [np.zeros_like(t.data) for t in tensors]
        self.t = 0

    def step(self, lr: float, grads: list[np.ndarray]) -> None:
        """One update; ``grads`` align with the tensors given at init."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for i, (p, g) in enumerate(zip(self.tensors, grads, strict=True)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= lr * self.weight_decay * p.data
            p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- metrics ----------------------------------------------------------------

@dataclass
class MetricsReport:
    """Regression metrics; correlation fields are None (status explains why)
    instead of NaN when a variance vanishes."""

    n: int
    mae: float
    mse: float
    rmse: float
    mad: float
    cod: float | None
    pcc: float | None
    mad_mae_ratio: float | None
    status: str

    def to_dict(self) -> dict:
        return asdict(self)


def metrics_report(y_true: np.ndarray, y_pred: np.ndarray) -> MetricsReport:
    y = np.asarray(y_true, dtype=np.float64).ravel()
    p = np.asarray(y_pred, dtype=np.float64).ravel()
    if y.size == 0 or y.shape != p.shape:
        raise TooFewSamplesError("need equally many targets and predictions, "
                                 "at least one each")
    err = p - y
    mae = float(np.mean(np.abs(err)))
    mse = float(np.mean(err * err))
    rmse = float(np.sqrt(mse))
    ybar = float(np.mean(y))
    mad = float(np.mean(np.abs(y - ybar)))
    ss_tot = float(np.sum((y - ybar) ** 2))
    ss_res = float(np.sum(err * err))
    if ss_tot == 0.0:
        status, cod, pcc = "zero_variance", None, None
    else:
        status = "ok"
        cod = 1.0 - ss_res / ss_tot
        pvar = float(np.sum((p - np.mean(p)) ** 2))
        if pvar == 0.0:
            pcc = None
        else:
            cov = float(np.sum((y - ybar) * (p - np.mean(p))))
            pcc = cov / math.sqrt(ss_tot * pvar)
    ratio = (mad / mae) if mae > 0.0 else None
    return MetricsReport(n=int(y.size), mae=mae, mse=mse, rmse=rmse, mad=mad,
                         cod=cod, pcc=pcc, mad_mae_ratio=ratio, status=status)


def kfold_split(n_samples: int, folds: int,
                seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded disjoint (train, test) index folds with sizes differing by <= 1."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n_samples < folds:
        raise TooFewSamplesError(
            f"{n_samples} samples cannot fill {folds} folds")
    perm = np.random.default_rng(seed).permutation(n_samples)
    parts = np.array_split(perm, folds)
    out = []
    for i in range(folds):
        train_idx = np.concatenate(parts[:i] + parts[i + 1:])
        out.append((train_idx, parts[i]))
    return out


# -- data preparation -------------------------------------------------------

def prepare_items(records: list[DatasetRecord], table: AtomFeatureTable,
                  k_neighbors: int) -> list[tuple[QuotientComplex, FeatureSet]]:
    """Build the complex and raw features of every record once."""
    items = []
    for r in records:
        c = build_complex(neighbor_list(r.structure, k=k_neighbors))
        items.append((c, raw_features(c, r.structure.species, table)))
    return items


@dataclass
class TrainResult:
    model: SimplexTransformer
    history: list[dict]
    best_epoch: int | None = None


def train(config: TrainConfig, train_records: list[DatasetRecord],
          val_records: list[DatasetRecord] = (),
          table: AtomFeatureTable | None = None,
          initial_model: SimplexTransformer | None = None) -> TrainResult:
    """Train, tracking the best model by validation loss.

    Without a validation set the training loss selects the best epoch.  The
    best state is kept in memory and the returned model carries it.  With
    ``config.checkpoint_path`` set, the returned model is written there
    once, after the last epoch and after a forward-only pass over the
    training items, so a model that pass rejects (NonFiniteActivationError)
    is never written; a run that raises writes nothing.
    ``initial_model`` is cloned, so finetuning from a checkpoint equals
    training from scratch with identical weights: the shuffle stream does
    not depend on whether init consumed randomness.
    """
    if table is None:
        raise ValueError("an atom feature table is required")
    if not train_records:
        raise TooFewSamplesError("training set is empty")
    seq = np.random.SeedSequence(config.seed)
    init_seed, shuffle_seed = seq.spawn(2)
    if initial_model is None:
        model = SimplexTransformer.init(
            ModelConfig(config.hidden_dim, config.head_hidden), seed=init_seed)
    else:
        model = initial_model.clone()
    shuffle_rng = np.random.default_rng(shuffle_seed)

    items = prepare_items(train_records, table, config.k_neighbors)
    targets = np.array([r.target for r in train_records], dtype=np.float64)
    val_items = prepare_items(list(val_records), table, config.k_neighbors)
    val_targets = np.array([r.target for r in val_records], dtype=np.float64)

    opt = AdamW([t for _, t in model.parameters()],
                weight_decay=config.weight_decay)
    n = len(items)
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    history: list[dict] = []
    best_loss = math.inf
    best_epoch: int | None = None
    best = model.clone()
    global_step = 0
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        lr = None
        for b in range(steps_per_epoch):
            idx = perm[b * config.batch_size:(b + 1) * config.batch_size]
            batch = [items[i] for i in idx]
            # A diverging step overflows; the loss check below names the
            # epoch and batch, so numpy's warnings would only repeat it.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_gradients(model, batch, targets[idx],
                                                 config.loss)
                if not math.isfinite(loss):
                    raise NonFiniteLossError(
                        f"loss became {loss} at epoch {epoch}, batch {b}")
                lr = one_cycle_lr(global_step, total_steps, config.peak_lr)
                opt.step(lr, grads)
            loss_sum += loss * len(idx)
            global_step += 1
        train_loss = loss_sum / n
        val_loss = None
        if val_items:
            val_loss = batch_loss(model, val_items, val_targets, config.loss)
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_loss": val_loss, "lr": lr})
        selection = val_loss if val_loss is not None else train_loss
        if selection < best_loss:
            best_loss = selection
            best_epoch = epoch
            best.copy_state_from(model)
    if best_epoch is not None:
        model.copy_state_from(best)
    if config.checkpoint_path:
        # A model whose forward overflows raises here, so no checkpoint
        # is written that every later evaluation would reject.
        predict(model, items)
        save_checkpoint(model, config.checkpoint_path)
    return TrainResult(model=model, history=history, best_epoch=best_epoch)


def evaluate(model: SimplexTransformer, records: list[DatasetRecord],
             table: AtomFeatureTable,
             k_neighbors: int = 12) -> MetricsReport:
    """Predictions (running statistics; the model is left unchanged) of a
    dataset scored against its targets."""
    if not records:
        raise TooFewSamplesError("dataset is empty")
    items = prepare_items(records, table, k_neighbors)
    preds = predict(model, items)
    targets = np.array([r.target for r in records], dtype=np.float64)
    return metrics_report(targets, preds)


def finetune(checkpoint_path: str, config: TrainConfig,
             train_records: list[DatasetRecord],
             val_records: list[DatasetRecord] = (),
             table: AtomFeatureTable | None = None) -> TrainResult:
    """Continue training from a checkpoint under a fresh schedule.

    The checkpoint must match the configured architecture.  With
    ``epochs = 0`` the loaded model is returned unchanged, and written once
    to ``config.checkpoint_path`` when that is set, as ``train`` does.
    """
    model = load_checkpoint(
        checkpoint_path, ModelConfig(config.hidden_dim, config.head_hidden))
    if config.epochs == 0:
        if config.checkpoint_path:
            save_checkpoint(model, config.checkpoint_path)
        return TrainResult(model=model, history=[], best_epoch=None)
    return train(config, train_records, val_records, table,
                 initial_model=model)


def synthetic_overfit_dataset(n_samples: int = 32,
                              seed: int = 7) -> list[DatasetRecord]:
    """Small structures whose target is the mean nearest-neighbor distance.

    Cells are mildly sheared boxes with edges in [1.8, 3.6] angstroms; one
    atom per cell, every fourth structure two atoms (kept at least 0.9 apart
    so distances stay in the informative range of the edge basis).  The
    target is readable from edge features, so a model must overfit it
    quickly on a fixed tiny set.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_samples):
        abc = rng.uniform(1.8, 3.6, 3)
        lat = np.diag(abc)
        lat[1, 0] = rng.uniform(-0.15, 0.15) * abc[0]
        lat[2, 0] = rng.uniform(-0.15, 0.15) * abc[0]
        lat[2, 1] = rng.uniform(-0.15, 0.15) * abc[1]
        n_atoms = 2 if i % 4 == 0 else 1
        species = rng.integers(1, 21, n_atoms)
        while True:
            frac = rng.uniform(0.0, 1.0, (n_atoms, 3))
            s = CrystalStructure(lat, species, frac, id=f"syn-{i:03d}")
            # Every lattice translation is at least 1.8 long (lower-
            # triangular rows, diagonal >= 1.8), so a nearest distance
            # below 0.9 can only be the pair of atoms.
            nearest = neighbor_list(s, k=1).dist
            if nearest.min() >= 0.9:
                break
        target = float(np.mean(nearest))
        records.append(DatasetRecord(structure=s, target=target))
    return records
