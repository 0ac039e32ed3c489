"""Training loop, optimizer, schedule, and metrics.

Runs are deterministic down to the byte: model init and epoch shuffling use
independent seeded streams spawned from the config seed, batches keep their
slice order (the last partial batch included), and the optimizer updates
each element of the model's state array by the same formula whatever chunk
it falls in.  Two runs with the same config, data, and thread settings
produce identical histories and checkpoints.

``AdamW`` works on the parameter part of ``SimplexTransformer.state()`` and
the model's gradient array ``grad``, both flat, in chunks of ``ADAM_CHUNK``
elements, and ``train`` keeps its best epoch as a copy of the state array.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

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
    """Hyperparameters of one run.  ``epochs = 0`` means no optimizer steps:
    the run only scores (and writes) its initial model."""

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


# Elements per chunk of an AdamW step.  A chunk's parameter, gradient and
# moment slices and its temporaries, 128 KiB each, stay in a 2 MiB L2 cache.
# One step over the 654,337 parameters at hidden 64 (2-vCPU Xeon, one
# thread, CPU time, median of 7 rounds of 40 steps, two interleaved runs)
# took 7.4-8.7 ms at 4,096, 6.3-6.9 ms at 8,192, 5.6-5.9 ms at 16,384,
# 5.5-6.3 ms at 32,768 and 65,536, and 6.4-7.0 ms at 131,072; the loop over
# per-tensor arrays it replaced took 8.1-10.1 ms.  Whole-state temporaries
# (5.2 MB each) made train() slower.
ADAM_CHUNK = 16384


class AdamW:
    """Adam with decoupled weight decay and bias correction, over one flat
    float64 array (a model's parameter state) updated in place.

    A step runs the update on ``ADAM_CHUNK`` elements at a time, so no
    temporary spans the whole state.  With zero gradients and zero decay a
    step is an exact no-op: the moment estimates stay zero and bias
    correction divides zero by a positive number.
    """

    def __init__(self, params: np.ndarray, weight_decay: float = 1e-5):
        self.params = params
        self.weight_decay = weight_decay
        self.m, self.v = np.zeros((2, params.size))
        self.t = 0

    def step(self, lr: float, grad: np.ndarray) -> None:
        """One update; ``grad`` has the layout of the params given at init."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for lo in range(0, self.params.size, ADAM_CHUNK):
            p, g, m, v = (a[lo:lo + ADAM_CHUNK]
                          for a in (self.params, grad, self.m, self.v))
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p -= lr * self.weight_decay * p
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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
    """The trained model, one history row per epoch, and the model's
    metrics on the training and validation records (None without a
    validation set), from the forward-only pass that ends every run."""

    model: SimplexTransformer
    history: list[dict]
    best_epoch: int | None
    train_metrics: MetricsReport
    val_metrics: MetricsReport | None


def train(config: TrainConfig, train_records: list[DatasetRecord],
          val_records: list[DatasetRecord] = (),
          table: AtomFeatureTable | None = None,
          initial_model: SimplexTransformer | None = None) -> TrainResult:
    """Train, tracking the best model by validation loss.

    Without a validation set the training loss selects the best epoch.  The
    best epoch's state array is kept in memory as a copy and the returned
    model carries it.  Every
    run ends with a forward-only pass over the training and validation
    items, which scores the returned model; a model that pass rejects
    (NonFiniteActivationError) raises there.  With
    ``config.checkpoint_path`` set, the returned model is written there
    once, after that pass, so a run that raises writes nothing.
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

    opt = AdamW(model.state()[:model.n_parameters()], config.weight_decay)
    n = len(items)
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    history: list[dict] = []
    best_loss = math.inf
    best_epoch: int | None = None
    best = np.empty_like(model.state())
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
                loss, _ = loss_and_gradients(model, batch, targets[idx],
                                             config.loss)
                if not math.isfinite(loss):
                    raise NonFiniteLossError(
                        f"loss became {loss} at epoch {epoch}, batch {b}")
                lr = one_cycle_lr(global_step, total_steps, config.peak_lr)
                opt.step(lr, model.grad)
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
            best[...] = model.state()
    if best_epoch is not None:
        model.load_state(best)
    # A model whose forward overflows raises here, so no checkpoint is
    # written that every later evaluation would reject.
    train_metrics = metrics_report(targets, predict(model, items))
    val_metrics = (metrics_report(val_targets, predict(model, val_items))
                   if val_items else None)
    if config.checkpoint_path:
        save_checkpoint(model, config.checkpoint_path)
    return TrainResult(model, history, best_epoch, train_metrics, val_metrics)


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
    """``train`` from a checkpoint under a fresh schedule.

    The checkpoint must match the configured architecture.  With
    ``epochs = 0`` the loaded model is scored and returned unchanged.
    """
    model = load_checkpoint(
        checkpoint_path, ModelConfig(config.hidden_dim, config.head_hidden))
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
