"""Optimization: Adam with decoupled weight decay, warmup and decay
schedules, one seeded epoch loop shared by the token LM and the career model,
validation-based checkpoint selection, and finite-difference gradient checks.

Training is bit-deterministic for a fixed seed and BLAS thread count (the
CLI pins one thread): the shuffle order of epoch ``e`` derives from (seed,
e), so reruns retrace the same batches and produce identical weights.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import CareerHistory
from .models.career import CareerModel
from .models.token_lm import TokenLM, collate_token_batch
from .tokenizer import Vocabulary


class TrainingDivergedError(RuntimeError):
    pass


def derive_seed(root: int, *parts) -> int:
    """Stable 63-bit seed from a root seed and context labels."""
    text = ":".join([str(root)] + [str(p) for p in parts])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


# --------------------------------------------------------------------------
# Optimizers and schedules
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LrSchedule:
    kind: str = "constant"  # constant | inverse_sqrt_warmup | linear_decay
    peak: float = 1e-3
    warmup_steps: int = 1
    init: float = 0.0

    def lr_at(self, step: int, total_steps: int) -> float:
        if self.kind == "constant":
            return self.peak
        if self.kind == "inverse_sqrt_warmup":
            if step <= self.warmup_steps:
                frac = step / max(self.warmup_steps, 1)
                return self.init + (self.peak - self.init) * frac
            return self.peak * (self.warmup_steps / step) ** 0.5
        if self.kind == "linear_decay":
            frac = min(step / max(total_steps, 1), 1.0)
            return self.peak * (1.0 - frac)
        raise ValueError(f"unknown schedule {self.kind!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    betas: tuple[float, float] = (0.9, 0.98)
    weight_decay: float = 0.0
    lr_schedule: LrSchedule = LrSchedule(kind="linear_decay", peak=1e-3)
    batch_sequences: int = 32
    max_epochs: int = 5
    seed: int = 0
    patience: Optional[int] = None  # early stop on validation loss

    def __post_init__(self):
        b1, b2 = self.betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.lr_schedule.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")


class AdamState:
    """Adam with bias correction and decoupled weight decay; moments are kept
    in float64 regardless of parameter storage dtype."""

    EPS = 1e-8

    def __init__(self, like: dict[str, np.ndarray]):
        self.m = {k: np.zeros(v.shape) for k, v in like.items()}
        self.v = {k: np.zeros(v.shape) for k, v in like.items()}

    def update(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        lr: float,
        betas: tuple[float, float],
        weight_decay: float,
        step: int,
    ) -> None:
        b1, b2 = betas
        for name in sorted(grads):
            g = np.asarray(grads[name], dtype=np.float64)
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            mhat = self.m[name] / (1.0 - b1**step)
            vhat = self.v[name] / (1.0 - b2**step)
            p = params[name]
            new = p.astype(np.float64) - lr * (mhat / (np.sqrt(vhat) + self.EPS) + weight_decay * p.astype(np.float64))
            params[name] = new.astype(p.dtype)


# --------------------------------------------------------------------------
# Reports and checkpoint selection
# --------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    valid_loss: float
    checkpoint_id: str


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "valid_loss", "checkpoint_id"])
            for r in self.epochs:
                writer.writerow([r.epoch, repr(r.train_loss), repr(r.valid_loss), r.checkpoint_id])

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([r.__dict__ for r in self.epochs], fh, indent=2)


def select_checkpoint(report: TrainReport) -> str:
    """Checkpoint id with the lowest validation loss; ties go to the earliest
    epoch. Pure function of the recorded values."""
    if not report.epochs:
        raise ValueError("report has no epochs")
    best = min(report.epochs, key=lambda r: (r.valid_loss, r.epoch))
    return best.checkpoint_id


# --------------------------------------------------------------------------
# The epoch loop
# --------------------------------------------------------------------------


def _check_finite(loss: float, epoch: int, step: int) -> None:
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"loss became {loss} at epoch {epoch} step {step}")


def _epochs_since_best(report: TrainReport) -> int:
    losses = [r.valid_loss for r in report.epochs]
    return len(losses) - 1 - int(np.argmin(losses))


def _fit(model, train: Sequence, batch_of: Callable, cfg: OptimizerConfig, valid_loss: Optional[Callable] = None):
    """Seeded Adam epochs over ``train``, batched by ``batch_of``. With
    ``valid_loss`` every epoch is scored and snapshotted, patience applies, and
    the model ends at the best snapshot; without it (pre-training) nothing is
    recorded. Returns the report and the snapshots keyed by checkpoint id."""
    opt = AdamState(model.params)
    n = len(train)
    steps_per_epoch = -(-n // cfg.batch_sequences)
    total_steps = steps_per_epoch * cfg.max_epochs
    report = TrainReport()
    snapshots: dict[str, dict[str, np.ndarray]] = {}
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = np.random.default_rng(derive_seed(cfg.seed, "shuffle", epoch)).permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_sequences):
            batch = batch_of([train[i] for i in order[start : start + cfg.batch_sequences]])
            loss, grads = model.loss_and_grads(batch)
            step += 1
            _check_finite(loss, epoch, step)
            opt.update(model.params, grads, cfg.lr_schedule.lr_at(step, total_steps), cfg.betas, cfg.weight_decay, step)
            losses.append(loss)
        if valid_loss is None:
            continue
        ckpt_id = f"epoch-{epoch}"
        report.epochs.append(EpochRecord(epoch, float(np.mean(losses)), valid_loss(), ckpt_id))
        snapshots[ckpt_id] = {k: v.copy() for k, v in model.params.items()}
        if cfg.patience is not None and _epochs_since_best(report) >= cfg.patience:
            break
    if report.epochs:
        model.params = {k: v.copy() for k, v in snapshots[select_checkpoint(report)].items()}
    return report, snapshots


def _mean_loss(model, items: Sequence, batch_sequences: int, batch_of: Callable, weights: str) -> float:
    """Per-target mean: batch losses weighted by their ``batch[weights]`` counts."""
    total, count = 0.0, 0.0
    for start in range(0, len(items), batch_sequences):
        batch = batch_of(list(items[start : start + batch_sequences]))
        n = batch[weights].sum()
        total += model.loss(batch) * n
        count += n
    return float(total / count)


# --------------------------------------------------------------------------
# Token-LM training
# --------------------------------------------------------------------------


def train_token_lm(
    model: TokenLM,
    vocab: Vocabulary,
    train_texts: Sequence[str],
    valid_texts: Sequence[str],
    cfg: OptimizerConfig = OptimizerConfig(lr_schedule=LrSchedule(kind="linear_decay", peak=1e-3)),
) -> tuple[TrainReport, dict[str, dict[str, np.ndarray]]]:
    """Next-token cross-entropy over every token of every template.

    Sequences get BOS prepended and EOS appended; shuffling reseeds per
    epoch from (seed, epoch). A parameter snapshot is taken after each epoch
    and the model is left at the snapshot with the lowest validation loss.
    Returns the report and the snapshots keyed by checkpoint id.
    """
    if not train_texts or not valid_texts:
        raise ValueError("training and validation corpora must be non-empty")
    train_seqs = [[vocab.bos_id] + ids + [vocab.eos_id] for ids in vocab.encode_batch(list(train_texts))]
    valid_seqs = [[vocab.bos_id] + ids + [vocab.eos_id] for ids in vocab.encode_batch(list(valid_texts))]
    longest = max(len(s) for s in train_seqs + valid_seqs)
    if longest > model.config.context:
        raise ValueError(f"a template spans {longest} tokens, over the {model.config.context} context cap")
    valid_loss = partial(evaluate_token_loss, model, vocab, valid_seqs, cfg.batch_sequences)
    return _fit(model, train_seqs, partial(collate_token_batch, pad_id=vocab.eos_id), cfg, valid_loss)


def evaluate_token_loss(model: TokenLM, vocab: Vocabulary, seqs: Sequence[list[int]], batch_sequences: int) -> float:
    return _mean_loss(model, seqs, batch_sequences, partial(collate_token_batch, pad_id=vocab.eos_id), "mask")


# --------------------------------------------------------------------------
# Career-model training
# --------------------------------------------------------------------------


PRETRAIN_SCHEDULE = LrSchedule(kind="inverse_sqrt_warmup", peak=5e-4, warmup_steps=4000, init=1e-7)


def train_career(
    model: CareerModel,
    train: Sequence[CareerHistory],
    valid: Sequence[CareerHistory],
    pretrain: Optional[Sequence[CareerHistory]] = None,
    cfg: OptimizerConfig = OptimizerConfig(
        lr_schedule=LrSchedule(kind="inverse_sqrt_warmup", peak=1e-3, warmup_steps=100, init=1e-7),
        patience=3,
    ),
    pretrain_cfg: Optional[OptimizerConfig] = None,
) -> TrainReport:
    """Two-phase training: optional pre-training on a large split with the
    warmup schedule, then fine-tuning with per-epoch validation, patience
    early stopping, and best-checkpoint restoration. Histories are encoded once."""
    if not train or not valid:
        raise ValueError("training and validation splits must be non-empty")
    if pretrain:
        pcfg = pretrain_cfg or OptimizerConfig(
            lr_schedule=PRETRAIN_SCHEDULE, max_epochs=3, weight_decay=0.01, seed=cfg.seed
        )
        _fit(model, [model.encode(h) for h in pretrain], model.stack, pcfg)
    valid_loss = partial(evaluate_career_loss, model, valid, cfg.batch_sequences)
    return _fit(model, [model.encode(h) for h in train], model.stack, cfg, valid_loss)[0]


def evaluate_career_loss(model: CareerModel, histories: Sequence[CareerHistory], batch_sequences: int) -> float:
    return _mean_loss(model, histories, batch_sequences, model.build_batch, "valid")


# --------------------------------------------------------------------------
# Gradient checking
# --------------------------------------------------------------------------


def gradient_check(model, batch, epsilon: float = 1e-6, n_samples: int = 50, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central finite
    differences over a random sample of parameter coordinates.

    The model must hold float64 parameters (use ``model.astype(np.float64)``),
    otherwise the epsilon perturbation drowns in storage rounding. The
    denominator is floored at 1e-4: on coordinates whose true gradient is
    near zero, the difference quotient bottoms out at roundoff (about
    |loss| * 1e-16 / epsilon), which says nothing about the analytic path.
    """
    params = model.params
    for name, arr in params.items():
        if arr.dtype != np.float64:
            raise ValueError(f"parameter {name} is {arr.dtype}; gradient checks need float64 storage")
    _, grads = model.loss_and_grads(batch)
    names = sorted(grads)
    sizes = np.array([params[n].size for n in names], dtype=np.float64)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        name = names[int(rng.choice(len(names), p=sizes / sizes.sum()))]
        flat = int(rng.integers(params[name].size))
        orig = params[name].flat[flat]
        params[name].flat[flat] = orig + epsilon
        up = model.loss(batch)
        params[name].flat[flat] = orig - epsilon
        down = model.loss(batch)
        params[name].flat[flat] = orig
        numeric = (up - down) / (2.0 * epsilon)
        analytic = float(np.asarray(grads[name]).flat[flat])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)
        worst = max(worst, rel)
    return worst
