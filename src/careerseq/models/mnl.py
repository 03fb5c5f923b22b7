"""Multinomial logistic regression over hand-built or embedding features.

The featurizer turns (history, t) into a fixed-length vector; the model
softmaxes one coefficient row per occupation on top (its loss is
:func:`autograd.cross_entropy` plus L2). With previous-occupation one-hot
features and no regularization, the maximum-likelihood solution reproduces
normalized empirical transition frequencies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from ..autograd import cross_entropy, softmax_np
from ..corpus import EDUCATIONS, ETHNICITIES, GENDERS, REGIONS, CareerHistory
from ..taxonomy import OccupationTaxonomy
from .checkpoint import config_of, load_checkpoint, save_checkpoint


class Featurizer:
    name: str = "base"
    dim: int = 0

    def transform(self, history: CareerHistory, t: int) -> np.ndarray:
        raise NotImplementedError


class PrevOccupationFeaturizer(Featurizer):
    """One-hot of the previous occupation, with a slot for the null state at t=1."""

    name = "prev_onehot"

    def __init__(self, taxonomy: OccupationTaxonomy):
        self.taxonomy = taxonomy
        self.dim = taxonomy.size + 1

    def transform(self, history: CareerHistory, t: int) -> np.ndarray:
        x = np.zeros(self.dim)
        if t == 1:
            x[-1] = 1.0
        else:
            x[self.taxonomy.index_of(history.records[t - 2].occupation)] = 1.0
        return x


class PrevCovariatesFeaturizer(Featurizer):
    """Previous-occupation one-hot plus static covariates, education, and a
    scaled calendar-year column."""

    name = "prev_covariates"

    def __init__(self, taxonomy: OccupationTaxonomy, year_range: tuple[int, int] = (1979, 2022)):
        self.taxonomy = taxonomy
        self.year_range = year_range
        self.dim = (taxonomy.size + 1) + len(GENDERS) + len(ETHNICITIES) + len(REGIONS) + len(EDUCATIONS) + 1

    def transform(self, history: CareerHistory, t: int) -> np.ndarray:
        k = self.taxonomy.size
        x = np.zeros(self.dim)
        if t == 1:
            x[k] = 1.0
        else:
            x[self.taxonomy.index_of(history.records[t - 2].occupation)] = 1.0
        off = k + 1
        x[off + GENDERS.index(history.static.gender)] = 1.0
        off += len(GENDERS)
        x[off + ETHNICITIES.index(history.static.ethnicity)] = 1.0
        off += len(ETHNICITIES)
        x[off + REGIONS.index(history.static.region)] = 1.0
        off += len(REGIONS)
        rec = history.records[t - 1]
        x[off + EDUCATIONS.index(rec.education)] = 1.0
        off += len(EDUCATIONS)
        y0, y1 = self.year_range
        x[off] = (rec.year - y0) / max(y1 - y0, 1)
        return x


class EmbeddingFeaturizer(Featurizer):
    """Wraps an external embedding function (e.g. a language model's final
    hidden state over the rendered prompt)."""

    name = "embedding"

    def __init__(self, fn: Callable[[CareerHistory, int], np.ndarray], dim: int, add_intercept: bool = True):
        self.fn = fn
        self.add_intercept = add_intercept
        self.dim = dim + (1 if add_intercept else 0)

    def transform(self, history: CareerHistory, t: int) -> np.ndarray:
        v = np.asarray(self.fn(history, t), dtype=np.float64)
        if self.add_intercept:
            v = np.concatenate([v, [1.0]])
        return v


@dataclass
class MnlFitConfig:
    lr: float = 0.1
    max_iters: int = 2000
    tol: float = 1e-7  # on gradient max-norm
    seed: int = 0


@dataclass(frozen=True)
class MnlConfig:
    taxonomy_size: int
    featurizer: str
    feature_dim: int
    reg: float


class MnlModel:
    def __init__(self, featurizer: Featurizer, taxonomy: OccupationTaxonomy, reg: float = 0.0):
        self.featurizer = featurizer
        self.taxonomy = taxonomy
        self.reg = reg
        self.params = {"weights": np.zeros((featurizer.dim, taxonomy.size))}

    @property
    def weights(self) -> np.ndarray:
        return self.params["weights"]

    @weights.setter
    def weights(self, value: np.ndarray) -> None:
        self.params["weights"] = value

    # -------------------------------------------------------------- fitting

    def design_matrix(self, histories: Sequence[CareerHistory]) -> tuple[np.ndarray, np.ndarray]:
        rows, ys = [], []
        for h in histories:
            for t in range(1, len(h) + 1):
                rows.append(self.featurizer.transform(h, t))
                ys.append(self.taxonomy.index_of(h.records[t - 1].occupation))
        return np.asarray(rows), np.asarray(ys, dtype=np.int64)

    def loss_and_grads(self, batch: tuple[np.ndarray, np.ndarray]) -> tuple[float, dict[str, np.ndarray]]:
        x, y = batch
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite features")
        lp, g_logits = cross_entropy(x @ self.weights, y)
        loss = -lp.mean() + 0.5 * self.reg * float((self.weights**2).sum())
        grad = x.T @ g_logits / -x.shape[0] + self.reg * self.weights
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError("non-finite gradient in MNL fit")
        return float(loss), {"weights": grad}

    def loss(self, batch) -> float:
        return self.loss_and_grads(batch)[0]

    def fit(self, histories: Sequence[CareerHistory], cfg: MnlFitConfig = MnlFitConfig()) -> "MnlModel":
        from ..training import AdamState  # local import to avoid a cycle

        if not histories:
            raise ValueError("empty training split")
        x, y = self.design_matrix(histories)
        adam = AdamState(like=self.params)
        for step in range(1, cfg.max_iters + 1):
            _, grads = self.loss_and_grads((x, y))
            if np.abs(grads["weights"]).max() < cfg.tol:
                break
            adam.update(self.params, grads, lr=cfg.lr, betas=(0.9, 0.999), weight_decay=0.0, step=step)
        return self

    # ------------------------------------------------------------ predicting

    def predict(self, history: CareerHistory, t: int) -> np.ndarray:
        return softmax_np(self.featurizer.transform(history, t) @ self.weights)

    # ------------------------------------------------------------------- IO

    def save(self, path) -> None:
        save_checkpoint(
            path,
            kind="mnl",
            params={"weights": self.weights.astype(np.float32)},
            config=asdict(MnlConfig(self.taxonomy.size, self.featurizer.name, self.featurizer.dim, self.reg)),
        )

    @classmethod
    def load(cls, path, featurizer: Featurizer, taxonomy: OccupationTaxonomy) -> "MnlModel":
        return cls.from_checkpoint(load_checkpoint(path), path, featurizer, taxonomy)

    @classmethod
    def from_checkpoint(cls, checkpoint: tuple, path, featurizer: Featurizer, taxonomy: OccupationTaxonomy) -> "MnlModel":
        """The model in ``checkpoint``, which ``load_checkpoint(path)`` returned."""
        kind, params, config = checkpoint
        if kind != "mnl":
            raise ValueError(f"checkpoint kind {kind!r} is not an MNL model")
        cfg = config_of(MnlConfig, config, path)
        if cfg.featurizer != featurizer.name or cfg.feature_dim != featurizer.dim:
            raise ValueError("featurizer mismatch with checkpoint")
        model = cls(featurizer, taxonomy, reg=cfg.reg)
        model.weights = params["weights"].astype(np.float64)
        return model
