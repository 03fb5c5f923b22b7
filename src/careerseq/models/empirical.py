"""Empirical transition-frequency baseline.

Counts first-order transitions in the training split, with a virtual null
previous occupation for first observations. The as-written predictor is
(pair count + 1) / (source count + 1) per next occupation, which does not
normalize across occupations; rows sum to (count + |Y|) / (count + 1). The
``normalized`` variant divides by (count + |Y|) instead and is a proper
distribution.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ..corpus import CareerHistory
from ..taxonomy import OccupationTaxonomy
from .checkpoint import config_of, load_checkpoint, save_checkpoint


@dataclass(frozen=True)
class EmpiricalConfig:
    taxonomy_size: int
    normalized: bool


class EmpiricalModel:
    def __init__(self, taxonomy: OccupationTaxonomy, normalized: bool = False):
        self.taxonomy = taxonomy
        self.normalized = normalized
        k = taxonomy.size
        # row k is the null previous occupation used at t = 1
        self.count_pair = np.zeros((k + 1, k), dtype=np.int64)
        self.count_single = np.zeros(k + 1, dtype=np.int64)

    @property
    def null_index(self) -> int:
        return self.taxonomy.size

    def fit(self, train: Sequence[CareerHistory]) -> "EmpiricalModel":
        if not train:
            raise ValueError("empty training split")
        idx = self.taxonomy.index_of
        for h in train:
            prev = self.null_index
            for rec in h.records:
                cur = idx(rec.occupation)
                self.count_pair[prev, cur] += 1
                prev = cur
        self.count_single = self.count_pair.sum(axis=1)
        return self

    def _prev_index(self, history: CareerHistory, t: int) -> int:
        if t == 1:
            return self.null_index
        return self.taxonomy.index_of(history.records[t - 2].occupation)

    def predict(self, history: CareerHistory, t: int) -> np.ndarray:
        prev = self._prev_index(history, t)
        return self.row(prev)

    def row(self, prev_index: int) -> np.ndarray:
        numer = self.count_pair[prev_index] + 1.0
        if self.normalized:
            return numer / (self.count_single[prev_index] + self.taxonomy.size)
        return numer / (self.count_single[prev_index] + 1.0)

    # ------------------------------------------------------------------ IO

    def save(self, path) -> None:
        save_checkpoint(
            path,
            kind="empirical",
            params={"count_pair": self.count_pair.astype(np.float32)},
            config=asdict(EmpiricalConfig(self.taxonomy.size, self.normalized)),
        )

    @classmethod
    def load(cls, path, taxonomy: OccupationTaxonomy) -> "EmpiricalModel":
        return cls.from_checkpoint(load_checkpoint(path), path, taxonomy)

    @classmethod
    def from_checkpoint(cls, checkpoint: tuple, path, taxonomy: OccupationTaxonomy) -> "EmpiricalModel":
        """The model in ``checkpoint``, which ``load_checkpoint(path)`` returned."""
        kind, params, config = checkpoint
        if kind != "empirical":
            raise ValueError(f"checkpoint kind {kind!r} is not an empirical model")
        cfg = config_of(EmpiricalConfig, config, path)
        if cfg.taxonomy_size != taxonomy.size:
            raise ValueError("taxonomy size mismatch")
        model = cls(taxonomy, normalized=cfg.normalized)
        model.count_pair = np.rint(params["count_pair"]).astype(np.int64)
        model.count_single = model.count_pair.sum(axis=1)
        return model
