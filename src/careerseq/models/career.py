"""Occupation-sequence transformer with a two-stage stay/move head.

The first-layer state at transition t sums embeddings of the previous
occupation (a learned null embedding at t=1), static covariates, dynamic
covariates (education and calendar-year bucket of the record being
predicted), and the transition index, in one :func:`autograd.embed_sum`
node, over the index arrays that ``encode`` makes once per history and
``stack`` pads into a batch. Each subsequent layer applies bilinear attention
over positions t' <= t, a residual add, and a two-layer GELU feed-forward
that produces the next layer's state.

The head first gates stay vs move with a logistic score, then softmaxes
movers over every occupation except the previous one; the previous
occupation receives exactly the stay probability. At t=1 the gate is forced
open and the softmax runs over the whole taxonomy. Scoring and the loss, one
node over :func:`autograd.cross_entropy`, read the logits from ``_head_logits``.

Heads split the embedding channels; with one head the attention reduces to a
single bilinear form over the full state. The bilinear attention is
:func:`autograd.causal_attention` with queries ``h W`` and the state ``h`` as
both keys and values, unscaled.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .. import autograd as ag
from ..corpus import EDUCATIONS, ETHNICITIES, GENDERS, REGIONS, CareerHistory, n_year_buckets, year_bucket
from ..taxonomy import OccupationTaxonomy
from .checkpoint import config_of, load_checkpoint, save_checkpoint

_NEG = -1e30


@dataclass(frozen=True)
class CareerConfig:
    taxonomy_size: int
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 2
    d_ff: int = 256
    max_positions: int = 40
    year_range: tuple[int, int] = (1979, 2022)
    init_scale: float = 0.1


def paper_preset(taxonomy_size: int, year_range: tuple[int, int] = (1979, 2022)) -> CareerConfig:
    """Production-scale configuration (12 layers, 192 dims, 3 heads, 768 FFN)."""
    return CareerConfig(
        taxonomy_size=taxonomy_size,
        d_model=192,
        n_layers=12,
        n_heads=3,
        d_ff=768,
        max_positions=64,
        year_range=year_range,
    )


class CareerModel:
    def __init__(self, config: CareerConfig, taxonomy: OccupationTaxonomy, seed: int = 0, dtype=np.float32):
        if config.taxonomy_size != taxonomy.size:
            raise ValueError("config taxonomy_size differs from taxonomy")
        if config.d_model % config.n_heads:
            raise ValueError("d_model must divide evenly into heads")
        self.config = config
        self.taxonomy = taxonomy
        self.dtype = dtype
        c = config
        k = c.taxonomy_size
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA4EE4]))
        s = c.init_scale

        def normal(*shape, scale=s):
            return rng.normal(0.0, scale, size=shape).astype(dtype)

        p: dict[str, np.ndarray] = {
            "occ_emb": normal(k + 1, c.d_model),  # last row: null occupation at t=1
            "gender_emb": normal(len(GENDERS), c.d_model),
            "eth_emb": normal(len(ETHNICITIES), c.d_model),
            "region_emb": normal(len(REGIONS), c.d_model),
            "edu_emb": normal(len(EDUCATIONS), c.d_model),
            "year_emb": normal(n_year_buckets(c.year_range), c.d_model),
            "time_emb": normal(c.max_positions, c.d_model),
            "eta": np.zeros(c.d_model, dtype=dtype),
            "beta": normal(k, c.d_model, scale=0.02),
        }
        h = c.d_model // c.n_heads
        for i in range(c.n_layers):
            p[f"l{i}.w"] = normal(c.n_heads, h, h, scale=0.02)
            # each layer's state is the feed-forward OUTPUT (no outer
            # residual), so initialize the FFN near the identity: with
            # w1 @ w2 = 2I and gelu'(0) = 1/2, FFN(x) is approximately x at
            # small x, keeping early layers information-preserving
            if c.d_ff < c.d_model:
                raise ValueError("d_ff must be at least d_model")
            basis, _ = np.linalg.qr(rng.normal(size=(c.d_ff, c.d_model)))
            p[f"l{i}.w1"] = (basis.T + rng.normal(0.0, 0.02, size=(c.d_model, c.d_ff))).astype(dtype)
            p[f"l{i}.b1"] = np.zeros(c.d_ff, dtype=dtype)
            p[f"l{i}.w2"] = (2.0 * basis + rng.normal(0.0, 0.02, size=(c.d_ff, c.d_model))).astype(dtype)
            p[f"l{i}.b2"] = np.zeros(c.d_model, dtype=dtype)
        self.params = p

    def astype(self, dtype) -> "CareerModel":
        clone = CareerModel(self.config, self.taxonomy, seed=0, dtype=dtype)
        clone.params = {k: v.astype(dtype) for k, v in self.params.items()}
        return clone

    @property
    def null_index(self) -> int:
        return self.config.taxonomy_size

    # ------------------------------------------------------------- batching

    def encode(self, history: CareerHistory) -> dict:
        """Index arrays of one history: per transition the previous occupation
        (null at t = 1), target, education and year bucket; its static covariates."""
        recs = history.records
        target = np.array([self.taxonomy.index_of(r.occupation) for r in recs], dtype=np.int64)
        static = history.static
        return {
            "prev": np.append(self.null_index, target[:-1]),
            "target": target,
            "edu": np.array([EDUCATIONS.index(r.education) for r in recs], dtype=np.int64),
            "year_bucket": year_bucket(np.array([r.year for r in recs], dtype=np.int64), self.config.year_range),
            "gender": GENDERS.index(static.gender),
            "ethnicity": ETHNICITIES.index(static.ethnicity),
            "region": REGIONS.index(static.region),
        }

    def stack(self, encoded: Sequence[dict]) -> dict:
        """Pad encoded histories to the longest and stack them into the batch
        of the forward pass; ``valid`` marks the real transitions."""
        lengths = np.array([e["target"].size for e in encoded])
        t_max = int(lengths.max())
        if t_max > self.config.max_positions:
            raise ValueError(f"history length {t_max} exceeds positional table {self.config.max_positions}")
        real = np.arange(t_max) < lengths[:, None]
        batch = {}
        for key, pad in (("prev", self.null_index), ("target", 0), ("edu", 0), ("year_bucket", 0)):
            batch[key] = np.full(real.shape, pad, dtype=np.int64)
            batch[key][real] = np.concatenate([e[key] for e in encoded])
        batch["valid"] = real.astype(np.float64)
        for key in ("gender", "ethnicity", "region"):
            batch[key] = np.array([e[key] for e in encoded], dtype=np.int64)
        return batch

    def build_batch(self, histories: Sequence[CareerHistory]) -> dict:
        """Pack histories into padded index arrays for the forward pass."""
        return self.stack([self.encode(h) for h in histories])

    # -------------------------------------------------------------- forward

    def _forward_graph(self, batch: dict, train: bool, collect_att: Optional[list] = None):
        c = self.config
        prev = batch["prev"]
        b, t = prev.shape
        leaves = ag.leaves(self.params, train)
        x = ag.embed_sum([
            (leaves["occ_emb"], prev), (leaves["gender_emb"], batch["gender"][:, None]),
            (leaves["eth_emb"], batch["ethnicity"][:, None]), (leaves["region_emb"], batch["region"][:, None]),
            (leaves["edu_emb"], batch["edu"]), (leaves["year_emb"], batch["year_bucket"]), (leaves["time_emb"], np.arange(t)),
        ])
        h = c.d_model // c.n_heads
        for i in range(c.n_layers):
            hh = ag.transpose(ag.reshape(x, (b, t, c.n_heads, h)), (0, 2, 1, 3))
            q = ag.matmul(hh, leaves[f"l{i}.w"])  # h_t^T W applied per head slice
            ctx, att = ag.causal_attention(q, hh, hh)
            if collect_att is not None:
                collect_att.append(att)
            mixed = ag.add(x, ctx)
            x = ag.add(
                ag.matmul(ag.gelu(ag.add(ag.matmul(mixed, leaves[f"l{i}.w1"]), leaves[f"l{i}.b1"])), leaves[f"l{i}.w2"]),
                leaves[f"l{i}.b2"],
            )
        return x, leaves

    def forward_history(self, history: CareerHistory, t: int) -> np.ndarray:
        """Final-layer state h^(L) for transition ``t`` of one history."""
        if not (1 <= t <= len(history)):
            raise ValueError(f"transition index {t} out of range 1..{len(history)}")
        batch = self.build_batch([history])
        x, _ = self._forward_graph(batch, train=False)
        return x.data[0, t - 1].copy()

    def attention_maps(self, history: CareerHistory) -> list[np.ndarray]:
        """Per-layer attention weights (heads, T, T), rows summing to one."""
        maps: list[np.ndarray] = []
        self._forward_graph(self.build_batch([history]), train=False, collect_att=maps)
        return [m[0] for m in maps]

    # ------------------------------------------------------------ predicting

    def _head_logits(self, h: np.ndarray, beta: np.ndarray, eta: np.ndarray, prev: np.ndarray):
        """Occupation logits (n, K), with -1e30 at the previous occupation
        after t = 1, move logits (n,), and the mask of rows past t = 1."""
        occ_logits = h @ beta.T
        gated = prev != self.null_index
        occ_logits[gated, prev[gated]] = _NEG
        return occ_logits, h @ eta, gated

    def _two_stage_rows(self, h: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """Distributions for each row of ``h`` (n, d) given prev indices (n,)."""
        beta, eta = (self.params[k].astype(np.float64) for k in ("beta", "eta"))
        occ_logits, move_logit, gated = self._head_logits(h, beta, eta, prev)
        out = ag.softmax_np(occ_logits)
        p_move = 1.0 / (1.0 + np.exp(-move_logit[gated]))
        out[gated] *= p_move[:, None]
        out[gated, prev[gated]] = 1.0 - p_move
        return out

    def predict_all(self, history: CareerHistory) -> list[np.ndarray]:
        batch = self.build_batch([history])
        x, _ = self._forward_graph(batch, train=False)
        rows = self._two_stage_rows(x.data[0], batch["prev"][0])
        return [rows[j] for j in range(len(history))]

    def predict(self, history: CareerHistory, t: int) -> np.ndarray:
        if not (1 <= t <= len(history)):
            raise ValueError(f"transition index {t} out of range 1..{len(history)}")
        return self.predict_all(history)[t - 1]

    # ------------------------------------------------------------- training

    def _loss_graph(self, batch: dict, train: bool):
        x, leaves = self._forward_graph(batch, train=train)
        return self._head_nll(x, leaves["beta"], leaves["eta"], batch), leaves

    def _head_nll(self, x: ag.Tensor, beta: ag.Tensor, eta: ag.Tensor, batch: dict) -> ag.Tensor:
        """Mean NLL over the valid rows of ``x``, in one node: movers and t = 1
        read the occupation softmax; after t = 1 the gate is a two-class
        softmax over [0, x . eta], i.e. log sigma(-m) to stay, log sigma(m) to move."""
        rows = np.nonzero(batch["valid"])
        h = x.data[rows]
        prev, target = batch["prev"][rows], batch["target"][rows]
        occ_logits, move_logit, gated = self._head_logits(h, beta.data, eta.data, prev)
        moved = target != prev  # true at t = 1 too; a stay's target is the excluded class
        lp_occ, g_occ = ag.cross_entropy(occ_logits, target)
        lp_gate, g_gate = ag.cross_entropy(np.stack([np.zeros_like(move_logit), move_logit], axis=1), moved.astype(np.int64))
        g_occ[~moved] = 0.0
        g_move = np.where(gated, g_gate[:, 1], 0.0)
        n = h.shape[0]

        def backward(grad):
            scale = grad * (-1.0 / n)
            g = np.zeros_like(x.data)  # training: x, beta and eta all take gradients
            g[rows] = (g_occ @ beta.data + g_move[:, None] * eta.data) * scale
            x._accumulate(g)
            beta._accumulate(g_occ.T @ h * scale)
            eta._accumulate(g_move @ h * scale)

        return ag._node((lp_occ[moved].sum() + lp_gate[gated].sum()) * (-1.0 / n), (x, beta, eta), backward)

    def loss_and_grads(self, batch: dict) -> tuple[float, dict[str, np.ndarray]]:
        loss_t, leaves = self._loss_graph(batch, train=True)
        loss_t.backward()
        grads = {k: leaf.grad for k, leaf in leaves.items() if leaf.grad is not None}
        return float(loss_t.data), grads

    def loss(self, batch: dict) -> float:
        loss_t, _ = self._loss_graph(batch, train=False)
        return float(loss_t.data)

    # ------------------------------------------------------------------- IO

    def save(self, path, extras: Optional[dict] = None) -> None:
        cfg = asdict(self.config)
        cfg["year_range"] = list(self.config.year_range)
        save_checkpoint(path, kind="career", params=self.params, config=cfg, extras=extras)

    @classmethod
    def load(cls, path, taxonomy: OccupationTaxonomy) -> "CareerModel":
        return cls.from_checkpoint(load_checkpoint(path), path, taxonomy)

    @classmethod
    def from_checkpoint(cls, checkpoint: tuple, path, taxonomy: OccupationTaxonomy) -> "CareerModel":
        """The model in ``checkpoint``, which ``load_checkpoint(path)`` returned."""
        kind, params, config = checkpoint
        if kind != "career":
            raise ValueError(f"checkpoint kind {kind!r} is not a career model")
        if "year_range" in config:
            config = {**config, "year_range": tuple(config["year_range"])}
        model = cls(config_of(CareerConfig, config, path), taxonomy, seed=0)
        model.params = {k: v.astype(np.float32) for k, v in params.items()}
        return model
