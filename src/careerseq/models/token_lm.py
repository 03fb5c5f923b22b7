"""Decoder-only transformer language model over the byte-merge vocabulary.

Pre-norm blocks (causal multi-head attention, then a GELU feed-forward),
learned positional embeddings, and a zero-initialized output projection so a
fresh model predicts the uniform distribution. Parameters are stored in
float32 (the checkpoint tensor format); all computation runs in float64, so
scoring is a deterministic function of the stored parameters and
save/load/score round-trips bit-exactly.

``forward`` also takes the per-layer keys and values of a prefix it has
already run (``past``) and returns the keys and values it attended over, so
a shared prompt runs once and its continuations run against the cache (the
key/value cache of Pope et al., arXiv:2211.05102). A batch-1 prefix is
shared by every row of the new tokens, which take the positions after it.
Training never passes ``past``. ``batched_log_probs`` scores titles this
way; ``next_token_distribution`` and ``sequence_log_probs`` run the whole
sequence and stay the uncached references.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .. import autograd as ag
from ..tokenizer import Vocabulary
from .checkpoint import load_checkpoint, save_checkpoint


class ContextOverflowError(ValueError):
    pass


# Per-layer (keys, values) of a prefix, each (batch, n_heads, positions, d_head).
KeysValues = list[tuple[np.ndarray, np.ndarray]]


def _after(cached: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``new`` keys or values appended to a cached prefix along the position
    axis; a batch-1 prefix is shared by every row of ``new``."""
    return np.concatenate([np.broadcast_to(cached, new.shape[:2] + cached.shape[2:]), new], axis=2)


@dataclass(frozen=True)
class TokenLmConfig:
    vocab_size: int
    d_model: int = 128
    n_layers: int = 4
    n_heads: int = 4
    context: int = 512
    init_scale: float = 0.02


class TokenLM:
    def __init__(self, config: TokenLmConfig, seed: int = 0, dtype=np.float32):
        if config.d_model % config.n_heads:
            raise ValueError("d_model must divide evenly into heads")
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x70CE]))
        c = config
        s = c.init_scale

        def normal(*shape):
            return rng.normal(0.0, s, size=shape).astype(dtype)

        p: dict[str, np.ndarray] = {
            "tok_emb": normal(c.vocab_size, c.d_model),
            "pos_emb": normal(c.context, c.d_model),
            "ln_f_g": np.ones(c.d_model, dtype=dtype),
            "ln_f_b": np.zeros(c.d_model, dtype=dtype),
            "w_out": np.zeros((c.d_model, c.vocab_size), dtype=dtype),
        }
        for i in range(c.n_layers):
            p[f"l{i}.ln1_g"] = np.ones(c.d_model, dtype=dtype)
            p[f"l{i}.ln1_b"] = np.zeros(c.d_model, dtype=dtype)
            p[f"l{i}.wq"] = normal(c.d_model, c.d_model)
            p[f"l{i}.wk"] = normal(c.d_model, c.d_model)
            p[f"l{i}.wv"] = normal(c.d_model, c.d_model)
            p[f"l{i}.wo"] = normal(c.d_model, c.d_model)
            p[f"l{i}.ln2_g"] = np.ones(c.d_model, dtype=dtype)
            p[f"l{i}.ln2_b"] = np.zeros(c.d_model, dtype=dtype)
            p[f"l{i}.w1"] = normal(c.d_model, 4 * c.d_model)
            p[f"l{i}.b1"] = np.zeros(4 * c.d_model, dtype=dtype)
            p[f"l{i}.w2"] = normal(4 * c.d_model, c.d_model)
            p[f"l{i}.b2"] = np.zeros(c.d_model, dtype=dtype)
        self.params = p

    def astype(self, dtype) -> "TokenLM":
        clone = TokenLM(self.config, seed=0, dtype=dtype)
        clone.params = {k: v.astype(dtype) for k, v in self.params.items()}
        return clone

    # ------------------------------------------------------------- forward

    def forward(
        self, ids: np.ndarray, train: bool = False, past: Optional[KeysValues] = None
    ) -> tuple[ag.Tensor, ag.Tensor, dict[str, ag.Tensor], KeysValues]:
        """Run the network over ``ids`` (B, T) or (T,), after the cached
        prefix ``past`` when one is given.

        Returns (logits over the vocabulary, final normed hidden state,
        parameter leaves, per-layer keys and values attended over). With
        ``train=False`` no backward graph is built.
        """
        final, leaves, present = self._trunk(ids, train, past)
        return ag.matmul(final, leaves["w_out"]), final, leaves, present

    def _trunk(
        self, ids: np.ndarray, train: bool = False, past: Optional[KeysValues] = None
    ) -> tuple[ag.Tensor, dict[str, ag.Tensor], KeysValues]:
        """:meth:`forward` up to the final layer norm, without the output
        projection."""
        ids = np.asarray(ids)
        if ids.ndim == 1:
            ids = ids[None, :]
        b, t = ids.shape
        c = self.config
        p = 0 if past is None else past[0][0].shape[2]
        if p + t > c.context:
            raise ContextOverflowError(f"{p} cached plus {t} new positions exceed context cap {c.context}")
        if past is not None and train:
            raise ValueError("a cached prefix is for inference only")
        leaves = {k: ag.Tensor(v, requires_grad=train) for k, v in self.params.items()}
        x = ag.add(ag.gather_rows(leaves["tok_emb"], ids), ag.gather_rows(leaves["pos_emb"], np.arange(p, p + t)))
        h = c.d_model // c.n_heads
        causal = np.triu(np.full((t, p + t), -1e30), k=p + 1)[None, None, :, :]
        present = []
        for i in range(c.n_layers):
            ln1 = ag.layer_norm(x, leaves[f"l{i}.ln1_g"], leaves[f"l{i}.ln1_b"])

            def heads(m):
                return ag.transpose(ag.reshape(m, (b, t, c.n_heads, h)), (0, 2, 1, 3))

            q = heads(ag.matmul(ln1, leaves[f"l{i}.wq"]))
            k = heads(ag.matmul(ln1, leaves[f"l{i}.wk"]))
            v = heads(ag.matmul(ln1, leaves[f"l{i}.wv"]))
            if past is not None:
                k, v = (ag.Tensor(_after(cached, new.data)) for cached, new in zip(past[i], (k, v)))
            present.append((k.data, v.data))
            scores = ag.mul(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(h))
            att = ag.masked_softmax(scores, causal, axis=-1)
            ctx = ag.reshape(ag.transpose(ag.matmul(att, v), (0, 2, 1, 3)), (b, t, c.d_model))
            x = ag.add(x, ag.matmul(ctx, leaves[f"l{i}.wo"]))
            ln2 = ag.layer_norm(x, leaves[f"l{i}.ln2_g"], leaves[f"l{i}.ln2_b"])
            ff = ag.add(
                ag.matmul(ag.gelu(ag.add(ag.matmul(ln2, leaves[f"l{i}.w1"]), leaves[f"l{i}.b1"])), leaves[f"l{i}.w2"]),
                leaves[f"l{i}.b2"],
            )
            x = ag.add(x, ff)
        final = ag.layer_norm(x, leaves["ln_f_g"], leaves["ln_f_b"])
        return final, leaves, present

    # ------------------------------------------------------------- scoring

    def next_token_distribution(self, context_ids: Sequence[int]) -> np.ndarray:
        """Proper distribution over the next token after ``context_ids``."""
        ids = list(context_ids)
        if not ids:
            raise ValueError("context must contain at least one token (BOS)")
        logits, _, _, _ = self.forward(np.asarray(ids, dtype=np.int64))
        return ag.softmax_np(logits.data[0, -1])

    def sequence_log_probs(self, ids: Sequence[int], from_position: int) -> np.ndarray:
        """Log-probabilities of ``ids[from_position:]`` under teacher forcing,
        each conditioned on all earlier tokens, in one forward pass."""
        arr = np.asarray(ids, dtype=np.int64)
        logits, _, _, _ = self.forward(arr)
        lp = ag.log_softmax_np(logits.data[0])
        positions = np.arange(from_position - 1, arr.size - 1)
        return lp[positions, arr[from_position:]]

    def batched_log_probs(self, sequences: list[np.ndarray], read_from: list[int], pad_id: int) -> list[np.ndarray]:
        """Batched :meth:`sequence_log_probs` over ragged sequences: the
        log-probabilities of each ``seq[read_from:]`` (its title) after
        ``seq[:read_from]`` (its prompt).

        Sequences are grouped by prompt, and each distinct prompt runs once.
        Its last position gives every title's first token; the group's
        distinct titles then run as one batch, right-padded with ``pad_id``,
        against the prompt's cached keys and values. The output projection
        and log-softmax apply only at the positions read.
        """
        seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
        longest = max((s.size for s in seqs), default=0)
        if longest > self.config.context:
            raise ContextOverflowError(f"sequence length {longest} exceeds context cap {self.config.context}")
        if any(r < 1 for r in read_from):
            raise ValueError("every prompt needs at least one token")
        groups: dict[bytes, dict[bytes, list[int]]] = {}
        for i, (s, r) in enumerate(zip(seqs, read_from)):
            groups.setdefault(s[:r].tobytes(), {}).setdefault(s[r:].tobytes(), []).append(i)
        out: list[np.ndarray] = [np.empty(0)] * len(seqs)
        for titles in groups.values():
            heads = [members[0] for members in titles.values()]
            prompt = seqs[heads[0]][: read_from[heads[0]]]
            lps = self._titles_after(prompt, [seqs[i][read_from[i]:] for i in heads], pad_id)
            for lp, members in zip(lps, titles.values()):
                for i in members:
                    out[i] = lp.copy()
        return out

    def _titles_after(self, prompt: np.ndarray, titles: list[np.ndarray], pad_id: int) -> list[np.ndarray]:
        """Log-probabilities of each title's tokens after ``prompt``: one
        pass over the prompt, then one over the titles' tokens but the last."""
        final, leaves, past = self._trunk(prompt)
        read = [final.data[0, -1:]]  # row 0 predicts every title's first token
        rest = [title for title in titles if title.size > 1]
        if rest:
            ids = np.full((len(rest), max(title.size for title in rest) - 1), pad_id, dtype=np.int64)
            for row, title in enumerate(rest):
                ids[row, : title.size - 1] = title[:-1]
            final, _, _ = self._trunk(ids, past=past)
            read += [final.data[row, : title.size - 1] for row, title in enumerate(rest)]
        lp = ag.log_softmax_np(np.concatenate(read) @ leaves["w_out"].data)
        out, start = [], 1
        for title in titles:
            later = np.arange(start, start + max(title.size - 1, 0))
            start += later.size
            out.append(lp[np.concatenate([[0], later])[: title.size], title])
        return out

    def final_hidden(self, ids: Sequence[int]) -> np.ndarray:
        """Final-layer hidden state at the last position (the representation
        used as an embedding by feature-based models)."""
        final, _, _ = self._trunk(np.asarray(ids, dtype=np.int64))
        return final.data[0, -1].copy()

    # ------------------------------------------------------------ training

    def loss_and_grads(self, batch: dict) -> tuple[float, dict[str, np.ndarray]]:
        loss_t, leaves = self._loss_graph(batch, train=True)
        loss_t.backward()
        grads = {k: leaf.grad for k, leaf in leaves.items() if leaf.grad is not None}
        return float(loss_t.data), grads

    def loss(self, batch: dict) -> float:
        loss_t, _ = self._loss_graph(batch, train=False)
        return float(loss_t.data)

    def _loss_graph(self, batch: dict, train: bool) -> tuple[ag.Tensor, dict[str, ag.Tensor]]:
        ids: np.ndarray = batch["ids"]  # (B, T), already padded
        mask: np.ndarray = batch["mask"]  # (B, T-1) marks real next-token targets
        logits, _, leaves, _ = self.forward(ids, train=train)
        lp = ag.log_softmax(logits, axis=-1)
        picked = ag.pick_last(_slice_time(lp, 0, ids.shape[1] - 1), ids[:, 1:])
        loss = ag.mul(ag.tsum(ag.mul(picked, mask)), -1.0 / mask.sum())
        return loss, leaves


def _slice_time(t: ag.Tensor, start: int, stop: int) -> ag.Tensor:
    data = t.data[:, start:stop]
    span = (start, stop)

    def backward(grad):
        if t.requires_grad:
            g = np.zeros_like(t.data)
            g[:, span[0]: span[1]] = grad
            t._accumulate(g)

    return ag._node(data, (t,), backward)


def collate_token_batch(token_lists: list[list[int]], pad_id: int) -> dict:
    """Pad ragged token sequences and mark valid next-token positions."""
    t = max(len(s) for s in token_lists)
    ids = np.full((len(token_lists), t), pad_id, dtype=np.int64)
    mask = np.zeros((len(token_lists), t - 1))
    for i, s in enumerate(token_lists):
        ids[i, : len(s)] = s
        mask[i, : len(s) - 1] = 1.0
    return {"ids": ids, "mask": mask}


# ----------------------------------------------------------------------- IO


def save_token_lm(model: TokenLM, vocab: Vocabulary, path) -> None:
    save_checkpoint(path, kind="token_lm", params=model.params, config=asdict(model.config))
    vocab.dump_text(Path(path) / "vocab.txt")


def load_token_lm(path) -> tuple[TokenLM, Vocabulary]:
    kind, params, config = load_checkpoint(path)
    if kind != "token_lm":
        raise ValueError(f"checkpoint kind {kind!r} is not a token LM")
    model = TokenLM(TokenLmConfig(**config), seed=0)
    model.params = {k: v.astype(np.float32) for k, v in params.items()}
    vocab = Vocabulary.load_text(Path(path) / "vocab.txt")
    return model, vocab
