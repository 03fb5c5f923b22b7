"""Decoder-only transformer language model over the byte-merge vocabulary.

Pre-norm blocks (causal multi-head attention through
:func:`autograd.causal_attention`, then a GELU feed-forward), token and
learned positional embeddings summed in one :func:`autograd.embed_sum` node,
and a zero-initialized output projection so a fresh model predicts the
uniform distribution. Parameters are stored in float32 (the checkpoint tensor
format). Training computes in the model's ``dtype``; scoring, validation loss
included, runs in float64, so a score is a deterministic function of the
stored parameters and save/load/score round-trips bit-exactly.

``forward`` also takes the per-layer keys and values of a prefix it has
already run (``past``) and returns the keys and values it attended over, so
a shared prompt runs once and its continuations run against the cache (the
key/value cache of Pope et al., arXiv:2211.05102). A batch-1 prefix is
shared by every row of the new tokens, which take the positions after it;
the attention op reads the prefix length from the key shapes.
Training never passes ``past``; its loss, validation included, is
:func:`autograd.lm_head_nll`, which projects only real target positions.
``batched_log_probs`` runs each distinct prompt once and its titles against
its cache; ``document_log_probs`` runs one document once, reads the titles
it contains off that pass and runs any other title against its cache cut at
the title's boundary. Both run titles through ``_titles_against``.
``next_token_distribution`` and ``sequence_log_probs`` run the whole
sequence (the uncached references).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .. import autograd as ag
from ..tokenizer import Vocabulary
from .checkpoint import CheckpointError, config_of, load_checkpoint, save_checkpoint


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
        leaves = ag.leaves(self.params, train)
        x = ag.embed_sum([(leaves["tok_emb"], ids), (leaves["pos_emb"], np.arange(p, p + t))])
        h = c.d_model // c.n_heads
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
            ctx, _ = ag.causal_attention(q, k, v, 1.0 / math.sqrt(h))
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
            final, _, past = self._trunk(seqs[heads[0]][: read_from[heads[0]]])
            lps = self._titles_against(final.data[0, -1], past, [seqs[i][read_from[i]:] for i in heads], pad_id)
            for lp, members in zip(lps, titles.values()):
                for i in members:
                    out[i] = lp.copy()
        return out

    def document_log_probs(self, doc: np.ndarray, queries: list[tuple[int, np.ndarray]], pad_id: int) -> list[np.ndarray]:
        """Log-probabilities of each query's title after ``doc[:boundary]``,
        for (boundary, title) queries, from one pass over ``doc``.

        Where the document itself continues with the title at the boundary,
        the title is read off that teacher-forced pass. Any other title runs
        against the document's keys and values cut at the boundary, as
        :meth:`batched_log_probs` runs a title against its prompt's cache.
        The output projection and log-softmax apply only at the rows read.
        """
        doc = np.asarray(doc, dtype=np.int64)
        if any(boundary < 1 for boundary, _ in queries):
            raise ValueError("every prompt needs at least one token")
        final, leaves, present = self._trunk(doc)
        rows = final.data[0]
        out: list[np.ndarray] = [np.empty(0)] * len(queries)
        inside, outside = [], []
        for i, (b, title) in enumerate(queries):
            (inside if np.array_equal(doc[b : b + title.size], title) else outside).append(i)
        if inside:
            spans = [np.arange(b - 1, b - 1 + title.size) for b, title in (queries[i] for i in inside)]
            at = np.concatenate(spans)  # the rows that predict each title token
            lp = ag.log_softmax_np(rows[at] @ leaves["w_out"].data)[np.arange(at.size), doc[at + 1]]
            for i, piece in zip(inside, np.split(lp, np.cumsum([span.size for span in spans])[:-1])):
                out[i] = piece
        for i in outside:
            b, title = queries[i]
            past = [(k[:, :, :b], v[:, :, :b]) for k, v in present]
            out[i] = self._titles_against(rows[b - 1], past, [title], pad_id)[0]
        return out

    def _titles_against(self, last: np.ndarray, past: KeysValues, titles: list[np.ndarray], pad_id: int) -> list[np.ndarray]:
        """Log-probabilities of each title's tokens after a prefix whose keys
        and values are ``past`` and whose last final-layer row is ``last``:
        one pass over the titles' tokens but the last."""
        read = [last[None]]  # row 0 predicts every title's first token
        rest = [title for title in titles if title.size > 1]
        if rest:
            ids = np.full((len(rest), max(title.size for title in rest) - 1), pad_id, dtype=np.int64)
            for row, title in enumerate(rest):
                ids[row, : title.size - 1] = title[:-1]
            final, _, _ = self._trunk(ids, past=past)
            read += [final.data[row, : title.size - 1] for row, title in enumerate(rest)]
        lp = ag.log_softmax_np(np.concatenate(read) @ self.params["w_out"].astype(np.float64, copy=False))
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
        final, leaves, _ = self._trunk(ids, train=train)
        return ag.lm_head_nll(final, leaves["w_out"], ids[:, 1:], mask), leaves


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


def save_token_lm(model: TokenLM, vocab: Vocabulary, path, extras: Optional[dict] = None) -> None:
    """Save ``model`` with its vocabulary and each ``extras`` file, as :func:`save_checkpoint` writes them."""
    extras = {"vocab.txt": vocab.dump_text, **(extras or {})}
    save_checkpoint(path, kind="token_lm", params=model.params, config=asdict(model.config), extras=extras)


def load_token_lm(path) -> tuple[TokenLM, Vocabulary]:
    return token_lm_from_checkpoint(load_checkpoint(path), path)


def token_lm_from_checkpoint(checkpoint: tuple, path) -> tuple[TokenLM, Vocabulary]:
    """The model in ``checkpoint = load_checkpoint(path)`` and the vocabulary saved beside it."""
    kind, params, config = checkpoint
    if kind != "token_lm":
        raise ValueError(f"checkpoint kind {kind!r} is not a token LM")
    model = TokenLM(config_of(TokenLmConfig, config, path), seed=0)
    model.params = {k: v.astype(np.float32) for k, v in params.items()}
    vocab_path = Path(path) / "vocab.txt"
    if not vocab_path.is_file():
        raise CheckpointError(f"no vocab.txt under {path}")
    vocab = Vocabulary.load_text(vocab_path)
    return model, vocab
