"""Adapts a token language model into an occupation model.

A job's score is the probability the LM assigns to its title as the
continuation of the rendered career prompt, expanded token by token with the
chain rule. The prompt ends at the record line's colon, so the scored
continuation carries the intervening space. Raw scores live in (0, 1] and
need not sum to one over the taxonomy (mass leaks to strings that are not
job titles); the normalized variant rescales by the taxonomy total, so it
needs every occupation's title scored.

Batched scoring (``score_transitions``, ``job_distribution``) goes through
``TokenLM.batched_log_probs``: each distinct prompt runs once, and its
titles run as one batch against the prompt's cached keys and values, each
distinct title once. ``generate`` runs the prompt once and then one sampled
token per step against the cache.

Two uncached scoring paths exist on purpose as references:
``job_probability`` appends title tokens one at a time (one forward pass
over the whole context per token), while ``joint_log_probability`` reads
every stepwise conditional from a single forward pass over the concatenated
sequence. They agree with each other and with the cached path to
floating-point accuracy, and the tests check all three against each other.
``forward_calls`` counts one call per scored (prompt, title) pair and one
per sampled token, whatever the cache saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..autograd import softmax_np
from ..corpus import CareerHistory
from ..template import TemplateCodec
from ..tokenizer import Vocabulary, title_prefix_match
from .token_lm import ContextOverflowError, TokenLM


@dataclass(frozen=True)
class GenerationConfig:
    temperature: float = 1.0
    top_k: int = 50
    top_p: float = 0.6
    max_new: int = 20
    stop: Optional[str] = "\n"
    seed: int = 0


class LmOccupationAdapter:
    def __init__(self, lm: TokenLM, vocab: Vocabulary, codec: TemplateCodec):
        self.lm = lm
        self.vocab = vocab
        self.codec = codec
        self.taxonomy = codec.taxonomy
        self.forward_calls = 0
        self._cont_cache: dict[int, list[int]] = {}

    # ------------------------------------------------------------- helpers

    def prompt_ids(self, history: CareerHistory, t: int) -> list[int]:
        return [self.vocab.bos_id] + self.vocab.encode(self.codec.render_prompt(history, t))

    def continuation_ids(self, code: int) -> list[int]:
        ids = self._cont_cache.get(code)
        if ids is None:
            ids = self.vocab.encode(self.codec.title_continuation(code))
            self._cont_cache[code] = ids
        return ids

    def _check_fits(self, n_tokens: int) -> None:
        if n_tokens > self.lm.config.context:
            raise ContextOverflowError(
                f"prompt plus title spans {n_tokens} tokens, over the {self.lm.config.context} cap"
            )

    # ------------------------------------------------------------- scoring

    def job_probability(self, history: CareerHistory, t: int, code: int) -> float:
        """Chain-rule product, one forward pass per title token."""
        prompt = self.prompt_ids(history, t)
        cont = self.continuation_ids(code)
        self._check_fits(len(prompt) + len(cont))
        logp = 0.0
        context = list(prompt)
        for tok in cont:
            dist = self.lm.next_token_distribution(context)
            self.forward_calls += 1
            logp += float(np.log(dist[tok]))
            context.append(tok)
        return float(np.exp(logp))

    def joint_log_probability(self, history: CareerHistory, t: int, code: int) -> float:
        """Independent joint scorer: one forward pass over prompt + title."""
        prompt = self.prompt_ids(history, t)
        cont = self.continuation_ids(code)
        self._check_fits(len(prompt) + len(cont))
        self.forward_calls += 1
        lps = self.lm.sequence_log_probs(prompt + cont, from_position=len(prompt))
        return float(lps.sum())

    def _title_log_probs(self, pairs: Sequence[tuple[list[int], list[int]]]) -> np.ndarray:
        """Summed log-probability of each continuation after its prompt, in
        input order, from one :meth:`TokenLM.batched_log_probs` call."""
        seqs, read_from = [], []
        for prompt, cont in pairs:
            self._check_fits(len(prompt) + len(cont))
            seqs.append(np.asarray(prompt + cont, dtype=np.int64))
            read_from.append(len(prompt))
        lps = self.lm.batched_log_probs(seqs, read_from, pad_id=self.vocab.eos_id)
        self.forward_calls += len(seqs)
        return np.array([lp.sum() for lp in lps])

    def job_distribution(self, history: CareerHistory, t: int, normalized: bool = False) -> np.ndarray:
        """Raw (default) or normalized scores over the taxonomy."""
        prompt = self.prompt_ids(history, t)
        raw = np.exp(self._title_log_probs([(prompt, self.continuation_ids(c)) for c in self.taxonomy.codes()]))
        if not normalized:
            return raw
        return raw / raw.sum()

    def predict(self, history: CareerHistory, t: int) -> np.ndarray:
        return self.job_distribution(history, t, normalized=False)

    def score_transitions(
        self,
        items: Sequence[tuple[CareerHistory, int]],
        prompt_text: Optional[Callable[[CareerHistory, int], str]] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched (log P(realized occupation), raw P(previous occupation))
        for many (history, t) pairs; the stay column is NaN at t=1.
        ``prompt_text`` renders each prompt; the default is the codec's."""
        render = prompt_text or self.codec.render_prompt
        encoded = self.vocab.encode_batch([render(h, t) for h, t in items])
        pairs, true_at, stay_at, stay_items = [], [], [], []
        for i, ((h, t), ids) in enumerate(zip(items, encoded)):
            prompt = [self.vocab.bos_id] + ids
            true_at.append(len(pairs))
            pairs.append((prompt, self.continuation_ids(h.records[t - 1].occupation)))
            if t > 1:
                stay_items.append(i)
                stay_at.append(len(pairs))
                pairs.append((prompt, self.continuation_ids(h.records[t - 2].occupation)))
        lps = self._title_log_probs(pairs)
        p_stay = np.full(len(items), np.nan)
        p_stay[stay_items] = np.exp(lps[stay_at])
        return lps[true_at], p_stay

    # ---------------------------------------------------------- generation

    def generate(self, prompt: str, cfg: GenerationConfig = GenerationConfig()) -> str:
        """Seeded ancestral sampling with top-k / nucleus filtering; returns
        only the continuation text, cut at the stop string if it appears. The
        prompt runs once, then each sampled token runs against the cached
        keys and values."""
        ids = [self.vocab.bos_id] + self.vocab.encode(prompt)
        self._check_fits(len(ids) + 1)
        rng = np.random.default_rng(cfg.seed)
        new_ids: list[int] = []
        pending, past = np.asarray(ids), None
        for _ in range(cfg.max_new):
            if len(ids) >= self.lm.config.context:
                break
            logits, _, _, past = self.lm.forward(pending, past=past)
            dist = softmax_np(logits.data[0, -1])
            self.forward_calls += 1
            tok = _sample(dist, rng, cfg.temperature, cfg.top_k, cfg.top_p)
            if tok == self.vocab.eos_id:
                break
            ids.append(tok)
            new_ids.append(tok)
            pending = np.asarray([tok])
            if cfg.stop:
                text = self.vocab.decode(new_ids)
                if cfg.stop in text:
                    return text[: text.index(cfg.stop)]
        return self.vocab.decode(new_ids)

    def valid_title_rate(
        self,
        prompts: Sequence[str],
        cfg: GenerationConfig = GenerationConfig(),
        titles: Optional[dict[str, int]] = None,
    ) -> float:
        """Share of prompts whose sampled continuation starts with an exact
        taxonomy title."""
        if not prompts:
            raise ValueError("no prompts")
        hits = 0
        for i, prompt in enumerate(prompts):
            text = self.generate(prompt, GenerationConfig(**{**cfg.__dict__, "seed": cfg.seed + i}))
            if title_prefix_match(self.taxonomy, text, titles=titles) is not None:
                hits += 1
        return hits / len(prompts)

    # ---------------------------------------------------------- embeddings

    def extract_embedding(self, history: CareerHistory, t: int) -> np.ndarray:
        """Final-layer hidden state at the last prompt position."""
        ids = self.prompt_ids(history, t)
        self._check_fits(len(ids))
        self.forward_calls += 1
        return self.lm.final_hidden(ids)


def _sample(dist: np.ndarray, rng: np.random.Generator, temperature: float, top_k: int, top_p: float) -> int:
    if temperature <= 1e-8:
        return int(np.argmax(dist))
    p = np.power(dist, 1.0 / temperature)
    p /= p.sum()
    if top_k and top_k < p.size:
        cutoff = np.partition(p, -top_k)[-top_k]
        p = np.where(p >= cutoff, p, 0.0)
    if 0.0 < top_p < 1.0:
        order = np.argsort(-p)
        csum = np.cumsum(p[order]) / p.sum()
        keep_n = int(np.searchsorted(csum, top_p) + 1)
        mask = np.zeros_like(p)
        mask[order[:keep_n]] = 1.0
        p = p * mask
    p /= p.sum()
    return int(rng.choice(p.size, p=p))
