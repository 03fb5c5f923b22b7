"""Adapts a token language model into an occupation model.

A job's score is the probability the LM assigns to its title as the
continuation of the rendered career prompt, expanded token by token with the
chain rule. The prompt ends at the record line's colon, so the scored
continuation carries the intervening space. Raw scores live in (0, 1] and
need not sum to one over the taxonomy (mass leaks to strings that are not
job titles); the normalized variant rescales by the taxonomy total, so it
needs every occupation's title scored.

``score_transitions`` scores each career document once. Every prompt of a
history is its text cut before a record's title, so the items of one
history object are read off one pass over a document: the prompt of its
latest scored record followed by that record's title (not the full text,
which could overrun the context where every scored prompt fits). Realized
titles come from that teacher-forced pass; a mover's previous title runs
against the document's keys and values cut at the prompt's end (prefix
sharing within one document, as in RadixAttention, Zheng et al.,
arXiv:2312.07104). This rests on the tokenizer's compositionality at chunk
boundaries, checked per item at run time: an item whose prompt ids are not
a token prefix of the document, or whose realized title's ids do not follow
them, is scored the per-prompt way. So are all items of a custom
``prompt_text`` and all items under ``TemplateConfig.trailing_space``, whose
prompt ends in a space the document attaches to the title.

The per-prompt way, which also serves ``job_distribution``, is
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
from .token_lm import ContextOverflowError, TokenLM, save_token_lm


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

    def save(self, path, extras: Optional[dict] = None) -> None:
        """A token-LM checkpoint; the codec is not saved."""
        save_token_lm(self.lm, self.vocab, path, extras)

    # ------------------------------------------------------------- helpers

    def prompt_ids(self, history: CareerHistory, t: int) -> list[int]:
        return [self.vocab.bos_id] + self.vocab.encode(self.codec.render_prompt(history, t))

    def continuation_ids(self, code: int) -> list[int]:
        return self.vocab.encode(self.codec.title_continuation(code))

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
        ``prompt_text`` renders each prompt; the default is the codec's.

        With the codec's prompts, each history object's items are scored
        from its document (:meth:`_score_documents`); items that fail its
        token-prefix check, every item of a custom ``prompt_text`` and every
        item under ``trailing_space`` go through
        :meth:`TokenLM.batched_log_probs`."""
        render = prompt_text or self.codec.render_prompt
        prompts = [[self.vocab.bos_id] + ids for ids in self.vocab.encode_batch([render(h, t) for h, t in items])]
        # the realized title, then at t > 1 the previous one
        titles = [[self.continuation_ids(h.records[s - 1].occupation) for s in (t, t - 1) if s >= 1] for h, t in items]
        for prompt, conts in zip(prompts, titles):
            for cont in conts:
                self._check_fits(len(prompt) + len(cont))
        logp = np.empty(len(items))
        p_stay = np.full(len(items), np.nan)
        rest = list(range(len(items)))
        if prompt_text is None and not self.codec.config.trailing_space:
            rest = self._score_documents(items, prompts, titles, logp, p_stay)
        if rest:
            at = np.cumsum([0] + [len(titles[i]) for i in rest])[:-1]
            later = [k for k, i in enumerate(rest) if len(titles[i]) > 1]
            lps = self._title_log_probs([(prompts[i], cont) for i in rest for cont in titles[i]])
            logp[rest] = lps[at]
            p_stay[np.asarray(rest)[later]] = np.exp(lps[at[later] + 1])
        return logp, p_stay

    def _score_documents(self, items, prompts, titles, logp, p_stay) -> list[int]:
        """Fill ``logp`` and ``p_stay`` from one pass per history object over
        its document, the ids of the prompt of its latest scored record
        followed by that record's title, and return the indices of the items
        left.

        An item is scored here when its prompt's ids are a token prefix of
        the document and its realized title's ids follow them. The realized
        title is read off the document's pass, a stay's ``p_stay`` is the
        exponential of the same sum, and a mover's previous title runs against
        the document's keys and values cut at the prompt's end.
        """
        by_history: dict[int, dict[int, list[int]]] = {}
        for i, (h, t) in enumerate(items):
            by_history.setdefault(id(h), {}).setdefault(t, []).append(i)
        rest: list[int] = []
        for by_t in by_history.values():
            group = [members for _, members in sorted(by_t.items())]
            last = group[-1][0]
            doc = prompts[last] + titles[last][0]
            queries, read = [], []
            for members in group:
                prompt, (cont, *previous) = prompts[members[0]], titles[members[0]]
                n = len(prompt)
                if doc[:n] != prompt or doc[n : n + len(cont)] != cont:
                    rest += members
                    continue
                self.forward_calls += (1 + len(previous)) * len(members)
                true_at = len(queries)
                queries.append((n, np.asarray(cont, dtype=np.int64)))
                if previous and previous[0] != cont:  # a mover; a stay's previous title is its realized one
                    queries.append((n, np.asarray(previous[0], dtype=np.int64)))
                read.append((members, true_at, len(queries) - 1 if previous else None))
            sums = [lp.sum() for lp in self.lm.document_log_probs(np.asarray(doc), queries, self.vocab.eos_id)]
            for members, true_at, stay_at in read:
                logp[members] = sums[true_at]
                if stay_at is not None:
                    p_stay[members] = np.exp(sums[stay_at])
        return sorted(rest)

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
