"""Reversible byte-level tokenizer with a trainable pair-merge vocabulary.

Tokens 0..255 are raw bytes, so every UTF-8 string is encodable and
``decode(encode(s)) == s`` holds unconditionally. Training greedily merges
the most frequent adjacent pair; ties break lexicographically on the pair's
byte strings, making training a pure function of the corpus. Encoding
applies the lowest-ranked merge present until none is left, which yields the
same result as replaying every merge in training order: a merge's token only
appears in merges of higher rank.

Text is pre-split into word-like chunks (a letter, digit, or punctuation run
with an optional leading space, or a whitespace run) and merges never cross
chunk boundaries. The distinct chunk is therefore the unit of work, as in
BPE training over a word-frequency table (Sennrich et al., arXiv:1508.07909):
training counts each distinct chunk once and weights its pairs by the
chunk's count, and ``Vocabulary`` memoizes chunk -> ids, so a chunk is
merged once however many texts repeat it. Every merge, in training and
encoding, is one left-to-right scan of ``_merge``.

Consequently encoding is compositional at chunk boundaries: a prompt that
ends at a word boundary tokenizes the same way on its own as it does as a
prefix of a longer text, which keeps continuation scoring consistent with
how full documents tokenize during training. Splits that fall inside a chunk
still tokenize differently from the concatenation, so callers must never
assume encode(a + b) == encode(a) + encode(b) in general.

BOS/EOS sit at the top of the id space and never appear in encoder output;
language-model code prepends BOS to every context and appends EOS after the
end-of-data marker.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .taxonomy import OccupationTaxonomy

_BYTE_ALPHABET = 256

_CHUNK_RE = re.compile(r" ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+")


class TokenizerError(ValueError):
    pass


def _merge(tokens: list[int], left: int, right: int, new_id: int) -> list[int]:
    """Replace every non-overlapping (left, right) pair with new_id,
    scanning left to right."""
    out: list[int] = []
    i, n = 0, len(tokens)
    while i < n:
        if i + 1 < n and tokens[i] == left and tokens[i + 1] == right:
            out.append(new_id)
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out


class Vocabulary:
    def __init__(self, merges: list[tuple[int, int]], target_size: int):
        self.merges = list(merges)
        self.target_size = target_size
        self.token_bytes: list[bytes] = [bytes([i]) for i in range(_BYTE_ALPHABET)]
        self._ranks: dict[tuple[int, int], int] = {}
        for rank, (left, right) in enumerate(self.merges):
            defined = len(self.token_bytes)
            if not (0 <= left < defined and 0 <= right < defined):
                raise TokenizerError(f"merge {rank} ({left}, {right}) uses an id not defined before it")
            self.token_bytes.append(self.token_bytes[left] + self.token_bytes[right])
            self._ranks.setdefault((left, right), rank)
        self._chunk_ids: dict[str, list[int]] = {}
        self.bos_id = _BYTE_ALPHABET + len(self.merges)
        self.eos_id = self.bos_id + 1
        self.specials = {"BOS": self.bos_id, "EOS": self.eos_id, "NEWLINE": 10}

    @property
    def size(self) -> int:
        return _BYTE_ALPHABET + len(self.merges) + 2

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------ encoding

    def _encode_chunk(self, chunk: str) -> list[int]:
        """Ids of one chunk, memoized; the lowest-ranked merge present
        applies first."""
        ids = self._chunk_ids.get(chunk)
        if ids is None:
            ids = list(chunk.encode("utf-8"))
            while len(ids) > 1:
                pair = min(zip(ids, ids[1:]), key=lambda p: self._ranks.get(p, len(self.merges)))
                rank = self._ranks.get(pair)
                if rank is None:
                    break
                ids = _merge(ids, *pair, _BYTE_ALPHABET + rank)
            self._chunk_ids[chunk] = ids
        return ids

    def encode_batch(self, texts: Sequence[str]) -> list[list[int]]:
        """Encode many texts: each text's chunks' memoized ids, joined."""
        return [[i for chunk in _CHUNK_RE.findall(text) for i in self._encode_chunk(chunk)] for text in texts]

    def encode(self, text: str) -> list[int]:
        return self.encode_batch([text])[0]

    def decode(self, ids: Iterable[int]) -> str:
        chunks = []
        for i in ids:
            if i in (self.bos_id, self.eos_id):
                continue
            if not (0 <= i < len(self.token_bytes)):
                raise TokenizerError(f"token id {i} out of range")
            chunks.append(self.token_bytes[i])
        return b"".join(chunks).decode("utf-8", errors="replace")

    # ------------------------------------------------------------------ IO

    def dump_text(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("#careerseq-vocab-v1\n")
            fh.write(f"target_size {self.target_size}\n")
            fh.write(f"specials BOS={self.bos_id} EOS={self.eos_id} NEWLINE=10\n")
            for left, right in self.merges:
                fh.write(f"merge {left} {right}\n")

    @classmethod
    def load_text(cls, path) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != "#careerseq-vocab-v1":
                raise TokenizerError(f"missing vocabulary header in {path}")
            target_line = fh.readline().split()
            if len(target_line) != 2 or target_line[0] != "target_size":
                raise TokenizerError("bad target_size line")
            target_size = int(target_line[1])
            specials_line = fh.readline()
            if not specials_line.startswith("specials "):
                raise TokenizerError("bad specials line")
            merges = []
            for line in fh:
                fields = line.split()
                if not fields:
                    continue
                if fields[0] != "merge" or len(fields) != 3:
                    raise TokenizerError(f"bad merge line {line!r}")
                merges.append((int(fields[1]), int(fields[2])))
        return cls(merges, target_size)


def train_vocab(corpus: Sequence[str], target_size: int) -> Vocabulary:
    """Learn pair merges greedily until ``target_size`` base+merge tokens.

    ``target_size`` counts the 256 byte tokens plus learned merges; BOS and
    EOS ride on top. Training stops early if no pair repeats.
    """
    if not corpus or all(len(c) == 0 for c in corpus):
        raise TokenizerError("empty training corpus")
    if target_size < _BYTE_ALPHABET:
        raise TokenizerError(f"target_size {target_size} below byte alphabet {_BYTE_ALPHABET}")
    counts = Counter(chunk for text in corpus for chunk in _CHUNK_RE.findall(text))
    chunks = [(list(chunk.encode("utf-8")), n) for chunk, n in counts.items()]
    token_bytes: list[bytes] = [bytes([i]) for i in range(_BYTE_ALPHABET)]
    merges: list[tuple[int, int]] = []
    while _BYTE_ALPHABET + len(merges) < target_size:
        pair_counts: Counter[tuple[int, int]] = Counter()
        for ids, n in chunks:
            for pair in zip(ids, ids[1:]):
                pair_counts[pair] += n
        if not pair_counts:
            break
        top = max(pair_counts.values())
        if top < 2:
            break
        left, right = min(
            (p for p, c in pair_counts.items() if c == top), key=lambda p: (token_bytes[p[0]], token_bytes[p[1]])
        )
        new_id = _BYTE_ALPHABET + len(merges)
        chunks = [(_merge(ids, left, right, new_id) if left in ids else ids, n) for ids, n in chunks]
        merges.append((left, right))
        token_bytes.append(token_bytes[left] + token_bytes[right])
    return Vocabulary(merges, target_size)


def train_template_vocab(texts: Sequence[str], title_continuations: Sequence[str], target_size: int) -> Vocabulary:
    """Train a vocabulary for template scoring.

    Rare job titles would otherwise earn few merges and decompose into long
    byte runs, making their chained continuation scores the product of many
    weak conditionals. Boosting every title line in the tokenizer's training
    corpus (the tokenizer corpus need not equal the model corpus) drives the
    greedy merges to compact each title into a handful of tokens.
    """
    title_boost = max(2, len(texts) // max(len(title_continuations), 1))
    corpus = list(texts) + [t + "\n" for t in title_continuations] * title_boost
    return train_vocab(corpus, target_size)


# --------------------------------------------------------------------------
# Job-title helpers
# --------------------------------------------------------------------------


def title_prefix_match(
    taxonomy: OccupationTaxonomy,
    text: str,
    titles: Optional[dict[str, int]] = None,
) -> Optional[int]:
    """Occupation whose exact title prefixes ``text`` after left-trimming.

    When several titles are prefixes (nested titles), the longest wins.
    ``titles`` overrides the candidate map (e.g. numeric titles); it maps
    title string to occupation code.
    """
    trimmed = text.lstrip()
    if titles is None:
        titles = {e.title: e.code for e in taxonomy.entries}
    best: Optional[int] = None
    best_len = -1
    for title, code in titles.items():
        if len(title) > best_len and trimmed.startswith(title):
            best = code
            best_len = len(title)
    return best


@dataclass
class TitleTokenStats:
    mean: float
    min: int
    max: int


def title_token_stats(vocab: Vocabulary, titles: Sequence[str]) -> TitleTokenStats:
    """Token-length distribution of job titles under ``vocab`` (reported next
    to reference tokenizer figures, never asserted against them)."""
    lengths = [len(ids) for ids in vocab.encode_batch(list(titles))]
    return TitleTokenStats(mean=float(np.mean(lengths)), min=int(np.min(lengths)), max=int(np.max(lengths)))
