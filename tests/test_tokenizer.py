import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import career_histories

from careerseq.corpus import CareerHistory, CareerRecord, Education, Ethnicity, Gender, Region, StaticCovariates
from careerseq.taxonomy import (
    OccupationEntry,
    OccupationKind,
    OccupationTaxonomy,
    build_default_taxonomy,
)
from careerseq.tokenizer import (
    TokenizerError,
    Vocabulary,
    _CHUNK_RE,
    title_prefix_match,
    title_token_stats,
    train_template_vocab,
    train_vocab,
)
from careerseq.template import TemplateCodec, TemplateConfig

CORPUS = [
    "1984 (some college): Cooks\n1985 (some college): Food servers, nonrestaurant\n<END OF DATA>\n"
] * 30 + ["The worker has the following records of work experience:\n"] * 10


class TestTraining:
    def test_single_char_corpus_learns_one_merge(self):
        v = train_vocab(["a" * 100], 257)
        assert v.merges == [(97, 97)]
        assert v.size == 259  # 256 bytes + 1 merge + BOS/EOS

    def test_target_below_alphabet_rejected(self):
        with pytest.raises(TokenizerError, match="byte alphabet"):
            train_vocab(["abc"], 128)

    def test_empty_corpus_rejected(self):
        with pytest.raises(TokenizerError, match="empty"):
            train_vocab([], 300)

    def test_deterministic_retraining(self):
        a = train_vocab(CORPUS, 400)
        b = train_vocab(CORPUS, 400)
        assert a.merges == b.merges

    def test_ids_dense(self):
        v = train_vocab(CORPUS, 350)
        assert len(v.token_bytes) == 256 + len(v.merges)
        assert v.bos_id == 256 + len(v.merges)
        assert v.eos_id == v.bos_id + 1


class TestRoundTrip:
    def test_empty_string(self):
        v = train_vocab(CORPUS, 300)
        assert v.encode("") == []
        assert v.decode([]) == ""

    def test_corpus_documents(self):
        v = train_vocab(CORPUS, 400)
        for text in CORPUS[:3]:
            assert v.decode(v.encode(text)) == text

    @settings(max_examples=120, deadline=None)
    @given(st.text(max_size=200))
    def test_fuzzed_text(self, text):
        v = train_vocab(CORPUS, 320)
        assert v.decode(v.encode(text)) == text

    def test_chunking_reconstructs_text(self):
        for s in ["1984 (some college): Cooks\n", "a  b\t\nc", " lead", "héllo 世界", ""]:
            assert "".join(_CHUNK_RE.findall(s)) == s

    def test_encode_is_pure(self):
        v = train_vocab(CORPUS, 400)
        assert v.encode(CORPUS[0]) == v.encode(CORPUS[0])


class TestBoundaries:
    def test_compositional_at_chunk_boundary(self):
        v = train_vocab(CORPUS, 400)
        prompt = "1984 (some college):"
        cont = " Cooks"
        assert v.encode(prompt) + v.encode(cont) == v.encode(prompt + cont)

    def test_not_compositional_inside_a_word(self):
        # adversarial pair: splitting mid-word changes the tokenization, so
        # scoring code must never assume encode(a + b) == encode(a) + encode(b)
        v = train_vocab(CORPUS, 400)
        assert v.encode("Co") + v.encode("oks") != v.encode("Cooks")


class TestVocabularyIO:
    def test_text_round_trip(self, tmp_path):
        v = train_vocab(CORPUS, 400)
        path = tmp_path / "vocab.txt"
        v.dump_text(path)
        again = Vocabulary.load_text(path)
        assert again.merges == v.merges
        assert again.specials == v.specials
        text = CORPUS[0]
        assert again.encode(text) == v.encode(text)

    def test_reload_rebuilds_rank_table(self, tmp_path):
        v = train_vocab(CORPUS, 400)
        path = tmp_path / "vocab.txt"
        v.dump_text(path)
        again = Vocabulary.load_text(path)
        texts = CORPUS[:2] + ["Cooks, Food servers", "  aaaa\t\n", "héllo 1984 (x)"]
        assert again.encode_batch(texts) == v.encode_batch(texts)

    @pytest.mark.parametrize("merge", ["merge 99999 3", "merge 3 256", "merge -1 3"])
    def test_merge_id_not_yet_defined_rejected(self, tmp_path, merge):
        path = tmp_path / "vocab.txt"
        path.write_text(f"#careerseq-vocab-v1\ntarget_size 300\nspecials BOS=257 EOS=258 NEWLINE=10\n{merge}\n")
        with pytest.raises(TokenizerError, match="not defined"):
            Vocabulary.load_text(path)

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a vocab\n")
        with pytest.raises(TokenizerError, match="header"):
            Vocabulary.load_text(path)


class TestTitleHelpers:
    def test_prefix_match_simple(self):
        tax = build_default_taxonomy(30)
        assert title_prefix_match(tax, "Cooks\n1985 (some college)") == tax.code_of_title("Cooks")
        assert title_prefix_match(tax, "   Cooks, etc") == tax.code_of_title("Cooks")
        assert title_prefix_match(tax, "Chef de partie") is None

    def test_longest_match_wins_on_nested_titles(self):
        entries = [
            OccupationEntry(1, "X", OccupationKind.WORK),
            OccupationEntry(2, "X Y", OccupationKind.WORK),
            OccupationEntry(3, "In education", OccupationKind.EDUCATION),
            OccupationEntry(4, "Unemployed", OccupationKind.UNEMPLOYED),
            OccupationEntry(5, "Not in labor force", OccupationKind.OUT_OF_LABOR_FORCE),
        ]
        tax = OccupationTaxonomy(entries)
        # brute force over all titles: every prefix-matching title is no
        # longer than the reported one
        text = "X Y, 2001"
        got = tax.title(title_prefix_match(tax, text))
        for e in tax.entries:
            if text.startswith(e.title):
                assert len(e.title) <= len(got)
        assert got == "X Y"

    def test_custom_titles_mapping(self):
        tax = build_default_taxonomy(10)
        titles = {"job_007": 3}
        assert title_prefix_match(tax, "job_007 and more", titles=titles) == 3

    def test_title_token_stats_reported(self):
        tax = build_default_taxonomy(334)
        v = train_vocab(CORPUS, 500)
        stats = title_token_stats(v, tax.titles())
        assert stats.min >= 1
        assert stats.min <= stats.mean <= stats.max

    def test_boosted_vocab_compacts_titles(self):
        tax = build_default_taxonomy(12)
        conts = [" " + t for t in tax.titles()]
        plain = train_vocab(CORPUS, 500)
        boosted = train_template_vocab(CORPUS, conts, 500)
        assert title_token_stats(boosted, conts).mean <= title_token_stats(plain, conts).mean


# --------------------------------------------------------------------------
# Encoding invariants the batched scorer rests on
# --------------------------------------------------------------------------

TAXONOMY = build_default_taxonomy(60)
CODEC = TemplateCodec(TAXONOMY, TemplateConfig())
CONTINUATIONS = [CODEC.title_continuation(c) for c in TAXONOMY.codes()]
TEMPLATE_VOCAB = train_template_vocab(CORPUS, CONTINUATIONS, 600)


class TestEncodingInvariants:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(st.text(max_size=60), st.sampled_from(CORPUS + CONTINUATIONS)), max_size=6))
    def test_batch_encode_equals_one_at_a_time(self, texts):
        assert TEMPLATE_VOCAB.encode_batch(texts) == [TEMPLATE_VOCAB.encode(t) for t in texts]

    @settings(max_examples=80, deadline=None)
    @given(history=career_histories(TAXONOMY), data=st.data())
    def test_prompt_and_title_encode_separately(self, history, data):
        t = data.draw(st.integers(1, len(history)))
        code = data.draw(st.sampled_from(TAXONOMY.codes()))
        prompt, cont = CODEC.render_prompt(history, t), CODEC.title_continuation(code)
        assert TEMPLATE_VOCAB.encode(prompt) + TEMPLATE_VOCAB.encode(cont) == TEMPLATE_VOCAB.encode(prompt + cont)

    @settings(max_examples=80, deadline=None)
    @given(history=career_histories(TAXONOMY), data=st.data())
    def test_prompts_are_token_prefixes_of_the_document(self, history, data):
        # the adapter scores every record up to t_max off one document: the
        # prompt of record t_max followed by its title
        t_max = data.draw(st.integers(1, len(history)))
        doc = _document_ids(CODEC, history, t_max)
        for t in range(1, t_max + 1):
            prompt = [TEMPLATE_VOCAB.bos_id] + TEMPLATE_VOCAB.encode(CODEC.render_prompt(history, t))
            cont = TEMPLATE_VOCAB.encode(CODEC.title_continuation(history.records[t - 1].occupation))
            assert doc[: len(prompt) + len(cont)] == prompt + cont

    def test_trailing_space_prompts_are_not_token_prefixes(self):
        # the prompt's trailing space is a chunk of its own, while the
        # document attaches it to the title: this config keeps per-prompt scoring
        codec = TemplateCodec(TAXONOMY, TemplateConfig(trailing_space=True))
        history = CareerHistory(
            "w", "SYNTH", StaticCovariates(Gender.FEMALE, Ethnicity.WHITE, Region.SOUTH, 1960),
            tuple(CareerRecord(2000 + i, Education.COLLEGE, TAXONOMY.code_at(i + 3)) for i in range(3)),
        )
        doc = _document_ids(codec, history, 3)
        for t in (1, 2, 3):
            prompt = [TEMPLATE_VOCAB.bos_id] + TEMPLATE_VOCAB.encode(codec.render_prompt(history, t))
            assert doc[: len(prompt)] != prompt


def _document_ids(codec, history, t_max):
    text = codec.render_prompt(history, t_max) + codec.title_continuation(history.records[t_max - 1].occupation)
    return [TEMPLATE_VOCAB.bos_id] + TEMPLATE_VOCAB.encode(text)


# --------------------------------------------------------------------------
# Chunk-table training and memoized encoding against the sentinel-array
# reference: one array for the whole corpus, sentinels between chunks and
# documents, every merge replayed over it in training order
# --------------------------------------------------------------------------

_REF_CHUNK, _REF_DOC, _REF_SHIFT = -1, -2, 1 << 21


def _ref_doc_array(text):
    parts = []
    for chunk in _CHUNK_RE.findall(text):
        parts.append(np.frombuffer(chunk.encode("utf-8"), dtype=np.uint8).astype(np.int64))
        parts.append(np.array([_REF_CHUNK], dtype=np.int64))
    if parts:
        parts.pop()
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _ref_corpus_array(texts):
    parts = []
    for text in texts:
        arr = _ref_doc_array(text)
        if arr.size:
            parts.append(arr)
        parts.append(np.array([_REF_DOC], dtype=np.int64))
    return np.concatenate(parts)


def _ref_apply_merge(arr, left, right, new_id):
    if arr.size < 2:
        return arr
    hits = np.flatnonzero((arr[:-1] == left) & (arr[1:] == right))
    if hits.size == 0:
        return arr
    if left == right:
        keep, last = [], -2
        for pos in hits.tolist():
            if pos == last + 1:
                continue
            keep.append(pos)
            last = pos
        hits = np.asarray(keep, dtype=np.int64)
    arr = arr.copy()
    arr[hits] = new_id
    mask = np.ones(arr.size, dtype=bool)
    mask[hits + 1] = False
    return arr[mask]


def _ref_train_merges(corpus, target_size):
    arr = _ref_corpus_array(corpus)
    token_bytes = [bytes([i]) for i in range(256)]
    merges = []
    while 256 + len(merges) < target_size and arr.size >= 2:
        a, b = arr[:-1], arr[1:]
        valid = (a >= 0) & (b >= 0)
        if not valid.any():
            break
        uniq, counts = np.unique(a[valid] * _REF_SHIFT + b[valid], return_counts=True)
        top = counts.max()
        if top < 2:
            break
        pairs = [(int(k // _REF_SHIFT), int(k % _REF_SHIFT)) for k in uniq[counts == top]]
        left, right = min(pairs, key=lambda p: (token_bytes[p[0]], token_bytes[p[1]]))
        arr = _ref_apply_merge(arr, left, right, 256 + len(merges))
        merges.append((left, right))
        token_bytes.append(token_bytes[left] + token_bytes[right])
    return merges


def _ref_encode_batch(merges, texts):
    if not texts:
        return []
    arr = _ref_corpus_array(texts)
    for rank, (left, right) in enumerate(merges):
        arr = _ref_apply_merge(arr, left, right, 256 + rank)
    out, current = [], []
    for tok in arr.tolist():
        if tok == _REF_DOC:
            out.append(current)
            current = []
        elif tok != _REF_CHUNK:
            current.append(tok)
    return out


# few symbols, so runs overlap ("aaaa"), whitespace runs form and pairs repeat
_PIECES = st.sampled_from(list("aaab  \t\n\nc1é世!,") + ["aaaa", "  ", "ab ab", "é世é"])
_TEXTS = st.lists(_PIECES, max_size=15).map("".join)
_DOCS = st.lists(_TEXTS, min_size=1, max_size=10)


class TestChunkTableMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(corpus=_DOCS, extra=st.lists(_TEXTS, max_size=5),
           n_merges=st.integers(1, 60))
    def test_same_merges_and_ids(self, corpus, extra, n_merges):
        if all(text == "" for text in corpus):
            return
        v = train_vocab(corpus, 256 + n_merges)
        assert v.merges == _ref_train_merges(corpus, 256 + n_merges)
        texts = corpus + extra
        assert v.encode_batch(texts) == _ref_encode_batch(v.merges, texts)

    def test_template_corpus(self):
        corpus = CORPUS + [t + "\n" for t in CONTINUATIONS] * 2
        assert TEMPLATE_VOCAB.merges == _ref_train_merges(corpus, 600)
        assert TEMPLATE_VOCAB.encode_batch(corpus) == _ref_encode_batch(TEMPLATE_VOCAB.merges, corpus)

    @settings(max_examples=60, deadline=None)
    @given(seen=st.lists(st.text(max_size=40), max_size=6), text=st.text(max_size=40))
    def test_memo_does_not_change_ids(self, seen, text):
        used = Vocabulary(TEMPLATE_VOCAB.merges, 600)
        used.encode_batch(seen + CORPUS[:1])
        ids = used.encode(text)
        assert ids == Vocabulary(TEMPLATE_VOCAB.merges, 600).encode(text)
        ids.append(-1)  # callers own the lists they get back
        assert used.encode(text) == ids[:-1]
