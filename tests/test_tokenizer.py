import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import career_histories

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
