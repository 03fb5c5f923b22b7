import pytest
from hypothesis import strategies as st

from careerseq.corpus import (
    CareerHistory,
    CareerRecord,
    Education,
    Ethnicity,
    Gender,
    Region,
    StaticCovariates,
    split_dataset,
)
from careerseq.models import LmOccupationAdapter, TokenLM, TokenLmConfig
from careerseq.synthetic import SyntheticConfig, generate_synthetic
from careerseq.template import TemplateCodec, TemplateConfig
from careerseq.tokenizer import train_vocab
from careerseq.training import LrSchedule, OptimizerConfig, train_token_lm


@pytest.fixture(scope="session")
def toy_bundle():
    """Small synthetic world shared by model/eval tests: dataset with splits,
    codec, vocabulary, and a briefly trained token LM."""
    cfg = SyntheticConfig(
        n_individuals=220,
        taxonomy_size=12,
        seed=101,
        markov_order=1,
        mean_records=6.0,
        covariate_effect_strength=1.0,
        stay_bias=0.55,
        gap_probability=0.3,
        year_range=(1995, 2014),
    )
    ds, params = generate_synthetic(cfg)
    ds = split_dataset(ds, (0.7, 0.1, 0.2), seed=7)
    codec = TemplateCodec(ds.taxonomy, TemplateConfig(dataset_tag="SYNTH"))
    train_texts = [codec.render_full(h) for h in ds.split("train")]
    valid_texts = [codec.render_full(h) for h in ds.split("valid")]
    vocab = train_vocab(train_texts, 420)
    longest = max(len(s) for s in vocab.encode_batch(train_texts + valid_texts)) + 2
    longest_title = max(len(vocab.encode(codec.title_continuation(c))) for c in ds.taxonomy.codes())
    lm = TokenLM(
        TokenLmConfig(vocab_size=vocab.size, d_model=48, n_layers=2, n_heads=2, context=longest + longest_title + 8),
        seed=3,
    )
    report, _ = train_token_lm(
        lm,
        vocab,
        train_texts,
        valid_texts,
        OptimizerConfig(lr_schedule=LrSchedule(kind="linear_decay", peak=3e-3), max_epochs=3, batch_sequences=8, seed=5),
    )
    adapter = LmOccupationAdapter(lm, vocab, codec)
    return {
        "cfg": cfg,
        "dataset": ds,
        "params": params,
        "codec": codec,
        "vocab": vocab,
        "lm": lm,
        "adapter": adapter,
        "report": report,
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if "test_acceptance.py" in str(getattr(rep, "nodeid", "")):
                name = rep.nodeid.split("::")[-1]
                lines.append((name, status.upper()))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line(f"{status:6s} {name}")


@st.composite
def career_histories(draw, taxonomy, year_range=(1990, 2020)):
    """A career of 1-8 records in distinct years, education never falling,
    over ``taxonomy``'s codes. Ids come from a small pool, so that distinct
    histories share ids."""
    n = draw(st.integers(1, 8))
    years = sorted(draw(st.sets(st.integers(*year_range), min_size=n, max_size=n)))
    levels = sorted(draw(st.lists(st.sampled_from(Education), min_size=n, max_size=n)), key=list(Education).index)
    records = tuple(
        CareerRecord(year, level, draw(st.sampled_from(taxonomy.codes()))) for year, level in zip(years, levels)
    )
    static = StaticCovariates(
        draw(st.sampled_from(Gender)),
        draw(st.sampled_from(Ethnicity)),
        draw(st.sampled_from(Region)),
        draw(st.integers(1930, 1975)),
    )
    return CareerHistory(draw(st.sampled_from(["a", "b", "c"])), "SYNTH", static, records)
