"""``score_model`` must report, for every (history, t) item it is given, the
realized log-probability and stay score of that exact item: pointwise
``predict`` for distribution models, ``joint_log_probability`` for the LM
adapter. Windows cut from one career share the individual id, so the
distribution path must not reuse rows across them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import career_histories

from careerseq.evaluation import score_model
from careerseq.experiments import truncate_history
from careerseq.models import (
    CareerConfig,
    CareerModel,
    EmpiricalModel,
    LmOccupationAdapter,
    MnlFitConfig,
    MnlModel,
    PrevCovariatesFeaturizer,
    TokenLM,
    TokenLmConfig,
)
from careerseq.synthetic import OracleModel, SyntheticConfig, generate_synthetic
from careerseq.taxonomy import build_default_taxonomy
from careerseq.template import TemplateCodec, TemplateConfig
from careerseq.tokenizer import train_vocab

YEARS = (1990, 2020)
TAXONOMY = build_default_taxonomy(10)


def assert_matches_predict(model, items, taxonomy, tol):
    scores = score_model(model, [], taxonomy, transitions=items)
    assert len(scores) == len(items)
    for i, (h, t) in enumerate(items):
        dist = model.predict(h, t)
        expected = np.log(dist[taxonomy.index_of(h.records[t - 1].occupation)])
        assert abs(scores.logp_true[i] - expected) <= tol, (i, t)
        if t == 1:
            assert np.isnan(scores.p_stay[i])
        else:
            assert abs(scores.p_stay[i] - dist[taxonomy.index_of(h.records[t - 2].occupation)]) <= tol, (i, t)


# --------------------------------------------------------------------------
# Regression: truncated windows of one career
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def long_careers():
    cfg = SyntheticConfig(
        n_individuals=60,
        taxonomy_size=12,
        seed=55,
        markov_order=2,
        mean_records=16.0,
        gap_probability=0.75,
        year_range=(1979, 2021),
        stay_bias=0.45,
        pair_scale=0.8,
        return_bias=9.0,
    )
    ds, params = generate_synthetic(cfg)
    windows = [
        truncate_history(h, t, 5) for h in ds.individuals for t in range(1, len(h) + 1) if 10 < t <= 15
    ]
    assert len({w.individual_id for w, _ in windows}) < len(windows)
    return ds.taxonomy, params, cfg, windows


def test_oracle_windows_score_as_pointwise_predict(long_careers):
    taxonomy, params, _, windows = long_careers
    assert_matches_predict(OracleModel(params, taxonomy), windows, taxonomy, 1e-12)


def test_career_windows_score_as_pointwise_predict(long_careers):
    taxonomy, _, cfg, windows = long_careers
    model = CareerModel(
        CareerConfig(taxonomy_size=12, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_positions=8, year_range=cfg.year_range),
        taxonomy,
        seed=4,
    )
    assert_matches_predict(model, windows, taxonomy, 1e-12)


# --------------------------------------------------------------------------
# Property: every model family, any subset of items, windows included
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def models():
    cfg = SyntheticConfig(n_individuals=80, taxonomy_size=10, seed=91, markov_order=2, mean_records=5.0, year_range=YEARS)
    ds, params = generate_synthetic(cfg, taxonomy=TAXONOMY)
    train = list(ds.individuals)
    mnl = MnlModel(PrevCovariatesFeaturizer(TAXONOMY, year_range=YEARS), TAXONOMY).fit(train, MnlFitConfig(max_iters=40))
    career = CareerModel(
        CareerConfig(taxonomy_size=10, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_positions=10, year_range=YEARS),
        TAXONOMY,
        seed=8,
    )
    codec = TemplateCodec(TAXONOMY, TemplateConfig(dataset_tag="SYNTH"))
    vocab = train_vocab([codec.render_full(h) for h in train], 300)
    lm = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=16, n_layers=1, n_heads=2, context=512), seed=6)
    lm.params["w_out"] = np.random.default_rng(6).normal(0, 0.08, lm.params["w_out"].shape).astype(np.float32)
    return {
        "empirical": EmpiricalModel(TAXONOMY).fit(train),
        "mnl": mnl,
        "career": career,
        "oracle": OracleModel(params, TAXONOMY),
        "adapter": LmOccupationAdapter(lm, vocab, codec),
    }


@st.composite
def scoring_items(draw, max_histories=4):
    """(history, t) items from generated histories: a random subset of each
    history's transitions, some of them cut to a window of recent records."""
    items = []
    for h in draw(st.lists(career_histories(TAXONOMY, YEARS), min_size=1, max_size=max_histories)):
        ts = draw(st.lists(st.integers(1, len(h)), min_size=1, max_size=len(h), unique=True))
        for t in ts:
            k = draw(st.one_of(st.none(), st.integers(1, 4)))
            items.append((h, t) if k is None else truncate_history(h, t, k))
    return items


@pytest.mark.parametrize("name", ["empirical", "mnl", "career", "oracle"])
@settings(max_examples=40, deadline=None)
@given(items=scoring_items())
def test_distribution_models_score_as_pointwise_predict(models, name, items):
    assert_matches_predict(models[name], items, TAXONOMY, 1e-10)


@settings(max_examples=15, deadline=None)
@given(items=scoring_items(max_histories=2))
def test_adapter_scores_as_joint_log_probability(models, items):
    adapter = models["adapter"]
    scores = score_model(adapter, [], TAXONOMY, transitions=items)
    for i, (h, t) in enumerate(items):
        assert abs(scores.logp_true[i] - adapter.joint_log_probability(h, t, h.records[t - 1].occupation)) <= 1e-10
        if t == 1:
            assert np.isnan(scores.p_stay[i])
        else:
            stay = np.exp(adapter.joint_log_probability(h, t, h.records[t - 2].occupation))
            assert abs(scores.p_stay[i] - stay) <= 1e-10
