import numpy as np
import pytest
from scipy import stats as sstats

from careerseq.autograd import softmax_np as _softmax
from careerseq.corpus import CareerHistory, CareerRecord, Education, summarize
from careerseq.synthetic import (
    GeneratorParams,
    OracleModel,
    SyntheticConfig,
    SyntheticConfigError,
    generate_synthetic,
    oracle_probability,
)


def test_config_validation():
    with pytest.raises(SyntheticConfigError):
        SyntheticConfig(taxonomy_size=3).validate()
    with pytest.raises(SyntheticConfigError):
        SyntheticConfig(markov_order=3).validate()
    with pytest.raises(SyntheticConfigError):
        SyntheticConfig(stay_bias=1.5).validate()


def test_oracle_distributions_proper_everywhere():
    cfg = SyntheticConfig(n_individuals=40, taxonomy_size=15, seed=2, markov_order=2, gap_probability=0.5)
    ds, params = generate_synthetic(cfg)
    model = OracleModel(params, ds.taxonomy)
    for h in ds.individuals[:10]:
        for dist in model.predict_all(h):
            assert abs(dist.sum() - 1.0) < 1e-12
            assert (dist >= 0).all()


def test_uniform_degenerate_config():
    k = 10
    cfg = SyntheticConfig(
        n_individuals=5,
        taxonomy_size=k,
        seed=1,
        covariate_effect_strength=0.0,
        year_weight=0.0,
        transition_scale=0.0,
        stay_bias=1.0 / k,  # cancels the stay bonus exactly
    )
    ds, params = generate_synthetic(cfg)
    model = OracleModel(params, ds.taxonomy)
    h = ds.individuals[0]
    if len(h) > 1:
        dist = model.predict(h, 2)
        assert np.allclose(dist, 1.0 / k, atol=1e-12)


def test_oracle_matches_brute_force_enumeration_order2_gap():
    cfg = SyntheticConfig(n_individuals=3, taxonomy_size=7, seed=3, markov_order=2, gap_probability=0.5)
    ds, params = generate_synthetic(cfg)
    tax = ds.taxonomy
    st = ds.individuals[0].static
    k = cfg.taxonomy_size

    def step_logits(prev, prev2, year):
        logits = params.trans_logits[prev] + params.pair_logits[prev2] + params.context_logits(st, year)
        logits = logits.copy()
        logits[prev] += params.stay_bonus
        return logits

    records = (
        CareerRecord(2000, Education.COLLEGE, tax.code_at(2)),
        CareerRecord(2002, Education.COLLEGE, tax.code_at(5)),
        CareerRecord(2004, Education.COLLEGE, tax.code_at(1)),
    )
    h = CareerHistory("x", "SYNTH", st, records)
    null = params.null_index
    numer = np.zeros(k)
    denom = 0.0
    for z01 in range(k):
        p01 = _softmax(step_logits(2, null, 2001))[z01]
        p02 = _softmax(step_logits(z01, 2, 2002))[5]
        w = p01 * p02
        denom += w
        for z03 in range(k):
            p03 = _softmax(step_logits(5, z01, 2003))[z03]
            numer += w * p03 * _softmax(step_logits(z03, 5, 2004))
    brute = numer / denom
    oracle = oracle_probability(params, tax, h, 3)
    assert np.abs(brute - oracle).max() < 1e-12


def test_order1_gap_is_chapman_kolmogorov():
    cfg = SyntheticConfig(n_individuals=3, taxonomy_size=9, seed=5, markov_order=1)
    ds, params = generate_synthetic(cfg)
    st = ds.individuals[0].static
    records = (
        CareerRecord(2000, Education.COLLEGE, ds.taxonomy.code_at(4)),
        CareerRecord(2002, Education.COLLEGE, ds.taxonomy.code_at(0)),
    )
    h = CareerHistory("x", "SYNTH", st, records)
    direct = oracle_probability(params, ds.taxonomy, h, 2)
    two_step = params.step_matrix(st, 2001) @ params.step_matrix(st, 2002)
    assert np.abs(direct - two_step[4]).max() < 1e-12


def test_generation_deterministic():
    cfg = SyntheticConfig(n_individuals=200, taxonomy_size=14, seed=42)
    ds1, _ = generate_synthetic(cfg)
    ds2, _ = generate_synthetic(cfg)
    assert ds1.individuals == ds2.individuals


def test_staying_share_tracks_reference():
    # defaults are tuned so the staying share of non-first transitions lands
    # near the 51.6% reference figure
    ds, _ = generate_synthetic(SyntheticConfig(n_individuals=1500, taxonomy_size=334, seed=0))
    stats = summarize(ds)
    staying = stats.type_counts["stay"] / (stats.type_counts["stay"] + stats.type_counts["move"])
    assert abs(staying - 0.516) <= 0.03 * 0.516 + 1e-9, staying


def test_covariates_off_makes_groups_exchangeable():
    cfg = SyntheticConfig(n_individuals=900, taxonomy_size=10, seed=17, covariate_effect_strength=0.0)
    ds, _ = generate_synthetic(cfg)
    table = np.zeros((2, 10))
    for h in ds.individuals:
        row = 0 if h.static.gender.value == "male" else 1
        table[row, ds.taxonomy.index_of(h.records[0].occupation)] += 1
    _, p_value, _, _ = sstats.chi2_contingency(table + 1e-9)
    assert p_value > 0.01


def test_oracle_perplexity_matches_entropy_rate():
    cfg = SyntheticConfig(n_individuals=400, taxonomy_size=12, seed=23, markov_order=1)
    ds, params = generate_synthetic(cfg)
    model = OracleModel(params, ds.taxonomy)
    neg_logp = []
    entropy = []
    for h in ds.individuals[:200]:
        dists = model.predict_all(h)
        for t, dist in enumerate(dists, start=1):
            realized = ds.taxonomy.index_of(h.records[t - 1].occupation)
            neg_logp.append(-np.log(dist[realized]))
            entropy.append(-(dist * np.log(dist)).sum())
    neg_logp = np.asarray(neg_logp)
    entropy = np.asarray(entropy)
    # E[-log p(realized)] equals E[H(conditional)]; compare within a 4-sigma
    # Monte-Carlo band for the difference
    diff = neg_logp.mean() - entropy.mean()
    se = (neg_logp - entropy).std(ddof=1) / np.sqrt(len(neg_logp))
    assert abs(diff) < 4 * se + 1e-9


def test_params_save_load_round_trip(tmp_path):
    cfg = SyntheticConfig(n_individuals=5, taxonomy_size=8, seed=9, markov_order=2)
    ds, params = generate_synthetic(cfg)
    path = tmp_path / "params.npz"
    params.save(path)
    again = GeneratorParams.load(path)
    assert again.cfg == cfg
    assert np.array_equal(again.trans_logits, params.trans_logits)
    h = ds.individuals[0]
    if len(h) > 1:
        before = oracle_probability(params, ds.taxonomy, h, len(h))
        after = oracle_probability(again, ds.taxonomy, h, len(h))
        assert np.array_equal(before, after)
