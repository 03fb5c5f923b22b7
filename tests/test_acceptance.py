"""Acceptance suite: one test per criterion, each printing its verdict.

Heavy artifacts (the trained-model comparison world) are built once per
session; every tolerance is pinned in the assertions below.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from careerseq.corpus import split_dataset
from careerseq.evaluation import (
    BootstrapConfig,
    TransitionScores,
    bootstrap_metric,
    bootstrap_pair,
    calibration,
    gap_year_compare,
    move_auc,
    perplexity,
    score_model,
)
from careerseq.experiments import (
    randomize_covariates,
    run_gap_year,
    run_history_truncation,
)
from careerseq.models import (
    CareerConfig,
    CareerModel,
    EmpiricalModel,
    LmOccupationAdapter,
    MnlFitConfig,
    MnlModel,
    PrevOccupationFeaturizer,
    TokenLM,
    TokenLmConfig,
    collate_token_batch,
)
from careerseq.synthetic import OracleModel, SyntheticConfig, generate_synthetic
from careerseq.taxonomy import build_default_taxonomy
from careerseq.template import NumericTitleMap, TemplateCodec, TemplateConfig
from careerseq.tokenizer import train_template_vocab, train_vocab
from careerseq.training import LrSchedule, OptimizerConfig, gradient_check, train_career, train_token_lm


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS - {message}")


# ---------------------------------------------------------------------------
# 1. Codec fidelity
# ---------------------------------------------------------------------------


def test_01_codec_round_trip_and_fixtures():
    """parse(render_full(h)) == h on 1,000 fuzzed histories, both title
    modes; reference text fixtures byte-identical; under 10 seconds."""
    from test_template import (
        SURVEY_WORKER_TEXT,
        TRANSITION_2_PROMPT,
        TRANSITION_3_PROMPT,
        make_engineer_worker,
        make_survey_worker,
    )

    t0 = time.monotonic()
    ds, _ = generate_synthetic(
        SyntheticConfig(n_individuals=1000, taxonomy_size=40, seed=1001, mean_records=6.0)
    )
    literal = TemplateCodec(ds.taxonomy, TemplateConfig(dataset_tag="SYNTH"))
    nmap = NumericTitleMap.build(ds.taxonomy, seed=3)
    numeric = TemplateCodec(ds.taxonomy, TemplateConfig(dataset_tag="SYNTH", numeric_titles=True), nmap)
    for h in ds.individuals:
        assert literal.parse(literal.render_full(h), h.individual_id) == h
        assert numeric.parse(numeric.render_full(h), h.individual_id) == h

    tax334 = build_default_taxonomy(334)
    codec = TemplateCodec(tax334, TemplateConfig(dataset_tag="PSID"))
    worker = make_survey_worker()
    engineer = make_engineer_worker()
    assert codec.render_full(worker) == SURVEY_WORKER_TEXT
    assert codec.render_prompt(engineer, 2) == TRANSITION_2_PROMPT
    assert codec.render_prompt(engineer, 3) == TRANSITION_3_PROMPT
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, f"2,000 round trips + byte-identical fixtures in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Uniform-model perplexity
# ---------------------------------------------------------------------------


def test_02_uniform_model_perplexity_equals_taxonomy_size():
    tax = build_default_taxonomy(335)
    ds, _ = generate_synthetic(SyntheticConfig(n_individuals=40, taxonomy_size=335, seed=1002))

    class Uniform:
        def predict(self, history, t):
            return np.full(335, 1.0 / 335)

    scores = score_model(Uniform(), list(ds.individuals), ds.taxonomy)
    value = perplexity(scores)
    assert abs(value - 335.0) < 1e-9
    report(2, f"uniform perplexity {value:.12f} == 335")


# ---------------------------------------------------------------------------
# 3. Empirical counts and row-sum identity
# ---------------------------------------------------------------------------


def test_03_empirical_counts_and_row_sum_identity():
    rng = np.random.default_rng(1003)
    for _ in range(100):
        cfg = SyntheticConfig(
            n_individuals=int(rng.integers(5, 25)),
            taxonomy_size=int(rng.integers(5, 12)),
            seed=int(rng.integers(0, 100_000)),
            mean_records=4.0,
        )
        ds, _ = generate_synthetic(cfg)
        model = EmpiricalModel(ds.taxonomy).fit(list(ds.individuals))
        k = ds.taxonomy.size
        brute = np.zeros((k + 1, k), dtype=np.int64)
        for h in ds.individuals:
            prev = k
            for rec in h.records:
                cur = ds.taxonomy.index_of(rec.occupation)
                brute[prev, cur] += 1
                prev = cur
        assert np.array_equal(brute, model.count_pair)
    # symbolic identity on sampled counts
    model = EmpiricalModel(build_default_taxonomy(9))
    model.count_pair = rng.integers(0, 60, size=model.count_pair.shape).astype(np.int64)
    model.count_single = model.count_pair.sum(axis=1)
    for prev in range(10):
        n = model.count_single[prev]
        assert abs(model.row(prev).sum() - (n + 9) / (n + 1)) < 1e-12
    report(3, "brute-force recounts on 100 datasets + row-sum identity")


# ---------------------------------------------------------------------------
# 4. MNL reduction to empirical frequencies
# ---------------------------------------------------------------------------


def test_04_mnl_reduces_to_empirical_frequencies():
    from test_empirical_mnl import hist

    t0 = time.monotonic()
    tax = build_default_taxonomy(5)
    codes = tax.codes()
    rng = np.random.default_rng(1004)
    kernel = rng.dirichlet(np.full(5, 5.0), size=5)
    start = rng.dirichlet(np.full(5, 5.0))
    histories = []
    for i in range(500):
        seq = [int(rng.choice(5, p=start))]
        for _ in range(5):
            seq.append(int(rng.choice(5, p=kernel[seq[-1]])))
        histories.append(hist([codes[j] for j in seq], f"i{i}"))
    model = MnlModel(PrevOccupationFeaturizer(tax), tax, reg=0.0)
    model.fit(histories, MnlFitConfig(lr=0.2, max_iters=1500, seed=0))
    counts = np.zeros((6, 5))
    for h in histories:
        prev = 5
        for rec in h.records:
            cur = tax.index_of(rec.occupation)
            counts[prev, cur] += 1
            prev = cur
    total_kl, total_n = 0.0, 0
    for prev in range(6):
        n = counts[prev].sum()
        if n == 0:
            continue
        mle = counts[prev] / n
        probe_codes = [codes[prev], codes[0]] if prev < 5 else [codes[0]]
        pred = model.predict(hist(probe_codes, "probe"), len(probe_codes))
        mask = mle > 0
        total_kl += n * float((mle[mask] * np.log(mle[mask] / pred[mask])).sum())
        total_n += n
    kl = total_kl / total_n
    elapsed = time.monotonic() - t0
    assert kl < 1e-3
    assert elapsed < 60.0
    report(4, f"KL to empirical MLE {kl:.2e} in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. Gradient checks
# ---------------------------------------------------------------------------


def test_05_gradient_checks_token_lm_and_career():
    rng = np.random.default_rng(1005)
    lm = TokenLM(TokenLmConfig(vocab_size=120, d_model=16, n_layers=2, n_heads=2, context=96), seed=15, dtype=np.float64)
    lm.params["w_out"] = rng.normal(0, 0.05, lm.params["w_out"].shape)
    seqs = [list(rng.integers(0, 120, size=int(rng.integers(20, 60)))) for _ in range(3)]
    lm_err = gradient_check(lm, collate_token_batch(seqs, pad_id=0), n_samples=50, seed=16)

    cfg = SyntheticConfig(n_individuals=10, taxonomy_size=10, seed=1005, mean_records=5.0)
    ds, _ = generate_synthetic(cfg)
    career = CareerModel(
        CareerConfig(taxonomy_size=10, d_model=16, n_layers=2, n_heads=2, d_ff=64, max_positions=12, year_range=cfg.year_range),
        ds.taxonomy,
        seed=17,
        dtype=np.float64,
    )
    career.params["eta"] = rng.normal(0, 0.3, career.params["eta"].shape)
    career_err = gradient_check(career, career.build_batch(list(ds.individuals)), n_samples=50, seed=18)
    assert lm_err < 1e-4
    assert career_err < 1e-4
    report(5, f"max rel err: token LM {lm_err:.2e}, career {career_err:.2e} over 50 params each")


# ---------------------------------------------------------------------------
# 6. Chain-rule scoring consistency
# ---------------------------------------------------------------------------


def test_06_chain_rule_two_paths_and_normalization():
    cfg = SyntheticConfig(n_individuals=60, taxonomy_size=12, seed=1006, mean_records=5.0)
    ds, _ = generate_synthetic(cfg)
    codec = TemplateCodec(ds.taxonomy, TemplateConfig(dataset_tag="SYNTH"))
    texts = [codec.render_full(h) for h in ds.individuals]
    vocab = train_vocab(texts, 520)
    ctx = max(len(s) for s in vocab.encode_batch(texts)) + 64
    lm = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=32, n_layers=2, n_heads=2, context=ctx), seed=19)
    rng = np.random.default_rng(1006)
    lm.params["w_out"] = rng.normal(0, 0.08, lm.params["w_out"].shape).astype(np.float32)
    adapter = LmOccupationAdapter(lm, vocab, codec)

    pairs = []
    for h in ds.individuals:
        for t in range(1, len(h) + 1):
            for code in ds.taxonomy.codes():
                pairs.append((h, t, code))
    rng.shuffle(pairs)
    pairs = pairs[:500]
    worst = 0.0
    for h, t, code in pairs:
        stepwise = adapter.job_probability(h, t, code)
        joint = math.exp(adapter.joint_log_probability(h, t, code))
        worst = max(worst, abs(stepwise - joint) / max(stepwise, joint))
    assert worst < 1e-10

    h = ds.individuals[0]
    normalized = adapter.job_distribution(h, 1, normalized=True)
    assert abs(normalized.sum() - 1.0) < 1e-9
    raw_lp, norm_lp = [], []
    for hh in ds.individuals[:10]:
        for t in range(1, len(hh) + 1):
            dist = adapter.job_distribution(hh, t)
            idx = ds.taxonomy.index_of(hh.records[t - 1].occupation)
            raw_lp.append(np.log(dist[idx]))
            norm_lp.append(np.log(dist[idx] / dist.sum()))
    assert np.exp(-np.mean(raw_lp)) >= np.exp(-np.mean(norm_lp))
    report(6, f"500 pairs agree to rel diff {worst:.1e}; raw ppl >= normalized ppl")


# ---------------------------------------------------------------------------
# 7. Two-stage composition
# ---------------------------------------------------------------------------


def test_07_two_stage_composition_over_random_states():
    cfg = SyntheticConfig(n_individuals=220, taxonomy_size=14, seed=1007, mean_records=5.0)
    ds, _ = generate_synthetic(cfg)
    model = CareerModel(
        CareerConfig(taxonomy_size=14, d_model=24, n_layers=2, n_heads=2, d_ff=96, max_positions=12, year_range=cfg.year_range),
        ds.taxonomy,
        seed=20,
    )
    rng = np.random.default_rng(1007)
    model.params["eta"] = rng.normal(0, 0.6, model.params["eta"].shape).astype(np.float32)
    model.params["beta"] = rng.normal(0, 0.4, model.params["beta"].shape).astype(np.float32)
    checked = 0
    for h in ds.individuals:
        dists = model.predict_all(h)
        states = [model.forward_history(h, t) for t in range(1, len(h) + 1)]
        for t, dist in enumerate(dists, start=1):
            assert abs(dist.sum() - 1.0) < 1e-9
            if t > 1:
                prev_idx = ds.taxonomy.index_of(h.records[t - 2].occupation)
                gate = 1.0 / (1.0 + np.exp(-(states[t - 1] @ model.params["eta"].astype(np.float64))))
                assert abs(dist[prev_idx] - (1.0 - gate)) < 1e-12
            checked += 1
        if checked >= 1000:
            break
    assert checked >= 1000
    report(7, f"{checked} random states: sums to 1, previous occupation gets exactly 1-sigma")


# ---------------------------------------------------------------------------
# 8. Learning signal (trained models beat the empirical baseline)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def learning_world():
    cfg = SyntheticConfig(
        n_individuals=2000,
        taxonomy_size=24,
        seed=11,
        markov_order=1,
        mean_records=8.0,
        covariate_effect_strength=2.5,
        stay_bias=0.45,
        gap_probability=0.35,
        year_range=(1985, 2016),
        year_weight=0.3,
    )
    ds, params = generate_synthetic(cfg)
    ds = split_dataset(ds, (0.7, 0.1, 0.2), seed=1)
    return cfg, ds, params


def test_08_trained_models_beat_empirical_baseline(learning_world):
    t0 = time.monotonic()
    cfg, ds, params = learning_world
    train, valid, test = ds.split("train"), ds.split("valid"), ds.split("test")
    codec = TemplateCodec(ds.taxonomy, TemplateConfig(dataset_tag="SYNTH"))
    tr_texts = [codec.render_full(h) for h in train]
    va_texts = [codec.render_full(h) for h in valid]
    conts = [codec.title_continuation(c) for c in ds.taxonomy.codes()]
    vocab = train_template_vocab(tr_texts, conts, 900)
    ctx = max(len(s) for s in vocab.encode_batch([codec.render_full(h) for h in ds.individuals])) + 16

    emp = EmpiricalModel(ds.taxonomy).fit(train)
    p_emp = perplexity(score_model(emp, test, ds.taxonomy))
    p_oracle = perplexity(score_model(OracleModel(params, ds.taxonomy), test, ds.taxonomy))

    lm = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=80, n_layers=2, n_heads=2, context=ctx), seed=3)
    train_token_lm(
        lm,
        vocab,
        tr_texts,
        va_texts,
        OptimizerConfig(lr_schedule=LrSchedule(kind="linear_decay", peak=3e-3), max_epochs=6, batch_sequences=8, seed=2),
    )
    adapter = LmOccupationAdapter(lm, vocab, codec)
    p_lm = perplexity(score_model(adapter, test, ds.taxonomy))

    career = CareerModel(
        CareerConfig(taxonomy_size=24, d_model=80, n_layers=2, n_heads=2, d_ff=320, max_positions=30, year_range=cfg.year_range),
        ds.taxonomy,
        seed=7,
    )
    train_career(
        career,
        train,
        valid,
        cfg=OptimizerConfig(
            lr_schedule=LrSchedule(kind="inverse_sqrt_warmup", peak=5e-3, warmup_steps=150, init=1e-7),
            max_epochs=40,
            batch_sequences=16,
            weight_decay=0.0,
            seed=5,
            patience=6,
        ),
    )
    p_career = perplexity(score_model(career, test, ds.taxonomy))
    elapsed = time.monotonic() - t0

    assert p_career <= 0.97 * p_emp, (p_career, p_emp)
    assert p_lm <= 0.97 * p_emp, (p_lm, p_emp)
    assert p_oracle <= min(p_lm, p_career, p_emp)
    assert elapsed < 1800.0
    report(
        8,
        f"ppl: oracle {p_oracle:.3f} <= career {p_career:.3f}, lm {p_lm:.3f} <= 0.97 x empirical {p_emp:.3f} "
        f"({elapsed / 60:.1f} min)",
    )


# ---------------------------------------------------------------------------
# 9. History value under truncation
# ---------------------------------------------------------------------------


def test_09_history_truncation_order_contrast():
    results = {}
    for order in (2, 1):
        cfg = SyntheticConfig(
            n_individuals=3000,
            taxonomy_size=12,
            seed=55,
            markov_order=order,
            mean_records=16.0,
            gap_probability=0.75,
            year_range=(1979, 2021),
            stay_bias=0.45,
            pair_scale=0.8,
            return_bias=9.0,
        )
        ds, params = generate_synthetic(cfg)
        ds = split_dataset(ds, (0.7, 0.1, 0.2), seed=2)
        model = OracleModel(params, ds.taxonomy)
        rows = run_history_truncation(
            model,
            ds.taxonomy,
            ds.split("test"),
            t_min_grid=(10,),
            k_grid=(5, 10),
            seed=3,
            bootstrap=BootstrapConfig(b=100, seed=9),
        )
        results[order] = next(r for r in rows if r.get("k") == 10)
    d2 = results[2]
    assert d2["delta_vs_k5"] > 0
    assert d2["delta_vs_k5"] - 1.96 * d2["delta_se"] > 0  # CI excludes zero
    d1 = results[1]
    assert abs(d1["delta_vs_k5"]) <= 1.96 * d1["delta_se"] + 1e-12  # CI covers zero
    report(
        9,
        f"order-2 delta {d2['delta_vs_k5']:.3f} (se {d2['delta_se']:.3f}) > 0; "
        f"order-1 delta {d1['delta_vs_k5']:.1e} covered by CI",
    )


# ---------------------------------------------------------------------------
# 10. Covariate randomization
# ---------------------------------------------------------------------------


def test_10_covariate_randomization_strong_vs_null_field():
    cfg = SyntheticConfig(
        n_individuals=900,
        taxonomy_size=12,
        seed=71,
        covariate_effect_strength=2.0,
        gender_weight=1.0,
        region_weight=0.0,
        mean_records=7.0,
    )
    ds, params = generate_synthetic(cfg)
    ds = split_dataset(ds, (0.7, 0.1, 0.2), seed=4)
    model = OracleModel(params, ds.taxonomy)
    test = ds.split("test")
    donors = ds.split("valid")
    scores = {}
    for label, fields in (("gender", ["gender"]), ("region", ["region"])):
        modified = randomize_covariates(test, fields, donors, seed=1010 + len(label))
        s = score_model(model, modified, ds.taxonomy)
        s.individual_ids = np.array([h.individual_id for h in test for _ in range(len(h))], dtype=object)
        scores[label] = s
    pair = bootstrap_pair(perplexity, scores["gender"], scores["region"], BootstrapConfig(b=100, seed=5))
    assert pair.diff > 0
    assert pair.diff - 1.96 * pair.se_diff > 0
    report(10, f"gender-vs-region degradation gap {pair.diff:.3f} (se {pair.se_diff:.3f}), CI excludes 0")


# ---------------------------------------------------------------------------
# 11. Bootstrap behavior
# ---------------------------------------------------------------------------


def _grouped_scores(n_ind, per, seed):
    rng = np.random.default_rng(seed)
    ids, logp = [], []
    for i in range(n_ind):
        mu = rng.normal(-2.0, 0.5)
        for _ in range(per):
            ids.append(f"ind{i}")
            logp.append(mu + rng.normal(0, 0.2))
    n = len(logp)
    return TransitionScores(
        individual_ids=np.array(ids, dtype=object),
        t_index=np.ones(n, dtype=np.int64),
        ttype=np.array(["first"] * n, dtype=object),
        logp_true=np.array(logp),
        p_stay=np.full(n, np.nan),
    )


def test_11_bootstrap_determinism_scaling_and_pairing():
    scores = _grouped_scores(100, 4, 2)
    a = bootstrap_metric(perplexity, scores, BootstrapConfig(b=100, seed=5))
    b = bootstrap_metric(perplexity, scores, BootstrapConfig(b=100, seed=5))
    assert np.array_equal(a.values, b.values) and a.se == b.se

    se100 = bootstrap_metric(perplexity, scores, BootstrapConfig(b=300, seed=4)).se
    se400 = bootstrap_metric(perplexity, _grouped_scores(400, 4, 3), BootstrapConfig(b=300, seed=5)).se
    ratio = se100 / se400
    assert abs(ratio - 2.0) <= 0.4  # 1/sqrt(n) within 20%

    shifted = TransitionScores(
        individual_ids=scores.individual_ids.copy(),
        t_index=scores.t_index.copy(),
        ttype=scores.ttype.copy(),
        logp_true=scores.logp_true + 0.05,
        p_stay=scores.p_stay.copy(),
    )
    paired = bootstrap_pair(perplexity, scores, shifted, BootstrapConfig(b=100, seed=6))
    se_naive = np.sqrt(2) * bootstrap_metric(perplexity, scores, BootstrapConfig(b=100, seed=7)).se
    assert paired.se_diff < se_naive / 5
    assert np.corrcoef(paired.values_a, paired.values_b)[0, 1] > 0.999
    report(11, f"deterministic; scaling ratio {ratio:.2f}; paired SE {paired.se_diff:.2e} << naive {se_naive:.2e}")


# ---------------------------------------------------------------------------
# 12. Gap-year consistency
# ---------------------------------------------------------------------------


def test_12_gap_year_compound_equals_matrix_product():
    cfg = SyntheticConfig(n_individuals=250, taxonomy_size=12, seed=1012, markov_order=1, gap_probability=0.5)
    ds, params = generate_synthetic(cfg)
    model = OracleModel(params, ds.taxonomy)
    rows = run_gap_year(model, ds.taxonomy, list(ds.individuals), n_sample=30, seed=4)
    body, summary = rows[:-1], rows[-1]
    assert len(body) >= 20
    for row in body:
        assert abs(row["direct"] - row["compound"]) < 1e-10
    assert summary["direct"] > 1.0 - 1e-9  # log-prob correlation
    assert "0.93" in summary["annotation"]

    # spot-check one transition against the explicit two-step matrix product
    h, t = next(
        (h, t)
        for h in ds.individuals
        for t in range(2, len(h) + 1)
        if h.records[t - 1].year == h.records[t - 2].year + 2
    )
    direct, compound = gap_year_compare(model, ds.taxonomy, h, t)
    m1 = params.step_matrix(h.static, h.records[t - 1].year - 1)
    m2 = params.step_matrix(h.static, h.records[t - 1].year)
    prev_idx = ds.taxonomy.index_of(h.records[t - 2].occupation)
    y_idx = ds.taxonomy.index_of(h.records[t - 1].occupation)
    closed_form = (m1 @ m2)[prev_idx, y_idx]
    assert abs(direct - closed_form) < 1e-10
    assert abs(compound - closed_form) < 1e-10
    report(12, f"{len(body)} gap transitions: compound == two-step product to 1e-10, corr = 1")


# ---------------------------------------------------------------------------
# 13. Calibration and AUC of the oracle
# ---------------------------------------------------------------------------


def test_13_oracle_calibration_and_auc():
    cfg = SyntheticConfig(
        n_individuals=400, taxonomy_size=12, seed=131, mean_records=7.0, covariate_effect_strength=1.5, stay_bias=0.45
    )
    ds, params = generate_synthetic(cfg)
    ds = split_dataset(ds, (0.7, 0.1, 0.2), seed=1)
    oracle = OracleModel(params, ds.taxonomy)
    test = ds.split("test")
    observed = calibration(score_model(oracle, test, ds.taxonomy)).error
    floors = []
    for r in range(20):
        resim_cfg = replace(cfg, n_individuals=len(test), sample_seed=5000 + r)
        resim, _ = generate_synthetic(resim_cfg)
        floors.append(calibration(score_model(oracle, list(resim.individuals), ds.taxonomy)).error)
    floor = float(np.mean(floors))
    assert observed < 3.0 * floor

    emp = EmpiricalModel(ds.taxonomy).fit(ds.split("train"))
    auc_oracle = move_auc(score_model(oracle, test, ds.taxonomy))
    auc_emp = move_auc(score_model(emp, test, ds.taxonomy))
    assert auc_oracle > auc_emp
    report(13, f"calibration error {observed:.2f} < 3 x floor {floor:.2f}; AUC {auc_oracle:.3f} > {auc_emp:.3f}")


# ---------------------------------------------------------------------------
# 14. Pipeline determinism
# ---------------------------------------------------------------------------


def test_14_full_pipeline_byte_identical(tmp_path):
    def run_cli(args):
        proc = subprocess.run(
            [sys.executable, "-m", "careerseq.cli"] + args,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    metrics = []
    for run in ("r1", "r2"):
        root = tmp_path / run
        root.mkdir()
        data = root / "data.jsonl"
        run_cli([
            "gen-data", "--out", str(data), "--n", "60", "--taxonomy-size", "10",
            "--mean-records", "5", "--seed", "12",
        ])
        split = root / "split.jsonl"
        run_cli(["split", "--in", str(data), "--taxonomy", str(data.with_suffix(".taxonomy.csv")),
                 "--out", str(split), "--seed", "12"])
        ckpt = root / "lm"
        run_cli([
            "train", "lm", "--data", str(split), "--taxonomy", str(data.with_suffix(".taxonomy.csv")),
            "--out", str(ckpt), "--seed", "12", "--epochs", "2", "--d-model", "32", "--n-layers", "1",
            "--vocab-size", "420", "--batch", "8",
        ])
        out = root / "eval"
        run_cli([
            "eval", "--data", str(split), "--taxonomy", str(data.with_suffix(".taxonomy.csv")),
            "--model-a", str(ckpt), "--out", str(out), "--bootstrap", "20", "--seed", "12",
        ])
        metrics.append((out / "metrics.csv").read_bytes())
    assert metrics[0] == metrics[1]
    report(14, f"two pipeline runs produced identical metrics ({len(metrics[0])} bytes)")
