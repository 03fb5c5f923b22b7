from dataclasses import replace

import numpy as np
import pytest

from careerseq.corpus import CareerHistory, CareerRecord, Education
from careerseq.evaluation import (
    BootstrapConfig,
    EvalError,
    TransitionScores,
    _midranks,
    bootstrap_metric,
    bootstrap_pair,
    calibration,
    gap_year_compare,
    mover_perplexity,
    move_auc,
    perplexity,
    read_stamped_csv,
    score_model,
    write_metrics_csv,
)
from careerseq.models import EmpiricalModel
from careerseq.synthetic import OracleModel, SyntheticConfig, generate_synthetic
from careerseq.taxonomy import build_default_taxonomy


def make_scores(logp, p_stay=None, ttype=None, ids=None, t=None):
    n = len(logp)
    return TransitionScores(
        individual_ids=np.array(ids if ids is not None else [f"i{k}" for k in range(n)], dtype=object),
        t_index=np.array(t if t is not None else [1] * n, dtype=np.int64),
        ttype=np.array(ttype if ttype is not None else ["first"] * n, dtype=object),
        logp_true=np.array(logp, dtype=float),
        p_stay=np.array(p_stay if p_stay is not None else [np.nan] * n, dtype=float),
    )


class UniformModel:
    def __init__(self, taxonomy):
        self.taxonomy = taxonomy

    def predict(self, history, t):
        return np.full(self.taxonomy.size, 1.0 / self.taxonomy.size)


class TestPerplexity:
    def test_uniform_model_scores_taxonomy_size(self):
        tax = build_default_taxonomy(335)
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=20, taxonomy_size=335, seed=1))
        scores = score_model(UniformModel(ds.taxonomy), list(ds.individuals), ds.taxonomy)
        assert abs(perplexity(scores) - 335.0) < 1e-9

    def test_perfect_oracle_on_deterministic_data_is_one(self):
        scores = make_scores([0.0, 0.0, 0.0])
        assert perplexity(scores) == pytest.approx(1.0)

    def test_matches_brute_force_recompute(self):
        rng = np.random.default_rng(4)
        logp = -rng.uniform(0.1, 5.0, size=1000)
        scores = make_scores(logp)
        brute = np.exp(-np.sum(logp) / 1000)
        assert abs(perplexity(scores) - brute) < 1e-12
        # two-way identity: exp of the mean negative log-likelihood
        assert abs(np.log(perplexity(scores)) + logp.mean()) < 1e-12

    def test_empty_selection_rejected(self):
        scores = make_scores([0.0])
        with pytest.raises(EvalError):
            perplexity(scores.select(np.array([False])))


class TestMoverPerplexity:
    def test_zero_stay_probability_equals_unconditional(self):
        scores = make_scores([-1.0, -2.0], p_stay=[0.0, 0.0], ttype=["move", "move"], t=[2, 2])
        res = mover_perplexity(scores)
        assert res.value == pytest.approx(perplexity(scores))
        assert res.n_excluded == 0

    def test_conditional_sums_to_one_for_proper_base(self):
        tax = build_default_taxonomy(8)
        ds, params = generate_synthetic(SyntheticConfig(n_individuals=20, taxonomy_size=8, seed=3))
        model = OracleModel(params, ds.taxonomy)
        h = next(x for x in ds.individuals if len(x) > 1)
        dist = model.predict(h, 2)
        prev_idx = ds.taxonomy.index_of(h.records[0].occupation)
        cond = np.delete(dist, prev_idx) / (1.0 - dist[prev_idx])
        assert abs(cond.sum() - 1.0) < 1e-12

    def test_degenerate_stay_excluded_and_counted(self):
        scores = make_scores([-1.0, -2.0, -0.5], p_stay=[1.0, 0.5, 0.2], ttype=["move"] * 3, t=[2, 2, 2])
        res = mover_perplexity(scores)
        assert res.n_excluded == 1

    def test_movers_harder_than_overall_for_oracle(self):
        ds, params = generate_synthetic(SyntheticConfig(n_individuals=300, taxonomy_size=12, seed=7, stay_bias=0.5))
        model = OracleModel(params, ds.taxonomy)
        scores = score_model(model, list(ds.individuals), ds.taxonomy)
        assert mover_perplexity(scores).value >= perplexity(scores)


class TestAuc:
    def test_perfect_separation(self):
        scores = make_scores(
            [-1] * 6,
            p_stay=[0.9, 0.8, 0.7, 0.2, 0.1, 0.3],
            ttype=["stay", "stay", "stay", "move", "move", "move"],
            t=[2] * 6,
        )
        assert move_auc(scores) == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(11)
        n = 4000
        p_stay = rng.uniform(size=n)
        ttype = np.where(rng.uniform(size=n) < 0.5, "move", "stay")
        scores = make_scores([-1] * n, p_stay=p_stay, ttype=ttype.tolist(), t=[2] * n)
        assert abs(move_auc(scores) - 0.5) < 0.03

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(12)
        n = 300
        p_stay = rng.uniform(0.01, 0.99, size=n)
        ttype = np.where(rng.uniform(size=n) < 0.4, "move", "stay").tolist()
        a = make_scores([-1] * n, p_stay=p_stay, ttype=ttype, t=[2] * n)
        # strictly monotone transform of the move score 1 - p_stay
        transformed = 1.0 - (1.0 - p_stay) ** 3
        b = make_scores([-1] * n, p_stay=transformed, ttype=ttype, t=[2] * n)
        assert move_auc(a) == pytest.approx(move_auc(b))

    def test_single_class_rejected(self):
        scores = make_scores([-1, -1], p_stay=[0.2, 0.3], ttype=["move", "move"], t=[2, 2])
        with pytest.raises(EvalError):
            move_auc(scores)

    def test_first_observations_excluded(self):
        scores = make_scores(
            [-1] * 4,
            p_stay=[np.nan, 0.9, 0.1, 0.5],
            ttype=["first", "stay", "move", "stay"],
            t=[1, 2, 3, 4],
        )
        assert 0.0 <= move_auc(scores) <= 1.0


def _midranks_loop(values):
    """The tie-walking loop ``_midranks`` replaced: 1-based ranks, ties
    sharing the mean of the ranks they span."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestMidranks:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_tie_walking_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        # few distinct values so ties are common; signed zeros tie with each other
        values = rng.choice(np.array([-0.0, 0.0, 0.25, 0.5, 1.0, -1.5, 1e-300]), size=n)
        if seed % 2:
            values = values + rng.integers(0, 3, size=n) * rng.uniform()
        got = _midranks(values)
        assert got.dtype == np.float64
        assert np.array_equal(got, _midranks_loop(values))

    def test_empty_and_all_tied(self):
        assert _midranks(np.array([])).size == 0
        assert np.array_equal(_midranks(np.full(5, 0.3)), np.full(5, 3.0))


class TestCalibration:
    def test_error_recomputes_from_bins(self):
        rng = np.random.default_rng(13)
        n = 500
        p_stay = rng.uniform(0.05, 0.95, size=n)
        ttype = np.where(rng.uniform(size=n) < 1.0 - p_stay, "move", "stay").tolist()
        scores = make_scores([-1] * n, p_stay=p_stay, ttype=ttype, t=[2] * n)
        report = calibration(scores)
        gaps = [b.emp_rate * b.count - b.mean_pred * b.count for b in report.bins]
        assert abs(np.sqrt(np.mean(np.square(gaps))) - report.error) < 1e-12

    def test_zero_error_fixture(self):
        # per-bin sums of predictions match outcomes exactly: alternating
        # outcomes at probability one half
        n = 40
        p_stay = np.full(n, 0.5)
        ttype = (["move", "stay"] * (n // 2))
        scores = make_scores([-1] * n, p_stay=p_stay, ttype=ttype, t=[2] * n)
        report = calibration(scores)
        assert report.error < 1e-9

    def test_constant_predictor_merges_bins(self):
        n = 50
        scores = make_scores([-1] * n, p_stay=[0.5] * n, ttype=["move", "stay"] * 25, t=[2] * n)
        report = calibration(scores)
        assert len(report.bins) == 1

    def test_too_few_points_rejected(self):
        scores = make_scores([-1] * 3, p_stay=[0.5] * 3, ttype=["move"] * 3, t=[2] * 3)
        with pytest.raises(EvalError):
            calibration(scores)


class TestBootstrap:
    def grouped_scores(self, n_ind=50, per_ind=4, seed=0):
        rng = np.random.default_rng(seed)
        ids, logp = [], []
        for i in range(n_ind):
            mu = rng.normal(-2.0, 0.5)
            for _ in range(per_ind):
                ids.append(f"ind{i}")
                logp.append(mu + rng.normal(0, 0.2))
        return make_scores(logp, ids=ids)

    def test_seeded_determinism(self):
        scores = self.grouped_scores()
        a = bootstrap_metric(perplexity, scores, BootstrapConfig(b=30, seed=5))
        b = bootstrap_metric(perplexity, scores, BootstrapConfig(b=30, seed=5))
        assert np.array_equal(a.values, b.values)
        assert a.se == b.se

    def test_constant_metric_zero_se(self):
        scores = self.grouped_scores()
        res = bootstrap_metric(lambda s: 42.0, scores, BootstrapConfig(b=10, seed=1))
        assert res.se == 0.0

    def test_se_scales_inverse_sqrt_n(self):
        small = self.grouped_scores(n_ind=100, seed=2)
        large = self.grouped_scores(n_ind=400, seed=3)
        se_small = bootstrap_metric(perplexity, small, BootstrapConfig(b=200, seed=4)).se
        se_large = bootstrap_metric(perplexity, large, BootstrapConfig(b=200, seed=5)).se
        ratio = se_small / se_large
        assert abs(ratio - 2.0) < 0.4

    def test_paired_differences_share_replicates(self):
        scores_a = self.grouped_scores(seed=6)
        scores_b = make_scores(
            (scores_a.logp_true + 0.05).tolist(), ids=scores_a.individual_ids.tolist()
        )
        paired = bootstrap_pair(perplexity, scores_a, scores_b, BootstrapConfig(b=100, seed=7))
        # a constant per-transition offset makes the perplexity ratio exact,
        # so shared replicates give a tiny difference SE; naive independent
        # resampling would inflate it by orders of magnitude
        se_a = bootstrap_metric(perplexity, scores_a, BootstrapConfig(b=100, seed=8)).se
        naive = np.sqrt(2) * se_a
        assert paired.se_diff < naive / 5
        # replicate index sets are shared: value arrays move in lockstep
        corr = np.corrcoef(paired.values_a, paired.values_b)[0, 1]
        assert corr > 0.999

    def test_misaligned_pair_rejected(self):
        a = self.grouped_scores(seed=9)
        b = self.grouped_scores(n_ind=49, seed=9)
        with pytest.raises(EvalError):
            bootstrap_pair(perplexity, a, b, BootstrapConfig(b=5, seed=0))

    def test_b_minimum(self):
        with pytest.raises(EvalError):
            BootstrapConfig(b=1)

    def test_standard_errors_match_the_spread_across_test_sets(self):
        # the cluster-bootstrap SE on one test set estimates how the metric
        # varies across test sets drawn from the same generator; the bound
        # on mean SE / spread was fixed before the first run
        cfg = SyntheticConfig(n_individuals=1500, taxonomy_size=24, seed=11)
        train, params = generate_synthetic(cfg)
        oracle = OracleModel(params, train.taxonomy)
        empirical = EmpiricalModel(train.taxonomy).fit(list(train.individuals))
        points, ses = [], []
        for sample_seed in range(1000, 1030):
            test, _ = generate_synthetic(replace(cfg, n_individuals=200, sample_seed=sample_seed))
            histories = list(test.individuals)
            a = score_model(oracle, histories, test.taxonomy)
            b = score_model(empirical, histories, test.taxonomy)
            pair = bootstrap_pair(perplexity, a, b, BootstrapConfig(b=200, seed=sample_seed))
            points.append((pair.point_a, pair.diff))
            ses.append((pair.se_a, pair.se_diff))
        ratio = np.mean(ses, axis=0) / np.std(points, axis=0, ddof=1)
        assert ((0.75 <= ratio) & (ratio <= 1.33)).all(), ratio


class TestGapYear:
    def test_oracle_compound_equals_direct(self):
        cfg = SyntheticConfig(n_individuals=200, taxonomy_size=9, seed=41, markov_order=1, gap_probability=0.5)
        ds, params = generate_synthetic(cfg)
        model = OracleModel(params, ds.taxonomy)
        checked = 0
        logs = []
        for h in ds.individuals:
            for t in range(2, len(h) + 1):
                if h.records[t - 1].year == h.records[t - 2].year + 2:
                    direct, compound = gap_year_compare(model, ds.taxonomy, h, t)
                    assert abs(direct - compound) < 1e-10
                    logs.append((np.log(direct), np.log(compound)))
                    checked += 1
            if checked >= 12:
                break
        assert checked >= 5
        arr = np.array(logs)
        corr = np.corrcoef(arr[:, 0], arr[:, 1])[0, 1]
        assert corr > 1.0 - 1e-9

    def test_degenerate_certain_model(self):
        # a model certain of one occupation gives direct = compound = 1
        tax = build_default_taxonomy(6)
        target = tax.code_at(0)

        class Certain:
            def predict(self, history, t):
                out = np.zeros(tax.size)
                out[tax.index_of(target)] = 1.0
                return out

        from careerseq.corpus import Ethnicity, Gender, Region, StaticCovariates

        h = CareerHistory(
            "x",
            "T",
            StaticCovariates(Gender.MALE, Ethnicity.WHITE, Region.WEST, 1980),
            (
                CareerRecord(2000, Education.COLLEGE, target),
                CareerRecord(2002, Education.COLLEGE, target),
            ),
        )
        direct, compound = gap_year_compare(Certain(), tax, h, 2)
        assert direct == pytest.approx(1.0)
        assert compound == pytest.approx(1.0)

    def test_non_gap_transition_rejected(self):
        tax = build_default_taxonomy(6)
        from careerseq.corpus import Ethnicity, Gender, Region, StaticCovariates

        h = CareerHistory(
            "x",
            "T",
            StaticCovariates(Gender.MALE, Ethnicity.WHITE, Region.WEST, 1980),
            (
                CareerRecord(2000, Education.COLLEGE, tax.code_at(0)),
                CareerRecord(2001, Education.COLLEGE, tax.code_at(0)),
            ),
        )
        with pytest.raises(EvalError, match="gap"):
            gap_year_compare(None, tax, h, 2)


class TestMetricsCsv:
    def test_round_trip_with_provenance(self, tmp_path):
        rows = [
            {"dataset": "synth", "split": "test", "model": "emp", "metric": "perplexity",
             "filter": "all", "value": 3.25, "se": 0.1, "B": 100, "seed": 7}
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows, {"config_hash": "abc123", "seed": 7})
        _, again, provenance = read_stamped_csv(path)
        assert provenance["config_hash"] == "abc123"
        assert again[0]["metric"] == "perplexity"
        assert float(again[0]["value"]) == pytest.approx(3.25)
