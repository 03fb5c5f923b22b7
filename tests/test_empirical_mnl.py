import json

import numpy as np
import pytest

from careerseq.corpus import (
    CareerHistory,
    CareerRecord,
    Education,
    Ethnicity,
    Gender,
    Region,
    StaticCovariates,
)
from careerseq.models import (
    CheckpointError,
    EmpiricalModel,
    MnlFitConfig,
    MnlModel,
    PrevCovariatesFeaturizer,
    PrevOccupationFeaturizer,
    config_hash,
)
from careerseq.synthetic import SyntheticConfig, generate_synthetic
from careerseq.taxonomy import build_default_taxonomy
from careerseq.training import gradient_check

TAX8 = build_default_taxonomy(8)


def hist(codes, individual_id="a", start_year=2000):
    records = tuple(
        CareerRecord(start_year + i, Education.COLLEGE, c) for i, c in enumerate(codes)
    )
    return CareerHistory(
        individual_id,
        "TEST",
        StaticCovariates(Gender.MALE, Ethnicity.WHITE, Region.WEST, 1970),
        records,
    )


class TestEmpirical:
    def test_two_individuals_counts(self):
        a_code, b_code = TAX8.code_at(0), TAX8.code_at(1)
        model = EmpiricalModel(TAX8).fit([hist([a_code, a_code]), hist([a_code, b_code], "b")])
        assert model.count_pair[0, 0] == 1  # A -> A
        assert model.count_pair[0, 1] == 1  # A -> B
        assert model.count_pair[model.null_index, 0] == 2  # two first observations of A

    def test_counts_match_brute_force_recount(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            cfg = SyntheticConfig(
                n_individuals=int(rng.integers(5, 30)),
                taxonomy_size=int(rng.integers(5, 12)),
                seed=int(rng.integers(0, 10_000)),
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
            assert np.array_equal(model.count_single, brute.sum(axis=1))

    def test_unseen_previous_gives_all_ones(self):
        a_code = TAX8.code_at(0)
        model = EmpiricalModel(TAX8).fit([hist([a_code])])
        # a row with zero counts: every entry is (0+1)/(0+1) = 1
        unseen_prev = TAX8.code_at(3)
        probe = hist([unseen_prev, a_code], "probe")
        assert np.array_equal(model.predict(probe, 2), np.ones(TAX8.size))

    def test_normalized_variant_sums_to_one(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=30, taxonomy_size=9, seed=5))
        model = EmpiricalModel(ds.taxonomy, normalized=True).fit(list(ds.individuals))
        h = ds.individuals[0]
        for t in range(1, len(h) + 1):
            assert abs(model.predict(h, t).sum() - 1.0) < 1e-12

    def test_as_written_row_sum_identity(self):
        # row sum of the as-written predictor is (count + |Y|) / (count + 1);
        # checked symbolically on random counts
        rng = np.random.default_rng(3)
        model = EmpiricalModel(TAX8)
        model.count_pair = rng.integers(0, 40, size=model.count_pair.shape).astype(np.int64)
        model.count_single = model.count_pair.sum(axis=1)
        k = TAX8.size
        for prev in range(k + 1):
            row_sum = model.row(prev).sum()
            n = model.count_single[prev]
            assert abs(row_sum - (n + k) / (n + 1)) < 1e-12

    def test_checkpoint_round_trip(self, tmp_path):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=40, taxonomy_size=10, seed=6))
        model = EmpiricalModel(ds.taxonomy).fit(list(ds.individuals))
        model.save(tmp_path / "ckpt")
        again = EmpiricalModel.load(tmp_path / "ckpt", ds.taxonomy)
        assert np.array_equal(again.count_pair, model.count_pair)
        h = ds.individuals[0]
        assert np.array_equal(again.predict(h, 1), model.predict(h, 1))


class TestMnl:
    def test_zero_features_give_uniform_prediction(self):
        class ZeroFeaturizer(PrevOccupationFeaturizer):
            def transform(self, history, t):
                return np.zeros(self.dim)

        model = MnlModel(ZeroFeaturizer(TAX8), TAX8)
        h = hist([TAX8.code_at(0), TAX8.code_at(1)])
        model.fit([h], MnlFitConfig(max_iters=50))
        assert np.allclose(model.predict(h, 2), 1.0 / TAX8.size, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=20, taxonomy_size=9, seed=9))
        model = MnlModel(PrevCovariatesFeaturizer(ds.taxonomy), ds.taxonomy, reg=0.01)
        batch = model.design_matrix(list(ds.individuals))
        err = gradient_check(model, batch, n_samples=50, seed=1)
        assert err < 1e-4

    def test_one_hot_mnl_converges_to_empirical_frequencies(self):
        # maximum likelihood with previous-occupation one-hots reduces to the
        # conditional multinomial MLE: the normalized empirical frequencies
        tax = build_default_taxonomy(5)
        codes = tax.codes()
        rng = np.random.default_rng(2)
        # transition kernel with mass everywhere so the MLE stays interior
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
        total_kl = 0.0
        total_n = 0
        for prev in range(6):
            n = counts[prev].sum()
            if n == 0:
                continue
            mle = counts[prev] / n
            probe_codes = [codes[prev], codes[0]] if prev < 5 else [codes[0]]
            probe = hist(probe_codes, "probe", start_year=2000)
            pred = model.predict(probe, len(probe_codes))
            mask = mle > 0
            total_kl += n * float((mle[mask] * np.log(mle[mask] / pred[mask])).sum())
            total_n += n
        assert total_kl / total_n < 1e-3

    def test_checkpoint_round_trip(self, tmp_path):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=30, taxonomy_size=8, seed=12))
        feat = PrevOccupationFeaturizer(ds.taxonomy)
        model = MnlModel(feat, ds.taxonomy, reg=0.001)
        model.fit(list(ds.individuals), MnlFitConfig(max_iters=100))
        model.save(tmp_path / "mnl")
        again = MnlModel.load(tmp_path / "mnl", feat, ds.taxonomy)
        h = ds.individuals[0]
        assert np.allclose(again.predict(h, 1), model.predict(h, 1), atol=1e-7)

    @pytest.mark.parametrize("key", ["taxonomy_size", "featurizer", "feature_dim", "reg"])
    def test_checkpoint_missing_config_key_rejected(self, tmp_path, key):
        feat = PrevOccupationFeaturizer(TAX8)
        MnlModel(feat, TAX8).save(tmp_path / "mnl")
        path = tmp_path / "mnl" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["config"][key]
        manifest["config_hash"] = config_hash(manifest["config"])  # so the hash check passes
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="does not fit MnlConfig"):
            MnlModel.load(tmp_path / "mnl", feat, TAX8)

    def test_non_finite_features_rejected(self):
        model = MnlModel(PrevOccupationFeaturizer(TAX8), TAX8)
        x = np.full((2, model.featurizer.dim), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            model.loss_and_grads((x, np.array([0, 1])))
