import numpy as np
import pytest

from careerseq.models import CareerConfig, CareerModel, TokenLM, TokenLmConfig, collate_token_batch
from careerseq.synthetic import SyntheticConfig, generate_synthetic
from careerseq.template import TemplateCodec, TemplateConfig
from careerseq.tokenizer import train_vocab
from careerseq.training import (
    AdamState,
    EpochRecord,
    LrSchedule,
    OptimizerConfig,
    TrainingDivergedError,
    TrainReport,
    gradient_check,
    select_checkpoint,
    train_career,
    train_token_lm,
)


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        # two-parameter toy problem, one update, compared to the closed form
        params = {"w": np.array([0.5, -0.25])}
        grads = {"w": np.array([0.2, -0.1])}
        lr, (b1, b2), wd = 1e-3, (0.9, 0.98), 0.01
        adam = AdamState(like=params)
        adam.update(params, grads, lr=lr, betas=(b1, b2), weight_decay=wd, step=1)
        g = np.array([0.2, -0.1])
        w0 = np.array([0.5, -0.25])
        m_hat = (1 - b1) * g / (1 - b1)
        v_hat = (1 - b2) * g * g / (1 - b2)
        expected = w0 - lr * (m_hat / (np.sqrt(v_hat) + AdamState.EPS) + wd * w0)
        assert np.abs(params["w"] - expected).max() < 1e-12

    def test_two_steps_track_moments(self):
        params = {"w": np.array([1.0])}
        adam = AdamState(like=params)
        m = v = 0.0
        w = 1.0
        for step, g in enumerate([0.5, -0.3], start=1):
            adam.update(params, {"w": np.array([g])}, lr=0.01, betas=(0.9, 0.98), weight_decay=0.0, step=step)
            m = 0.9 * m + 0.1 * g
            v = 0.98 * v + 0.02 * g * g
            w -= 0.01 * (m / (1 - 0.9**step)) / (np.sqrt(v / (1 - 0.98**step)) + AdamState.EPS)
        assert abs(params["w"][0] - w) < 1e-12


class TestSchedules:
    def test_inverse_sqrt_warmup(self):
        sched = LrSchedule(kind="inverse_sqrt_warmup", peak=5e-4, warmup_steps=4000, init=1e-7)
        assert sched.lr_at(1, 10_000) == pytest.approx(1e-7 + (5e-4 - 1e-7) / 4000)
        assert sched.lr_at(4000, 10_000) == pytest.approx(5e-4)
        assert sched.lr_at(16_000, 100_000) == pytest.approx(5e-4 / 2)

    def test_linear_decay_reaches_zero(self):
        sched = LrSchedule(kind="linear_decay", peak=1e-5)
        assert sched.lr_at(0, 100) == pytest.approx(1e-5)
        assert sched.lr_at(50, 100) == pytest.approx(5e-6)
        assert sched.lr_at(100, 100) == 0.0

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(betas=(1.0, 0.98))


class TestSelectCheckpoint:
    def make(self, losses):
        return TrainReport(
            epochs=[EpochRecord(i + 1, 0.0, v, f"epoch-{i + 1}") for i, v in enumerate(losses)]
        )

    def test_monotone_decreasing_selects_last(self):
        assert select_checkpoint(self.make([3, 2, 1])) == "epoch-3"

    def test_tie_breaks_to_earliest(self):
        assert select_checkpoint(self.make([3, 2, 2, 4])) == "epoch-2"

    def test_invariant_to_epoch_metadata_permutation(self):
        report = self.make([3, 2, 2, 4])
        shuffled = TrainReport(epochs=[report.epochs[i] for i in (2, 0, 3, 1)])
        assert select_checkpoint(shuffled) == select_checkpoint(report)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            select_checkpoint(TrainReport())


@pytest.fixture(scope="module")
def lm_world():
    cfg = SyntheticConfig(n_individuals=50, taxonomy_size=10, seed=31, mean_records=5.0, year_range=(2000, 2012))
    ds, _ = generate_synthetic(cfg)
    codec = TemplateCodec(ds.taxonomy, TemplateConfig())
    texts = [codec.render_full(h) for h in ds.individuals]
    vocab = train_vocab(texts, 420)
    ctx = max(len(s) for s in vocab.encode_batch(texts)) + 4
    return cfg, ds, codec, texts, vocab, ctx


class TestTokenLmTraining:
    def test_memorizes_single_document(self, lm_world):
        _, _, _, texts, vocab, ctx = lm_world
        lm = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=48, n_layers=2, n_heads=2, context=ctx), seed=0)
        report, _ = train_token_lm(
            lm,
            vocab,
            [texts[0]],
            [texts[0]],
            OptimizerConfig(lr_schedule=LrSchedule(kind="constant", peak=5e-3), max_epochs=80, batch_sequences=1, seed=1),
        )
        assert report.epochs[-1].train_loss < 0.1

    def test_seeded_training_is_bit_identical(self, lm_world):
        _, _, _, texts, vocab, ctx = lm_world
        cfg = OptimizerConfig(lr_schedule=LrSchedule(kind="linear_decay", peak=1e-3), max_epochs=2, batch_sequences=8, seed=9)
        runs = []
        for _ in range(2):
            lm = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=32, n_layers=1, n_heads=2, context=ctx), seed=4)
            report, _ = train_token_lm(lm, vocab, texts[:24], texts[24:30], cfg)
            runs.append((report, lm.params))
        assert [r.valid_loss for r in runs[0][0].epochs] == [r.valid_loss for r in runs[1][0].epochs]
        for k in runs[0][1]:
            assert np.array_equal(runs[0][1][k], runs[1][1][k])

    def test_first_step_descends(self, lm_world):
        _, _, _, texts, vocab, ctx = lm_world
        lm = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=32, n_layers=1, n_heads=2, context=ctx), seed=5)
        seqs = [[vocab.bos_id] + ids + [vocab.eos_id] for ids in vocab.encode_batch(texts[:4])]
        batch = collate_token_batch(seqs, pad_id=vocab.eos_id)
        loss0, grads = lm.loss_and_grads(batch)
        AdamState(like=lm.params).update(lm.params, grads, lr=1e-4, betas=(0.9, 0.98), weight_decay=0.0, step=1)
        assert lm.loss(batch) < loss0

    def test_divergence_aborts_with_diagnostic(self, lm_world):
        _, _, _, texts, vocab, ctx = lm_world
        lm = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=32, n_layers=1, n_heads=2, context=ctx), seed=6)
        lm.params["w_out"][0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train_token_lm(
                lm,
                vocab,
                texts[:16],
                texts[16:20],
                OptimizerConfig(lr_schedule=LrSchedule(kind="constant", peak=1e-3), max_epochs=3, batch_sequences=8, seed=2),
            )

    def test_validation_turns_up_within_five_epochs_on_tiny_corpus(self, lm_world):
        # overfitting onset: with a tiny training set the validation curve
        # stops improving early
        _, _, _, texts, vocab, ctx = lm_world
        lm = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=48, n_layers=2, n_heads=2, context=ctx), seed=7)
        report, _ = train_token_lm(
            lm,
            vocab,
            texts[:2],
            texts[40:46],
            OptimizerConfig(lr_schedule=LrSchedule(kind="constant", peak=2e-2), max_epochs=8, batch_sequences=2, seed=3),
        )
        losses = [r.valid_loss for r in report.epochs]
        assert int(np.argmin(losses)) <= 4
        assert losses[-1] > min(losses)

    def test_model_restored_to_best_checkpoint(self, lm_world):
        _, _, _, texts, vocab, ctx = lm_world
        lm = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=32, n_layers=1, n_heads=2, context=ctx), seed=8)
        report, snapshots = train_token_lm(
            lm,
            vocab,
            texts[:10],
            texts[40:46],
            OptimizerConfig(lr_schedule=LrSchedule(kind="constant", peak=3e-3), max_epochs=5, batch_sequences=4, seed=4),
        )
        best = select_checkpoint(report)
        for k, v in snapshots[best].items():
            assert np.array_equal(lm.params[k], v)


class TestCareerTraining:
    def test_finetune_only_runs_and_descends(self):
        cfg = SyntheticConfig(n_individuals=80, taxonomy_size=10, seed=33, mean_records=5.0, year_range=(2000, 2012))
        ds, _ = generate_synthetic(cfg)
        model = CareerModel(
            CareerConfig(taxonomy_size=10, d_model=24, n_layers=1, n_heads=2, d_ff=96, max_positions=12, year_range=cfg.year_range),
            ds.taxonomy,
            seed=0,
        )
        report = train_career(
            model,
            list(ds.individuals[:60]),
            list(ds.individuals[60:]),
            cfg=OptimizerConfig(
                lr_schedule=LrSchedule(kind="inverse_sqrt_warmup", peak=3e-3, warmup_steps=20, init=1e-7),
                max_epochs=6,
                batch_sequences=16,
                seed=1,
                patience=3,
            ),
        )
        assert len(report.epochs) >= 3
        assert report.epochs[-1].train_loss < report.epochs[0].train_loss

    def test_pretraining_improves_small_target_fit(self):
        # transfer design: pre-train on a large related split, fine-tune on a
        # small target split, compare against fine-tune-only
        # same generator, disjoint samples: a large related pool for
        # pre-training plus a small target sample
        base = dict(taxonomy_size=10, mean_records=6.0, year_range=(2000, 2014), covariate_effect_strength=1.5, seed=41)
        big_cfg = SyntheticConfig(n_individuals=400, sample_seed=1041, **base)
        small_cfg = SyntheticConfig(n_individuals=400, sample_seed=2041, **base)
        big, _ = generate_synthetic(big_cfg)
        small, params = generate_synthetic(small_cfg)
        train = list(small.individuals[:40])
        valid = list(small.individuals[40:60])
        test = list(small.individuals[60:260])
        from careerseq.evaluation import perplexity, score_model

        results = {}
        for label, pretrain in (("scratch", None), ("pretrained", list(big.individuals))):
            model = CareerModel(
                CareerConfig(taxonomy_size=10, d_model=32, n_layers=1, n_heads=2, d_ff=128, max_positions=14, year_range=(2000, 2014)),
                small.taxonomy,
                seed=2,
            )
            report = train_career(
                model,
                train,
                valid,
                pretrain=pretrain,
                cfg=OptimizerConfig(
                    lr_schedule=LrSchedule(kind="inverse_sqrt_warmup", peak=2e-3, warmup_steps=20, init=1e-7),
                    max_epochs=8,
                    batch_sequences=16,
                    seed=3,
                    patience=4,
                ),
                pretrain_cfg=OptimizerConfig(
                    lr_schedule=LrSchedule(kind="inverse_sqrt_warmup", peak=3e-3, warmup_steps=50, init=1e-7),
                    max_epochs=3,
                    batch_sequences=16,
                    seed=4,
                ),
            )
            results[label] = perplexity(score_model(model, test, small.taxonomy))
        assert results["pretrained"] < results["scratch"]


class TestGradientCheckHarness:
    def test_quadratic_model_is_exact_to_roundoff(self):
        rng = np.random.default_rng(1)

        class Linear:
            def __init__(self):
                self.params = {"w": rng.normal(size=4)}
                self.x = rng.normal(size=(40, 4))
                self.y = rng.normal(size=40)

            def loss_and_grads(self, batch=None):
                r = self.x @ self.params["w"] - self.y
                return float(0.5 * (r**2).mean()), {"w": self.x.T @ r / len(r)}

            def loss(self, batch=None):
                return self.loss_and_grads()[0]

        err = gradient_check(Linear(), None, epsilon=1e-4, n_samples=20, seed=2)
        assert err < 1e-9

    def test_float32_params_rejected(self):
        class M:
            params = {"w": np.zeros(3, dtype=np.float32)}

        with pytest.raises(ValueError, match="float64"):
            gradient_check(M(), None)


class TestReportSerialization:
    def test_csv_and_json(self, tmp_path):
        report = TrainReport(epochs=[EpochRecord(1, 2.0, 1.5, "epoch-1"), EpochRecord(2, 1.0, 1.6, "epoch-2")])
        report.to_csv(tmp_path / "r.csv")
        report.to_json(tmp_path / "r.json")
        lines = (tmp_path / "r.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,valid_loss,checkpoint_id"
        assert len(lines) == 3
        import json

        rows = json.loads((tmp_path / "r.json").read_text())
        assert rows[0]["valid_loss"] == 1.5
