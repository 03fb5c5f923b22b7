import numpy as np
import pytest

from careerseq.corpus import CareerRecord, Education
from careerseq.models import (
    CareerConfig,
    CareerModel,
    ContextOverflowError,
    TokenLM,
    TokenLmConfig,
    collate_token_batch,
    load_token_lm,
    save_token_lm,
    paper_preset,
)
from careerseq.synthetic import SyntheticConfig, generate_synthetic
from careerseq.training import gradient_check


@pytest.fixture(scope="module")
def world():
    cfg = SyntheticConfig(n_individuals=24, taxonomy_size=10, seed=21, mean_records=5.0, year_range=(1995, 2012))
    ds, params = generate_synthetic(cfg)
    return cfg, ds


class TestTokenLm:
    def test_fresh_model_predicts_uniform(self):
        lm = TokenLM(TokenLmConfig(vocab_size=300, d_model=32, n_layers=2, n_heads=2, context=64), seed=0)
        dist = lm.next_token_distribution([5, 6, 7])
        assert abs(dist.sum() - 1.0) < 1e-9
        assert np.allclose(dist, 1.0 / 300)

    def test_distribution_sums_to_one_after_random_weights(self):
        lm = TokenLM(TokenLmConfig(vocab_size=150, d_model=32, n_layers=2, n_heads=2, context=64), seed=1)
        rng = np.random.default_rng(0)
        lm.params["w_out"] = rng.normal(0, 0.2, lm.params["w_out"].shape).astype(np.float32)
        dist = lm.next_token_distribution(list(rng.integers(0, 150, size=20)))
        assert abs(dist.sum() - 1.0) < 1e-6

    def test_context_overflow_raises(self):
        lm = TokenLM(TokenLmConfig(vocab_size=100, d_model=16, n_layers=1, n_heads=2, context=8), seed=0)
        with pytest.raises(ContextOverflowError):
            lm.next_token_distribution(list(range(9)))

    def test_random_weights_give_vocab_sized_perplexity(self):
        # near-zero logits from the zero output head: perplexity on random
        # token streams sits at |V| (within 10%)
        v = 120
        lm = TokenLM(TokenLmConfig(vocab_size=v, d_model=32, n_layers=2, n_heads=2, context=64), seed=2)
        rng = np.random.default_rng(3)
        ids = rng.integers(0, v, size=(4, 40))
        batch = {"ids": ids, "mask": np.ones((4, 39))}
        ppl = float(np.exp(lm.loss(batch)))
        assert abs(ppl - v) / v < 0.10

    def test_gradient_check(self):
        lm = TokenLM(TokenLmConfig(vocab_size=90, d_model=16, n_layers=2, n_heads=2, context=80), seed=4, dtype=np.float64)
        rng = np.random.default_rng(5)
        lm.params["w_out"] = rng.normal(0, 0.05, lm.params["w_out"].shape)
        seqs = [list(rng.integers(0, 90, size=int(rng.integers(10, 50)))) for _ in range(3)]
        batch = collate_token_batch(seqs, pad_id=0)
        err = gradient_check(lm, batch, n_samples=60, seed=6)
        assert err < 1e-4

    def test_sequence_log_probs_match_stepwise(self):
        lm = TokenLM(TokenLmConfig(vocab_size=80, d_model=16, n_layers=1, n_heads=2, context=32), seed=7)
        rng = np.random.default_rng(8)
        lm.params["w_out"] = rng.normal(0, 0.1, lm.params["w_out"].shape).astype(np.float32)
        ids = list(rng.integers(0, 80, size=12))
        joint = lm.sequence_log_probs(ids, from_position=4)
        for offset, lp in enumerate(joint):
            dist = lm.next_token_distribution(ids[: 4 + offset])
            assert abs(lp - np.log(dist[ids[4 + offset]])) < 1e-10

    def test_batched_log_probs_match_single(self):
        lm = TokenLM(TokenLmConfig(vocab_size=70, d_model=16, n_layers=1, n_heads=2, context=40), seed=9)
        rng = np.random.default_rng(10)
        lm.params["w_out"] = rng.normal(0, 0.1, lm.params["w_out"].shape).astype(np.float32)
        seqs = [np.array(rng.integers(0, 70, size=n)) for n in (8, 15, 11)]
        starts = [3, 5, 2]
        # prompts shared by several titles, titles of one token, and exact
        # duplicates (a stay scores the same sequence twice)
        prompt = rng.integers(0, 70, size=9)
        titles = [rng.integers(0, 70, size=n) for n in (4, 1, 6)]
        for title in titles + [titles[0], titles[1]]:
            seqs.append(np.concatenate([prompt, title]))
            starts.append(prompt.size)
        seqs += [seqs[0], seqs[4].copy()]
        starts += [starts[0], starts[4]]
        batched = lm.batched_log_probs(seqs, starts, pad_id=0)
        assert len(batched) == len(seqs)
        for seq, start, got in zip(seqs, starts, batched):
            solo = lm.sequence_log_probs(seq, from_position=start)
            assert got.shape == solo.shape
            assert np.allclose(got, solo, atol=1e-12, rtol=0)
        assert batched[-2] is not batched[0]

    def test_batched_log_probs_context_cap(self):
        lm = TokenLM(TokenLmConfig(vocab_size=30, d_model=8, n_layers=1, n_heads=2, context=8), seed=0)
        assert [lp.size for lp in lm.batched_log_probs([np.arange(8)], [5], pad_id=0)] == [3]
        with pytest.raises(ContextOverflowError):
            lm.batched_log_probs([np.arange(9)], [5], pad_id=0)

    def test_save_load_scores_bit_identical(self, tmp_path):
        from careerseq.tokenizer import train_vocab

        vocab = train_vocab(["hello world, hello there"] * 10, 280)
        lm = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=16, n_layers=1, n_heads=2, context=32), seed=11)
        rng = np.random.default_rng(12)
        lm.params["w_out"] = rng.normal(0, 0.1, lm.params["w_out"].shape).astype(np.float32)
        save_token_lm(lm, vocab, tmp_path / "lm")
        again, vocab2 = load_token_lm(tmp_path / "lm")
        ids = vocab.encode("hello there")
        assert vocab2.merges == vocab.merges
        assert np.array_equal(again.next_token_distribution(ids), lm.next_token_distribution(ids))


def _random_lm(context: int, seed: int) -> tuple[TokenLM, np.random.Generator]:
    lm = TokenLM(TokenLmConfig(vocab_size=60, d_model=16, n_layers=2, n_heads=2, context=context), seed=seed)
    rng = np.random.default_rng(seed)
    lm.params["w_out"] = rng.normal(0, 0.1, lm.params["w_out"].shape).astype(np.float32)
    return lm, rng


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    assert a.shape == b.shape
    return float(np.max(np.abs(a - b)))


class TestKeyValueCache:
    def test_batch_one_past_broadcast_over_ragged_titles(self):
        # titles of 3, 1 and 14 tokens after a 10-token prompt; the last one
        # reaches the 24-position cap exactly
        lm, rng = _random_lm(context=24, seed=13)
        prompt = rng.integers(0, 60, size=10)
        titles = [rng.integers(0, 60, size=n) for n in (3, 1, 14)]
        _, _, _, past = lm.forward(prompt)
        ids = np.full((len(titles), 14), 59)
        for j, title in enumerate(titles):
            ids[j, : title.size] = title
        logits, final, _, present = lm.forward(ids, past=past)
        assert logits.shape == (3, 14, 60)
        for j, title in enumerate(titles):
            full_logits, full_final, _, full_kv = lm.forward(np.concatenate([prompt, title]))
            n = title.size
            assert _gap(logits.data[j, :n], full_logits.data[0, 10:]) < 1e-12
            assert _gap(final.data[j, :n], full_final.data[0, 10:]) < 1e-12
            for (k, v), (full_k, full_v) in zip(present, full_kv):
                assert _gap(k[j, :, : 10 + n], full_k[0]) < 1e-12
                assert _gap(v[j, :, : 10 + n], full_v[0]) < 1e-12

    def test_past_with_one_row_per_title(self):
        lm, rng = _random_lm(context=20, seed=14)
        prompts = rng.integers(0, 60, size=(2, 7))
        titles = rng.integers(0, 60, size=(2, 4))
        _, _, _, past = lm.forward(prompts)
        logits, _, _, _ = lm.forward(titles, past=past)
        for j in range(2):
            full_logits, _, _, _ = lm.forward(np.concatenate([prompts[j], titles[j]]))
            assert _gap(logits.data[j], full_logits.data[0, 7:]) < 1e-12

    def test_token_by_token_equals_one_pass(self):
        lm, rng = _random_lm(context=16, seed=15)
        ids = rng.integers(0, 60, size=16)
        full_logits, _, _, _ = lm.forward(ids)
        logits, _, _, past = lm.forward(ids[:5])
        rows = [logits.data[0]]
        for tok in ids[5:]:
            logits, _, _, past = lm.forward(np.array([tok]), past=past)
            rows.append(logits.data[0])
        assert past[0][0].shape[2] == 16
        assert _gap(np.concatenate(rows), full_logits.data[0]) < 1e-12

    def test_context_cap_counts_the_cached_prefix(self):
        lm, rng = _random_lm(context=8, seed=16)
        _, _, _, past = lm.forward(rng.integers(0, 60, size=6))
        lm.forward(rng.integers(0, 60, size=(3, 2)), past=past)
        with pytest.raises(ContextOverflowError):
            lm.forward(rng.integers(0, 60, size=(3, 3)), past=past)

    def test_past_is_inference_only(self):
        lm, rng = _random_lm(context=8, seed=17)
        _, _, _, past = lm.forward(rng.integers(0, 60, size=3))
        with pytest.raises(ValueError, match="inference"):
            lm.forward(rng.integers(0, 60, size=2), train=True, past=past)


class TestCareerModel:
    def make_model(self, ds, cfg, n_layers=2, d=16, seed=0, dtype=np.float32):
        config = CareerConfig(
            taxonomy_size=ds.taxonomy.size,
            d_model=d,
            n_layers=n_layers,
            n_heads=2,
            d_ff=4 * d,
            max_positions=16,
            year_range=cfg.year_range,
        )
        return CareerModel(config, ds.taxonomy, seed=seed, dtype=dtype)

    def test_zero_layers_returns_embedding_sum(self, world):
        cfg, ds = world
        model = self.make_model(ds, cfg, n_layers=0)
        h = ds.individuals[0]
        state = model.forward_history(h, 1)
        p = {k: v.astype(np.float64) for k, v in model.params.items()}
        rec = h.records[0]
        expected = (
            p["occ_emb"][model.null_index]
            + p["gender_emb"][0 if h.static.gender.value == "male" else 1]
            + p["eth_emb"][["white", "black_or_african_american", "hispanic_or_latino", "other_or_unknown"].index(h.static.ethnicity.value)]
            + p["region_emb"][["northeast", "northcentral", "south", "west"].index(h.static.region.value)]
            + p["edu_emb"][list(Education).index(rec.education)]
            + p["year_emb"][model.year_bucket(rec.year)]
            + p["time_emb"][0]
        )
        assert np.allclose(state, expected, atol=1e-12)

    def test_attention_rows_sum_to_one(self, world):
        cfg, ds = world
        model = self.make_model(ds, cfg)
        h = max(ds.individuals, key=len)
        for layer_map in model.attention_maps(h):
            assert np.allclose(layer_map.sum(axis=-1), 1.0, atol=1e-6)

    def test_causality_under_future_mutation(self, world):
        # predictions at t are invariant to any change in records after t
        cfg, ds = world
        model = self.make_model(ds, cfg, seed=3)
        h = max(ds.individuals, key=len)
        assert len(h) >= 4
        t = 2
        base = model.predict(h, t)
        from dataclasses import replace

        codes = ds.taxonomy.codes()
        mutated_records = list(h.records)
        for j in range(t, len(h)):
            cur = mutated_records[j]
            new_code = codes[(ds.taxonomy.index_of(cur.occupation) + 3) % len(codes)]
            mutated_records[j] = CareerRecord(cur.year, cur.education, new_code)
        mutated = replace(h, records=tuple(mutated_records))
        assert np.allclose(model.predict(mutated, t), base, atol=1e-12)

    def test_two_stage_composition(self, world):
        cfg, ds = world
        model = self.make_model(ds, cfg, seed=5)
        rng = np.random.default_rng(6)
        model.params["eta"] = rng.normal(0, 0.5, model.params["eta"].shape).astype(np.float32)
        for h in ds.individuals[:10]:
            for t in range(1, len(h) + 1):
                dist = model.predict(h, t)
                assert abs(dist.sum() - 1.0) < 1e-9
                if t > 1:
                    prev_idx = ds.taxonomy.index_of(h.records[t - 2].occupation)
                    state = model.forward_history(h, t)
                    gate = 1.0 / (1.0 + np.exp(-(state @ model.params["eta"].astype(np.float64))))
                    assert abs(dist[prev_idx] - (1.0 - gate)) < 1e-12

    def test_first_transition_full_softmax(self, world):
        cfg, ds = world
        model = self.make_model(ds, cfg, seed=7)
        h = ds.individuals[0]
        dist = model.predict(h, 1)
        state = model.forward_history(h, 1)
        logits = state @ model.params["beta"].astype(np.float64).T
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        assert np.allclose(dist, expected, atol=1e-12)

    def test_gradient_check(self, world):
        cfg, ds = world
        model = self.make_model(ds, cfg, seed=8, dtype=np.float64)
        batch = model.build_batch(list(ds.individuals[:6]))
        err = gradient_check(model, batch, n_samples=60, seed=9)
        assert err < 1e-4

    def test_positional_table_overflow(self, world):
        cfg, ds = world
        config = CareerConfig(
            taxonomy_size=ds.taxonomy.size, d_model=16, n_layers=1, n_heads=2, d_ff=64,
            max_positions=2, year_range=cfg.year_range,
        )
        model = CareerModel(config, ds.taxonomy, seed=0)
        h = max(ds.individuals, key=len)
        with pytest.raises(ValueError, match="positional table"):
            model.build_batch([h])

    def test_paper_preset_shape(self, world):
        cfg, ds = world
        config = paper_preset(ds.taxonomy.size, cfg.year_range)
        assert (config.d_model, config.n_layers, config.n_heads, config.d_ff) == (192, 12, 3, 768)

    def test_checkpoint_round_trip(self, world, tmp_path):
        cfg, ds = world
        model = self.make_model(ds, cfg, seed=10)
        model.save(tmp_path / "career")
        again = CareerModel.load(tmp_path / "career", ds.taxonomy)
        h = ds.individuals[0]
        assert np.array_equal(again.predict(h, 1), model.predict(h, 1))
