import math

import numpy as np
import pytest

from careerseq.evaluation import perplexity, score_model
from careerseq.models import GenerationConfig, LmOccupationAdapter, TokenLM, TokenLmConfig
from careerseq.models.token_lm import ContextOverflowError


@pytest.fixture(scope="module")
def scoring_world(toy_bundle):
    return toy_bundle


class TestChainRuleScoring:
    def test_single_token_title_equals_next_token_mass(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        vocab = toy_bundle["vocab"]
        h = ds.individuals[0]
        single = [c for c in ds.taxonomy.codes() if len(adapter.continuation_ids(c)) == 1]
        assert single, "toy vocabulary should compact some titles to one token"
        code = single[0]
        tok = adapter.continuation_ids(code)[0]
        dist = toy_bundle["lm"].next_token_distribution(adapter.prompt_ids(h, 1))
        assert abs(adapter.job_probability(h, 1, code) - dist[tok]) < 1e-12

    def test_stepwise_equals_joint_scorer(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        checked = 0
        for h in ds.split("test")[:5]:
            for t in (1, len(h)):
                for code in ds.taxonomy.codes()[:6]:
                    p_step = adapter.job_probability(h, t, code)
                    p_joint = math.exp(adapter.joint_log_probability(h, t, code))
                    assert abs(p_step - p_joint) / max(p_step, p_joint) < 1e-10
                    checked += 1
        assert checked >= 40

    def test_raw_scores_in_unit_interval_and_sum_below_one(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        h = ds.split("test")[0]
        raw = adapter.job_distribution(h, min(2, len(h)))
        assert ((raw > 0) & (raw <= 1.0)).all()
        assert raw.sum() <= 1.0 + 1e-12  # mass leaks to non-title strings

    def test_normalized_distribution_sums_to_one(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        h = ds.split("test")[0]
        normalized = adapter.job_distribution(h, 1, normalized=True)
        assert abs(normalized.sum() - 1.0) < 1e-9

    def test_raw_perplexity_at_least_normalized(self, toy_bundle):
        # dividing by the same sub-unit denominator scales scores up, so the
        # raw variant under-reports model quality
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        raw_lp, norm_lp = [], []
        for h in ds.split("test")[:8]:
            for t in range(1, len(h) + 1):
                dist = adapter.job_distribution(h, t)
                idx = ds.taxonomy.index_of(h.records[t - 1].occupation)
                raw_lp.append(np.log(dist[idx]))
                norm_lp.append(np.log(dist[idx] / dist.sum()))
        ppl_raw = float(np.exp(-np.mean(raw_lp)))
        ppl_norm = float(np.exp(-np.mean(norm_lp)))
        assert ppl_raw >= ppl_norm

    def test_forward_call_counter(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        h = ds.split("test")[0]
        before = adapter.forward_calls
        adapter.job_distribution(h, 1)
        assert adapter.forward_calls - before == ds.taxonomy.size

    def test_context_overflow_raises(self, toy_bundle):
        ds = toy_bundle["dataset"]
        codec = toy_bundle["codec"]
        vocab = toy_bundle["vocab"]
        tiny = TokenLM(TokenLmConfig(vocab_size=vocab.size, d_model=16, n_layers=1, n_heads=2, context=16), seed=0)
        adapter = LmOccupationAdapter(tiny, vocab, codec)
        with pytest.raises(ContextOverflowError):
            adapter.job_probability(ds.individuals[0], 1, ds.taxonomy.code_at(0))

    def test_batched_scoring_matches_pointwise(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        items = [(h, t) for h in ds.split("test")[:4] for t in range(1, len(h) + 1)]
        logp, p_stay = adapter.score_transitions(items)
        for i, (h, t) in enumerate(items):
            assert abs(logp[i] - adapter.joint_log_probability(h, t, h.records[t - 1].occupation)) < 1e-10
            if t > 1:
                previous = h.records[t - 2].occupation
                assert abs(p_stay[i] - np.exp(adapter.joint_log_probability(h, t, previous))) < 1e-12
            else:
                assert np.isnan(p_stay[i])


class TestGeneration:
    def test_fixed_seed_reproduces(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        prompt = toy_bundle["codec"].render_prompt(ds.individuals[0], 1)
        a = adapter.generate(prompt, GenerationConfig(seed=12))
        b = adapter.generate(prompt, GenerationConfig(seed=12))
        assert a == b

    def test_temperature_zero_is_greedy(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        prompt = toy_bundle["codec"].render_prompt(ds.individuals[0], 1)
        outs = {adapter.generate(prompt, GenerationConfig(temperature=0.0, seed=s)) for s in (1, 2, 3)}
        assert len(outs) == 1
        vocab = toy_bundle["vocab"]
        ids = [vocab.bos_id] + vocab.encode(prompt)
        greedy_first = int(np.argmax(toy_bundle["lm"].next_token_distribution(ids)))
        generated = outs.pop()
        assert vocab.decode([greedy_first]).startswith(generated[: len(vocab.decode([greedy_first]))])

    def test_stop_string_cuts_generation(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        prompt = toy_bundle["codec"].render_prompt(ds.individuals[0], 1)
        text = adapter.generate(prompt, GenerationConfig(max_new=40, stop="\n", seed=4))
        assert "\n" not in text

    def test_trained_model_generates_valid_titles_more_often(self, toy_bundle):
        # directional check: a model trained on templates produces far more
        # exact-title continuations than a fresh one
        ds = toy_bundle["dataset"]
        codec = toy_bundle["codec"]
        vocab = toy_bundle["vocab"]
        prompts = [codec.render_prompt(h, t) for h in ds.split("test")[:10] for t in range(1, min(3, len(h)) + 1)]
        trained = toy_bundle["adapter"].valid_title_rate(prompts, GenerationConfig(seed=5))
        fresh_lm = TokenLM(toy_bundle["lm"].config, seed=99)
        fresh = LmOccupationAdapter(fresh_lm, vocab, codec).valid_title_rate(prompts, GenerationConfig(seed=5))
        assert trained > fresh
        assert trained > 0.2


class TestEmbeddings:
    def test_identical_prompts_identical_vectors(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        h = ds.individuals[0]
        a = adapter.extract_embedding(h, 1)
        b = adapter.extract_embedding(h, 1)
        assert np.array_equal(a, b)

    def test_vector_length_is_model_width(self, toy_bundle):
        adapter = toy_bundle["adapter"]
        ds = toy_bundle["dataset"]
        emb = adapter.extract_embedding(ds.individuals[0], 1)
        assert emb.shape == (toy_bundle["lm"].config.d_model,)

    def test_lm_embeddings_beat_noise_embeddings(self, toy_bundle):
        # features from the trained LM carry signal that random vectors of
        # the same dimension cannot
        from careerseq.models import EmbeddingFeaturizer, MnlFitConfig, MnlModel

        ds = toy_bundle["dataset"]
        adapter = toy_bundle["adapter"]
        d = toy_bundle["lm"].config.d_model
        train = ds.split("train")[:60]
        test = ds.split("test")[:30]
        rng = np.random.default_rng(0)

        def noise_fn(history, t):
            local = np.random.default_rng(abs(hash((history.individual_id, t))) % 2**32)
            return local.normal(size=d)

        results = {}
        for name, fn in (("lm", adapter.extract_embedding), ("noise", noise_fn)):
            model = MnlModel(EmbeddingFeaturizer(fn, dim=d), ds.taxonomy, reg=1e-3)
            model.fit(train, MnlFitConfig(lr=0.05, max_iters=300, seed=1))
            scores = score_model(model, test, ds.taxonomy)
            results[name] = perplexity(scores)
        assert results["lm"] < results["noise"]
