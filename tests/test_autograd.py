import numpy as np
import pytest

from careerseq import autograd as ag
from careerseq.models import (
    CareerConfig,
    CareerModel,
    MnlModel,
    PrevOccupationFeaturizer,
    TokenLM,
    TokenLmConfig,
    collate_token_batch,
)
from careerseq.synthetic import SyntheticConfig, generate_synthetic


def _log_softmax_at(logits: ag.Tensor, targets: np.ndarray, exclude=None) -> ag.Tensor:
    """Log-softmax over the last axis read at ``targets`` (the batch axes),
    from the remaining ops: add a -1e30 mask at the ``exclude`` class of each
    row (-1 excludes nothing), log-softmax, multiply by a one-hot and sum
    over the classes."""
    classes = np.arange(logits.shape[-1])
    onehot = (classes == targets[..., None]).astype(np.float64)
    if exclude is not None:
        logits = ag.add(logits, np.where(classes == exclude[..., None], -1e30, 0.0))
    return ag.tsum(ag.mul(ag.log_softmax(logits, axis=-1), onehot), axis=-1)


def _log_sigmoid(a: ag.Tensor) -> ag.Tensor:
    """The career gate's log-sigmoid as one node, as it was before the gate
    became a two-class softmax."""
    x = a.data
    out_data = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))

    def backward(grad):
        a._accumulate(grad * (1.0 / (1.0 + np.exp(x))))

    return ag.Tensor(out_data, requires_grad=a.requires_grad, parents=[a], backward=backward)


def _lm_head_reference(final, w_out, targets, mask):
    """The token LM's loss as a composition: project every position, read
    the log-softmax at the targets, weight by the mask and take the mean
    over real targets."""
    past = ((0, 0), (0, final.shape[1] - targets.shape[1]))
    picked = _log_softmax_at(ag.matmul(final, w_out), np.pad(targets, past))
    return ag.mul(ag.tsum(ag.mul(picked, np.pad(mask, past))), -1.0 / mask.sum())


def _two_stage_reference(x, beta, eta, batch, null_index):
    """The career head's loss as a composition: a t = 1 row reads the full
    softmax, a stay log sigma(-m), a move log sigma(m) plus the softmax
    without the previous occupation; masked by ``valid``, mean over it."""
    prev, target, valid = batch["prev"], batch["target"], batch["valid"]
    move_logit = ag.tsum(ag.mul(x, ag.reshape(eta, (1, 1, -1))), axis=-1)
    occ_logits = ag.matmul(x, ag.transpose(beta, (1, 0)))
    is_first = prev == null_index
    is_stay = (target == prev) & ~is_first
    is_move = ~is_first & ~is_stay
    lp_occ = _log_softmax_at(occ_logits, target, np.where(is_first, -1, prev))
    picked = ag.add(
        ag.add(ag.mul(lp_occ, is_first * valid), ag.mul(_log_sigmoid(ag.mul(move_logit, -1.0)), is_stay * valid)),
        ag.mul(ag.add(_log_sigmoid(move_logit), lp_occ), is_move * valid),
    )
    return ag.mul(ag.tsum(picked), -1.0 / valid.sum())


def _value_and_grads(loss_of, arrays):
    leaves = [ag.Tensor(a, requires_grad=True) for a in arrays]
    loss = loss_of(*leaves)
    loss.backward()
    return float(loss.data), [leaf.grad for leaf in leaves]


def _assert_close(got, want, rtol=1e-12):
    """Values within ``rtol`` relative; each gradient within ``rtol`` of its
    largest entry."""
    assert abs(got[0] - want[0]) <= rtol * abs(want[0])
    for g, w in zip(got[1], want[1]):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= rtol * np.abs(w).max()


def _lm_case(rng, lengths, t, d=6, vocab=11):
    """Hidden states (B, t, d), an output projection, targets and a mask
    whose row b has ``lengths[b]`` leading real targets."""
    mask = (np.arange(t - 1) < np.asarray(lengths)[:, None]).astype(np.float64)
    targets = rng.integers(0, vocab, size=mask.shape)
    return rng.normal(size=(len(lengths), t, d)), rng.normal(size=(d, vocab)), targets, mask


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_shorter_than_time_axis(seed):
    rng = np.random.default_rng(seed)
    final, w_out, targets, mask = _lm_case(rng, [6, 4, 5], 7)
    got = _value_and_grads(lambda f, w: ag.lm_head_nll(f, w, targets, mask), [final, w_out])
    _assert_close(got, _value_and_grads(lambda f, w: _lm_head_reference(f, w, targets, mask), [final, w_out]))
    g_final = got[1][0]
    assert not g_final[:, 6:].any()  # the row past the block reads nothing
    assert not g_final[1, 4:].any() and not g_final[2, 5:].any()  # nor do pads


@pytest.mark.parametrize("lengths", [[8], [1], [7, 1, 4]], ids=["batch-1", "batch-1-one-target", "one-target-row"])
def test_lm_head_matches_composition(lengths):
    rng = np.random.default_rng(len(lengths))
    final, w_out, targets, mask = _lm_case(rng, lengths, 9)
    got = _value_and_grads(lambda f, w: ag.lm_head_nll(f, w, targets, mask), [final, w_out])
    _assert_close(got, _value_and_grads(lambda f, w: _lm_head_reference(f, w, targets, mask), [final, w_out]))


def test_token_lm_ignores_ids_at_pads():
    rng = np.random.default_rng(9)
    lm = TokenLM(TokenLmConfig(vocab_size=30, d_model=8, n_layers=2, n_heads=2, context=32), seed=1, dtype=np.float64)
    lm.params["w_out"] = rng.normal(0.0, 0.3, lm.params["w_out"].shape)
    batch = collate_token_batch([list(rng.integers(1, 30, size=n)) for n in (12, 5, 9)], pad_id=0)
    loss, grads = lm.loss_and_grads(batch)
    pads = batch["ids"] == 0
    batch["ids"][pads] = rng.integers(1, 30, size=pads.sum())
    again, grads_again = lm.loss_and_grads(batch)
    assert again == loss
    assert all(np.array_equal(grads_again[k], g) for k, g in grads.items())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exclusion_with_unexcluded_rows(seed):
    # the kernel excludes a class through a -1e30 logit, as the career head sets it
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 2.0, size=(12, 9))
    exclude = np.where(rng.random(12) < 0.6, rng.integers(0, 9, size=12), -1)
    assert (exclude == -1).any() and (exclude >= 0).any()
    targets = rng.integers(0, 9, size=12)
    targets = np.where(targets == exclude, (targets + 1) % 9, targets)
    _kernel_matches_composition(rng, logits, targets, exclude)


@pytest.mark.parametrize("rows", [5, 3])
def test_two_dimensional_input(rows):
    rng = np.random.default_rng(4)
    _kernel_matches_composition(rng, rng.normal(0.0, 2.0, size=(rows, 8)), rng.integers(0, 8, size=rows), None)


def _kernel_matches_composition(rng, logits, targets, exclude):
    weights = rng.normal(size=targets.shape)
    masked = logits.copy()
    if exclude is not None:
        rows = np.nonzero(exclude >= 0)[0]
        masked[rows, exclude[rows]] = -1e30
    lp, grad = ag.cross_entropy(masked, targets)
    want = _value_and_grads(lambda a: ag.tsum(ag.mul(_log_softmax_at(a, targets, exclude), weights)), [logits])
    _assert_close((float(lp @ weights), [grad * weights[:, None]]), want)
    np.testing.assert_allclose(lp, _log_softmax_at(ag.Tensor(logits), targets, exclude).data, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def career():
    cfg = SyntheticConfig(n_individuals=10, taxonomy_size=7, seed=21, mean_records=4.0)
    ds, _ = generate_synthetic(cfg)
    config = CareerConfig(taxonomy_size=7, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_positions=8,
                          year_range=cfg.year_range)
    return CareerModel(config, ds.taxonomy, seed=2, dtype=np.float64)


def _career_batch(rng, kind, k, null_index, shape=(3, 5)):
    prev = rng.integers(0, k, size=shape)
    target = rng.integers(0, k, size=shape)
    if kind == "first":
        prev[:] = null_index
    elif kind == "stay":
        target = prev.copy()
    elif kind == "move":
        target = (prev + rng.integers(1, k, size=shape)) % k
    else:  # a career batch: t = 1 first, then stays and moves, and pads
        prev[:, 0] = null_index
        stays = rng.random(shape) < 0.5
        target[stays] = prev[stays]
        target[:, 0] = rng.integers(0, k, size=shape[0])
    valid = np.ones(shape)
    valid[-1, 3:] = 0.0
    return {"prev": prev, "target": target, "valid": valid}


def _two_stage_matches_composition(career, kind, seed):
    k, null_index = career.config.taxonomy_size, career.null_index
    rng = np.random.default_rng(seed)
    batch = _career_batch(rng, kind, k, null_index)
    arrays = [rng.normal(size=(3, 5, 8)), rng.normal(size=(k, 8)), rng.normal(0.0, 0.5, size=8)]
    got = _value_and_grads(lambda x, b, e: career._head_nll(x, b, e, batch), arrays)
    want = _value_and_grads(lambda x, b, e: _two_stage_reference(x, b, e, batch, null_index), arrays)
    _assert_close(got, want)
    assert all(np.isfinite(g).all() for g in got[1])
    assert not got[1][0][-1, 3:].any()  # pads read nothing


def test_excluded_target_with_zero_weight(career):
    # a stay's target is the excluded previous occupation: the head reads only its gate
    _two_stage_matches_composition(career, "mixed", 3)


@pytest.mark.parametrize("kind", ["first", "stay", "move"])
def test_two_stage_head_with_one_kind_of_row(career, kind):
    _two_stage_matches_composition(career, kind, ["first", "stay", "move"].index(kind))


def test_mnl_gradient_matches_hand_formula(career):
    rng = np.random.default_rng(12)
    model = MnlModel(PrevOccupationFeaturizer(career.taxonomy), career.taxonomy, reg=0.03)
    model.weights = rng.normal(size=model.weights.shape)
    x, y = rng.normal(size=(40, model.weights.shape[0])), rng.integers(0, career.taxonomy.size, size=40)
    logits = x @ model.weights
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    loss = -np.log(p[np.arange(40), y]).mean() + 0.5 * model.reg * (model.weights**2).sum()
    p[np.arange(40), y] -= 1.0
    grad = x.T @ p / 40 + model.reg * model.weights
    got, grads = model.loss_and_grads((x, y))
    _assert_close((got, [grads["weights"]]), (loss, [grad]))


def _masked_softmax(a: ag.Tensor, mask: np.ndarray) -> ag.Tensor:
    """Softmax of ``a + mask`` over the last axis for a constant additive
    ``mask``, as one node."""
    out_data = ag.softmax_np(a.data + mask.astype(a.data.dtype))

    def backward(grad):
        dot = (grad * out_data).sum(axis=-1, keepdims=True)
        a._accumulate(out_data * (grad - dot))

    return ag.Tensor(out_data, requires_grad=a.requires_grad, parents=[a], backward=backward)


def _attention_reference(q, k, v, scale):
    """``causal_attention`` from the remaining ops: scores, scale, a -1e30
    triangular mask offset by the cached prefix, softmax, the weighted sum of
    the values, and the head merge."""
    b, n_heads, t, h = q.shape
    s = k.shape[2]
    scores = ag.matmul(q, ag.transpose(k, (0, 1, 3, 2)))
    if scale != 1.0:
        scores = ag.mul(scores, scale)
    att = _masked_softmax(scores, np.triu(np.full((t, s), -1e30), k=s - t + 1))
    return ag.reshape(ag.transpose(ag.matmul(att, v), (0, 2, 1, 3)), (b, t, n_heads * h)), att.data


def _heads(x: ag.Tensor, n_heads: int) -> ag.Tensor:
    """(B, T, d) split into heads (B, H, T, d / H), as both models do."""
    b, t, d = x.shape
    return ag.transpose(ag.reshape(x, (b, t, n_heads, d // n_heads)), (0, 2, 1, 3))


def _attention_grads(attend, arrays, weights):
    leaves = [ag.Tensor(a, requires_grad=True) for a in arrays]
    out, probs = attend(*leaves)
    ag.tsum(ag.mul(out, weights)).backward()
    return out.data, probs, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("scale", [1.0, 0.35])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_matches_composition_bit_for_bit(dtype, scale):
    rng = np.random.default_rng(6)
    arrays = [rng.normal(size=(3, 7, 8)).astype(dtype) for _ in range(3)]
    weights = rng.normal(size=(3, 7, 8)).astype(dtype)

    def split(op):
        return lambda q, k, v: op(_heads(q, 2), _heads(k, 2), _heads(v, 2), scale)

    got = _attention_grads(split(ag.causal_attention), arrays, weights)
    want = _attention_grads(split(_attention_reference), arrays, weights)
    assert got[0].dtype == dtype and all(g.dtype == dtype for g in got[2])
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for g, w in zip(got[2], want[2]):
        assert np.array_equal(g, w)


def test_attention_after_cached_prefix_equals_last_rows():
    rng = np.random.default_rng(7)
    q, k, v = (ag.Tensor(rng.normal(size=(2, 2, 9, 4))) for _ in range(3))
    full, full_probs = ag.causal_attention(q, k, v, 0.5)
    tail, tail_probs = ag.causal_attention(ag.Tensor(q.data[:, :, 6:]), k, v, 0.5)
    assert tail.shape == (2, 3, 8) and tail_probs.shape == (2, 2, 3, 9)
    np.testing.assert_allclose(tail.data, full.data[:, 6:], rtol=0, atol=1e-12)
    np.testing.assert_allclose(tail_probs, full_probs[:, :, 6:], rtol=0, atol=1e-12)
    assert not tail_probs[:, :, 0, 7:].any()  # the first new query sees the prefix and itself


def test_attention_with_keys_as_values():
    # the career model's bilinear attention: q = hh W, and hh is both keys and values
    rng = np.random.default_rng(8)
    arrays = [rng.normal(size=(3, 6, 8)), rng.normal(0.0, 0.3, size=(2, 4, 4))]
    weights = rng.normal(size=(3, 6, 8))

    def bilinear(op):
        def attend(x, w):
            hh = _heads(x, 2)
            return op(ag.matmul(hh, w), hh, hh, 1.0)
        return attend

    got = _attention_grads(bilinear(ag.causal_attention), arrays, weights)
    want = _attention_grads(bilinear(_attention_reference), arrays, weights)
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[2], want[2]):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


def _gather(table: ag.Tensor, indices: np.ndarray) -> ag.Tensor:
    """One embedding lookup as its own node, as both models built their
    inputs before ``embed_sum``."""
    def backward(grad):
        g = np.zeros_like(table.data)
        np.add.at(g, indices, grad)
        table._accumulate(g)

    return ag._node(table.data[indices], (table,), backward)


def _embed_grads(embed, tables, indices, trainable, weights):
    leaves = [ag.Tensor(t, requires_grad=r) for t, r in zip(tables, trainable)]
    out = embed(list(zip(leaves, indices)))
    ag.tsum(ag.mul(out, weights)).backward()
    return out.data, [leaf.grad for leaf in leaves]


def _gather_add_chain(lookups):
    out = _gather(*lookups[0])
    for table, idx in lookups[1:]:
        out = ag.add(out, _gather(table, idx))
    return out


@pytest.mark.parametrize("trainable", [(True, True, True, True), (True, False, True, False)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_sum_matches_gather_add_chain(dtype, trainable):
    # the career model's shapes: (b, t), (b, 1) static covariates and the (t,)
    # time axis, with indices repeated within and across rows
    rng = np.random.default_rng(9)
    b, t, d = 4, 6, 5
    tables = [rng.normal(size=(n, d)).astype(dtype) for n in (7, 3, 4, t)]
    indices = [rng.integers(0, 7, size=(b, t)), np.array([[0], [2], [0], [2]]), rng.integers(0, 4, size=(b, t)), np.arange(t)]
    weights = rng.normal(size=(b, t, d)).astype(dtype)
    got = _embed_grads(ag.embed_sum, tables, indices, trainable, weights)
    want = _embed_grads(_gather_add_chain, tables, indices, trainable, weights)
    assert got[0].dtype == dtype and np.array_equal(got[0], want[0])
    for g, w, r in zip(got[1], want[1], trainable):
        assert (g is None) == (not r) and (w is None) == (not r)
        if r:
            assert g.dtype == dtype and np.array_equal(g, w)


def test_embed_sum_without_trainable_tables_builds_no_backward():
    rng = np.random.default_rng(10)
    tables = [ag.Tensor(rng.normal(size=(5, 3))), ag.Tensor(rng.normal(size=(4, 3)))]
    out = ag.embed_sum([(tables[0], np.array([[1, 1, 4]])), (tables[1], np.arange(3))])
    assert not out.requires_grad and out._backward is None
    assert np.array_equal(out.data, tables[0].data[[[1, 1, 4]]] + tables[1].data[:3])
