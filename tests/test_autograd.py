import numpy as np
import pytest

from careerseq import autograd as ag


def _reference(logits: ag.Tensor, targets: np.ndarray, exclude) -> ag.Tensor:
    """``log_softmax_at`` from the remaining ops: add the exclusion mask,
    log-softmax, multiply by a one-hot that is zero past the block, and sum
    over the classes. Returns the full batch shape, zero past the block."""
    shape = logits.shape
    block = tuple(slice(0, n) for n in targets.shape)
    at = np.ix_(*[np.arange(n) for n in targets.shape]) + (targets,)
    onehot = np.zeros(shape)
    onehot[block][at] = 1.0
    mask = np.zeros(shape)
    if exclude is not None:
        rows = np.nonzero(exclude >= 0)
        mask[block][rows + (exclude[rows],)] = -1e30
    picked = ag.mul(ag.log_softmax(ag.add(logits, mask), axis=-1), onehot)
    return ag.tsum(picked, axis=-1)


def _case(rng, shape, block, excluded_share):
    logits = rng.normal(0.0, 2.0, size=shape)
    targets = rng.integers(0, shape[-1], size=block)
    exclude = rng.integers(0, shape[-1], size=block)
    exclude[rng.random(block) >= excluded_share] = -1
    weights = rng.normal(size=block)
    return logits, targets, exclude, weights


def _value_and_grad(op, logits, weights):
    leaf = ag.Tensor(logits, requires_grad=True)
    out = op(leaf)
    loss = ag.tsum(ag.mul(out, weights))
    loss.backward()
    return out.data, leaf.grad


def _compare(logits, targets, exclude, weights):
    got, got_grad = _value_and_grad(lambda x: ag.log_softmax_at(x, targets, exclude), logits, weights)
    padded = np.zeros(logits.shape[:-1])
    padded[tuple(slice(0, n) for n in targets.shape)] = weights
    want, want_grad = _value_and_grad(lambda x: _reference(x, targets, exclude), logits, padded)
    assert got.shape == targets.shape
    np.testing.assert_allclose(got, want[tuple(slice(0, n) for n in targets.shape)], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)
    return got, got_grad


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_shorter_than_time_axis(seed):
    rng = np.random.default_rng(seed)
    logits, targets, _, weights = _case(rng, (3, 7, 11), (3, 6), 0.0)
    _, grad = _compare(logits, targets, None, weights)
    assert not grad[:, 6:].any()  # the row past the block reads nothing


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exclusion_with_unexcluded_rows(seed):
    rng = np.random.default_rng(seed)
    logits, targets, exclude, weights = _case(rng, (4, 5, 9), (4, 5), 0.6)
    assert (exclude == -1).any() and (exclude >= 0).any()
    targets = np.where(targets == exclude, (targets + 1) % 9, targets)
    _compare(logits, targets, exclude, weights)


def test_excluded_target_with_zero_weight():
    # a career stay row: its target is the excluded previous occupation and its weight is 0
    rng = np.random.default_rng(3)
    logits, targets, exclude, weights = _case(rng, (2, 4, 6), (2, 4), 1.0)
    targets[1, 2] = exclude[1, 2]
    weights[1, 2] = 0.0
    got, grad = _compare(logits, targets, exclude, weights)
    assert got[1, 2] <= -1e29
    assert np.isfinite(grad).all()


@pytest.mark.parametrize("rows", [5, 3])
def test_two_dimensional_input(rows):
    rng = np.random.default_rng(4)
    logits, targets, exclude, weights = _case(rng, (5, 8), (rows,), 0.5)
    targets = np.where(targets == exclude, (targets + 1) % 8, targets)
    _compare(logits, targets, exclude, weights)


def test_no_exclusion_equals_all_minus_one():
    rng = np.random.default_rng(5)
    logits, targets, _, weights = _case(rng, (2, 3, 5), (2, 3), 0.0)
    none = _value_and_grad(lambda x: ag.log_softmax_at(x, targets), logits, weights)
    minus_one = _value_and_grad(lambda x: ag.log_softmax_at(x, targets, np.full((2, 3), -1)), logits, weights)
    for a, b in zip(none, minus_one):
        assert np.array_equal(a, b)


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
