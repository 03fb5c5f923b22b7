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
