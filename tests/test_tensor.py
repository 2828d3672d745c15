"""Forward values and finite-difference gradients for every tensor op."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import tada.tensor
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (block_gates, graph_nodes, mask_observations, observation_gates, tmean,
                     tsum)
from reference import (chain_gated_attention_pool, chain_gates, dense_pool, reference_backward,
                       reference_sigmoid, weighted_masked_softmax)
from tada.cli import gradcheck_setup, small_gradcheck_config
from tada.dla import anchor_times, attention_maps
from tada.errors import DimensionError
from tada.gradcheck import grad_check
from tada.tensor import (
    Tensor,
    _sigmoid,
    add,
    concat,
    cross_entropy_with_logits,
    gated_attention_pool,
    gather,
    matmul,
    mul,
    observation_pool,
    relu,
    reshape,
    segment_softmax,
    segment_sum,
    softplus,
    transpose,
)


def leaf(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def assert_grads_match(fn, params, tol=1e-6, eps=1e-5):
    rep = grad_check(fn, params, eps=eps)
    assert rep.max_rel_error < tol, rep.worst()


# forward values -------------------------------------------------------------


def test_matmul_hand_values():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_vector_cases():
    A = Tensor([[1.0, 2.0], [3.0, 4.0]])
    v = Tensor([1.0, -1.0])
    np.testing.assert_array_equal(matmul(A, v).data, [-1.0, -1.0])
    # a vector is a right operand only
    for left, right in ((v, A), (v, v), (v, Tensor(np.ones((2, 2, 3))))):
        with pytest.raises(DimensionError, match="matmul"):
            matmul(left, right)


def test_matmul_batched_3d():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 3, 5))
    B = rng.normal(size=(5, 2))
    np.testing.assert_allclose(matmul(Tensor(A), Tensor(B)).data, A @ B)
    B3 = rng.normal(size=(4, 5, 2))
    out = matmul(Tensor(A), Tensor(B3)).data
    for h in range(4):
        np.testing.assert_allclose(out[h], A[h] @ B3[h], rtol=1e-14)
    # leading axes broadcast as in numpy: (H, L, A) @ (B, H, A, T)
    B4 = rng.normal(size=(2, 4, 5, 3))
    np.testing.assert_allclose(matmul(Tensor(A), Tensor(B4)).data, A @ B4, rtol=1e-14)
    np.testing.assert_allclose(matmul(Tensor(A[0]), Tensor(B4)).data, A[0] @ B4, rtol=1e-14)


def test_matmul_shape_errors_name_op():
    with pytest.raises(DimensionError, match="matmul"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(DimensionError, match="matmul"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2, 2))))
    with pytest.raises(DimensionError, match="matmul"):
        matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))


def test_add_mul_broadcast_values():
    a = Tensor([[1.0], [2.0]])
    b = Tensor([10.0, 20.0])
    np.testing.assert_array_equal(add(a, b).data, [[11.0, 21.0], [12.0, 22.0]])
    np.testing.assert_array_equal(mul(a, b).data, [[10.0, 20.0], [20.0, 40.0]])


def test_add_shape_error_names_op():
    with pytest.raises(DimensionError, match="add"):
        add(Tensor(np.ones(3)), Tensor(np.ones(4)))
    with pytest.raises(DimensionError, match="mul"):
        mul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_relu_values():
    np.testing.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_sigmoid_values_and_stability():
    assert _sigmoid(np.array(0.0)) == 0.5
    big = _sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(big))
    assert big[0] == 0.0 and big[1] == 1.0


@settings(max_examples=300)
@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                          st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                                           745.2, -745.2, 746.0, -746.0, 1e308, -1e308])),
                min_size=1, max_size=40))
def test_sigmoid_is_bit_identical_to_the_reference(xs):
    # no tanh or clipping: gates below ~1e-17 must stay nonzero, because the
    # attention pool reads exact zeros as masks
    x = np.array(xs)
    with np.errstate(invalid="ignore"):
        want = reference_sigmoid(x)
    assert np.array_equal(_sigmoid(x), want, equal_nan=True)
    assert np.array_equal(_sigmoid(x.copy(), overwrite=True), want, equal_nan=True)
    assert np.array_equal(_sigmoid(x.reshape(-1, 1, 1)), want.reshape(-1, 1, 1),
                          equal_nan=True)


def test_softplus_values_and_stability():
    assert abs(softplus(Tensor(0.0)).item() - np.log(2.0)) < 1e-12
    big = softplus(Tensor([-1000.0, 1000.0])).data
    assert np.all(np.isfinite(big))
    assert big[0] == 0.0 and big[1] == 1000.0


def test_concat_values_and_error():
    out = concat([Tensor([[1.0]]), Tensor([[2.0]])], axis=0)
    np.testing.assert_array_equal(out.data, [[1.0], [2.0]])
    out = concat([Tensor([[1.0]]), Tensor([[2.0, 3.0]])], axis=1)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])
    with pytest.raises(DimensionError, match="concat"):
        concat([Tensor(np.ones((2, 2))), Tensor(np.ones((3, 3)))], axis=0)


def test_reshape_transpose_broadcast_values():
    x = Tensor(np.arange(6.0))
    np.testing.assert_array_equal(reshape(x, (2, 3)).data, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(DimensionError, match="reshape"):
        reshape(x, (4, 2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(transpose(m, (1, 0)).data, [[1.0, 3.0], [2.0, 4.0]])
    with pytest.raises(DimensionError, match="transpose"):
        transpose(m, (0, 2))


def test_reductions_values():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert tsum(x).item() == 10.0
    np.testing.assert_array_equal(tsum(x, axis=0).data, [4.0, 6.0])
    np.testing.assert_array_equal(tsum(x, axis=1, keepdims=True).data, [[3.0], [7.0]])
    assert tmean(x).item() == 2.5
    np.testing.assert_array_equal(tmean(x, axis=1).data, [1.5, 3.5])


def test_gather_values_and_errors():
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = gather(x, [2, 0, 0])
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DimensionError, match="gather"):
        gather(x, [[0, 1]])
    with pytest.raises(DimensionError, match="gather"):
        gather(x, [3])
    # rows only: no negative index, no other axis
    with pytest.raises(DimensionError, match="gather"):
        gather(x, [-1])
    with pytest.raises(DimensionError, match="gather"):
        gather(Tensor(np.zeros((2, 3, 2))), [0])


def test_gather_backward_accumulates_duplicates():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    tsum(mul(gather(x, [0, 0, 2]), 2.0)).backward()
    np.testing.assert_array_equal(x.grad, [[4.0, 4.0], [0.0, 0.0], [2.0, 2.0]])


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(0, 3), st.lists(st.integers(0, 5), max_size=20),
       st.integers(0, 2**32 - 1))
def test_gather_backward_sums_in_index_order_as_add_at(n, k, index, seed):
    # the bincount backward adds each row's duplicates in index order, from
    # zero, as np.add.at did: the same bits, with zero columns and an
    # empty index
    idx = np.array([i for i in index if i < n], dtype=np.int64)
    rng = np.random.default_rng(seed)
    out = gather(Tensor(rng.normal(size=(n, k)), requires_grad=True), idx)
    g = rng.normal(size=out.shape)
    want = np.zeros((n, k))
    np.add.at(want, idx, g)
    got = out._backward(g)[0]
    assert got.dtype == np.float64 and np.array_equal(got, want)


def masked_softmax(scores, mask):
    """A plain masked softmax is the reference weighted one with 0/1 gates."""
    return weighted_masked_softmax(scores, Tensor(np.asarray(mask, dtype=np.float64)))


def test_masked_softmax_values():
    np.testing.assert_array_equal(
        masked_softmax(Tensor([0.0, 0.0]), [True, True]).data, [0.5, 0.5])
    np.testing.assert_array_equal(
        masked_softmax(Tensor([5.0, -3.0]), [True, False]).data, [1.0, 0.0])
    np.testing.assert_array_equal(
        masked_softmax(Tensor([1.0, 2.0, 3.0]), [False, False, False]).data,
        [0.0, 0.0, 0.0])
    with pytest.raises(DimensionError, match="weighted_masked_softmax"):
        masked_softmax(Tensor([1.0, 2.0]), [True])


def test_masked_softmax_row_sums():
    rng = np.random.default_rng(1)
    scores = Tensor(rng.normal(size=(20, 7)))
    mask = rng.random((20, 7)) < 0.5
    w = masked_softmax(scores, mask).data
    sums = w.sum(axis=-1)
    live = mask.any(axis=-1)
    np.testing.assert_allclose(sums[live], 1.0, atol=1e-12)
    np.testing.assert_array_equal(sums[~live], 0.0)
    assert np.all(w[~mask] == 0.0)


def test_masked_softmax_extreme_scores_stable():
    w = masked_softmax(Tensor([1000.0, 999.0, -1000.0]), [True, True, True]).data
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w.sum(), 1.0)
    assert w[0] > w[1] > w[2]


def test_weighted_masked_softmax_values():
    # binary gates reduce to the plain softmax over the live entries
    s = Tensor(np.array([0.3, -1.2, 0.7]))
    w = weighted_masked_softmax(s, Tensor([1.0, 0.0, 1.0])).data
    e = np.exp([0.3 - 0.7, 0.0])
    np.testing.assert_allclose(w, [e[0] / e.sum(), 0.0, e[1] / e.sum()], atol=1e-15)
    # fractional gates tilt the distribution: g_j e^{s_j} / sum
    w = weighted_masked_softmax(Tensor([0.0, 0.0]), Tensor([1.0, 0.5])).data
    np.testing.assert_allclose(w, [2.0 / 3.0, 1.0 / 3.0])
    # all-zero gates give an all-zero row
    w = weighted_masked_softmax(Tensor([1.0, 2.0]), Tensor([0.0, 0.0])).data
    np.testing.assert_array_equal(w, [0.0, 0.0])
    with pytest.raises(DimensionError, match="weighted_masked_softmax"):
        weighted_masked_softmax(Tensor([1.0, 2.0]), Tensor([1.0]))
    with pytest.raises(DimensionError, match="weighted_masked_softmax"):
        weighted_masked_softmax(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))))


def test_cross_entropy_hand_values():
    # two equal logits: loss is ln 2 regardless of the label
    assert abs(cross_entropy_with_logits(Tensor([[[0.0, 0.0]]]), [0], [1]).item()
               - np.log(2.0)) < 1e-12
    # a 100-logit margin saturates the softmax
    assert cross_entropy_with_logits(Tensor([[[100.0, 0.0]]]), [0], [1]).item() < 1e-8
    # mean over rows
    loss = cross_entropy_with_logits(
        Tensor([[[0.0, 0.0], [100.0, 0.0]]]), [0, 0], [2]).item()
    assert abs(loss - 0.5 * np.log(2.0)) < 1e-8


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = Tensor(np.array([[[1.0, -0.5, 0.25], [0.0, 0.0, 0.0]]]),
                    requires_grad=True)
    labels = np.array([2, 0])
    cross_entropy_with_logits(logits, labels, [2]).backward()
    z = logits.data[0]
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(2), labels] -= 1.0
    np.testing.assert_allclose(logits.grad[0], p / 2.0, atol=1e-12)


def test_cross_entropy_errors():
    with pytest.raises(DimensionError, match="cross_entropy"):
        cross_entropy_with_logits(Tensor(np.zeros((1, 2, 3))), [0], [2])
    with pytest.raises(DimensionError, match="cross_entropy"):
        cross_entropy_with_logits(Tensor(np.zeros((1, 2, 3))), [0, 3], [2])
    with pytest.raises(DimensionError, match="cross_entropy"):
        cross_entropy_with_logits(Tensor(np.zeros((2, 3, 2))), np.zeros((2, 3)), [1, 4])
    # only padded (B, R, C) logits
    for logits, labels in ((np.zeros((2, 3)), [0, 1]), (np.zeros(3), [0])):
        with pytest.raises(DimensionError, match="cross_entropy"):
            cross_entropy_with_logits(Tensor(logits), labels, [len(labels)])


def test_padded_cross_entropy_is_the_mean_of_per_sample_means():
    rng = np.random.default_rng(3)
    rows = [rng.normal(size=(n, 4)) for n in (1, 3, 2)]
    labels = [rng.integers(0, 4, size=n) for n in (1, 3, 2)]
    logits = Tensor(np.zeros((3, 3, 4)), requires_grad=True)
    padded_labels = np.zeros((3, 3), dtype=np.int64)
    for b, (z, y) in enumerate(zip(rows, labels)):
        logits.data[b, :len(z)] = z
        logits.data[b, len(z):] = rng.normal(size=(3 - len(z), 4))
        padded_labels[b, :len(y)] = y
    loss = cross_entropy_with_logits(logits, padded_labels, [1, 3, 2])
    loss.backward()
    parts = [Tensor(z, requires_grad=True) for z in rows]
    want = [cross_entropy_with_logits(reshape(z, (1,) + z.shape), y, [len(y)])
            for z, y in zip(parts, labels)]
    assert abs(loss.item() - np.mean([w.item() for w in want])) < 1e-15
    for b, (part, w) in enumerate(zip(parts, want)):
        w.backward()
        n = len(rows[b])
        np.testing.assert_allclose(logits.grad[b, :n], part.grad / 3, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(logits.grad[b, n:], 0.0)   # padding rows


@pytest.mark.parametrize("overrides", [{}, {"window_mode": "hard"},
                                       {"keyvalue_variant": "setting2"}, {"no_dla": True}])
def test_backward_keeps_gradients_on_leaves_only(overrides):
    model, preps = gradcheck_setup(small_gradcheck_config(**overrides))
    loss = model.batch_loss(preps)
    loss.backward()
    nodes = graph_nodes(loss)
    assert any(n._backward is not None and n.requires_grad for n in nodes)
    assert all(n.grad is None for n in nodes if n._backward is not None)
    got = {k: p.grad for k, p in model.params.items() if p.grad is not None}
    # the earlier accumulation, which zero-fills and keeps every gradient
    for p in model.params.values():
        p.grad = None
    reference_backward(model.batch_loss(preps))
    want = {k: p.grad for k, p in model.params.items() if p.grad is not None}
    assert got.keys() == want.keys()
    for k in want:
        assert np.abs(got[k] - want[k]).max() <= 1e-14 * np.abs(want[k]).max(), k


def test_backward_accumulates_into_existing_leaf_gradients():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tsum(mul(add(x, x), 3.0)).backward()
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])
    tsum(mul(x, x)).backward()
    np.testing.assert_array_equal(x.grad, [8.0, 10.0])


def test_backward_matches_the_reference_where_add_shares_its_gradient():
    # add hands one array to both operands and backward adopts each parent's
    # first gradient as is, so no two parents may end up holding one buffer
    rng = np.random.default_rng(3)
    x, y = leaf(rng, (3, 4)), leaf(rng, (4,))
    c = rng.normal(size=(3, 4))
    graphs = {
        "same tensor": lambda: tsum(mul(add(x, x), c)),
        "shared parent": lambda: tsum(mul(add(transpose(transpose(x, (1, 0)), (1, 0)),
                                              reshape(x, (3, 4))), c)),
        "broadcast": lambda: tsum(mul(add(x, y), add(y, mul(x, c)))),
        "nested": lambda: tsum(mul(add(add(x, y), add(x, x)), add(c, y))),
    }
    for name, fn in graphs.items():
        grads = []
        for run in (Tensor.backward, reference_backward):
            x.grad = y.grad = None
            run(fn())
            grads.append([x.grad, y.grad])
        for got, want in zip(*grads):
            assert (got is None) == (want is None), name
            if want is not None:
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(DimensionError, match="backward"):
        add(x, x).backward()


def test_tensor_has_no_operator_sugar():
    # every op is called by name, in the one form the model passes
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "reshape", "transpose"):
        assert not hasattr(Tensor, name), name


def test_grad_pruned_when_not_required():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0])
    out = tsum(mul(a, b))
    out.backward()
    np.testing.assert_array_equal(a.grad, [3.0, 4.0])
    assert b.grad is None


def test_ops_pure_and_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 4))
    a = Tensor(x.copy())
    out1 = masked_softmax(matmul(a, a), x > 0).data.copy()
    out2 = masked_softmax(matmul(a, a), x > 0).data.copy()
    np.testing.assert_array_equal(out1, out2)
    np.testing.assert_array_equal(a.data, x)


# gradients ------------------------------------------------------------------


def test_grad_matmul_all_rank_combinations():
    rng = np.random.default_rng(10)
    cases = [((3, 4), (4, 2)), ((3, 4), (4,)),
             ((2, 3, 4), (4, 2)), ((2, 3, 4), (4,)), ((2, 3, 4), (2, 4, 5)),
             ((3, 4), (2, 4, 5)), ((2, 3, 4), (3, 2, 4, 5)),
             ((3, 1, 2, 4), (2, 4, 5)), ((2, 1, 3, 4), (4,))]
    for sa, sb in cases:
        a, b = leaf(rng, sa), leaf(rng, sb)
        assert_grads_match(lambda a=a, b=b: tsum(mul(matmul(a, b), 0.7)),
                           {"a": a, "b": b})


def test_grad_add_mul_broadcast():
    rng = np.random.default_rng(11)
    a, b = leaf(rng, (3, 4)), leaf(rng, (4,))
    assert_grads_match(lambda: tsum(mul(add(a, b), b)), {"a": a, "b": b})


def test_grad_pointwise_ops():
    rng = np.random.default_rng(12)
    # keep relu inputs away from the kink so central differences stay exact
    x = Tensor(np.where(np.abs(z := rng.normal(size=(3, 3))) < 0.1, 0.5, z),
               requires_grad=True)
    assert_grads_match(lambda: tsum(relu(x)), {"x": x})
    y = leaf(rng, (3, 3), lo=-2.0, hi=2.0)
    assert_grads_match(lambda: tsum(softplus(y)), {"y": y})


def test_grad_dead_relu_region_is_exactly_zero():
    x = Tensor([-2.0, -1.0], requires_grad=True)
    rep = grad_check(lambda: tsum(relu(x)), {"x": x})
    assert rep.max_rel_error == 0.0


def test_grad_shape_ops():
    rng = np.random.default_rng(13)
    x = leaf(rng, (2, 6))
    coeff = rng.normal(size=(3, 4))
    assert_grads_match(lambda: tsum(mul(reshape(x, (3, 4)), coeff)), {"x": x})
    y = leaf(rng, (2, 3, 4))
    assert_grads_match(lambda: tsum(mul(transpose(y, (1, 2, 0)), 0.3)), {"y": y})


def test_grad_concat_and_gather():
    rng = np.random.default_rng(14)
    a, b = leaf(rng, (2, 3)), leaf(rng, (4, 3))
    assert_grads_match(lambda: tsum(softplus(concat([a, b], axis=0))), {"a": a, "b": b})
    x = leaf(rng, (5, 3))
    idx = np.array([0, 4, 0, 2])
    assert_grads_match(lambda: tsum(softplus(gather(x, idx))), {"x": x})


def test_grad_reductions():
    rng = np.random.default_rng(15)
    x = leaf(rng, (3, 4))
    assert_grads_match(lambda: tsum(softplus(tmean(x, axis=0))), {"x": x})
    assert_grads_match(lambda: tsum(softplus(tsum(x, axis=1, keepdims=True))), {"x": x})
    assert_grads_match(lambda: tmean(mul(x, x)), {"x": x})


def test_grad_masked_softmax():
    rng = np.random.default_rng(16)
    s = leaf(rng, (4, 6))
    mask = rng.random((4, 6)) < 0.6
    mask[0] = False  # one dead row must not poison the rest
    v = rng.normal(size=(4, 6))
    assert_grads_match(lambda: tsum(mul(masked_softmax(s, mask), v)), {"s": s})
    # (1, N) scores shared by every row of (T, N) gates, as te uses them
    r = leaf(rng, (1, 6))
    assert_grads_match(lambda: tsum(mul(masked_softmax(r, mask), v)), {"r": r})


def test_weighted_masked_softmax_constant_gates_get_no_gradient():
    rng = np.random.default_rng(18)
    s = leaf(rng, (4, 6))
    gate_values = rng.uniform(0.2, 0.9, size=(4, 6)) * (rng.random((4, 6)) < 0.7)
    v = rng.normal(size=(4, 6))
    grads = []
    for learn in (False, True):
        s.grad = None
        g = Tensor(gate_values, requires_grad=learn)
        w = weighted_masked_softmax(s, g)
        # the backward holds the weights, plus e / z only for learning gates
        held = [c.cell_contents for c in w._backward.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert len(held) == (2 if learn else 1)
        tsum(mul(w, v)).backward()
        assert (g.grad is None) != learn
        grads.append(s.grad)
    # the score gradient does not depend on whether the gates learn
    np.testing.assert_array_equal(grads[0], grads[1])


def test_grad_weighted_masked_softmax_both_inputs():
    rng = np.random.default_rng(17)
    s = leaf(rng, (4, 6))
    g = Tensor(rng.uniform(0.2, 0.9, size=(4, 6)), requires_grad=True)
    v = rng.normal(size=(4, 6))
    assert_grads_match(
        lambda: tsum(mul(weighted_masked_softmax(s, g), v)), {"s": s, "g": g})


def test_weighted_masked_softmax_broadcasts_scores_over_gates():
    # (H, L, 1, T) scores against (L, D, T) gates: each (h, d) slice is the
    # unbroadcast softmax, and both gradients reduce to the input shapes
    rng = np.random.default_rng(19)
    s = leaf(rng, (2, 3, 1, 5))
    g = Tensor(rng.uniform(0.2, 0.9, size=(3, 4, 5)), requires_grad=True)
    w = weighted_masked_softmax(s, g).data
    assert w.shape == (2, 3, 4, 5)
    for h in range(2):
        for d in range(4):
            ref = weighted_masked_softmax(Tensor(s.data[h, :, 0]), Tensor(g.data[:, d])).data
            np.testing.assert_array_equal(w[h, :, d], ref)
    v = rng.normal(size=(2, 3, 4, 5))
    assert_grads_match(
        lambda: tsum(mul(weighted_masked_softmax(s, g), v)), {"s": s, "g": g})


def test_grad_cross_entropy():
    rng = np.random.default_rng(18)
    x = leaf(rng, (1, 5, 3))
    labels = np.array([0, 2, 1, 1, 0])
    assert_grads_match(lambda: cross_entropy_with_logits(x, labels, [5]), {"x": x})


# segment ops -----------------------------------------------------------------

# observations per step: empty, single-observation and many-observation steps
step_counts = st.lists(st.sampled_from([0, 1, 1, 2, 3, 7]), min_size=1, max_size=12)


def ragged(counts):
    """(N,) step index per observation, observations stored in step order."""
    return np.repeat(np.arange(len(counts)), counts)


@settings(deadline=None, max_examples=40)
@given(step_counts, st.integers(0, 2**32 - 1))
def test_segment_softmax_closed_form_and_gradient(counts, seed):
    rng = np.random.default_rng(seed)
    step_of, T = ragged(counts), len(counts)
    s = leaf(rng, (step_of.size,), lo=-3.0, hi=3.0)
    w = segment_softmax(s, step_of, T).data
    # w_i = 1 / sum over i's step of exp(s_j - s_i)
    same = step_of[:, None] == step_of[None, :]
    want = 1.0 / np.where(same, np.exp(s.data[None, :] - s.data[:, None]), 0.0).sum(axis=1)
    np.testing.assert_allclose(w, want, rtol=1e-13, atol=0.0)
    if step_of.size:
        v = rng.normal(size=step_of.size)
        assert_grads_match(lambda: tsum(mul(segment_softmax(s, step_of, T), v)), {"s": s})


@settings(deadline=None, max_examples=40)
@given(step_counts, st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_segment_sum_closed_form_and_gradient(counts, k, seed):
    rng = np.random.default_rng(seed)
    step_of, T = ragged(counts), len(counts)
    x = leaf(rng, (step_of.size, k))
    out = segment_sum(x, step_of, T).data
    want = np.array([x.data[step_of == t].sum(axis=0) for t in range(T)])
    assert out.shape == (T, k)
    np.testing.assert_allclose(out, want, rtol=1e-14, atol=1e-15)
    # weights on a subset of the rows; every other row enters as it is
    rows = np.flatnonzero(rng.uniform(size=step_of.size) < 0.5)
    w = leaf(rng, (rows.size,))
    scaled = x.data.copy()
    scaled[rows] *= w.data[:, None]
    want = np.array([scaled[step_of == t].sum(axis=0) for t in range(T)])
    np.testing.assert_allclose(segment_sum(x, step_of, T, w, rows).data, want,
                               rtol=1e-14, atol=1e-15)
    if step_of.size:
        v = rng.normal(size=(T, k))
        assert_grads_match(lambda: tsum(mul(segment_sum(x, step_of, T), v)), {"x": x})
        assert_grads_match(lambda: tsum(mul(segment_sum(x, step_of, T, w, rows), v)),
                           {"x": x, "w": w})


def test_segment_softmax_extreme_scores_stable():
    w = segment_softmax(Tensor([1000.0, 999.0, -1000.0, -2000.0]), [0, 0, 0, 1], 2).data
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w[:3].sum(), 1.0)
    assert w[0] > w[1] > w[2] and w[3] == 1.0


def test_segment_ops_reject_bad_step_indices():
    for op, x in ((segment_softmax, Tensor([1.0, 2.0])),
                  (segment_sum, Tensor(np.ones((2, 3))))):
        name = op.__name__
        with pytest.raises(DimensionError, match=name):
            op(x, [0, 3], 3)
        with pytest.raises(DimensionError, match=name):
            op(x, [-1, 0], 3)
        with pytest.raises(DimensionError, match=name):
            op(x, [0, 0, 1], 3)
    with pytest.raises(DimensionError, match="segment_softmax"):
        segment_softmax(Tensor(np.ones((2, 1))), [0, 1], 2)
    with pytest.raises(DimensionError, match="segment_sum"):
        segment_sum(Tensor([1.0, 2.0]), [0, 1], 2)
    with pytest.raises(DimensionError, match="segment_sum"):
        segment_sum(Tensor(np.ones((2, 3))), [0, 1], 2, Tensor([0.5]), [0, 1])


# gated attention pool ----------------------------------------------------------


def window(mode, tau=0.05):
    return SimpleNamespace(window_mode=mode, gate_temperature=tau)


def pool_inputs(rng, learn_radii=True, value_grad=True, B=2, H=2, L=3, D=4, T=6):
    """(B, H, L, T) scores, (B, 1, D, T) values and (D,) radii, with the
    (B, T) times and (B, 1, D, T) mask their window gates are built from.
    Feature 0 is never observed, so its rows are dead, and the last
    sample's last two steps are padding."""
    scores = leaf(rng, (B, H, L, T), lo=-2.0, hi=2.0)
    values = Tensor(rng.normal(size=(B, 1, D, T)), requires_grad=value_grad)
    radii = Tensor(rng.uniform(0.1, 0.4, size=D), requires_grad=learn_radii)
    times = np.sort(rng.uniform(0.0, 1.0, size=(B, T)), axis=1)
    mask = rng.random((B, 1, D, T)) < 0.7
    mask[:, :, 0] = False
    mask[-1, ..., -2:] = False
    return scores, values, radii, times, mask


def pooled_radii(radii, cfg):
    """The radii as DLA hands them to a pool: hard ones detached, since a
    hard window's edge has no derivative in its radius."""
    return radii if cfg.window_mode == "soft" else radii.detach()


def window_pools(scores, values, radii, times, mask, cfg):
    """The pool under the window gates of ``radii``, and the dense reference
    under the same gates built as a graph chain from the radii."""
    anchors = anchor_times(scores.shape[2])

    def pool():
        gates = block_gates(radii.data, times, anchors, cfg, mask)
        return gated_attention_pool(scores, gates, values, pooled_radii(radii, cfg),
                                    cfg.gate_temperature)

    def reference():
        return dense_pool(scores, chain_gates(radii, times, anchors, cfg, mask), values)

    return pool, reference


def maps_at_scores(s, radii, times, mask, cfg):
    """``attention_maps`` of the one-sample batch whose DLA scores are the
    (1, H, L, T) ``s``, as (1, H, L, D, T), beside the dense reference
    weights under that batch's gate block.  The batch has (1, T) ``times``
    and observes the (step, feature) pairs of a (1, 1, D, T) ``mask``; its
    te rows hold ``s`` and the projections, te's value matrix included, pick
    them out, so the scaled q.k products are ``s`` exactly (attn_dim 4 makes
    the 1 / sqrt(attn_dim) scale exact)."""
    _, H, L, T = s.shape
    A, E = 4, H * 4
    x_hat, q_w = np.zeros((T, E)), np.zeros((E, E))
    for h in range(H):
        x_hat[:, h * A:h * A + L] = s[0, h].T
        q_w[np.arange(L), h * A + np.arange(L)] = 2.0
    raw = np.log(np.expm1(radii))
    params = {"dla.queries": Tensor(np.eye(L, E)), "dla.q.w": Tensor(q_w),
              "dla.k.w": Tensor(np.eye(E)), "te.value.w": Tensor(np.eye(E - 1)),
              "dla.range_raw": Tensor(raw)}
    cfg = SimpleNamespace(**vars(cfg), n_queries=L, n_heads=H, attn_dim=A,
                          keyvalue_variant="default", no_learnable_range=False)
    step_of, feat_idx = np.nonzero(mask[0, 0].T)
    X = SimpleNamespace(times=times[0], step_of=step_of, feat_idx=feat_idx,
                        lengths=np.array([T]), t_max=T)
    maps = attention_maps(params, X, cfg, Tensor(x_hat))[0]
    gates = block_gates(np.logaddexp(0.0, raw), times, anchor_times(L), cfg, mask)
    ref = weighted_masked_softmax(Tensor(s[:, :, :, None, :]), Tensor(gates[:, None])).data
    return np.transpose(maps, (0, 1, 3, 2))[None], ref


def max_rel_diff(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def pool_results(pool, inputs, coeff):
    for t in inputs:
        t.grad = None
    out = pool()
    tsum(mul(out, coeff)).backward()
    return out.data, [None if t.grad is None else t.grad.copy() for t in inputs]


@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("learn_radii", [False, True])
@pytest.mark.parametrize("value_grad", [False, True])
def test_gated_attention_pool_matches_the_dense_reference(mode, learn_radii, value_grad):
    rng = np.random.default_rng(20)
    for trial in range(6):
        tau = (0.01, 0.05)[trial % 2]
        scores, values, radii, times, mask = inputs = pool_inputs(rng, learn_radii, value_grad)
        pool, reference = window_pools(*inputs, window(mode, tau))
        coeff = rng.normal(size=(2, 2, 3, 4))
        out, grads = pool_results(pool, (scores, values, radii), coeff)
        want, want_grads = pool_results(reference, (scores, values, radii), coeff)
        assert max_rel_diff(out, want) <= 1e-12
        np.testing.assert_array_equal(out[..., 0], 0.0)
        # values get a gradient when they require one, radii under soft windows only
        learns = learn_radii and mode == "soft"
        assert [g is None for g in grads] == [False, not value_grad, not learns]
        for g, w in zip(grads, want_grads):
            if g is not None:
                assert max_rel_diff(g, w) <= 1e-12, (mode, tau, value_grad, trial)


def test_grad_gated_attention_pool_all_inputs():
    rng = np.random.default_rng(21)
    scores, values, radii, times, mask = inputs = pool_inputs(rng)
    pool, _ = window_pools(*inputs, window("soft"))
    coeff = rng.normal(size=(2, 2, 3, 4))
    assert_grads_match(lambda: tsum(mul(pool(), coeff)),
                       {"scores": scores, "values": values, "radii": radii})


def test_gated_attention_pool_rejects_mismatched_shapes():
    s, g = Tensor(np.ones((1, 2, 3, 5))), np.ones((1, 3, 4, 5))
    v, r = Tensor(np.ones((1, 1, 4, 5))), Tensor(np.ones(4))
    gated_attention_pool(s, g, v, r, 0.05)
    for bad in ((Tensor(np.ones((1, 2, 3, 4))), g, v), (s, np.ones((1, 2, 4, 5)), v),
                (s, g, Tensor(np.ones((1, 4, 5)))), (Tensor(np.ones((2, 3, 5))), g, v),
                (Tensor(np.ones((2, 2, 3, 5))), g, v), (s, g, v, Tensor(np.ones(3)), 0.05)):
        with pytest.raises(DimensionError, match="gated_attention_pool"):
            gated_attention_pool(*bad)


def test_pools_refuse_radii_that_learn_without_a_temperature():
    # a pool differentiates radii that require a gradient, which needs the
    # soft windows' temperature; DLA hands it hard or frozen radii detached
    radii = Tensor(np.ones(4), requires_grad=True)
    s = Tensor(np.ones((1, 2, 3, 5)))
    with pytest.raises(DimensionError, match="gated_attention_pool: radii that learn"):
        gated_attention_pool(s, np.ones((1, 3, 4, 5)), Tensor(np.ones((1, 1, 4, 5))), radii)
    with pytest.raises(DimensionError, match="observation_pool: radii that learn"):
        observation_pool(s, np.ones((1, 3, 5)), np.zeros((1, 5), dtype=np.int64),
                         np.ones((1, 5)), 4, radii)


def redone_features(monkeypatch, pool):
    """The feature index of every row ``_pool_rows`` redoes while ``pool()`` runs."""
    shared, redone = tada.tensor._pool_rows, []

    def spy(*args):
        result = shared(*args)
        redone.append(result[1][3].tolist())
        return result

    with monkeypatch.context() as m:
        m.setattr(tada.tensor, "_pool_rows", spy)
        pool()
    return redone[0]


def test_gated_attention_pool_redoes_rows_that_underflow_the_anchor_shift(monkeypatch):
    # Feature 0 lives only at step 0, whose score sets the shift of every
    # (h, l).  Features 1 and 2 live only at steps scoring `gap` lower, where
    # that shift underflows their normalizers to zero (gap 1000) or to
    # subnormals (gap 720).  Each such row must come out as its own softmax,
    # and the radius gradient of features 1 and 2 comes from these rows alone.
    # The attention maps, shifted per row, hold the same weights.
    rng = np.random.default_rng(22)
    B, H, L, D, T = 1, 2, 2, 3, 5
    cfg = window("soft")
    for gap in (1000.0, 720.0):
        s = np.zeros((B, H, L, T))
        s[..., 1:] = -gap + rng.uniform(-1.0, 1.0, size=(B, H, L, T - 1))
        g = np.zeros((B, L, D, T))
        g[:, :, 0, 0] = 1.0
        g[:, :, 1:, 1:] = rng.uniform(0.1, 1.0, size=(B, L, D - 1, T - 1))
        v = np.full((B, 1, D, T), 2.0)
        out = gated_attention_pool(Tensor(s), g, Tensor(v)).data
        np.testing.assert_allclose(out, 2.0, rtol=1e-15)
        # window gates with the same live entries
        times = np.linspace(0.1, 0.9, T)[None]
        mask = g[:, :1] > 0.0
        scores = Tensor(s, requires_grad=True)
        values = Tensor(rng.normal(size=(B, 1, D, T)), requires_grad=True)
        radii = Tensor(rng.uniform(0.2, 0.5, size=D), requires_grad=True)
        gates = block_gates(radii.data, times, anchor_times(L), cfg, mask)
        assert redone_features(
            monkeypatch, lambda: gated_attention_pool(Tensor(s), gates, values)) \
            == [1, 2] * (H * L)
        maps, ref = maps_at_scores(s, radii.data, times, mask, cfg)
        assert max_rel_diff(maps, ref) <= 1e-12, gap
        pool, reference = window_pools(scores, values, radii, times, mask, cfg)
        coeff = rng.normal(size=(B, H, L, D))
        got, grads = pool_results(pool, (scores, values, radii), coeff)
        want, want_grads = pool_results(reference, (scores, values, radii), coeff)
        assert max_rel_diff(got, want) <= 1e-12, gap
        assert np.all(want_grads[2][1:] != 0.0)
        for k, (a, b) in enumerate(zip(grads, want_grads)):
            assert max_rel_diff(a, b) <= 1e-12, (gap, k)
        # the redone rows' numerators are (e G) V where the old pool formed
        # e (G V), and their gradients reassociate alike
        old, old_grads = pool_results(
            lambda: chain_gated_attention_pool(scores, Tensor(gates), values), (scores, values),
            coeff)
        assert max_rel_diff(got, old) <= 1e-15, gap
        for k, (a, b) in enumerate(zip(grads[:2], old_grads)):
            assert max_rel_diff(a, b) <= 1e-15, (gap, k)


def _held_arrays(fn):
    """Every ndarray a closure holds, also inside tuples such as index sets."""
    held = []
    for cell in fn.__closure__:
        items = cell.cell_contents
        for item in items if isinstance(items, tuple) else (items,):
            if isinstance(item, np.ndarray):
                held.append(item)
    return held


def test_gated_attention_pool_forms_no_head_anchor_feature_step_array():
    rng = np.random.default_rng(23)
    B, H, L, D, T = 2, 3, 4, 5, 7
    pool, _ = window_pools(*pool_inputs(rng, B=B, H=H, L=L, D=D, T=T), window("soft"))
    held = _held_arrays(pool()._backward)
    assert held and all(a.size < B * H * L * D * T for a in held)
    # transient arrays too: gates, forward and backward peak below one
    # float64 (B, H, L, D, T) array, which the dense pool allocates several
    # times over
    B, H, L, D, T = 1, 16, 16, 8, 400
    pools = window_pools(*pool_inputs(rng, B=B, H=H, L=L, D=D, T=T), window("soft"))
    dense_bytes = B * H * L * D * T * 8
    peaks = []
    for pool in pools:
        tracemalloc.start()
        tsum(pool()).backward()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < dense_bytes < peaks[1], peaks


# observation pool ----------------------------------------------------------------


def observation_window_pool(scores, values, radii, times, mask, cfg):
    """``observation_pool`` under the window gates of ``radii`` at the
    observations of the (B, 1, D, T) ``mask``, with its scores gathered from
    the (B, H, L, T) ``scores`` so that their gradient lands there: the
    observation layout of ``window_pools``' inputs."""
    B, H, L, T = scores.shape
    D = mask.shape[2]
    obs = mask_observations(mask[:, 0].transpose(0, 2, 1), values.data[:, 0].transpose(0, 2, 1))
    N = obs.feat.shape[1]

    def pool():
        rows = reshape(transpose(scores, (0, 3, 1, 2)), (B * T, H * L))
        at_obs = transpose(reshape(gather(rows, obs.step.reshape(-1)), (B, N, H, L)),
                           (0, 2, 3, 1))
        gates = observation_gates(radii.data, times.reshape(-1), obs, anchor_times(L), cfg)
        return observation_pool(at_obs, gates, obs.feat, obs.values, D,
                                pooled_radii(radii, cfg), cfg.gate_temperature)

    return pool, obs


@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("learn_radii", [False, True])
def test_observation_pool_matches_the_dense_reference(mode, learn_radii):
    # steps hold up to three observations, and the last sample's last two
    # steps are padding
    rng = np.random.default_rng(24)
    for trial in range(6):
        tau = (0.01, 0.05)[trial % 2]
        scores, values, radii, times, mask = inputs = pool_inputs(rng, learn_radii, False)
        assert mask.sum(axis=2).max() > 1
        _, reference = window_pools(*inputs, window(mode, tau))
        pool, obs = observation_window_pool(*inputs, window(mode, tau))
        coeff = rng.normal(size=(2, 2, 3, 4))
        out, grads = pool_results(pool, (scores, radii), coeff)
        want, want_grads = pool_results(reference, (scores, radii), coeff)
        assert max_rel_diff(out, want) <= 1e-12
        np.testing.assert_array_equal(out[..., 0], 0.0)
        assert [g is None for g in grads] == [False, not (learn_radii and mode == "soft")]
        for g, w in zip(grads, want_grads):
            if g is not None:
                assert max_rel_diff(g, w) <= 1e-12, (mode, tau, trial)


def test_grad_observation_pool_all_inputs():
    rng = np.random.default_rng(25)
    scores, values, radii, times, mask = inputs = pool_inputs(rng, value_grad=False)
    pool, _ = observation_window_pool(*inputs, window("soft"))
    coeff = rng.normal(size=(2, 2, 3, 4))
    assert_grads_match(lambda: tsum(mul(pool(), coeff)), {"scores": scores, "radii": radii})


def test_observation_pool_rejects_mismatched_shapes():
    s, g = Tensor(np.ones((1, 2, 3, 5))), np.ones((1, 3, 5))
    f, v, r = np.zeros((1, 5), dtype=np.int64), np.ones((1, 5)), Tensor(np.ones(4))
    observation_pool(s, g, f, v, 4, r, 0.05)
    for bad in ((Tensor(np.ones((1, 2, 3, 4))), g, f, v, 4), (s, np.ones((1, 2, 5)), f, v, 4),
                (s, g, np.zeros((1, 4), dtype=np.int64), v, 4), (s, g, f, np.ones((1, 4)), 4),
                (s, g, f + 4, v, 4), (s, g, f - 1, v, 4),
                (s, g, f, v, 4, Tensor(np.ones(3)), 0.05)):
        with pytest.raises(DimensionError, match="observation_pool"):
            observation_pool(*bad)


def test_observation_pool_without_observations_gives_zero_rows():
    # a batch whose samples hold steps but no observation: N_max = 0
    B, H, L, D = 2, 2, 3, 4
    scores = Tensor(np.ones((B, H, L, 0)), requires_grad=True)
    radii = Tensor(np.full(D, 0.2), requires_grad=True)
    out = observation_pool(scores, np.ones((B, L, 0)), np.zeros((B, 0), dtype=np.int64),
                           np.ones((B, 0)), D, radii, 0.05)
    assert out.shape == (B, H, L, D) and np.all(out.data == 0.0)
    tsum(out).backward()
    assert scores.grad.shape == (B, H, L, 0)
    assert radii.grad.dtype == np.float64 and np.all(radii.grad == 0.0)


def test_observation_pool_redoes_rows_that_underflow_the_anchor_shift(monkeypatch):
    # The observation-layout twin of the block pool's underflow test: feature
    # 0 is observed only at step 0, whose score sets the shift of every
    # (h, l); features 1 and 2 only at steps scoring `gap` lower, where that
    # shift underflows their normalizers to zero (gap 1000) or to subnormals
    # (gap 720).  Each such row must come out as its own softmax.  The
    # attention maps, shifted per row, hold the same weights.
    rng = np.random.default_rng(26)
    B, H, L, D, T = 1, 2, 2, 3, 5
    cfg = window("soft")
    mask = np.zeros((B, T, D), dtype=bool)
    mask[:, 0, 0] = True
    mask[:, 1:, 1:] = True
    obs = mask_observations(mask, np.full((B, T, D), 2.0))
    feat, step = obs.feat, obs.step
    for gap in (1000.0, 720.0):
        s = np.zeros((B, H, L, T))
        s[..., 1:] = -gap + rng.uniform(-1.0, 1.0, size=(B, H, L, T - 1))
        g = np.zeros((B, L, D, T))
        g[:, :, 0, 0] = 1.0
        g[:, :, 1:, 1:] = rng.uniform(0.1, 1.0, size=(B, L, D - 1, T - 1))
        s_obs, g_obs = s[..., step[0]], g[:, :, feat[0], step[0]]
        out = observation_pool(Tensor(s_obs), g_obs, feat, obs.values, D).data
        np.testing.assert_allclose(out, 2.0, rtol=1e-15)
        assert redone_features(
            monkeypatch, lambda: observation_pool(Tensor(s_obs), g_obs, feat, obs.values, D)) \
            == [1, 2] * (H * L)
        # window gates with the same live entries
        times = np.linspace(0.1, 0.9, T)[None]
        scores = Tensor(s, requires_grad=True)
        values = Tensor(rng.normal(size=(B, 1, D, T)))
        radii = Tensor(rng.uniform(0.2, 0.5, size=D), requires_grad=True)
        inputs = (scores, values, radii, times, g[:, :1] > 0.0)
        maps, ref = maps_at_scores(s, radii.data, times, inputs[-1], cfg)
        assert max_rel_diff(maps, ref) <= 1e-12, gap
        pool, _ = observation_window_pool(*inputs, cfg)
        _, reference = window_pools(*inputs, cfg)
        coeff = rng.normal(size=(B, H, L, D))
        got, grads = pool_results(pool, (scores, radii), coeff)
        want, want_grads = pool_results(reference, (scores, radii), coeff)
        assert max_rel_diff(got, want) <= 1e-12, gap
        assert np.all(want_grads[1][1:] != 0.0)
        for k, (a, b) in enumerate(zip(grads, want_grads)):
            assert max_rel_diff(a, b) <= 1e-12, (gap, k)


def _redo_gradient_scaled(monkeypatch):
    # the redone rows' gated exponents, scaled once their sums are taken:
    # each redone row's gradient term w (a v - b) grows by 1e-3
    shared = tada.tensor._pool_rows

    def mutant(*args):
        out, redo, w = shared(*args)
        return out, redo, None if w is None else w * (1 + 1e-3)

    monkeypatch.setattr(tada.tensor, "_pool_rows", mutant)


def _redo_keeps_the_anchor_shift(monkeypatch):
    # each row shifted by its largest score, live or not.  Every step of the
    # underflow tests is live for some feature, so the pools' shared shifts
    # stay the anchors' own, and a redone row keeps its anchor's shift
    def mutant(S, live):
        return np.exp(np.where(live, S - S.max(axis=-1, keepdims=True), -np.inf))

    monkeypatch.setattr(tada.tensor, "_masked_exp", mutant)


@pytest.mark.parametrize("mutate", [_redo_gradient_scaled, _redo_keeps_the_anchor_shift])
@pytest.mark.parametrize("underflow_test", [
    test_gated_attention_pool_redoes_rows_that_underflow_the_anchor_shift,
    test_observation_pool_redoes_rows_that_underflow_the_anchor_shift])
def test_one_mutation_of_the_shared_redo_fails_both_pools(mutate, underflow_test, monkeypatch):
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        underflow_test(monkeypatch)
