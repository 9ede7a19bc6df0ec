import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktabsa import routing
from ktabsa import tensor as T

from helpers import (check_op_grads, conv1d, conv1d_naive,
                     corrupt_squash_backward, matmul, numeric_grad, rel_err,
                     reshape, retained_backward, scale, squash_ref, stacked,
                     weighted_sum)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = T.constant([[1.0, 0.0], [0.0, 1.0]])
    b = T.constant([[3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_allclose(matmul(a, b).data, b.data)


def test_matmul_hand():
    a = T.constant([[1.0, 2.0]])
    b = T.constant([[3.0], [4.0]])
    np.testing.assert_allclose(matmul(a, b).data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 2))))


def test_matmul_grads_match_finite_differences():
    rng = np.random.default_rng(0)
    check_op_grads(lambda ts: weighted_sum(matmul(ts[0], ts[1])),
                   [rng.normal(size=(4, 3)), rng.normal(size=(3, 2))])


# ---------------------------------------------------------------------------
# one convolution: a one-entry grouped_conv1d (helpers.conv1d)


def test_conv1d_identity_kernel():
    d = 3
    k = np.zeros((1, d, d))
    k[0] = np.eye(d)
    x = np.random.default_rng(1).normal(size=(2, 5, d))
    out = conv1d(T.constant(x), T.constant(k), T.constant(np.zeros(d)))
    np.testing.assert_allclose(out.data, x, rtol=1e-6)


def test_conv1d_zero_kernel():
    x = T.constant(np.ones((1, 4, 2)))
    k = T.constant(np.zeros((3, 2, 5)))
    assert not conv1d(x, k, T.constant(np.zeros(5))).data.any()


def test_conv1d_matches_naive_loops():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 5, 3))
    k = rng.normal(size=(3, 3, 4))
    b = rng.normal(size=4)
    with T.use_dtype(np.float64):
        out = conv1d(T.constant(x), T.constant(k), T.constant(b))
    for g in range(2):
        np.testing.assert_allclose(out.data[g], conv1d_naive(x[g], k, b),
                                   atol=1e-12)


def test_conv1d_grads():
    rng = np.random.default_rng(3)
    check_op_grads(
        lambda ts: weighted_sum(conv1d(ts[0], ts[1], ts[2])),
        [rng.normal(size=(1, 5, 3)), rng.normal(size=(3, 3, 2)),
         rng.normal(size=2)])


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    out = T.softmax(T.constant([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)


def test_softmax_large_logits_stable():
    out = T.softmax(T.constant([1e4, 0.0]))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-7)


def test_softmax_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.normal(size=6)
    # probe the full Jacobian through random linear projections
    for _ in range(3):
        w = rng.normal(size=6)
        check_op_grads(
            lambda ts, w=w: weighted_sum(T.softmax(ts[0]), w),
            [x])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(vals):
    out = T.softmax(T.constant(vals))
    assert abs(out.data.sum() - 1.0) < 1e-6
    assert (out.data > 0).all()


# ---------------------------------------------------------------------------
# squash (the routing loop's nonlinearity, plain numpy inside routing.route)


def squash_grad_error(x, w):
    """Max relative error of routing.squash_grad against central differences
    of sum(w * squash(x))."""
    num = numeric_grad(lambda y: float((routing.squash(y)[0] * w).sum()),
                       x.copy())
    _, norm = routing.squash(x)
    return rel_err(routing.squash_grad(w, x, norm), num)


def test_squash_unit_vector_halves():
    u = np.zeros(4)
    u[1] = 1.0
    v, norm = routing.squash(u)
    assert abs(np.linalg.norm(v) - 0.5) < 1e-6
    np.testing.assert_allclose(v, 0.5 * u, atol=1e-6)
    np.testing.assert_array_equal(norm, [1.0])


def test_squash_zero_vector():
    v, _ = routing.squash(np.zeros(3))
    assert not v.any()


def test_squash_norm_three():
    v, _ = routing.squash(np.array([3.0, 0.0, 0.0]))
    assert abs(np.linalg.norm(v) - 0.9) < 1e-6
    assert v[0] > 0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=6))
def test_squash_norm_below_one_and_matches_formula(vals):
    s = np.array(vals)
    v, _ = routing.squash(s)
    r = np.linalg.norm(s)
    assert np.linalg.norm(v) < 1.0
    assert abs(np.linalg.norm(v) - r * r / (1 + r * r)) < 1e-6


def test_squash_matches_reference_rows():
    rng = np.random.default_rng(6)
    s = rng.normal(size=(4, 5))
    v, _ = routing.squash(s)
    np.testing.assert_allclose(v, squash_ref(s), rtol=1e-9, atol=1e-12)


def test_squash_grads():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(3, 4))
    assert squash_grad_error(rng.normal(size=(3, 4)) + 0.1, w) < 1e-3


def test_squash_grad_of_float32_zero_rows_is_zero_without_warnings():
    # a zero row has norm 0; the radial term must not compute 0/0
    s = np.zeros((2, 3, 4), dtype=np.float32)
    s[1, 0] = [0.5, -1.0, 2.0, 0.25]
    g = np.ones_like(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, norm = routing.squash(s)
        ds = routing.squash_grad(g, s, norm)
        r = T.Tensor(np.zeros((6, 4), dtype=np.float32),
                     requires_grad=True)
        tape = T.Tape()
        with T.record(tape):
            v, _ = routing.route(
                r, T.constant(np.zeros((3, 4), np.float32)),
                routing.routing_prior(np.zeros((2, 3, 3)), np.float32), 3)
            loss = weighted_sum(v)
        tape.backward(loss)
    assert ds.dtype == np.float32 and np.isfinite(ds).all()
    assert not ds[0].any() and not ds[1, 1:].any() and ds[1, 0].any()
    assert np.isfinite(r.grad).all() and not r.grad.any()


def test_squash_backward_corruption_hook():
    # the hook leaves the routed values bit-identical and breaks only the
    # gradient, so finite differences must catch it
    rng = np.random.default_rng(8)
    r, q = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))

    def routed(ts):
        prior = routing.routing_prior(np.eye(2), ts[0].dtype)
        return weighted_sum(routing.route(ts[0], ts[1], prior, 2)[0])

    def value():
        with T.use_dtype(np.float64):
            return routed([T.constant(r), T.constant(q)]).item()

    exact = value()
    with corrupt_squash_backward(1.5):
        assert value() == exact
        assert squash_grad_error(r, q) > 0.3
        with pytest.raises(AssertionError):
            check_op_grads(routed, [r, q])
    check_op_grads(routed, [r, q])


# ---------------------------------------------------------------------------
# concat


def test_concat_singleton_is_identity():
    x = T.constant([1.0, 2.0])
    assert T.concat([x]) is x


def test_concat_axis0():
    out = T.concat([T.constant([1.0, 2.0]), T.constant([3.0])], axis=0)
    np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0])


def test_concat_mismatch_rejected():
    with pytest.raises(T.ShapeError):
        T.concat([T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 4)))],
                 axis=0)
    with pytest.raises(T.ShapeError):     # rank mismatch
        T.concat([T.constant(np.zeros((2, 3))),
                  T.constant(np.zeros((2, 3, 1)))], axis=0)


def test_concat_grad_routes_ones_everywhere():
    a = T.Tensor([1.0, 2.0], requires_grad=True)
    b = T.Tensor([3.0], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        loss = weighted_sum(T.concat([a, b]))
    tape.backward(loss)
    np.testing.assert_allclose(a.grad, [1.0, 1.0])
    np.testing.assert_allclose(b.grad, [1.0])


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits():
    out = T.cross_entropy_rows(T.constant([[0.0, 0.0, 0.0]]), [1], [1.0])
    assert abs(out.item() - math.log(3)) < 1e-6


def test_cross_entropy_confident():
    out = T.cross_entropy_rows(T.constant([[10.0, 0.0, 0.0]]), [0], [1.0])
    assert out.item() < 1e-3


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        T.cross_entropy_rows(T.constant([[0.0, 0.0]]), [2], [1.0])


def test_cross_entropy_grad_is_softmax_minus_onehot():
    rng = np.random.default_rng(9)
    x = rng.normal(size=5)
    with T.use_dtype(np.float64):
        t = T.Tensor(x, requires_grad=True)
        tape = T.Tape()
        with T.record(tape):
            loss = T.cross_entropy_rows(reshape(t, (1, 5)), [2], [1.0])
        tape.backward(loss)
        p = np.exp(x - x.max())
        p /= p.sum()
        p[2] -= 1
        np.testing.assert_allclose(t.grad, p, atol=1e-12)
    check_op_grads(lambda ts: T.cross_entropy_rows(ts[0], [2], [1.0]),
                   [x[None]])


def test_cross_entropy_rows_weighted_and_garbage_safe():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(4, 3))
    targets = np.array([0, 1, 2, 0])
    weights = np.array([0.5, 0.5, 0.0, 0.0])
    a = T.cross_entropy_rows(T.constant(logits), targets, weights).item()
    garbage = targets.copy()
    garbage[2:] = [1, 2]  # weight-0 rows: must not matter, bit for bit
    b = T.cross_entropy_rows(T.constant(logits), garbage, weights).item()
    assert a == b
    check_op_grads(lambda ts: T.cross_entropy_rows(ts[0], targets, weights),
                   [logits])


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
                 requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        loss = weighted_sum(x)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, np.ones((2, 3)))


def test_backward_square():
    # x feeds both operands of one op: both pushes must accumulate
    x = T.Tensor([[3.0]], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        loss = weighted_sum(matmul(x, x))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [[6.0]])


def test_backward_rejects_non_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        y = scale(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)


def test_backward_accumulates_across_calls():
    # a second tape's backward doubles the gradient, adding into the first
    # tape's buffer in place
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    first = None
    for want in ([2.0, 2.0], [4.0, 4.0]):
        tape = T.Tape()
        with T.record(tape):
            loss = weighted_sum(scale(x, 2.0))
        tape.backward(loss)
        first = x.grad if first is None else first
        assert x.grad is first
        np.testing.assert_allclose(x.grad, want)


def test_backward_consumes_its_tape():
    # every node leaves the tape as its backward runs, so a second backward
    # of the same tape has nothing to replay and raises
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        loss = weighted_sum(T.sigmoid(T.relu(x)))
    assert len(tape) == 3
    tape.backward(loss)
    assert len(tape) == 0
    grad = x.grad.copy()
    with pytest.raises(ValueError, match="consumed"):
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, grad)


def test_backward_of_an_empty_tape_seeds_a_leaf_loss():
    # a tape that recorded nothing is not consumed: a leaf loss gets its
    # unit seed, and a loss that needs no gradient gets none
    x = T.Tensor(3.0, requires_grad=True)
    T.Tape().backward(x)
    assert x.grad == 1.0
    T.Tape().backward(T.constant(2.0))


@pytest.mark.parametrize("backward", ["consuming", "retained"])
def test_a_later_node_s_saved_arrays_die_before_earlier_backwards(backward):
    # sigmoid, recorded after relu, saves its output; with the consuming
    # backward that array is dead by the time relu's backward runs, while
    # the retained oracle still holds it there
    x = T.Tensor(np.linspace(-1.0, 1.0, 5), requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        y = T.sigmoid(T.relu(x))
        loss = weighted_sum(y)
    saved = weakref.ref(y.data)
    del y
    alive = []
    out, fn = tape.nodes[0]

    def spy(g, push):
        alive.append(saved() is not None)
        fn(g, push)

    tape.nodes[0] = (out, spy)
    if backward == "consuming":
        tape.backward(loss)
    else:
        retained_backward(tape, loss)
    assert alive == [backward == "retained"]
    y = 1.0 / (1.0 + np.exp(-np.maximum(x.data, 0)))
    np.testing.assert_allclose(x.grad, y * (1 - y) * (x.data > 0))


def test_backward_diamond_reuse():
    # y appears twice downstream; flow must merge before propagating.
    x = T.Tensor([[2.0]], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        y = scale(x, 3.0)
        loss = weighted_sum(T.add(y, matmul(y, y)))  # 3x + 9x^2 -> 3 + 18x
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [[3.0 + 18.0 * 2.0]])


def test_intermediate_grad_stays_none_while_leaves_get_their_grads():
    # only leaves keep a gradient; y's flows on to x and is then dropped
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    w = T.Tensor([3.0, -1.0], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        y = scale(x, 5.0)
        loss = weighted_sum(T.add(y, T.add(y, w)))
    tape.backward(loss)
    assert y.grad is None and loss.grad is None
    np.testing.assert_allclose(x.grad, [10.0, 10.0])
    np.testing.assert_allclose(w.grad, [1.0, 1.0])


# ---------------------------------------------------------------------------
# remaining ops


def test_add_broadcast_grads():
    rng = np.random.default_rng(11)
    check_op_grads(lambda ts: weighted_sum(T.add(ts[0], ts[1])),
                   [rng.normal(size=(3, 4)), rng.normal(size=(1, 4))])
    check_op_grads(lambda ts: weighted_sum(T.add(ts[0], ts[1])),
                   [rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 4))])


def test_relu_sigmoid_grads():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 3))
    x[np.abs(x) < 0.05] = 0.1  # keep FD away from the kink
    check_op_grads(lambda ts: weighted_sum(T.relu(ts[0])), [x])
    check_op_grads(lambda ts: weighted_sum(T.sigmoid(ts[0])),
                   [rng.normal(size=(4, 3))])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", [T.relu, T.sigmoid], ids=["relu", "sigmoid"])
def test_nonlinearity_in_place_equals_the_copy(op, dtype):
    # inplace=True writes the output over the input's data, as a layer does
    # with its fresh pre-activation: the same values and gradients, bit for
    # bit, with no second array; the default leaves the input as it was
    rng = np.random.default_rng(30)
    x = (rng.normal(size=(3, 5)) * 40).astype(dtype)   # sigmoid saturates
    x[0, :2] = 0
    probe = rng.normal(size=x.shape)
    runs = []
    for inplace in (False, True):
        xt = T.Tensor(x.copy(), requires_grad=True)
        tape = T.Tape()
        with T.record(tape):
            y = op(xt, inplace=inplace)
            loss = weighted_sum(y, probe)
        tape.backward(loss)
        assert y.dtype == dtype
        assert (y.data is xt.data) == inplace
        runs.append((y.data, xt.grad))
    np.testing.assert_array_equal(runs[1][0], runs[0][0])
    np.testing.assert_array_equal(runs[1][1], runs[0][1])


def test_sigmoid_extremes_finite():
    out = T.sigmoid(T.constant([-1e4, 0.0, 1e4]))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-7)


def test_affine_map_grads():
    # x @ w + b, the bias broadcast over the rows
    rng = np.random.default_rng(13)
    check_op_grads(
        lambda ts: weighted_sum(T.add(matmul(ts[0], ts[1]), ts[2])),
        [rng.normal(size=(5, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)])


def test_embedding_lookup_scatters_grads():
    table = T.Tensor(np.arange(12, dtype=np.float32).reshape(4, 3),
                     requires_grad=True)
    ids = [1, 1, 3]
    tape = T.Tape()
    with T.record(tape):
        loss = weighted_sum(T.embedding_lookup(table, ids))
    tape.backward(loss)
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_allclose(table.grad, expected)


def test_embedding_lookup_bounds():
    table = T.constant(np.zeros((4, 3)))
    with pytest.raises(IndexError):
        T.embedding_lookup(table, [4])


def test_dropout_eval_is_identity_and_train_is_seeded():
    x = T.constant(np.ones((100, 4)))
    assert T.dropout_keep((100, 4), 0.0, np.random.default_rng(14)).all()
    a = T.dropout(x, T.dropout_keep(x.shape, 0.5, np.random.default_rng(1)),
                  0.5)
    b = T.dropout(x, T.dropout_keep(x.shape, 0.5, np.random.default_rng(1)),
                  0.5)
    np.testing.assert_array_equal(a.data, b.data)
    kept = a.data[a.data != 0]
    np.testing.assert_allclose(kept, 2.0)  # inverted scaling by 1/(1-p)
    assert 0.3 < (a.data != 0).mean() < 0.7
    with pytest.raises(T.ConfigError, match="dropout rate"):
        T.dropout_keep((2, 2), 1.0, np.random.default_rng(1))


def test_dropout_grads_use_same_mask():
    x = np.random.default_rng(15).normal(size=(6, 3))
    keep = T.dropout_keep(x.shape, 0.5, np.random.default_rng(7))
    check_op_grads(lambda ts: weighted_sum(T.dropout(ts[0], keep, 0.5)), [x])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_equals_the_float_multiplier_form(dtype):
    # a boolean mask, its multipliers built where they are applied: forward
    # and backward equal the saved float multipliers bit for bit
    rng = np.random.default_rng(16)
    x = rng.normal(size=(7, 5)).astype(dtype)
    probe = rng.normal(size=(7, 5)).astype(dtype)
    keep = T.dropout_keep(x.shape, 0.3, rng)
    assert keep.dtype == np.bool_
    multipliers = keep.astype(dtype) / (1.0 - 0.3)
    t = T.Tensor(x, requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        out = T.dropout(t, keep, 0.3)
        loss = weighted_sum(out, probe)
    tape.backward(loss)
    assert out.dtype == t.grad.dtype == dtype
    np.testing.assert_array_equal(out.data, x * multipliers)
    np.testing.assert_array_equal(t.grad, probe * multipliers)


def test_reshape_grads():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(3, 4))
    probe = rng.normal(size=(4, 3))
    check_op_grads(lambda ts: weighted_sum(reshape(ts[0], (4, 3)), probe),
                   [x])


def test_grouped_ops_match_per_item_ops():
    # a leading group axis runs each item exactly as it would run alone
    rng = np.random.default_rng(21)
    g, n, d, m = 3, 4, 5, 2
    x = rng.normal(size=(g, n, d))
    w, b, k = (rng.normal(size=(d, m)), rng.normal(size=m),
               rng.normal(size=(3, d, m)))
    lin = rng.normal(size=(g, n))
    ids = rng.integers(0, 6, size=(g, n))
    table = rng.normal(size=(6, d))
    with T.use_dtype(np.float64):
        C = T.constant
        grouped = [matmul(C(x), C(w)), T.add(matmul(C(x), C(w)), C(b)),
                   conv1d(C(x), C(k), C(b)),
                   matmul(C(lin[:, None, :]), C(x)),
                   T.embedding_lookup(C(table), ids)]
        for i in range(g):
            alone = [matmul(C(x[i]), C(w)),
                     T.add(matmul(C(x[i]), C(w)), C(b)),
                     T.select(conv1d(C(x[i:i + 1]), C(k), C(b)), 0),
                     matmul(C(lin[i][None, :]), C(x[i])),
                     T.embedding_lookup(C(table), ids[i])]
            for got, want in zip(grouped, alone):
                np.testing.assert_allclose(got.data[i], want.data,
                                           atol=1e-12)


def test_grouped_ops_grads():
    rng = np.random.default_rng(22)
    g, n, d, m = 2, 3, 4, 2
    x = rng.normal(size=(g, n, d))
    probe = rng.normal(size=(g, n, m))
    check_op_grads(lambda ts: weighted_sum(matmul(ts[0], ts[1]), probe),
                   [x, rng.normal(size=(d, m))])
    check_op_grads(lambda ts: weighted_sum(matmul(ts[0], ts[1]), probe),
                   [rng.normal(size=(g, n, d)), rng.normal(size=(g, d, m))])
    check_op_grads(
        lambda ts: weighted_sum(T.add(matmul(ts[0], ts[1]), ts[2]), probe),
        [x, rng.normal(size=(d, m)), rng.normal(size=m)])
    check_op_grads(
        lambda ts: weighted_sum(conv1d(ts[0], ts[1], ts[2]), probe),
        [x, rng.normal(size=(3, d, m)), rng.normal(size=m)])
    check_op_grads(
        lambda ts: T.cross_entropy_rows(ts[0], [[0, 1, 1], [1, 0, 0]],
                                        [[0.5, 0.0, 1.0], [1.0, 2.0, 0.0]]),
        [rng.normal(size=(g, n, 2))])


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "stacked"])
def test_grouped_conv1d_matches_a_conv_per_group_and_its_grads(shared):
    # kernels of width 3 and 5 over items of 4, 1 and 2 tokens laid end to
    # end, in one [N, d_in] input that every group reads, or a [3, N, d_in]
    # input whose row i group i reads: each item as a naive convolution of
    # it alone, and finite differences through the gathered windows
    for w in (3, 5):
        check_grouped_conv1d(shared, w)


def check_grouped_conv1d(shared: bool, w: int) -> None:
    rng = np.random.default_rng(24)
    k, lengths, d_in, d_out = 3, (4, 1, 2), 2, 3
    n = sum(lengths)
    x = rng.normal(size=(n, d_in) if shared else (k, n, d_in))
    params = ([rng.normal(size=(w, d_in, d_out)) for _ in range(k)]
              + [rng.normal(size=d_out) for _ in range(k)])
    segments = T.Segments(lengths)
    with T.use_dtype(np.float64):
        C = T.constant
        out = T.grouped_conv1d(C(x), stacked([C(p) for p in params[:k]]),
                               stacked([C(p) for p in params[k:]]), segments)
    assert out.shape == (k, n, d_out)
    for i in range(k):
        for a, b in zip(segments.offsets[:-1], segments.offsets[1:]):
            np.testing.assert_allclose(
                out.data[i, a:b], conv1d_naive(
                    x[a:b] if shared else x[i, a:b], params[i],
                    params[k + i]), atol=1e-12)
    probe = rng.normal(size=(k, n, d_out))
    check_op_grads(lambda ts: weighted_sum(
        T.grouped_conv1d(ts[0], stacked(ts[1:k + 1]), stacked(ts[k + 1:]),
                         segments), probe),
        [x] + params)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grouped_conv1d_reads_a_one_row_input_as_the_shared_one(dtype):
    # the shared encoder hands the task stacks its [1, N, d_in] output:
    # every group reads it as it reads the same [N, d_in] input, bit for
    # bit, and its gradient is the same sum over the groups, at [1, N, d_in]
    rng = np.random.default_rng(26)
    k, lengths, d_in, d_out, w = 3, (4, 1, 2), 2, 3, 3
    n = sum(lengths)
    x = rng.normal(size=(n, d_in)).astype(dtype)
    params = ([rng.normal(size=(w, d_in, d_out)).astype(dtype)
               for _ in range(k)]
              + [rng.normal(size=d_out).astype(dtype) for _ in range(k)])
    probe = rng.normal(size=(k, n, d_out)).astype(dtype)
    segments = T.Segments(lengths)
    runs = []
    for shape in ((n, d_in), (1, n, d_in)):
        xt = T.Tensor(x.reshape(shape), requires_grad=True)
        ps = [T.Tensor(p.copy(), requires_grad=True) for p in params]
        tape = T.Tape()
        with T.record(tape):
            out = T.grouped_conv1d(xt, stacked(ps[:k]), stacked(ps[k:]),
                                   segments)
            loss = weighted_sum(out, probe)
        tape.backward(loss)
        runs.append((out.data, xt.grad, [p.grad for p in ps]))
    (v2, g2, p2), (v3, g3, p3) = runs
    assert v3.shape == (k, n, d_out) and g3.shape == (1, n, d_in)
    np.testing.assert_array_equal(v3, v2)
    np.testing.assert_array_equal(g3[0], g2)
    for a, b in zip(p3, p2, strict=True):
        np.testing.assert_array_equal(a, b)


def test_segment_windows_stop_at_each_items_edge():
    # row 6, one past the tokens, is the zero row
    np.testing.assert_array_equal(T.Segments([3, 1, 2]).windows(3), [
        [6, 0, 1], [0, 1, 2], [1, 2, 6], [6, 3, 6], [6, 4, 5], [4, 5, 6]])
    np.testing.assert_array_equal(T.Segments([2]).windows(5),
                                  [[2, 2, 0, 1, 2], [2, 0, 1, 2, 2]])


def test_segment_ops_match_each_item_alone_and_their_grads():
    # items of 3, 1 and 4 rows: a softmax and an attention pooling of each
    # alone, and each item's row repeated at its rows
    rng = np.random.default_rng(25)
    lengths = (3, 1, 4)
    segments = T.Segments(lengths)
    x, h = rng.normal(size=(2, 8, 1)), rng.normal(size=(2, 8, 5))
    rows = rng.normal(size=(2, 3, 4))
    with T.use_dtype(np.float64):
        a = T.segment_softmax(T.constant(x), segments)
        pooled = T.segment_pool(a, T.constant(h), segments)
        spread = T.segment_expand(T.constant(rows), segments)
    for b, (i, j) in enumerate(zip(segments.offsets[:-1],
                                   segments.offsets[1:])):
        want = T.softmax(T.constant(x[:, i:j]), axis=-2).data
        np.testing.assert_allclose(a.data[:, i:j], want, atol=1e-12)
        np.testing.assert_allclose(pooled.data[:, b],
                                   (want * h[:, i:j]).sum(axis=1), atol=1e-12)
        np.testing.assert_array_equal(spread.data[:, i:j],
                                      np.repeat(rows[:, b:b + 1], j - i, 1))
    probes = [rng.normal(size=shape) for shape in ((2, 8, 1), (2, 3, 5),
                                                  (2, 8, 4))]
    check_op_grads(lambda ts: weighted_sum(T.segment_softmax(ts[0], segments),
                                           probes[0]), [x])
    check_op_grads(lambda ts: weighted_sum(T.segment_pool(
        ts[0], ts[1], segments), probes[1]), [x, h])
    check_op_grads(lambda ts: weighted_sum(T.segment_expand(ts[0], segments),
                                           probes[2]), [rows])


def test_grouped_affine_pads_rows_and_gathers_shared_inputs():
    # group widths 5, 2 and 4: zero rows pad the narrower weights. x is
    # stacked and read by rows (row 1 by two groups), s is read whole by two
    # groups, and c [G, 1, 1] is broadcast over the tokens
    rng = np.random.default_rng(25)
    g, n, m = 2, 3, 4
    x, s, c = (rng.normal(size=(3, g, n, 2)), rng.normal(size=(g, n, 2)),
               rng.normal(size=(g, 1, 1)))
    params = [rng.normal(size=(width, m)) for width in (5, 2, 4)] + [
        rng.normal(size=m) for _ in range(3)]

    def build(ts):
        x, s, c, *p = ts
        return T.grouped_affine([[(x, 1), (s, ()), (c, ())], [(x, 2)],
                                 [(s, ()), (x, 1)]], stacked(p[:3]),
                                stacked(p[3:]))

    with T.use_dtype(np.float64):
        out = build([T.constant(a) for a in [x, s, c] + params])
    parts = [np.concatenate([x[1], s, np.broadcast_to(c, (g, n, 1))], -1),
             x[2], np.concatenate([s, x[1]], -1)]
    for i, part in enumerate(parts):
        np.testing.assert_allclose(out.data[i],
                                   part @ params[i] + params[3 + i],
                                   atol=1e-12)
    probe = rng.normal(size=(3, g, n, m))
    check_op_grads(lambda ts: weighted_sum(build(ts), probe),
                   [x, s, c] + params)


@pytest.mark.parametrize("rows", [[0, 1, 2], [1, 2, 0, 2, 0, 1]],
                         ids=["consecutive", "repeated"])
def test_grouped_affine_reads_rows_of_one_tensor_in_place(rows):
    # each group reads one row of the same x: the decoders read consecutive
    # rows (a view), the votes repeated rows out of order (one gather)
    rng = np.random.default_rng(26)
    k, g, n, d, m = len(rows), 2, 3, 4, 5
    x = rng.normal(size=(3, g, n, d))
    params = ([rng.normal(size=(d, m)) for _ in range(k)]
              + [rng.normal(size=m) for _ in range(k)])

    def build(ts):
        return T.grouped_affine([[(ts[0], j)] for j in rows],
                                stacked(ts[1:k + 1]), stacked(ts[k + 1:]))

    with T.use_dtype(np.float64):
        out = build([T.constant(a) for a in [x] + params])
    for i, j in enumerate(rows):
        np.testing.assert_allclose(out.data[i], x[j] @ params[i]
                                   + params[k + i], atol=1e-12)
    probe = rng.normal(size=(k, g, n, m))
    check_op_grads(lambda ts: weighted_sum(build(ts), probe), [x] + params)


@pytest.mark.parametrize("rows", [[0, 1, 2], [1, 2, 0, 2, 0, 1]],
                         ids=["consecutive", "repeated"])
def test_grouped_affine_reads_the_same_tokens_of_rows_in_place(rows):
    # the votes read each source's tokens of one length group, (row,
    # tokens): the values and gradients of those rows cut out first, and
    # the backward pushes each group's gradient into its part of x only
    rng = np.random.default_rng(28)
    k, n, d, m, tokens = len(rows), 7, 4, 5, slice(2, 5)
    x = rng.normal(size=(3, n, d))
    params = ([rng.normal(size=(d, m)) for _ in range(k)]
              + [rng.normal(size=m) for _ in range(k)])
    probe = rng.normal(size=(k, 3, m))

    def build(ts):
        return T.grouped_affine([[(ts[0], (j, tokens))] for j in rows],
                                stacked(ts[1:k + 1]), stacked(ts[k + 1:]))

    with T.use_dtype(np.float64):
        xt = T.Tensor(x, requires_grad=True)
        tape = T.Tape()
        with T.record(tape):
            out = build([xt] + [T.constant(p) for p in params])
    for i, j in enumerate(rows):
        np.testing.assert_allclose(out.data[i], x[j, tokens] @ params[i]
                                   + params[k + i], atol=1e-12)
    pushed = []

    def push(t, g, at=...):
        if t is xt:
            pushed.append((g.shape, at))

    tape.nodes[0][1](probe, push)
    assert pushed == [((3, d), (j, tokens)) for j in rows]
    check_op_grads(lambda ts: weighted_sum(build(ts), probe), [x] + params)


@pytest.mark.parametrize("j", [(), None], ids=["whole", "new-axis"])
def test_grouped_affine_maps_one_tensor_read_whole_by_every_group(j):
    # every group reads all of x.data[j], as the votes' position parts read
    # the encodings: one broadcast matmul gives the values and gradients of
    # k copies of x through the gather path, bit for bit, and its
    # gradients pass finite differences
    rng = np.random.default_rng(27)
    k, n, d, m = 3, 4, 5, 2
    x = rng.normal(size=(n, d))
    params = ([rng.normal(size=(d, m)) for _ in range(k)]
              + [rng.normal(size=m) for _ in range(k)])
    probe = rng.normal(size=(k, *x[j].shape[:-1], m))

    def build(xs, ps):
        return T.grouped_affine([[(t, j)] for t in xs], stacked(ps[:k]),
                                stacked(ps[k:]))

    def run(copies):
        with T.use_dtype(np.float64):
            xs = [T.Tensor(x, requires_grad=True) for _ in range(copies)]
            ps = [T.Tensor(p, requires_grad=True) for p in params]
            tape = T.Tape()
            with T.record(tape):
                out = build(xs * (k // copies), ps)
                loss = weighted_sum(out, probe)
            tape.backward(loss)
        return [out.data, sum(t.grad for t in xs)] + [t.grad for t in ps]

    for got, want in zip(run(1), run(k), strict=True):
        np.testing.assert_array_equal(got, want)
    check_op_grads(lambda ts: weighted_sum(build(ts[:1] * k, ts[1:]), probe),
                   [x] + params)


def test_grouped_affine_rejects_a_weight_of_the_wrong_height():
    x = T.constant(np.zeros((2, 3, 4)))
    with pytest.raises(T.ShapeError, match="group 1: 4 input columns"):
        T.grouped_affine([[(x, 0)], [(x, 1)]], stacked(
            [T.constant(np.zeros((4, 2))), T.constant(np.zeros((5, 2)))]))


def test_conv1d_group_has_no_leak_between_items():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(3, 4, 2))
    k, b = T.constant(rng.normal(size=(5, 2, 2))), T.constant(np.zeros(2))
    base = conv1d(T.constant(x), k, b).data
    x[1] += 100.0
    moved = conv1d(T.constant(x), k, b).data
    np.testing.assert_array_equal(base[0], moved[0])
    np.testing.assert_array_equal(base[2], moved[2])
    assert not np.array_equal(base[1], moved[1])


def test_scale_and_operator_sugar():
    # ``+`` is the one operator a Tensor keeps: the training losses sum with it
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        y = scale(x, 2.0) + scale(x, -1.0)
        loss = weighted_sum(y)
    tape.backward(loss)
    np.testing.assert_allclose(y.data, [1.0, -2.0])
    np.testing.assert_allclose(x.grad, [1.0, 1.0])


def test_tape_replay_determinism():
    def run():
        rng = np.random.default_rng(42)
        x = T.Tensor(rng.normal(size=(6, 4)).astype(np.float32),
                     requires_grad=True)
        w = T.Tensor(rng.normal(size=(4, 3)).astype(np.float32),
                     requires_grad=True)
        tape = T.Tape()
        with T.record(tape):
            h = T.relu(matmul(x, w))
            loss = weighted_sum(T.softmax(h, axis=1))
        tape.backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(19)
    x = T.constant(rng.normal(size=(5, 4)) * 1e3)
    for out in [T.softmax(x, axis=1).data, T.sigmoid(x).data,
                routing.squash(x.data)[0], T.relu(x).data]:
        assert np.isfinite(out).all()
