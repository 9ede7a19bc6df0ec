import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktabsa import routing
from ktabsa import tensor as T

from helpers import (check_op_grads, conv1d_naive, corrupt_squash_backward,
                     numeric_grad, rel_err, squash_ref, weighted_sum)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = T.constant([[1.0, 0.0], [0.0, 1.0]])
    b = T.constant([[3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_allclose(T.matmul(a, b).data, b.data)


def test_matmul_hand():
    a = T.constant([[1.0, 2.0]])
    b = T.constant([[3.0], [4.0]])
    np.testing.assert_allclose(T.matmul(a, b).data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 2))))


def test_matmul_grads_match_finite_differences():
    rng = np.random.default_rng(0)
    check_op_grads(lambda ts: weighted_sum(T.matmul(ts[0], ts[1])),
                   [rng.normal(size=(4, 3)), rng.normal(size=(3, 2))])


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_identity_kernel():
    d = 3
    k = np.zeros((1, d, d))
    k[0] = np.eye(d)
    x = np.random.default_rng(1).normal(size=(5, d))
    out = T.conv1d(T.constant(x), T.constant(k))
    np.testing.assert_allclose(out.data, x, rtol=1e-6)


def test_conv1d_zero_kernel():
    x = T.constant(np.ones((4, 2)))
    k = T.constant(np.zeros((3, 2, 5)))
    assert not T.conv1d(x, k).data.any()


def test_conv1d_matches_naive_loops():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 3))
    k = rng.normal(size=(3, 3, 4))
    b = rng.normal(size=4)
    with T.use_dtype(np.float64):
        out = T.conv1d(T.constant(x), T.constant(k), T.constant(b))
    np.testing.assert_allclose(out.data, conv1d_naive(x, k, b), atol=1e-12)


def test_conv1d_even_width_rejected():
    with pytest.raises(T.ConfigError, match="odd"):
        T.conv1d(T.constant(np.zeros((3, 2))), T.constant(np.zeros((2, 2, 2))))


def test_conv1d_grads():
    rng = np.random.default_rng(3)
    check_op_grads(
        lambda ts: weighted_sum(T.conv1d(ts[0], ts[1], ts[2])),
        [rng.normal(size=(5, 3)), rng.normal(size=(3, 3, 2)),
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
        r = T.Tensor(np.zeros((2, 3, 4), dtype=np.float32),
                     requires_grad=True)
        tape = T.Tape()
        with T.record(tape):
            v, _ = routing.route(r, T.constant(np.zeros((3, 4), np.float32)),
                                 np.zeros((2, 3, 3)), 3)
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
        return weighted_sum(routing.route(ts[0], ts[1], np.eye(2), 2)[0])

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
            loss = T.cross_entropy_rows(T.reshape(t, (1, 5)), [2], [1.0])
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
        loss = weighted_sum(T.matmul(x, x))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [[6.0]])


def test_backward_rejects_non_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        y = T.scale(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)


def test_backward_accumulates_across_calls():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        loss = weighted_sum(T.scale(x, 2.0))
    tape.backward(loss)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0, 4.0])


def test_backward_diamond_reuse():
    # y appears twice downstream; flow must merge before propagating.
    x = T.Tensor([[2.0]], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        y = T.scale(x, 3.0)
        loss = weighted_sum(T.add(y, T.matmul(y, y)))  # 3x + 9x^2 -> 3 + 18x
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [[3.0 + 18.0 * 2.0]])


def test_intermediate_requires_grad_tensor_receives_grad():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        y = T.scale(x, 5.0)
        loss = weighted_sum(y)
    tape.backward(loss)
    np.testing.assert_allclose(y.grad, [1.0, 1.0])


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


def test_sigmoid_extremes_finite():
    out = T.sigmoid(T.constant([-1e4, 0.0, 1e4]))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-7)


def test_fully_connected_grads():
    rng = np.random.default_rng(13)
    check_op_grads(
        lambda ts: weighted_sum(T.fully_connected(ts[0], ts[1], ts[2])),
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
    assert (T.dropout_keep((100, 4), 0.0, np.random.default_rng(14)) == 1).all()
    a = T.dropout(x, T.dropout_keep(x.shape, 0.5, np.random.default_rng(1)))
    b = T.dropout(x, T.dropout_keep(x.shape, 0.5, np.random.default_rng(1)))
    np.testing.assert_array_equal(a.data, b.data)
    kept = a.data[a.data != 0]
    np.testing.assert_allclose(kept, 2.0)  # inverted scaling by 1/(1-p)
    assert 0.3 < (a.data != 0).mean() < 0.7
    with pytest.raises(T.ConfigError, match="dropout rate"):
        T.dropout_keep((2, 2), 1.0, np.random.default_rng(1))


def test_dropout_grads_use_same_mask():
    x = np.random.default_rng(15).normal(size=(6, 3))
    keep = T.dropout_keep(x.shape, 0.5, np.random.default_rng(7), np.float64)
    check_op_grads(lambda ts: weighted_sum(T.dropout(ts[0], keep)), [x])


def test_reshape_grads():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(3, 4))
    probe = rng.normal(size=(4, 3))
    check_op_grads(lambda ts: weighted_sum(T.reshape(ts[0], (4, 3)), probe),
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
        grouped = [T.matmul(C(x), C(w)), T.fully_connected(C(x), C(w), C(b)),
                   T.conv1d(C(x), C(k), C(b)),
                   T.matmul(C(lin[:, None, :]), C(x)),
                   T.embedding_lookup(C(table), ids)]
        for i in range(g):
            alone = [T.matmul(C(x[i]), C(w)),
                     T.fully_connected(C(x[i]), C(w), C(b)),
                     T.conv1d(C(x[i]), C(k), C(b)),
                     T.matmul(C(lin[i][None, :]), C(x[i])),
                     T.embedding_lookup(C(table), ids[i])]
            for got, want in zip(grouped, alone):
                np.testing.assert_allclose(got.data[i], want.data,
                                           atol=1e-12)


def test_grouped_ops_grads():
    rng = np.random.default_rng(22)
    g, n, d, m = 2, 3, 4, 2
    x = rng.normal(size=(g, n, d))
    probe = rng.normal(size=(g, n, m))
    check_op_grads(lambda ts: weighted_sum(T.matmul(ts[0], ts[1]), probe),
                   [x, rng.normal(size=(d, m))])
    check_op_grads(lambda ts: weighted_sum(T.matmul(ts[0], ts[1]), probe),
                   [rng.normal(size=(g, n, d)), rng.normal(size=(g, d, m))])
    check_op_grads(
        lambda ts: weighted_sum(T.fully_connected(ts[0], ts[1], ts[2]), probe),
        [x, rng.normal(size=(d, m)), rng.normal(size=m)])
    check_op_grads(
        lambda ts: weighted_sum(T.conv1d(ts[0], ts[1], ts[2]), probe),
        [x, rng.normal(size=(3, d, m)), rng.normal(size=m)])
    check_op_grads(
        lambda ts: T.cross_entropy_rows(ts[0], [[0, 1, 1], [1, 0, 0]],
                                        [[0.5, 0.0, 1.0], [1.0, 2.0, 0.0]]),
        [rng.normal(size=(g, n, 2))])


def test_conv1d_group_has_no_leak_between_items():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(3, 4, 2))
    k = T.constant(rng.normal(size=(5, 2, 2)))
    base = T.conv1d(T.constant(x), k).data
    x[1] += 100.0
    moved = T.conv1d(T.constant(x), k).data
    np.testing.assert_array_equal(base[0], moved[0])
    np.testing.assert_array_equal(base[2], moved[2])
    assert not np.array_equal(base[1], moved[1])


def test_scale_and_operator_sugar():
    # ``+`` is the one operator a Tensor keeps: the training losses sum with it
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        y = T.scale(x, 2.0) + T.scale(x, -1.0)
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
            h = T.relu(T.matmul(x, w))
            loss = weighted_sum(T.softmax(h, axis=1))
        tape.backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


def test_adam_step_matches_reference():
    rng = np.random.default_rng(18)
    theta = rng.normal(size=5).astype(np.float64)
    p = T.Tensor(theta.copy(), requires_grad=True, dtype=np.float64)
    m = np.zeros(5)
    v = np.zeros(5)
    rm = np.zeros(5)
    rv = np.zeros(5)
    ref = theta.copy()
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = rng.normal(size=5)
        p.grad = g.copy()
        T.adam_step(p, m, v, t, lr, b1, b2, eps)
        rm = b1 * rm + (1 - b1) * g
        rv = b2 * rv + (1 - b2) * g * g
        ref -= lr * (rm / (1 - b1 ** t)) / (np.sqrt(rv / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(p.data, ref, rtol=1e-12)


def test_clip_grads():
    a = T.Tensor(np.zeros(3), requires_grad=True)
    b = T.Tensor(np.zeros(4), requires_grad=True)
    a.grad = np.full(3, 10.0, dtype=np.float32)
    b.grad = np.full(4, 10.0, dtype=np.float32)
    norm = T.clip_grads([a, b], 5.0)
    assert norm > 5.0
    assert abs(T.global_grad_norm([a, b]) - 5.0) < 1e-5


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(19)
    x = T.constant(rng.normal(size=(5, 4)) * 1e3)
    for out in [T.softmax(x, axis=1).data, T.sigmoid(x).data,
                routing.squash(x.data)[0], T.relu(x).data]:
        assert np.isfinite(out).all()
