import math

import numpy as np
import pytest

from ktabsa import routing as R
from ktabsa import tensor as T

from helpers import check_op_grads, squash_ref, weighted_sum


# ---------------------------------------------------------------------------
# oracle: independent step-by-step re-execution of the routing update lines


def route_oracle(u_hat, adjacency, iterations):
    n = u_hat.shape[0]
    b = np.zeros((n, n), dtype=np.float64)
    states = []
    v = None
    for _ in range(iterations):
        b = b + adjacency
        shifted = b - b.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        c = e / e.sum(axis=1, keepdims=True)
        s = np.einsum("ij,ijd->jd", c, u_hat)
        v = squash_ref(s)
        b = b + np.einsum("ijd,jd->ij", u_hat, v)
        states.append((b.copy(), c.copy(), v.copy()))
    return v, states


def materialize(r, q):
    """The full vote tensor u_hat[i, j] = r[i] + q[j] the oracle runs on."""
    r = np.asarray(r, dtype=np.float64)
    return r[:, None, :] + np.asarray(q, dtype=np.float64)[None, :, :]


def random_factors(rng, n, d, scale=1.0, zero_q=False):
    """Random vote parts; ``zero_q`` gives votes that do not depend on the
    target, and draws nothing for q."""
    r = rng.normal(size=(n, d)) * scale
    q = np.zeros((n, d)) if zero_q else rng.normal(size=(n, d)) * scale
    return r, q


def run_route(r, q, adjacency, iterations, keep_trace=True):
    with T.use_dtype(np.float64):
        v, trace = R.route(T.constant(r), T.constant(q),
                           adjacency, iterations, keep_trace=keep_trace)
    return v, trace


# ---------------------------------------------------------------------------
# positional encoding


def test_pe_row_zero_alternates_zero_one():
    table = R.positional_encoding(3, 8)
    np.testing.assert_array_equal(table[0], [0, 1, 0, 1, 0, 1, 0, 1])


def test_pe_pos1_d4_closed_form():
    table = R.positional_encoding(2, 4)
    expected = [math.sin(1.0), math.cos(1.0), math.sin(0.01), math.cos(0.01)]
    np.testing.assert_allclose(table[1], expected, rtol=1e-12)


def test_pe_matches_scripted_formula():
    n, d = 50, 64
    table = R.positional_encoding(n, d)
    for pos in range(n):
        for p in range(d // 2):
            angle = pos / (10000.0 ** (2.0 * p / d))
            assert abs(table[pos, 2 * p] - math.sin(angle)) < 1e-6
            assert abs(table[pos, 2 * p + 1] - math.cos(angle)) < 1e-6
    assert table.min() >= -1.0 and table.max() <= 1.0


def test_pe_odd_dimension_rejected():
    with pytest.raises(T.ConfigError, match="even"):
        R.positional_encoding(4, 5)


# ---------------------------------------------------------------------------
# predict_vectors


def make_direction(d_task, d_route, rng, name=("ote", "asc")):
    w = T.Tensor(rng.normal(size=(d_task, d_route)), requires_grad=True,
                 dtype=np.float64)
    return R.TransferDirection(name[0], name[1], w)


def test_predict_vectors_zero_weight():
    rng = np.random.default_rng(0)
    with T.use_dtype(np.float64):
        pe = R.PositionalEncoding(6)
        d = R.TransferDirection("ate", "asc", T.constant(np.zeros((6, 4))))
        h = T.constant(rng.normal(size=(3, 6)))
        r, q = R.predict_vectors(h, d, pe)
    assert not r.data.any() and not q.data.any()


def test_predict_vectors_varies_with_target_only_through_pe():
    rng = np.random.default_rng(1)
    with T.use_dtype(np.float64):
        pe = R.PositionalEncoding(6)
        direction = make_direction(6, 4, rng)
        h = T.constant(rng.normal(size=(4, 6)))
        r, q = R.predict_vectors(h, direction, pe)
        table = pe.prefix(4).data
        w = direction.weight.data
        pw = table @ w
    np.testing.assert_allclose(r.data, (h.data + table) @ w, atol=1e-12)
    np.testing.assert_array_equal(q.data, pw)
    u = materialize(r.data, q.data)
    for i in range(4):
        for j1 in range(4):
            for j2 in range(4):
                np.testing.assert_allclose(
                    u[i, j1] - u[i, j2], pw[j1] - pw[j2],
                    atol=1e-10)


def test_predict_vectors_zero_hidden_is_pe_sum():
    rng = np.random.default_rng(2)
    with T.use_dtype(np.float64):
        pe = R.PositionalEncoding(6)
        direction = make_direction(6, 4, rng)
        h = T.constant(np.zeros((3, 6)))
        r, q = R.predict_vectors(h, direction, pe)
        table = pe.prefix(3).data
    u = materialize(r.data, q.data)
    for i in range(3):
        for j in range(3):
            expected = (table[i] + table[j]) @ direction.weight.data
            np.testing.assert_allclose(u[i, j], expected, atol=1e-12)


def test_predict_vectors_beyond_max_len():
    # encodings are computed per length on first use, with no length cap;
    # each row depends only on its position, so every table is a prefix of
    # any longer one, bit for bit
    with T.use_dtype(np.float64):
        pe = R.PositionalEncoding(4)
        direction = make_direction(4, 3, np.random.default_rng(3))
        h = T.constant(np.zeros((200, 4)))
        r, q = R.predict_vectors(h, direction, pe)
    assert r.shape == q.shape == (200, 3)
    long = R.positional_encoding(300, 4)
    for n in (1, 7, 64, 200):
        np.testing.assert_array_equal(pe.prefix(n).data, long[:n])
    assert pe.prefix(200) is pe.prefix(200)   # cached per length


# ---------------------------------------------------------------------------
# route


def test_route_single_iteration_no_prior_is_uniform_mean():
    rng = np.random.default_rng(5)
    n, d = 4, 3
    r, q = random_factors(rng, n, d)
    u = materialize(r, q)
    v, trace = run_route(r, q, np.zeros((n, n)), 1)
    np.testing.assert_allclose(trace[0].c, np.full((n, n), 1.0 / n))
    np.testing.assert_allclose(v.data, squash_ref(u.mean(axis=0)), atol=1e-12)


def test_route_single_token():
    rng = np.random.default_rng(6)
    for zero_q in (False, True):
        r, q = random_factors(rng, 1, 5, zero_q=zero_q)
        u = materialize(r, q)
        for iters in (1, 3):
            v, trace = run_route(r, q, np.ones((1, 1)), iters)
            np.testing.assert_allclose(trace[-1].c, [[1.0]])
            np.testing.assert_allclose(v.data, squash_ref(u[0]), atol=1e-12)


def test_route_matches_line_by_line_oracle():
    rng = np.random.default_rng(7)
    n = 3
    adjacency = np.zeros((n, n))
    adjacency[0, 2] = adjacency[2, 0] = 1.0
    for zero_q in (False, True):
        r, q = random_factors(rng, n, 4, zero_q=zero_q)
        v, trace = run_route(r, q, adjacency, 3)
        ov, ostates = route_oracle(materialize(r, q), adjacency, 3)
        np.testing.assert_allclose(v.data, ov, atol=1e-9)
        for st, (ob, oc, ovv) in zip(trace, ostates):
            np.testing.assert_allclose(st.c, oc, atol=1e-9)
            np.testing.assert_allclose(st.b, ob, atol=1e-9)
            np.testing.assert_allclose(st.v, ovv, atol=1e-9)


def test_route_invariants_random():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        iters = int(rng.integers(1, 5))
        r, q = random_factors(rng, n, 4, rng.uniform(0.2, 3.0),
                              zero_q=rng.random() < 0.25)
        adjacency = (rng.random((n, n)) < 0.3).astype(float)
        v, trace = run_route(r, q, adjacency, iters)
        for st in trace:
            np.testing.assert_allclose(st.c.sum(axis=1), np.ones(n),
                                       atol=1e-9)
            assert (np.linalg.norm(st.v, axis=1) < 1.0).all()


def test_route_agreement_update_is_exact():
    rng = np.random.default_rng(9)
    n = 4
    r, q = random_factors(rng, n, 3)
    u = materialize(r, q)
    _, trace = run_route(r, q, np.zeros((n, n)), 2)
    # b after the sharpen step equals its pre-update value plus u.v exactly
    first = trace[0]
    pre = np.zeros((n, n))  # logits before iteration 1's sharpening (A = 0)
    expected = pre + np.einsum("ijd,jd->ij", u, first.v)
    np.testing.assert_allclose(first.b, expected, atol=1e-12)


def test_route_adjacency_monotonicity_first_iteration():
    n = 3
    r = np.ones((n, 2))  # u_hat = 1 everywhere
    adjacency = np.zeros((n, n))
    adjacency[0, 1] = 1.0
    _, trace = run_route(r, np.zeros((n, 2)), adjacency, 1)
    c = trace[0].c
    assert c[0, 1] > c[0, 0] and c[0, 1] > c[0, 2]


def test_route_permutation_equivariance_without_pe():
    rng = np.random.default_rng(10)
    n = 5
    r, q = random_factors(rng, n, 3)
    adjacency = (rng.random((n, n)) < 0.4).astype(float)
    perm = rng.permutation(n)
    v, _ = run_route(r, q, adjacency, 3)
    # permuting the tokens permutes u_hat[i, j] = r[i] + q[j] on both axes
    vp, _ = run_route(r[perm], q[perm], adjacency[np.ix_(perm, perm)], 3)
    np.testing.assert_allclose(vp.data, v.data[perm], atol=1e-9)


def test_grouped_route_matches_each_sentence_alone():
    # a group of equal-length sentences routes each one independently: the
    # group shares only the target part q
    rng = np.random.default_rng(11)
    g, n, d = 3, 5, 4
    r = rng.normal(size=(g, n, d))
    q = rng.normal(size=(n, d))
    adjacency = (rng.random((g, n, n)) < 0.4).astype(np.float64)
    v, trace = run_route(r, q, adjacency, 3)
    assert v.shape == (g, n, d)
    for i in range(g):
        v_i, trace_i = run_route(r[i], q, adjacency[i], 3)
        np.testing.assert_allclose(v.data[i], v_i.data, atol=1e-12)
        for st, st_i in zip(trace, trace_i):
            np.testing.assert_allclose(st.c[i], st_i.c, atol=1e-12)
            np.testing.assert_allclose(st.b[i], st_i.b, atol=1e-12)


def test_route_rejects_bad_iteration_count():
    with pytest.raises(T.ConfigError, match="iteration"):
        R.route(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))),
                np.zeros((2, 2)), 0)


def test_route_rejects_misshapen_inputs():
    r = q = T.constant(np.zeros((2, 3)))
    with pytest.raises(T.ConfigError, match="r must be"):
        R.route(T.constant(np.zeros((1, 2, 2, 3))), q,
                np.zeros((1, 2, 2)), 1)
    with pytest.raises(T.ConfigError, match="q must match"):
        R.route(r, T.constant(np.zeros((3, 3))), np.zeros((2, 2)), 1)
    with pytest.raises(T.ConfigError, match="adjacency"):
        R.route(r, q, np.zeros((3, 3)), 1)


def test_route_gradients_through_unrolled_loop():
    # float64 finite differences of the hand-written backward with respect
    # to r and q (and to r alone with a zero q), for a single sentence
    # without a group axis and for groups of 1, 2 and 3, through 1 to 4
    # iterations
    rng = np.random.default_rng(12)
    n, d = 3, 2
    zero_q = T.constant(np.zeros((n, d)), dtype=np.float64)
    for lead in ((), (1,), (2,), (3,)):
        adjacency = (rng.random(lead + (n, n)) < 0.4).astype(np.float64)
        for iters in (1, 2, 3, 4):
            w = rng.normal(size=lead + (n, d))
            check_op_grads(
                lambda ts: weighted_sum(
                    R.route(ts[0], ts[1], adjacency, iters)[0], w),
                [rng.normal(size=lead + (n, d)), rng.normal(size=(n, d))])
            check_op_grads(
                lambda ts: weighted_sum(
                    R.route(ts[0], zero_q, adjacency, iters)[0], w),
                [rng.normal(size=lead + (n, d))])


def test_route_records_one_tape_node():
    rng = np.random.default_rng(17)
    r = T.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    q = T.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    for keep_trace in (False, True):
        tape = T.Tape()
        with T.record(tape):
            v, _ = R.route(r, q, np.zeros((2, 5, 5)), 3,
                           keep_trace=keep_trace)
        assert len(tape) == 1 and tape.nodes[0][0] is v


def test_route_end_to_end_gradients_with_predict_vectors():
    rng = np.random.default_rng(13)
    n, d_task, d_route = 3, 4, 4
    adjacency = np.eye(n)
    probe = rng.normal(size=(n, d_route))

    def build(ts):
        pe = R.PositionalEncoding(d_task)
        direction = R.TransferDirection("ote", "asc", ts[1])
        r, q = R.predict_vectors(ts[0], direction, pe)
        v, _ = R.route(r, q, adjacency, 2)
        return weighted_sum(v, probe)

    check_op_grads(build, [rng.normal(size=(n, d_task)),
                           rng.normal(size=(d_task, d_route))])


# ---------------------------------------------------------------------------
# agreement trace


def test_agreement_trace_two_tokens_uniform():
    _, states = run_route(np.zeros((2, 3)), np.zeros((2, 3)),
                          np.zeros((2, 2)), 1)
    trace = R.RoutingTrace("ote->asc", ("a", "b"), np.zeros((2, 2)), states)
    recs = R.agreement_trace(trace)
    assert len(recs) == 1
    np.testing.assert_allclose(recs[0]["c"], [[0.5, 0.5], [0.5, 0.5]])
    assert recs[0]["direction"] == "ote->asc"
    assert recs[0]["tokens"] == ["a", "b"]
    assert recs[0]["rows"] == "source" and recs[0]["cols"] == "target"


def test_agreement_trace_rows_sum_to_one_entries_in_open_interval():
    rng = np.random.default_rng(15)
    n = 4
    r, q = random_factors(rng, n, 3)
    _, states = run_route(r, q, np.eye(n), 3)
    trace = R.RoutingTrace("ate->ote", None, np.eye(n), states)
    for rec in R.agreement_trace(trace):
        c = np.array(rec["c"])
        np.testing.assert_allclose(c.sum(axis=1), np.ones(n), atol=1e-9)
        assert (c > 0).all() and (c < 1).all()


def test_agreement_strictly_increases_for_aligned_votes():
    # target 1 has a large target-side vote part along e1, so the votes into
    # it agree with its output; every source part is small and orthogonal to
    # e1 and to each other: the (0, 1) coupling must sharpen monotonically
    # across iterations
    n, d = 3, 6
    r = np.zeros((n, d))
    r[0, 3] = r[1, 4] = r[2, 5] = 0.1
    q = np.zeros((n, d))
    q[1, 0] = 4.0
    _, states = run_route(r, q, np.zeros((n, n)), 4)
    series = [st.c[0, 1] for st in states]
    assert all(b > a for a, b in zip(series, series[1:]))


# ---------------------------------------------------------------------------
# memory


def test_routing_tape_never_holds_pairwise_vote_tensor():
    # votes stay factored: no recorded output and no gradient pushed in
    # backward may be larger than an [n, n] coupling or an [n, d_route]
    # vote part, so routing memory is O(n^2 + n*d), not O(n^2 * d)
    rng = np.random.default_rng(16)
    n, d_task, d_route = 128, 64, 32
    limit = max(n * n, n * d_route)
    pe = R.PositionalEncoding(d_task)
    direction = R.TransferDirection(
        "ate", "asc", T.Tensor(rng.normal(size=(d_task, d_route)) * 0.1,
                               requires_grad=True, dtype=np.float32))
    h = T.Tensor(rng.normal(size=(n, d_task)).astype(np.float32),
                 requires_grad=True)
    adjacency = np.eye(n)
    tape = T.Tape()
    with T.record(tape):
        r, q = R.predict_vectors(h, direction, pe)
        v, _ = R.route(r, q, adjacency, 3)
        loss = weighted_sum(v)
    recorded = max(node[0].size for node in tape.nodes)
    assert recorded <= limit, f"tape output of {recorded} elements"

    pushed = []

    def spy(fn):
        def wrapped(g, push):
            def spy_push(t, grad):
                pushed.append(np.size(grad))
                push(t, grad)
            fn(g, spy_push)
        return wrapped

    tape.nodes = [node[:-1] + (spy(node[-1]),) for node in tape.nodes]
    tape.backward(loss)
    assert pushed and max(pushed) <= limit, (
        f"gradient of {max(pushed)} elements pushed in backward")
    assert h.grad is not None and direction.weight.grad is not None
