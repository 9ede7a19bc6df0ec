import math

import numpy as np
import pytest

from ktabsa import routing as R
from ktabsa import tensor as T

from helpers import (check_op_grads, reshape, squash_ref, stacked,
                     weighted_sum)


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


def materialize(p, q):
    """The full vote tensor u_hat[i, j] = p[i] + q[i] + q[j] the oracle
    runs on."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    return (p + q)[:, None, :] + q[None, :, :]


def random_factors(rng, n, d, scale=1.0, zero_q=False):
    """Random vote parts p and q; ``zero_q`` gives votes that do not depend
    on the positions, and draws nothing for q."""
    p = rng.normal(size=(n, d)) * scale
    q = np.zeros((n, d)) if zero_q else rng.normal(size=(n, d)) * scale
    return p, q


def run_route(p, q, adjacency, iterations):
    with T.use_dtype(np.float64):
        v, trace = R.route(T.constant(p), T.constant(q),
                           R.routing_prior(adjacency, np.float64), iterations)
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


def make_weight(d_task, d_route, rng):
    return T.Tensor(rng.normal(size=(d_task, d_route)), requires_grad=True)


def votes(h, w):
    """The vote parts p = h W (shaped like h [..., n, d], width d_route) and
    q = PE W [n, d_route] of one direction of weight w, without the
    direction axis that ``predict_vectors`` and ``target_votes`` stack: h
    is the only source."""
    n, weights = h.shape[-2], stacked([w])
    p = R.predict_vectors(reshape(h, (1,) + h.shape),
                          R.TransferDirection("ote", "asc"), tasks=("ote",),
                          weights=weights)
    return T.select(p, 0), T.select(R.target_votes(n, weights), (0, 0))


def test_predict_vectors_zero_weight():
    rng = np.random.default_rng(0)
    with T.use_dtype(np.float64):
        h = T.constant(rng.normal(size=(3, 6)))
        p, q = votes(h, T.constant(np.zeros((6, 4))))
    assert not p.data.any() and not q.data.any()


def test_predict_vectors_varies_with_target_only_through_pe():
    rng = np.random.default_rng(1)
    with T.use_dtype(np.float64):
        w = make_weight(6, 4, rng)
        h = T.constant(rng.normal(size=(4, 6)))
        p, q = votes(h, w)
        table = R.positional_encoding(4, 6)
        pw = table @ w.data
    np.testing.assert_allclose(p.data, h.data @ w.data, atol=1e-12)
    np.testing.assert_array_equal(q.data, pw)
    u = materialize(p.data, q.data)
    for i in range(4):
        for j1 in range(4):
            for j2 in range(4):
                np.testing.assert_allclose(
                    u[i, j1] - u[i, j2], pw[j1] - pw[j2],
                    atol=1e-10)


def test_predict_vectors_zero_hidden_is_pe_sum():
    rng = np.random.default_rng(2)
    with T.use_dtype(np.float64):
        w = make_weight(6, 4, rng)
        h = T.constant(np.zeros((3, 6)))
        p, q = votes(h, w)
        table = R.positional_encoding(3, 6)
    u = materialize(p.data, q.data)
    for i in range(3):
        for j in range(3):
            expected = (table[i] + table[j]) @ w.data
            np.testing.assert_allclose(u[i, j], expected, atol=1e-12)


def test_route_runs_the_papers_votes_built_literally():
    # u_hat[i, j] = (h_i + PE(i) + PE(j)) W, built pair by pair: route,
    # given p = h W and q = PE W, forms exactly these votes, so its
    # couplings, aggregates and outputs are the oracle's on them
    rng = np.random.default_rng(30)
    n, d_task, d_route, iters = 5, 6, 4, 3
    adjacency = (rng.random((n, n)) < 0.4).astype(np.float64)
    with T.use_dtype(np.float64):
        w = make_weight(d_task, d_route, rng)
        h = T.constant(rng.normal(size=(n, d_task)))
        v, states = R.route(*votes(h, w), R.routing_prior(adjacency,
                                                          np.float64), iters)
    pe = R.positional_encoding(n, d_task)
    u_hat = np.empty((n, n, d_route))
    for i in range(n):
        for j in range(n):
            u_hat[i, j] = (h.data[i] + pe[i] + pe[j]) @ w.data
    ov, ostates = route_oracle(u_hat, adjacency, iters)
    np.testing.assert_allclose(v.data, ov, rtol=0, atol=1e-12)
    for st, (_ob, oc, ovv) in zip(states, ostates, strict=True):
        np.testing.assert_allclose(st.c, oc, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st.s, np.einsum("ij,ijd->jd", oc, u_hat),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(st.v, ovv, rtol=0, atol=1e-12)


def test_predict_vectors_beyond_max_len():
    # encodings are computed per length on first use, with no length cap
    with T.use_dtype(np.float64):
        w = make_weight(4, 3, np.random.default_rng(3))
        h = T.constant(np.zeros((200, 4)))
        p, q = votes(h, w)
    assert p.shape == q.shape == (200, 3)


def test_encoding_table_is_cached_per_length_width_and_dtype():
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    for n, d in ((1, 4), (7, 4), (200, 4), (12, 6)):
        for dtype in (f32, f64):
            table = R._encoding(n, d, dtype)
            assert R._encoding(n, d, dtype) is table
            assert table.shape == (n, d) and table.dtype == dtype
    assert R._encoding(7, 4, f32) is not R._encoding(7, 4, f64)
    assert R._encoding(7, 4, f32) is not R._encoding(7, 6, f32)


def test_encoding_tables_of_float32_and_float64_callers_are_apart():
    rng = np.random.default_rng(3)
    h32 = T.constant(rng.normal(size=(5, 4)).astype(np.float32))
    h64 = T.constant(h32.data.astype(np.float64))
    w32 = T.constant(rng.normal(size=(4, 3)).astype(np.float32))
    w64 = T.constant(w32.data.astype(np.float64))
    for h, w in ((h32, w32), (h64, w64), (h32, w32)):
        p, q = votes(h, w)
        assert p.dtype == q.dtype == h.dtype
        table = R._encoding(5, 4, h.dtype)
        np.testing.assert_array_equal(q.data, table.data @ w.data)
        np.testing.assert_array_equal(
            table.data, R.positional_encoding(5, 4).astype(h.dtype))
    assert R._encoding(5, 4, h32.dtype) is not R._encoding(5, 4, h64.dtype)


def test_encoding_table_is_a_prefix_of_any_longer_one():
    # each row depends only on its position, so every table is the first
    # rows of any longer one, bit for bit, in either dtype
    for dtype in (np.dtype(np.float32), np.dtype(np.float64)):
        long = R._encoding(300, 8, dtype).data
        for n in (1, 7, 64, 200, 299):
            np.testing.assert_array_equal(R._encoding(n, 8, dtype).data,
                                          long[:n])


def test_weight_of_the_wrong_width_is_a_shape_error():
    with T.use_dtype(np.float64):
        w = make_weight(6, 3, np.random.default_rng(4))
        h = T.constant(np.zeros((5, 4)))
        with pytest.raises(T.ShapeError):
            votes(h, w)


def test_predict_vectors_reads_each_direction_its_source_row():
    # the stacked hidden states of three sources; each direction's votes
    # are its own source's, in argument order, and q stacks the same way
    rng = np.random.default_rng(5)
    with T.use_dtype(np.float64):
        hidden = T.constant(rng.normal(size=(3, 10, 6)))
        directions = [R.TransferDirection(src, "y") for src in "cacb"]
        ws = [T.constant(rng.normal(size=(6, 4))) for _ in directions]
        p = R.predict_vectors(hidden, *directions, tasks=("a", "b", "c"),
                              weights=stacked(ws))
        q = R.target_votes(5, stacked(ws))
    assert p.shape == (4, 10, 4) and q.shape == (4, 1, 5, 4)
    table = R.positional_encoding(5, 6)
    for k, (t, w) in enumerate(zip(directions, ws)):
        np.testing.assert_allclose(
            p.data[k], hidden.data["abc".index(t.source)] @ w.data,
            atol=1e-12)
        np.testing.assert_allclose(q.data[k, 0], table @ w.data, atol=1e-12)


# ---------------------------------------------------------------------------
# route


def test_route_single_iteration_no_prior_is_uniform_mean():
    rng = np.random.default_rng(5)
    n, d = 4, 3
    p, q = random_factors(rng, n, d)
    u = materialize(p, q)
    v, trace = run_route(p, q, np.zeros((n, n)), 1)
    np.testing.assert_allclose(trace[0].c, np.full((n, n), 1.0 / n))
    np.testing.assert_allclose(v.data, squash_ref(u.mean(axis=0)), atol=1e-12)


def test_route_single_token():
    rng = np.random.default_rng(6)
    for zero_q in (False, True):
        p, q = random_factors(rng, 1, 5, zero_q=zero_q)
        u = materialize(p, q)
        for iters in (1, 3):
            v, trace = run_route(p, q, np.ones((1, 1)), iters)
            np.testing.assert_allclose(trace[-1].c, [[1.0]])
            np.testing.assert_allclose(v.data, squash_ref(u[0]), atol=1e-12)


def test_route_matches_line_by_line_oracle():
    rng = np.random.default_rng(7)
    n = 3
    adjacency = np.zeros((n, n))
    adjacency[0, 2] = adjacency[2, 0] = 1.0
    for zero_q in (False, True):
        p, q = random_factors(rng, n, 4, zero_q=zero_q)
        v, trace = run_route(p, q, adjacency, 3)
        ov, ostates = route_oracle(materialize(p, q), adjacency, 3)
        np.testing.assert_allclose(v.data, ov, atol=1e-9)
        for st, (_ob, oc, ovv) in zip(trace, ostates):
            np.testing.assert_allclose(st.c, oc, atol=1e-9)
            np.testing.assert_allclose(st.v, ovv, atol=1e-9)


def test_route_invariants_random():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        iters = int(rng.integers(1, 5))
        p, q = random_factors(rng, n, 4, rng.uniform(0.2, 3.0),
                              zero_q=rng.random() < 0.25)
        adjacency = (rng.random((n, n)) < 0.3).astype(float)
        v, trace = run_route(p, q, adjacency, iters)
        for st in trace:
            np.testing.assert_allclose(st.c.sum(axis=1), np.ones(n),
                                       atol=1e-9)
            assert (np.linalg.norm(st.v, axis=1) < 1.0).all()


def test_route_agreement_update_is_exact():
    rng = np.random.default_rng(9)
    n = 4
    p, q = random_factors(rng, n, 3)
    u = materialize(p, q)
    _, trace = run_route(p, q, np.zeros((n, n)), 2)
    # with A = 0 the logits after iteration 1's sharpening are exactly
    # u.v_1, so iteration 2's couplings are their row softmax
    b = np.einsum("ijd,jd->ij", u, trace[0].v)
    e = np.exp(b - b.max(axis=1, keepdims=True))
    np.testing.assert_allclose(trace[1].c, e / e.sum(axis=1, keepdims=True),
                               rtol=0, atol=1e-12)


def test_route_adjacency_monotonicity_first_iteration():
    n = 3
    p = np.ones((n, 2))  # u_hat = 1 everywhere
    adjacency = np.zeros((n, n))
    adjacency[0, 1] = 1.0
    _, trace = run_route(p, np.zeros((n, 2)), adjacency, 1)
    c = trace[0].c
    assert c[0, 1] > c[0, 0] and c[0, 1] > c[0, 2]


def test_route_permutation_equivariance_without_pe():
    rng = np.random.default_rng(10)
    n = 5
    p, q = random_factors(rng, n, 3)
    adjacency = (rng.random((n, n)) < 0.4).astype(float)
    perm = rng.permutation(n)
    v, _ = run_route(p, q, adjacency, 3)
    # permuting the tokens permutes u_hat[i, j] = p[i] + q[i] + q[j] on both
    # axes
    vp, _ = run_route(p[perm], q[perm], adjacency[np.ix_(perm, perm)], 3)
    np.testing.assert_allclose(vp.data, v.data[perm], atol=1e-9)


def test_grouped_route_matches_each_sentence_alone():
    # a group of equal-length sentences, its rows [G*n, d] folded by the
    # [G, n, n] prior, routes each one independently: the group shares only
    # the position part q
    rng = np.random.default_rng(11)
    g, n, d = 3, 5, 4
    p = rng.normal(size=(g * n, d))
    q = rng.normal(size=(n, d))
    adjacency = (rng.random((g, n, n)) < 0.4).astype(np.float64)
    v, trace = run_route(p, q, adjacency, 3)
    assert v.shape == (g * n, d)
    for i in range(g):
        v_i, trace_i = run_route(p[i * n:(i + 1) * n], q, adjacency[i], 3)
        np.testing.assert_allclose(v.data[i * n:(i + 1) * n], v_i.data,
                                   atol=1e-12)
        for st, st_i in zip(trace, trace_i):
            np.testing.assert_allclose(st.c[i], st_i.c, atol=1e-12)


def test_route_rejects_bad_iteration_count():
    with pytest.raises(T.ConfigError, match="iteration"):
        R.route(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))),
                R.routing_prior(np.zeros((2, 2)), np.float32), 0)


def test_route_rejects_misshapen_inputs():
    p = q = T.constant(np.zeros((2, 3)))
    stacked = T.constant(np.zeros((2, 2, 3)))   # [k, G*n, d], G 1 and n 2

    def prior(adjacency):
        return R.routing_prior(adjacency, p.dtype)

    with pytest.raises(T.ConfigError, match="p must be"):
        R.route(T.constant(np.zeros(3)), q, prior(np.zeros((2, 2))), 1)
    for bad_q in (np.zeros((3, 3)),          # trailing shape is not (n, d)
                  np.zeros(3),
                  np.zeros((3, 1, 2, 3)),    # leading axis does not broadcast
                  np.zeros((2, 2, 2, 3))):   # would widen p's group axis
        with pytest.raises(T.ConfigError, match="q must match"):
            R.route(stacked, T.constant(bad_q), prior(np.zeros((1, 2, 2))),
                    1)
    with pytest.raises(T.ConfigError, match="adjacency"):
        R.route(p, q, prior(np.zeros((3, 3))), 1)
    with pytest.raises(T.ConfigError, match="adjacency"):
        R.route(stacked, q, prior(np.zeros((3, 1, 2, 2))), 1)
    with pytest.raises(T.ConfigError, match="adjacency"):    # 2 rows, not 4
        R.route(stacked, q, prior(np.zeros((2, 2, 2))), 1)
    # leading axes of any depth are accepted when q broadcasts to p's rows
    # folded by the prior, and v comes back at p's shape
    v, _ = R.route(stacked, q, prior(np.zeros((1, 2, 2))), 1)
    assert v.shape == (2, 2, 3)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_directions_match_one_call_per_direction(dtype):
    # k directions stacked on a leading axis, each with the rows of a group
    # (p [k, G*n, d]), its position part shared by the group (q [k, 1, n,
    # d]) and the adjacency shared by the directions, route exactly like k
    # separate calls: values, traces and the gradients of p and q agree bit
    # for bit
    rng = np.random.default_rng(18)
    k, g, n, d, iters = 3, 2, 5, 4, 3
    p = rng.normal(size=(k, g * n, d)).astype(dtype)
    q = rng.normal(size=(k, 1, n, d)).astype(dtype)
    prior = R.routing_prior(rng.random((g, n, n)) < 0.4, dtype)
    probe = rng.normal(size=(k, g * n, d)).astype(dtype)

    def run(p_part, q_part, w):
        pt = T.Tensor(p_part, requires_grad=True)
        qt = T.Tensor(q_part, requires_grad=True)
        tape = T.Tape()
        with T.record(tape):
            v, trace = R.route(pt, qt, prior, iters)
            loss = weighted_sum(v, w)
        tape.backward(loss)
        return v.data, trace, pt.grad, qt.grad

    v, trace, dp, dq = run(p, q, probe)
    for j in range(k):
        v_j, trace_j, dp_j, dq_j = run(p[j], q[j, 0], probe[j])
        np.testing.assert_array_equal(v[j], v_j)
        np.testing.assert_array_equal(dp[j], dp_j)
        np.testing.assert_array_equal(dq[j, 0], dq_j)
        for st, st_j in zip(trace, trace_j, strict=True):
            for field in ("c", "s", "v"):
                np.testing.assert_array_equal(getattr(st, field)[j],
                                              getattr(st_j, field))


def test_route_gradients_through_unrolled_loop():
    # float64 finite differences of the hand-written backward with respect
    # to p and q (and to p alone with a zero q), for a single sentence
    # without a group axis and for groups of 1, 2 and 3, through 1 to 4
    # iterations
    rng = np.random.default_rng(12)
    n, d = 3, 2
    zero_q = T.constant(np.zeros((n, d)))
    for lead in ((), (1,), (2,), (3,)):
        prior = R.routing_prior(rng.random(lead + (n, n)) < 0.4, np.float64)
        rows = (math.prod(lead) * n, d)     # the group's rows, [G*n, d]
        for iters in (1, 2, 3, 4):
            w = rng.normal(size=rows)
            check_op_grads(
                lambda ts: weighted_sum(
                    R.route(ts[0], ts[1], prior, iters)[0], w),
                [rng.normal(size=rows), rng.normal(size=(n, d))])
            check_op_grads(
                lambda ts: weighted_sum(
                    R.route(ts[0], zero_q, prior, iters)[0], w),
                [rng.normal(size=rows)])


def test_stacked_route_matches_oracle_with_asymmetric_adjacency():
    # corpus adjacency is symmetric, so model-level tests cannot tell the
    # couplings from their transpose; an asymmetric prior can: every
    # direction and sentence of a [k, G] stack matches the line-by-line
    # oracle, values and every iteration's c [source, target]
    rng = np.random.default_rng(20)
    k, g, n, d, iters = 3, 2, 5, 4, 3
    p = rng.normal(size=(k, g * n, d))
    q = rng.normal(size=(k, 1, n, d))
    adjacency = np.triu(rng.random((g, n, n)) < 0.6, 1).astype(np.float64)
    assert (adjacency != adjacency.swapaxes(-1, -2)).any()
    v, states = run_route(p, q, adjacency, iters)
    for j in range(k):
        for i in range(g):
            rows = slice(i * n, (i + 1) * n)
            ov, ostates = route_oracle(materialize(p[j, rows], q[j, 0]),
                                       adjacency[i], iters)
            np.testing.assert_allclose(v.data[j, rows], ov, rtol=0,
                                       atol=1e-9)
            for st, (_ob, oc, _ov) in zip(states, ostates, strict=True):
                np.testing.assert_allclose(st.c[j, i], oc, rtol=0, atol=1e-9)


def test_stacked_route_gradients_with_adjacency_shared_by_directions():
    # float64 finite differences with p [2, 3 * n, d], q [2, 1, n, d] and
    # one [3, n, n] adjacency for both directions, so iteration 1's
    # couplings are computed once and broadcast over the directions
    rng = np.random.default_rng(21)
    n, d = 3, 2
    prior = R.routing_prior(rng.random((3, n, n)) < 0.4, np.float64)
    for iters in (1, 2, 3):
        w = rng.normal(size=(2, 3 * n, d))
        check_op_grads(
            lambda ts: weighted_sum(
                R.route(ts[0], ts[1], prior, iters)[0], w),
            [rng.normal(size=(2, 3 * n, d)), rng.normal(size=(2, 1, n, d))])


def test_route_records_one_tape_node():
    rng = np.random.default_rng(17)
    p = T.Tensor(rng.normal(size=(10, 4)), requires_grad=True)
    q = T.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    tape = T.Tape()
    with T.record(tape):
        v, _ = R.route(p, q, R.routing_prior(np.zeros((2, 5, 5)), p.dtype), 3)
    assert len(tape) == 1 and tape.nodes[0][0] is v


def test_route_returns_the_states_its_backward_reads():
    # one state per iteration, matching the line-by-line oracle; each c and
    # s is the very array the backward reads, so scaling one in place
    # between the forward and the backward changes the gradient. The
    # backward rebuilds each v as squash(s), so scaling a v changes nothing
    # and a caller that drops the states frees them. Iteration 1's c is a
    # read-only broadcast of couplings computed once per call, so it is
    # scaled through the array behind the view
    rng = np.random.default_rng(19)
    n, d, iters = 4, 3, 3
    p0, q0 = random_factors(rng, n, d)
    adjacency = np.eye(n)
    _, ostates = route_oracle(materialize(p0, q0), adjacency, iters)

    def run(spoil=None):
        with T.use_dtype(np.float64):
            p = T.Tensor(p0, requires_grad=True)
            tape = T.Tape()
            with T.record(tape):
                v, states = R.route(p, T.constant(q0),
                                    R.routing_prior(adjacency, p.dtype), iters)
                loss = weighted_sum(v)
            if spoil is not None:
                arr = getattr(states[spoil[0]], spoil[1])
                while not arr.flags.writeable:
                    arr = arr.base
                arr *= 2.0
            tape.backward(loss)
        return v, states, p.grad

    v, states, grad = run()
    assert len(states) == iters and np.shares_memory(states[-1].v, v.data)
    for st, (_ob, oc, ov) in zip(states, ostates, strict=True):
        np.testing.assert_allclose(st.c, oc, atol=1e-9)
        np.testing.assert_allclose(st.v, ov, atol=1e-9)
        np.testing.assert_allclose(st.v, squash_ref(st.s), atol=1e-12)
    for it in range(iters):
        for field in ("c", "s"):
            assert not np.allclose(run((it, field))[2], grad), (it, field)
        if it < iters - 1:
            np.testing.assert_array_equal(run((it, "v"))[2], grad)


def test_route_end_to_end_gradients_with_predict_vectors():
    rng = np.random.default_rng(13)
    n, d_task, d_route = 3, 4, 4
    prior = R.routing_prior(np.eye(n), np.float64)
    probe = rng.normal(size=(n, d_route))

    def build(ts):
        v, _ = R.route(*votes(ts[0], ts[1]), prior, 2)
        return weighted_sum(v, probe)

    check_op_grads(build, [rng.normal(size=(n, d_task)),
                           rng.normal(size=(d_task, d_route))])


# ---------------------------------------------------------------------------
# agreement trace


def test_agreement_trace_two_tokens_uniform():
    _, states = run_route(np.zeros((2, 3)), np.zeros((2, 3)),
                          np.zeros((2, 2)), 1)
    trace = R.RoutingTrace(1, "ote->asc", states)
    recs = R.agreement_trace(trace, ("a", "b"))
    assert len(recs) == 1
    np.testing.assert_allclose(recs[0]["c"], [[0.5, 0.5], [0.5, 0.5]])
    assert recs[0]["direction"] == "ote->asc"
    assert recs[0]["tokens"] == ["a", "b"]
    assert recs[0]["rows"] == "source" and recs[0]["cols"] == "target"


def test_agreement_trace_rows_sum_to_one_entries_in_open_interval():
    rng = np.random.default_rng(15)
    n = 4
    p, q = random_factors(rng, n, 3)
    _, states = run_route(p, q, np.eye(n), 3)
    trace = R.RoutingTrace(1, "ate->ote", states)
    recs = R.agreement_trace(trace, ("w", "x", "y", "z"))
    assert [rec["iteration"] for rec in recs] == [1, 2, 3]
    for rec in recs:
        c = np.array(rec["c"])
        np.testing.assert_allclose(c.sum(axis=1), np.ones(n), atol=1e-9)
        assert (c > 0).all() and (c < 1).all()


def test_agreement_strictly_increases_for_aligned_votes():
    # position 1 has a large part q_1 along e1, which every vote into target
    # 1 carries, so they agree with its output; every hidden part p_i is
    # small and orthogonal to e1 and to each other: the (0, 1) coupling must
    # sharpen monotonically across iterations
    n, d = 3, 6
    p = np.zeros((n, d))
    p[0, 3] = p[1, 4] = p[2, 5] = 0.1
    q = np.zeros((n, d))
    q[1, 0] = 4.0
    _, states = run_route(p, q, np.zeros((n, n)), 4)
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
    w = T.Tensor((rng.normal(size=(d_task, d_route)) * 0.1).astype(np.float32),
                 requires_grad=True)
    h = T.Tensor(rng.normal(size=(n, d_task)).astype(np.float32),
                 requires_grad=True)
    prior = R.routing_prior(np.eye(n), h.dtype)
    tape = T.Tape()
    with T.record(tape):
        v, _ = R.route(*votes(h, w), prior, 3)
        loss = weighted_sum(v)
    recorded = max(node[0].size for node in tape.nodes)
    assert recorded <= limit, f"tape output of {recorded} elements"

    pushed = []

    def spy(fn):
        def wrapped(g, push):
            def spy_push(t, grad, *at):
                pushed.append(np.size(grad))
                push(t, grad, *at)
            fn(g, spy_push)
        return wrapped

    tape.nodes = [node[:-1] + (spy(node[-1]),) for node in tape.nodes]
    tape.backward(loss)
    assert pushed and max(pushed) <= limit, (
        f"gradient of {max(pushed)} elements pushed in backward")
    assert h.grad is not None and w.grad is not None
