import numpy as np
import pytest

from ktabsa import tensor as T
from ktabsa.layers import (AttentionHead, Params, SharedEncoder, TaskStack,
                           TokenDecoder)
from ktabsa.model import ModelConfig

from helpers import conv1d, conv1d_naive


def test_encoder_single_token_sentence():
    rng = np.random.default_rng(0)
    enc = SharedEncoder(Params(rng), d_in=6, d_enc=8, widths=(3, 5),
                        nonlinearity="relu")
    out = enc(T.constant(rng.normal(size=(2, 6)).astype(np.float32)),
              T.Segments([1, 1]))
    assert out.shape == (1, 2, 8)
    assert np.isfinite(out.data).all()


def test_encoder_zero_input_zero_bias_gives_nonlinearity_of_zero():
    rng = np.random.default_rng(1)
    enc = SharedEncoder(Params(rng), d_in=4, d_enc=6, widths=(3,),
                        nonlinearity="sigmoid")
    out = enc(T.constant(np.zeros((6, 4), dtype=np.float32)),
              T.Segments([3, 3]))
    np.testing.assert_allclose(out.data, 0.5)  # sigmoid(0)


def test_encoder_matches_naive_conv_reference():
    # sentences of 7, 2 and 4 tokens laid end to end, each against a naive
    # convolution of it alone; 2 tokens are fewer than the widest kernel
    rng = np.random.default_rng(2)
    lengths = (7, 2, 4)
    with T.use_dtype(np.float64):
        params = Params(rng)
        enc = SharedEncoder(params, d_in=5, d_enc=8, widths=(3, 5),
                            nonlinearity="relu")
        x = rng.normal(size=(sum(lengths), 5))
        out = enc(T.constant(x), T.Segments(lengths))
    P = params.tensors
    start = 0
    for n in lengths:
        parts = [conv1d_naive(x[start:start + n], P[f"enc.w{w}.kernel"].data,
                              P[f"enc.w{w}.bias"].data) for w in (3, 5)]
        expected = np.maximum(np.concatenate(parts, axis=1), 0)
        np.testing.assert_allclose(out.data[0, start:start + n], expected,
                                   atol=1e-10)
        start += n


def test_encoder_width_divisibility_enforced():
    # the config rejects it, before any layer or file is made
    with pytest.raises(T.ConfigError, match="divisible"):
        ModelConfig(d_enc=7, kernel_widths=(3, 5)).validate()


def test_task_stack_shapes():
    rng = np.random.default_rng(3)
    params = Params(rng)
    stack = TaskStack(params, d_in=8, d_out=6, depth=2, nonlinearity="relu",
                      tasks=("x", "y"))
    x = T.constant(rng.normal(size=(10, 8)).astype(np.float32))
    segments = T.Segments([5, 5])
    assert stack(x, ("x", "y"), segments).shape == (2, 10, 6)
    assert stack(x, ("y",), segments).shape == (1, 10, 6)
    assert list(params.tensors) == [
        f"task.{t}.{k}.{p}" for t in "xy" for k in (0, 1)
        for p in ("kernel", "bias")]
    kernels, biases = stack.blocks[1]
    assert kernels.params[0] is params.tensors["task.x.1.kernel"]
    assert biases.params[1] is params.tensors["task.y.1.bias"]


def test_task_stack_matches_a_conv1d_chain_per_task():
    # sentences of 6, 1 and 3 tokens laid end to end: each task's rows of
    # each sentence equal a conv1d chain over that sentence alone
    rng = np.random.default_rng(5)
    lengths = (6, 1, 3)
    with T.use_dtype(np.float64):
        params = Params(rng)
        stack = TaskStack(params, d_in=4, d_out=3, depth=2,
                          nonlinearity="sigmoid", tasks=("a", "b", "c"))
        x = rng.normal(size=(sum(lengths), 4))
        out = stack(T.constant(x), ("c", "a"), T.Segments(lengths))
    P = params.tensors
    for row, task in enumerate(("c", "a")):
        start = 0
        for n in lengths:
            h = T.constant(x[None, start:start + n])
            for k in range(2):
                h = T.sigmoid(conv1d(h, P[f"task.{task}.{k}.kernel"],
                                     P[f"task.{task}.{k}.bias"]))
            np.testing.assert_allclose(out.data[row, start:start + n],
                                       h.data[0], atol=1e-12)
            start += n


def test_params_rejects_a_duplicate_name():
    params = Params(np.random.default_rng(0))
    params.zeros("x.b", 4)
    with pytest.raises(ValueError, match="duplicate parameter name x.b"):
        params.glorot("x.b", (4, 4))


def two_task_head(rng, d):
    """A head over tasks "x" (2 classes) and "y" (3 classes)."""
    params = Params(rng)
    return AttentionHead(params, d, {"x": 2, "y": 3}), params.tensors


def test_attention_uniform_for_constant_rows():
    rng = np.random.default_rng(4)
    head, _ = two_task_head(rng, 6)
    h = T.constant(np.tile(np.arange(6, dtype=np.float32), (2, 7, 1)))
    a, logits = head(h, ("x", "y"), T.Segments([4, 3]), ("x", "y"))
    np.testing.assert_allclose(a.data[:, :, 0], [[0.25] * 4 + [1 / 3] * 3] * 2,
                               atol=1e-6)
    assert {t: x.shape for t, x in logits.items()} == {"x": (1, 2, 2),
                                                       "y": (1, 2, 3)}
    assert head(h, ("x", "y"), T.Segments([4, 3]), ())[1] == {}


def test_attention_weighted_sum_matches_bruteforce():
    # each task's attention and classifier against a per-task numpy
    # reference of each sentence alone (6, 1 and 3 tokens laid end to
    # end), over both tasks and over a subset, classifying each task or one
    rng = np.random.default_rng(6)
    lengths = (6, 1, 3)
    for tasks, classify in ((("x", "y"), ("x", "y")), (("y",), ("y",)),
                            (("x", "y"), ("y",))):
        with T.use_dtype(np.float64):
            head, P = two_task_head(rng, 5)
            h = rng.normal(size=(len(tasks), sum(lengths), 5))
            a, logits = head(T.constant(h), tasks, T.Segments(lengths),
                             classify)
        assert list(logits) == list(classify)
        for i, task in enumerate(tasks):
            start = 0
            for b, n in enumerate(lengths):
                hb = h[i, start:start + n]
                scores = hb @ P[f"doc.{task}.attn.w"].data[:, 0]
                e = np.exp(scores - scores.max())
                want = e / e.sum()
                np.testing.assert_allclose(a.data[i, start:start + n, 0],
                                           want, atol=1e-12)
                if task in classify:
                    np.testing.assert_allclose(
                        logits[task].data[0, b],
                        want @ hb @ P[f"doc.{task}.cls.w"].data
                        + P[f"doc.{task}.cls.b"].data, atol=1e-12)
                start += n


def test_decoder_zero_weights_uniform_rows():
    rng = np.random.default_rng(9)
    params = Params(rng)
    dec = TokenDecoder(params, d=6, classes=3, tasks=("x",))
    params.tensors["dec.x.w"].data[:] = 0.0
    params.tensors["dec.x.b"].data[:] = 0.0
    _logits, probs = dec(T.constant(
        rng.normal(size=(1, 4, 6)).astype(np.float32)))
    np.testing.assert_allclose(probs.data, 1.0 / 3, atol=1e-7)


def test_decoder_rows_sum_to_one_and_argmax_shift_invariant():
    rng = np.random.default_rng(10)
    params = Params(rng)
    dec = TokenDecoder(params, d=6, classes=3, tasks=("x", "y"))
    h = T.constant(rng.normal(size=(2, 5, 6)).astype(np.float32))
    logits, probs = dec(h)
    np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones((2, 5)),
                               atol=1e-6)
    shifted = T.softmax(T.add(logits, T.constant(np.full((5, 1), 7.5,
                                                         dtype=np.float32))),
                        axis=-1)
    np.testing.assert_array_equal(probs.data.argmax(axis=-1),
                                  shifted.data.argmax(axis=-1))
    for row, task in enumerate("xy"):
        np.testing.assert_allclose(
            logits.data[row],
            h.data[row] @ params.tensors[f"dec.{task}.w"].data
            + params.tensors[f"dec.{task}.b"].data, atol=1e-6)


def test_shared_encoder_accumulates_gradients_from_all_task_losses():
    # one backward through a multi-head loss equals the sum of single-loss
    # gradients on the shared parameters
    import sys
    sys.path.insert(0, "tests")
    from fixtures import build_tiny_model
    from ktabsa.training import aspect_loss, document_loss

    model, sent, doc = build_tiny_model()
    kernel = model.params.tensors["enc.w3.kernel"]

    def grad_for(fn):
        for p in model.named_parameters().values():
            p.zero_grad()
        tape = T.Tape()
        with T.record(tape):
            loss = fn()
        tape.backward(loss)
        return np.zeros_like(kernel.data) if kernel.grad is None \
            else kernel.grad.copy()

    def la():
        states, _ = model.forward([sent])
        return aspect_loss(states, [sent], model.config, 1.0)

    def ld():
        return document_loss(model.forward_document([doc]), [doc],
                             model.config, 1.0)

    g_aspect = grad_for(la)
    g_doc = grad_for(ld)
    g_joint = grad_for(lambda: T.add(la(), ld()))
    assert g_aspect.any() and g_doc.any()
    np.testing.assert_allclose(g_joint, g_aspect + g_doc, rtol=1e-4,
                               atol=1e-6)
