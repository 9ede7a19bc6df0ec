import numpy as np
import pytest

from ktabsa import tensor as T
from ktabsa.layers import (AttentionHead, SharedEncoder, TaskStack,
                           TokenDecoder)

from helpers import conv1d_naive


def test_encoder_single_token_sentence():
    rng = np.random.default_rng(0)
    enc = SharedEncoder(rng, d_in=6, d_enc=8, widths=(3, 5),
                        nonlinearity="relu")
    out = enc(T.constant(rng.normal(size=(1, 6)).astype(np.float32)))
    assert out.shape == (1, 8)
    assert np.isfinite(out.data).all()


def test_encoder_zero_input_zero_bias_gives_nonlinearity_of_zero():
    rng = np.random.default_rng(1)
    enc = SharedEncoder(rng, d_in=4, d_enc=6, widths=(3,),
                        nonlinearity="sigmoid")
    out = enc(T.constant(np.zeros((3, 4), dtype=np.float32)))
    np.testing.assert_allclose(out.data, 0.5)  # sigmoid(0)


def test_encoder_matches_naive_conv_reference():
    rng = np.random.default_rng(2)
    with T.use_dtype(np.float64):
        enc = SharedEncoder(rng, d_in=5, d_enc=8, widths=(3, 5),
                            nonlinearity="relu")
        x = rng.normal(size=(7, 5))
        out = enc(T.constant(x))
    parts = []
    for bank in enc.banks:
        parts.append(conv1d_naive(x, bank.kernel.data, bank.bias.data))
    expected = np.maximum(np.concatenate(parts, axis=1), 0)
    np.testing.assert_allclose(out.data, expected, atol=1e-10)


def test_encoder_width_divisibility_enforced():
    with pytest.raises(T.ConfigError, match="divisible"):
        SharedEncoder(np.random.default_rng(0), 4, 7, (3, 5), "relu")


def test_task_stack_shapes():
    rng = np.random.default_rng(3)
    stack = TaskStack(rng, d_in=8, d_out=6, depth=2, nonlinearity="relu",
                      name="task.x")
    out = stack(T.constant(rng.normal(size=(5, 8)).astype(np.float32)))
    assert out.shape == (5, 6)
    assert len(list(stack.named())) == 4  # two kernels, two biases


def test_attention_uniform_for_constant_rows():
    rng = np.random.default_rng(4)
    head = AttentionHead(rng, d=6, classes=3, name="doc.x")
    h = T.constant(np.tile(np.arange(6, dtype=np.float32), (2, 4, 1)))
    a, doc, logits = head(h)
    np.testing.assert_allclose(a.data, np.full((2, 4), 0.25), atol=1e-6)
    np.testing.assert_allclose(doc.data, h.data[:, 0], atol=1e-5)
    assert logits.shape == (2, 3)


def test_attention_weighted_sum_matches_bruteforce():
    rng = np.random.default_rng(6)
    with T.use_dtype(np.float64):
        head = AttentionHead(rng, d=5, classes=3, name="doc.x")
        h = T.constant(rng.normal(size=(3, 6, 5)))
        a, doc, _ = head(h)
    for g in range(3):
        expected = sum(a.data[g, i] * h.data[g, i] for i in range(6))
        np.testing.assert_allclose(doc.data[g], expected, atol=1e-12)
    np.testing.assert_allclose(a.data.sum(axis=1), np.ones(3), atol=1e-6)


def test_decoder_zero_weights_uniform_rows():
    rng = np.random.default_rng(9)
    dec = TokenDecoder(rng, d=6, classes=3, name="dec.x")
    dec.map.w.data[:] = 0.0
    dec.map.b.data[:] = 0.0
    _logits, probs = dec(T.constant(rng.normal(size=(4, 6)).astype(np.float32)))
    np.testing.assert_allclose(probs.data, 1.0 / 3, atol=1e-7)


def test_decoder_rows_sum_to_one_and_argmax_shift_invariant():
    rng = np.random.default_rng(10)
    dec = TokenDecoder(rng, d=6, classes=3, name="dec.x")
    h = T.constant(rng.normal(size=(5, 6)).astype(np.float32))
    logits, probs = dec(h)
    np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(5), atol=1e-6)
    shifted = T.softmax(T.add(logits, T.constant(np.full((5, 1), 7.5,
                                                         dtype=np.float32))),
                        axis=1)
    np.testing.assert_array_equal(probs.data.argmax(axis=1),
                                  shifted.data.argmax(axis=1))


def test_shared_encoder_accumulates_gradients_from_all_task_losses():
    # one backward through a multi-head loss equals the sum of single-loss
    # gradients on the shared parameters
    import sys
    sys.path.insert(0, "tests")
    from fixtures import build_tiny_model
    from ktabsa.training import aspect_loss, document_loss

    model, sent, doc = build_tiny_model()
    kernel = model.encoder.banks[0].kernel

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
        return aspect_loss(states, [sent], model.config)

    def ld():
        return document_loss(model.forward_document([doc]), [doc],
                             model.config)

    g_aspect = grad_for(la)
    g_doc = grad_for(ld)
    g_joint = grad_for(lambda: T.add(la(), ld()))
    assert g_aspect.any() and g_doc.any()
    np.testing.assert_allclose(g_joint, g_aspect + g_doc, rtol=1e-4,
                               atol=1e-6)
