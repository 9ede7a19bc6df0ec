import dataclasses
import json
import os
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ktabsa import model as M
from ktabsa import routing
from ktabsa import tensor as T
from ktabsa.cli import main
from ktabsa.data import (DEFAULT_SCHEMES, Sentence, assign_embedding_ids,
                         corpus_words, load_aspect_corpus, random_embeddings)
from ktabsa.layers import Params
from ktabsa.model import (ABLATIONS, AbsaModel, CheckpointError, ModelConfig,
                          apply_ablation, majority_sentiment)
from ktabsa.synth import SynthSpec, write_synthetic
from ktabsa.training import Schedule, aspect_loss, batch_aspect_loss, fit

from fixtures import (build_tiny_model, build_tiny_model_f64,
                      chain_adjacency, edit_header, random_model,
                      random_sentence, tiny_config, with_header)
from helpers import (assert_grads_close, assert_views_of_blocks,
                     failing_disk, gradcheck, mutants, param_shapes,
                     per_task_forward, step_grads, tape_grads, worst)


def clone_states(states):
    return [st.probs.data.copy() for st in states]


# ---------------------------------------------------------------------------
# forward structure


def test_forward_returns_t_plus_one_states():
    model, sent, _ = build_tiny_model(tiny_config(iterations=3))
    states, _ = model.forward([sent])
    assert len(states) == 4
    assert [s.t for s in states] == [0, 1, 2, 3]


def test_forward_probability_rows_are_distributions():
    model, sent, _ = build_tiny_model()
    states, _ = model.forward([sent])
    for st in states:
        np.testing.assert_allclose(st.probs.data.sum(axis=-1),
                                   np.ones((3, sent.n)), atol=1e-6)
    # the document signals of two sentences of 4 and 2 tokens: a label
    # distribution per sentence, repeated at each of its tokens, and
    # attention weights that sum to one over each sentence's tokens
    other = random_sentence(np.random.default_rng(3), 2)
    assign_embedding_ids([other], model.general_table, model.domain_table)
    _state, doc = model.initial_state([sent, other], None)
    assert set(doc) == {"ddc.attn", "dsc.probs", "dsc.attn"}
    signal = {name: x.data[i] for name, (x, i) in doc.items()}
    probs = signal["dsc.probs"]
    assert probs.shape == (6, 3)
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(6), atol=1e-6)
    assert (probs[:4] == probs[0]).all() and (probs[4:] == probs[4]).all()
    for name in ("ddc.attn", "dsc.attn"):
        assert signal[name].shape == (6, 1)
        np.testing.assert_allclose([signal[name][:4].sum(),
                                    signal[name][4:].sum()], 1.0, atol=1e-6)


def test_full_ablation_t1_equals_iteration_zero_decode():
    cfg = tiny_config(iterations=1, transfers=(), inject_ddc=False,
                      inject_dsc=False)
    model, sent, _ = build_tiny_model(cfg)
    states, _ = model.forward([sent])
    np.testing.assert_array_equal(states[0].probs.data, states[1].probs.data)
    # parameter-for-parameter: no routing, fusion, or projection tensors
    assert not any(n.startswith(("route.", "fuse."))
                   for n in model.named_parameters())


def test_t2_equals_composing_transfer_and_aggregate_twice():
    model, sent, _ = build_tiny_model(tiny_config(iterations=2))
    states, _ = model.forward([sent])
    s0, doc = model.initial_state([sent], None)
    plan = model.route_plan([sent])
    s1 = model.transfer_and_aggregate(s0, doc, plan, None)
    s2 = model.transfer_and_aggregate(s1, doc, plan, None)
    np.testing.assert_array_equal(states[1].probs.data, s1.probs.data)
    np.testing.assert_array_equal(states[2].probs.data, s2.probs.data)


def test_zeroed_fusion_weights_freeze_hiddens_across_iterations():
    model, sent, _ = build_tiny_model(tiny_config(iterations=3))
    for name, t in model.named_parameters().items():
        if name.startswith("fuse.") and ".out." in name:
            t.data[:] = 0.0
    states, _ = model.forward([sent])
    np.testing.assert_array_equal(states[1].hidden.data,
                                  states[2].hidden.data)
    np.testing.assert_array_equal(states[2].hidden.data,
                                  states[3].hidden.data)


def test_eval_forward_deterministic_bitwise():
    model, sent, _ = build_tiny_model()
    a, _ = model.forward([sent])
    b, _ = model.forward([sent])
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.probs.data, sb.probs.data)


# ---------------------------------------------------------------------------
# ablations


def test_opinion_transfer_ablation_removes_source_routing_tensors():
    cfg = apply_ablation(tiny_config(), "opinion-transfer")
    assert "ote->ate" not in cfg.transfers and "ote->asc" not in cfg.transfers
    model, _, _ = build_tiny_model(cfg)
    names = list(model.named_parameters())
    assert not any("route.ote_to" in n for n in names)
    assert any("route.ate_to_asc" in n for n in names)
    # both targets lost one routed source: projection widths shrink
    full_model, _, _ = build_tiny_model(tiny_config())
    full = param_shapes(full_model)
    cut = param_shapes(model)
    d_route = cfg.d_route
    assert cut["fuse.ate.proj.w"][0] == full["fuse.ate.proj.w"][0] - d_route
    assert cut["fuse.asc.proj.w"][0] == full["fuse.asc.proj.w"][0] - d_route


def test_ddc_ablation_shrinks_fusion_inputs():
    cfg = apply_ablation(tiny_config(), "ddc-transfer")
    model, _, _ = build_tiny_model(cfg)
    full_model, _, _ = build_tiny_model(tiny_config())
    full = param_shapes(full_model)
    cut = param_shapes(model)
    assert cut["fuse.ate.out.w"][0] == full["fuse.ate.out.w"][0] - 1
    assert cut["fuse.ote.out.w"][0] == full["fuse.ote.out.w"][0] - 1
    assert cut["fuse.asc.out.w"] == full["fuse.asc.out.w"]


def test_coarse_adds_exactly_the_merged_injection_widths():
    base_model, _, _ = build_tiny_model(tiny_config())
    coarse_model, _, _ = build_tiny_model(apply_ablation(tiny_config(),
                                                         "coarse"))
    base = param_shapes(base_model)
    coarse = param_shapes(coarse_model)
    assert set(base) == set(coarse)
    c_dsc = len(DEFAULT_SCHEMES.dsc_labels)
    for target, extra in (("ate", c_dsc + 1), ("ote", c_dsc + 1), ("asc", 1)):
        assert (coarse[f"fuse.{target}.out.w"][0]
                == base[f"fuse.{target}.out.w"][0] + extra)
    base_count = sum(int(np.prod(s)) for s in base.values())
    coarse_count = sum(int(np.prod(s)) for s in coarse.values())
    d_task = tiny_config().d_task
    assert coarse_count - base_count == (2 * (c_dsc + 1) + 1) * d_task


# fuse.<target>.out input width per (inject_ddc, inject_dsc, coarse) for
# tiny_config: d_task 8 + 3 tag distributions of 3 classes = 17, plus 1 per
# attention weight and 3 for the document sentiment distribution
FUSE_WIDTHS = {
    (False, False, False): {"ate": 17, "ote": 17, "asc": 17},
    (True, False, False): {"ate": 18, "ote": 18, "asc": 17},
    (False, True, False): {"ate": 17, "ote": 17, "asc": 21},
    (True, True, False): {"ate": 18, "ote": 18, "asc": 21},
    (False, False, True): {"ate": 21, "ote": 21, "asc": 18},
    (True, False, True): {"ate": 22, "ote": 22, "asc": 18},
    (False, True, True): {"ate": 21, "ote": 21, "asc": 22},
    (True, True, True): {"ate": 22, "ote": 22, "asc": 22},
}


@pytest.mark.parametrize("flags", sorted(FUSE_WIDTHS))
def test_fuse_widths_follow_the_document_wiring(flags):
    inject_ddc, inject_dsc, coarse = flags
    cfg = tiny_config(inject_ddc=inject_ddc, inject_dsc=inject_dsc,
                      coarse=coarse)
    shapes = param_shapes(build_tiny_model(cfg)[0])
    assert {t: shapes[f"fuse.{t}.out.w"][0] for t in ("ate", "ote", "asc")
            } == FUSE_WIDTHS[flags]
    if flags == (True, True, True):
        assert cfg.doc_inputs("ate") == ("ddc.attn", "dsc.probs", "dsc.attn")
        assert cfg.doc_inputs("asc") == ("dsc.probs", "dsc.attn", "ddc.attn")


def test_document_signals_add_no_tape_node_to_a_round():
    """A forward builds its document signals once, whatever the number of
    rounds: a round records as many tape nodes with document injection as
    without it."""
    def round_nodes(**overrides):
        counts = []
        for iterations in (2, 3):
            model, sent, _ = build_tiny_model(
                tiny_config(iterations=iterations, **overrides))
            tape = T.Tape()
            with T.record(tape):
                model.forward([sent])
            counts.append(len(tape))
        return counts[1] - counts[0]

    bare = round_nodes(inject_ddc=False, inject_dsc=False)
    assert round_nodes() == bare
    assert round_nodes(coarse=True) == bare


def test_unknown_ablation_rejected():
    with pytest.raises(T.ConfigError, match="opinion-transfer"):
        apply_ablation(tiny_config(), "bogus")


# ---------------------------------------------------------------------------
# discriminate injection


def grad_of_loss_wrt(model, build_loss, param):
    tape = T.Tape()
    with T.record(tape):
        loss = build_loss()
    for p in model.named_parameters().values():
        p.zero_grad()
    tape.backward(loss)
    return param.grad


def test_sentiment_loss_blind_to_domain_attention_head():
    # with routing off and T=1, the only cross paths are the two injections
    cfg = tiny_config(iterations=1, transfers=())
    model, sent, _ = build_tiny_model(cfg)
    w = ModelConfig(lambda_ate=0, lambda_ote=0, lambda_asc=1)

    def l_asc():
        states, _ = model.forward([sent])
        return aspect_loss(states, [sent], w, 1.0)

    attn = model.params.tensors
    g = grad_of_loss_wrt(model, l_asc, attn["doc.ddc.attn.w"])
    assert g is None or not g.any()
    g_dsc = grad_of_loss_wrt(model, l_asc, attn["doc.dsc.attn.w"])
    assert g_dsc is not None and g_dsc.any()


def test_extraction_loss_blind_to_sentiment_attention_head():
    cfg = tiny_config(iterations=1, transfers=())
    model, sent, _ = build_tiny_model(cfg)
    w = ModelConfig(lambda_ate=1, lambda_ote=1, lambda_asc=0)

    def l_ext():
        states, _ = model.forward([sent])
        return aspect_loss(states, [sent], w, 1.0)

    attn = model.params.tensors
    g = grad_of_loss_wrt(model, l_ext, attn["doc.dsc.attn.w"])
    assert g is None or not g.any()
    g_ddc = grad_of_loss_wrt(model, l_ext, attn["doc.ddc.attn.w"])
    assert g_ddc is not None and g_ddc.any()


def test_doc_signal_sensitivity_routes_to_the_right_tasks():
    # perturbing the ddc attention weight moves h_ate(t+1) but not h_asc(t+1)
    cfg = tiny_config(iterations=1, transfers=())
    model, sent, _ = build_tiny_model(cfg)
    states, _ = model.forward([sent])
    base_ate = states[1].hidden.data[0].copy()
    base_asc = states[1].hidden.data[2].copy()
    attn = model.params.tensors
    attn["doc.ddc.attn.w"].data[...] += 0.5
    states2, _ = model.forward([sent])
    assert not np.array_equal(states2[1].hidden.data[0], base_ate)
    np.testing.assert_array_equal(states2[1].hidden.data[2], base_asc)

    attn["doc.ddc.attn.w"].data[...] -= 0.5
    attn["doc.dsc.attn.w"].data[...] += 0.5
    states3, _ = model.forward([sent])
    np.testing.assert_array_equal(states3[1].hidden.data[0], base_ate)
    assert not np.array_equal(states3[1].hidden.data[2], base_asc)


def test_task_stack_parameter_disjointness():
    model, sent, _ = build_tiny_model()
    states, _ = model.forward([sent])
    base_ote = states[0].hidden.data[1].copy()
    for name, t in model.named_parameters().items():
        if name.startswith("task.ate."):
            t.data += 0.7
    states2, _ = model.forward([sent])
    np.testing.assert_array_equal(states2[0].hidden.data[1], base_ote)


# ---------------------------------------------------------------------------
# prediction


def test_predict_all_outside():
    model, sent, _ = build_tiny_model()
    P = model.params.tensors
    P["dec.ate.w"].data[:] = 0.0
    P["dec.ate.b"].data[:] = [0.0, 0.0, 10.0]  # force O
    P["dec.ote.w"].data[:] = 0.0
    P["dec.ote.b"].data[:] = [0.0, 0.0, 10.0]
    cfg = dataclasses.replace(model.config, iterations=1, transfers=(),
                              inject_ddc=False, inject_dsc=False)
    frozen = AbsaModel(cfg, model.schemes, model.general_table,
                       model.domain_table)
    for name, t in frozen.named_parameters().items():
        t.data[...] = model.named_parameters()[name].data
    pred = frozen.predict(sent)
    assert pred.ate_spans == () and pred.ote_spans == () and pred.pairs == ()


def test_predict_sentence_longer_than_max_len():
    model, _, _ = build_tiny_model()
    words = ("the", "battery", "is", "great", "okay")
    n = 20
    sent = Sentence(tuple(words[i % 5] for i in range(n)), (2,) * n,
                    (2,) * n, (None,) * n, chain_adjacency(n))
    pred = model.predict(sent)
    assert pred.tokens == sent.tokens
    assert all(0 <= s < e <= n for s, e in pred.ate_spans + pred.ote_spans)


def test_majority_sentiment_vote_and_ties():
    assert majority_sentiment([0, 1, 0]) == 0
    assert majority_sentiment([1, 1, 0]) == 1
    # enumerate all 27 label triples against a brute-force oracle
    from collections import Counter
    for a in range(3):
        for b in range(3):
            for c in range(3):
                labels = [a, b, c]
                got = majority_sentiment(labels)
                counts = Counter(labels)
                top = max(counts.values())
                tied = {k for k, v in counts.items() if v == top}
                assert got in tied
                expected = next(l for l in labels if l in tied)
                assert got == expected


def test_predict_pairs_majority():
    model, sent, _ = build_tiny_model()
    pred = model.predict(sent)
    for (s, e), lab in pred.pairs:
        assert 0 <= s < e <= sent.n
        assert 0 <= lab < 3


def test_predict_assembles_spans_and_majority_sentiment(monkeypatch):
    model, sent, _ = build_tiny_model()
    from types import SimpleNamespace

    import ktabsa.tensor as KT

    def fake_forward(sentences, keep=None, keep_trace=False):
        def rows(tags):
            return np.eye(3, dtype=np.float32)[tags] * 9.0
        probs = KT.constant(np.stack([
            rows([0, 1, 2, 2]),     # ate: BA IA O O -> span (0, 2)
            rows([2, 2, 0, 2]),     # ote: one opinion span at token 2
            rows([0, 0, 1, 2])]))   # asc: pos, pos inside the span
        state = SimpleNamespace(probs=probs)
        return [state], []

    monkeypatch.setattr(model, "forward", fake_forward)
    pred = model.predict(sent)
    assert pred.ate_spans == ((0, 2),)
    assert pred.ote_spans == ((2, 3),)
    assert pred.pairs == (((0, 2), 0),)


def synthetic_test_corpus(tmp_path):
    """The synthetic test split and an untrained tiny model whose
    embeddings cover its words; the sentences carry no ids yet."""
    paths = write_synthetic(str(tmp_path), SynthSpec(train_sentences=4,
                                                     test_sentences=40))
    sentences = load_aspect_corpus(paths["test"])
    return random_model(tiny_config(), corpus_words(sentences),
                        np.random.default_rng(12)), sentences


def mixed_length_corpus(model, rng):
    """Lengths 3, 5, 64 and 128 interleaved; the six 128-token sentences
    fill one chunk of four and one of two at the default budget."""
    lengths = [3, 128, 5, 64, 128, 3, 128, 64, 5, 128, 3, 128, 128]
    sentences = [random_sentence(rng, n) for n in lengths]
    assign_embedding_ids(sentences, model.general_table, model.domain_table)
    return sentences


def final_probs(model, mp):
    """Record the final-round probabilities of every sentence that a
    ``model.forward`` call runs, keyed by the sentence's id."""
    probs = {}
    real = model.forward

    def recording(sentences, *args, **kwargs):
        states, traces = real(sentences, *args, **kwargs)
        start = 0
        for sent in sentences:
            probs[id(sent)] = states[-1].probs.data[:, start:start + sent.n]
            start += sent.n
        return states, traces

    mp.setattr(model, "forward", recording)
    return probs


@pytest.mark.parametrize("corpus", ["synthetic", "mixed"])
def test_predict_many_equals_per_sentence_predict(corpus, tmp_path,
                                                  monkeypatch):
    if corpus == "synthetic":
        model, sentences = synthetic_test_corpus(tmp_path)
    else:
        model, _, _ = build_tiny_model()
        sentences = mixed_length_corpus(model, np.random.default_rng(31))
    with monkeypatch.context() as mp:
        grouped_probs = final_probs(model, mp)
        grouped = model.predict_many(sentences)
    with monkeypatch.context() as mp:
        single_probs = final_probs(model, mp)
        single = [model.predict(s) for s in sentences]
    assert grouped == single
    assert [p.tokens for p in grouped] == [s.tokens for s in sentences]
    for s in sentences:
        np.testing.assert_allclose(grouped_probs[id(s)], single_probs[id(s)],
                                   rtol=0, atol=1e-6)


def test_predict_many_runs_one_forward_per_length_chunk(monkeypatch):
    # longest first, four sentences of 128 tokens fill the 2^16 couplings
    # of a chunk, the other two share the next with those of 64, 5 and 3
    # tokens; a budget of one coupling runs every sentence alone, in the
    # same sorted order
    model, _, _ = build_tiny_model()
    sentences = mixed_length_corpus(model, np.random.default_rng(32))
    with monkeypatch.context() as mp:
        calls = counted(mp, model, "forward")
        grouped = model.predict_many(sentences)
    lengths = [[s.n for s in c[0]] for c in calls]
    assert lengths == [[128] * 4, [128, 128, 64, 64, 5, 5, 3, 3, 3]]
    with monkeypatch.context() as mp:
        mp.setattr(routing, "COUPLING_BUDGET", 1)
        calls = counted(mp, model, "forward")
        alone = model.predict_many(sentences)
    assert [c[0] for c in calls] == [[sentences[i]] for i in sorted(
        range(len(sentences)), key=lambda i: -sentences[i].n)]
    assert alone == grouped


# ---------------------------------------------------------------------------
# routing a round's directions in blocks


def counted(mp, module, name):
    """Replace ``module.name`` with a wrapper that records each call's
    positional arguments in the returned list."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    mp.setattr(module, name, wrapper)
    return calls


def assert_same_states(a, b, rtol=0.0):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.t == sb.t
        for part in ("hidden", "logits", "probs"):
            np.testing.assert_allclose(getattr(sa, part).data,
                                       getattr(sb, part).data, rtol=rtol,
                                       atol=rtol, err_msg=part)


def assert_same_traces(a, b, rtol=0.0):
    assert [(tr.round, tr.direction) for tr in a] == [
        (tr.round, tr.direction) for tr in b]
    for ta, tb in zip(a, b):
        assert len(ta.states) == len(tb.states)
        for sa, sb in zip(ta.states, tb.states):
            for field in ("c", "s", "v"):
                np.testing.assert_allclose(getattr(sa, field),
                                           getattr(sb, field), rtol=rtol,
                                           atol=rtol)


@pytest.mark.parametrize("variant", ["default", "no-transfers",
                                     *sorted(ABLATIONS)])
def test_forward_matches_per_direction_reference(variant, monkeypatch):
    # float64, a mixed-length batch with dropout, lengths 1, 4 and 7 (1 is
    # shorter than the kernel): carrying it as one ragged chunk, the tasks
    # and a round's directions as stacked axes, in grouped ops and blocked
    # route calls, gives the states, traces and parameter gradients of the
    # per-task oracle of each length group within float64 rounding
    cfg = tiny_config(dropout=0.2)
    if variant == "no-transfers":
        cfg = dataclasses.replace(cfg, transfers=())
    elif variant != "default":
        cfg = apply_ablation(cfg, variant)
    model, _, _ = build_tiny_model_f64(cfg)
    rng = np.random.default_rng(21)
    batch = [random_sentence(rng, n) for n in (4, 7, 4, 1, 7, 4)]
    assign_embedding_ids(batch, model.general_table, model.domain_table)
    stacked = model.forward

    def run(forward):
        outputs = []

        def traced(group, keep=None):
            states, traces = forward(group, keep, keep_trace=True)
            outputs.append((states, traces))
            return states, traces

        with monkeypatch.context() as mp:
            mp.setattr(model, "forward", traced)
            loss, grads = step_grads(model, lambda: batch_aspect_loss(
                model, batch, np.random.default_rng(5)))
        return loss, grads, outputs

    loss, grads, outputs = run(stacked)
    ref_loss, ref_grads, ref_outputs = run(
        lambda group, keep, keep_trace: per_task_forward(
            model, group, keep, keep_trace))
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert_grads_close(grads, ref_grads, atol=1e-12)
    assert len(outputs) == len(ref_outputs) == 1    # one chunk
    for (states, traces), (ref_states, ref_traces) in zip(outputs,
                                                          ref_outputs):
        assert_same_states(states, ref_states, rtol=1e-12)
        assert_same_traces(traces, ref_traces, rtol=1e-12)
        assert len(traces) == (len(cfg.transfers) * cfg.iterations
                               * len(batch))


def test_any_block_size_gives_identical_values_gradients_and_traces(
        monkeypatch):
    # a group of 2 sentences of length 5 has 50 couplings per direction:
    # budgets of 50, 100 and 300 route the six directions of a round in
    # blocks of 1, 2 and 6. States and traces agree bit for bit. Each block
    # pushes its own gradient into the hidden stack, so the gradients sum
    # in another order: they agree within 1e-6 of the largest, a bound that
    # still catches one route call whose p gradient is off by 0.1%
    model, _, _ = build_tiny_model()
    rng = np.random.default_rng(22)
    group = [random_sentence(rng, 5) for _ in range(2)]
    assign_embedding_ids(group, model.general_table, model.domain_table)

    def scaled_grad(x, k):
        out = T.Tensor(x.data, requires_grad=x.requires_grad)
        return T._emit(out, lambda g, push: push(x, g * k))

    def run(size, fault=False):
        with monkeypatch.context() as mp:
            mp.setattr(routing, "COUPLING_BUDGET", 50 * size)
            calls = counted(mp, M, "route")
            if fault:       # the first route call's p gradient, scaled
                real = M.route
                mp.setattr(M, "route", lambda p, *rest: real(
                    p if calls else scaled_grad(p, 1.001), *rest))
            out = {}

            def build():
                out["states"], out["traces"] = model.forward(
                    group, keep_trace=True)
                return aspect_loss(out["states"], group, model.config, 1.0)

            _, grads = tape_grads(model, build)
        assert [c[0].shape[0] for c in calls] == [size] * (6 // size) * 2
        return out["states"], out["traces"], grads

    states, traces, grads = run(6)
    bound = 1e-6 * max(np.abs(g).max() for g in grads.values()
                       if g is not None)
    for size in (1, 2):
        got_states, got_traces, got_grads = run(size)
        assert_same_states(got_states, states)
        assert_same_traces(got_traces, traces)
        assert_grads_close(got_grads, grads, atol=bound)
    with pytest.raises(AssertionError):
        assert_grads_close(run(1, fault=True)[2], grads, atol=bound)


def test_each_route_call_follows_the_votes_of_its_own_block(monkeypatch):
    # a caller that times routes per direction books each route call to the
    # directions of the predict_vectors call before it, so each block's
    # votes come from their own call, its directions from the second
    # positional argument on
    model, _, _ = build_tiny_model()
    rng = np.random.default_rng(23)
    group = [random_sentence(rng, 5) for _ in range(2)]
    assign_embedding_ids(group, model.general_table, model.domain_table)
    for size in (1, 2, 6):
        with monkeypatch.context() as mp:
            mp.setattr(routing, "COUPLING_BUDGET", 50 * size)
            calls = []
            for name in ("predict_vectors", "route"):
                real = getattr(M, name)
                mp.setattr(M, name, lambda *a, real=real, name=name, **kw: (
                    calls.append((name, a)) or real(*a, **kw)))
            model.forward(group)
        blocks = [model.order[i:i + size] for i in range(0, 6, size)]
        assert [name for name, _ in calls] == (
            ["predict_vectors", "route"] * len(blocks) * 2)
        for (_, votes), (_, routed), block in zip(
                calls[::2], calls[1::2], blocks * 2):
            assert [d.name for d in votes[1:]] == [d.name for d in block]
            assert routed[0].shape[0] == len(block)


def test_traced_forward_equals_untraced():
    # a trace only views the states route returns anyway: with dropout on,
    # tracing changes no bit of the states, the loss or the gradients
    model, _, _ = build_tiny_model_f64(tiny_config(dropout=0.3))
    rng = np.random.default_rng(24)
    group = [random_sentence(rng, 6) for _ in range(3)]
    assign_embedding_ids(group, model.general_table, model.domain_table)
    keep = model.draw_dropout(group, np.random.default_rng(5))
    runs = []
    for keep_trace in (False, True):
        out = {}

        def build():
            out["states"], out["traces"] = model.forward(
                group, keep, keep_trace=keep_trace)
            return aspect_loss(out["states"], group, model.config, 1.0)

        loss, grads = tape_grads(model, build)
        runs.append((out["states"], out["traces"], loss, grads))
    (states, traces, loss, grads), (t_states, t_traces, t_loss, t_grads) = runs
    assert traces == [] and len(t_traces) == 6 * 2 * 3
    assert_same_states(states, t_states)
    assert loss == t_loss
    assert_grads_close(grads, t_grads)


# the structures the grouped forward must carry like the per-task oracle:
# tiny_config is depth 1 with one kernel width of 3
STRUCTURES = {
    "tiny": {},
    "depth-3": {"task_depth": 3},
    "two-widths-depth-2": {"kernel_widths": (3, 5), "task_depth": 2},
    "width-5": {"kernel_widths": (5,)},
    **{name: {"ablation": name} for name in sorted(ABLATIONS)},
}


@pytest.mark.parametrize("split", [False, True], ids=["one-block", "split"])
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_grouped_forward_matches_the_per_task_oracle(structure, split,
                                                     monkeypatch):
    # a chunk of sentences of 5, 5, 5, 2 and 1 tokens (2 and 1 shorter
    # than a width-5 kernel), with dropout, against the oracle of each
    # length group alone; "split" lowers the coupling budget to two
    # directions a route call for the group of 5 (75 couplings a
    # direction), so a round routes it in blocks. Values agree within
    # float32 rounding, and float64 gradients within float64 rounding
    spec = dict(STRUCTURES[structure])
    cfg = tiny_config(dropout=0.2, **{
        k: v for k, v in spec.items() if k != "ablation"})
    if "ablation" in spec:
        cfg = apply_ablation(cfg, spec["ablation"])
    if split:
        monkeypatch.setattr(routing, "COUPLING_BUDGET", 150)
    for build, rtol in ((build_tiny_model, 1e-5), (build_tiny_model_f64,
                                                   1e-10)):
        model, _, _ = build(cfg)
        rng = np.random.default_rng(26)
        group = [random_sentence(rng, n) for n in (5, 5, 5, 2, 1)]
        assign_embedding_ids(group, model.general_table, model.domain_table)
        keep = model.draw_dropout(group, np.random.default_rng(6))
        runs = []
        for forward in (model.forward, lambda *a, **k: per_task_forward(
                model, *a, **k)):
            out = {}

            def loss():
                out["states"], out["traces"] = forward(group, keep,
                                                       keep_trace=True)
                return aspect_loss(out["states"], group, model.config, 1.0)

            runs.append((out, *tape_grads(model, loss)))
        (got, loss, grads), (want, ref_loss, ref_grads) = runs
        assert_same_states(got["states"], want["states"], rtol=rtol)
        assert_same_traces(got["traces"], want["traces"], rtol=rtol)
        assert loss == pytest.approx(ref_loss, rel=rtol)
        if build is build_tiny_model_f64:
            assert_grads_close(grads, ref_grads, atol=1e-10)


# sys.setprofile "call" events of one warm predict of the tiny sentence on
# the tiny model (numpy 2.4, Python 3.11), with only computing nodes on the
# tape: 1,298 when every task ran as a chain of its own
PREDICT_CALLS = 415


def test_predict_call_budget():
    # within 3% of the count, which numpy's Python-level helpers can shift
    model, sent, _ = build_tiny_model()
    model.predict(sent)     # the encodings and numpy's lazy set-up
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        model.predict(sent)
    finally:
        sys.setprofile(None)
    assert calls <= 1.03 * PREDICT_CALLS, calls


def test_default_forward_tape_nodes():
    # the tape nodes of one default-config forward (144 when every task ran
    # alone): 2 embedding lookups, their concat, 2 encoder convolutions,
    # their concat and nonlinearity, 2 task stack layers of 2 nodes, the
    # head's 4 nodes (attention logits, softmax, pooling, classifier) and
    # the sentiment distribution's softmax and row gather, 2 selects, the
    # decoder's 2; then per round 1 vote matmul, 1 route, 1 projection, 1
    # fusion of 2 nodes and the decoder's 2, and the votes' q once. No node
    # only reshapes
    model, _, _ = build_tiny_model(ModelConfig())
    sent = random_sentence(np.random.default_rng(0), 12)
    assign_embedding_ids([sent], model.general_table, model.domain_table)
    tape = T.Tape()
    with T.record(tape):
        model.forward([sent])
    assert len(tape) == 36


@pytest.mark.parametrize("g, n, per_round", [(4, 8, 1), (8, 128, 6)])
def test_route_calls_per_round(g, n, per_round, monkeypatch):
    # the default budget stacks all six directions of a short group, and
    # none of a group whose couplings already exceed it
    model, _, _ = build_tiny_model(tiny_config(iterations=1))
    rng = np.random.default_rng(23)
    group = [random_sentence(rng, n) for _ in range(g)]
    assign_embedding_ids(group, model.general_table, model.domain_table)
    calls = counted(monkeypatch, M, "route")
    model.forward(group)
    assert len(calls) == per_round


def test_short_predicted_sentence_routes_twice(monkeypatch):
    # two rounds, one route call each; the votes take one grouped matmul of
    # all six directions per round for p, and one per forward for q
    model, sent, _ = build_tiny_model()
    routes = counted(monkeypatch, M, "route")
    matmuls = counted(monkeypatch, routing, "grouped_affine")
    model.predict(sent)
    assert len(routes) == 2
    assert [len(c[1].params) for c in matmuls] == [6] * 3


# ---------------------------------------------------------------------------
# parameter blocks


@pytest.mark.parametrize("ablation", [None, "aspect-transfer",
                                      "dsc-transfer"])
def test_parameter_families_stay_views_of_their_blocks(ablation, tmp_path):
    # after construction, training steps and a load; the fusions' and (in
    # the aspect-transfer ablation) the projections' narrower entries pad
    # with rows that training must leave exactly 0
    config = tiny_config()
    if ablation:
        config = apply_ablation(config, ablation)
    model, sent, doc = build_tiny_model(config)
    assert_views_of_blocks(model)
    fuse = model.fuse_blocks[0]
    assert any(p.shape[0] < fuse.data.shape[1] for p in fuse.params)
    before = fuse.data.copy()
    other = random_sentence(np.random.default_rng(6), 4)
    assign_embedding_ids([other], model.general_table, model.domain_table)
    result = fit(model, [sent, other], [], [doc], Schedule(
        epochs=2, pretrain_epochs=1, batch_size=2, lr=0.05, patience=0))
    assert np.isfinite(result.step_losses).all()
    assert not np.array_equal(fuse.data, before)
    assert_views_of_blocks(model)
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    loaded = AbsaModel.load(path)
    assert_views_of_blocks(loaded)
    for name, p in model.named_parameters().items():
        np.testing.assert_array_equal(loaded.named_parameters()[name].data,
                                      p.data)


def test_a_parameter_is_written_into_not_rebound():
    # rebinding would detach a member from its block, so it raises; an
    # in-place write, as Adam and gradcheck make, reaches the block
    model, _, _ = build_tiny_model()
    for p in (model.params.tensors["dec.ote.w"], model.emb_general):
        with pytest.raises(AttributeError, match="do not rebind"):
            p.data = p.data.copy()
    p = model.params.tensors["dec.ote.w"]
    p.data -= 1.0
    np.testing.assert_array_equal(model.decoders.w.data[1], p.data)
    assert_views_of_blocks(model)


# ---------------------------------------------------------------------------
# persistence


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model, sent, _ = build_tiny_model()
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    clone = AbsaModel.load(path)
    for name, t in model.named_parameters().items():
        np.testing.assert_array_equal(clone.named_parameters()[name].data, t.data)
    assign_embedding_ids([sent], clone.general_table, clone.domain_table)
    a = model.predict(sent)
    states_a, _ = model.forward([sent])
    states_b, _ = clone.forward([sent])
    for sa, sb in zip(states_a, states_b):
        np.testing.assert_array_equal(sa.probs.data, sb.probs.data)
    b = clone.predict(sent)
    assert a == b


def test_tables_index_the_live_embeddings(tmp_path):
    # a built and a loaded model hold each embedding matrix once, so the
    # loaded model's tables show the loaded values
    model, _, _ = build_tiny_model()
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    loaded = AbsaModel.load(path)
    for m in (model, loaded):
        assert np.shares_memory(m.general_table.matrix, m.emb_general.data)
        assert np.shares_memory(m.domain_table.matrix, m.emb_domain.data)
    np.testing.assert_array_equal(loaded.general_table.matrix,
                                  model.emb_general.data)
    np.testing.assert_array_equal(loaded.domain_table.matrix,
                                  model.emb_domain.data)


def test_checkpoint_version_mismatch(tmp_path):
    model, _, _ = build_tiny_model()
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    import json
    import struct
    raw = open(path, "rb").read()
    magic_len = 7
    (hlen,) = struct.unpack("<Q", raw[magic_len:magic_len + 8])
    header = json.loads(raw[magic_len + 8:magic_len + 8 + hlen])
    header["format_version"] = 99
    head = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(raw[:magic_len])
        f.write(struct.pack("<Q", len(head)))
        f.write(head)
        f.write(raw[magic_len + 8 + hlen:])
    with pytest.raises(CheckpointError, match="version"):
        AbsaModel.load(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        AbsaModel.load(str(path))


# ---------------------------------------------------------------------------
# end-to-end gradients (small version; the acceptance suite runs the full one)


def test_end_to_end_gradcheck_subset():
    from ktabsa.training import gradcheck_harness
    model, sent, _doc = gradcheck_harness()
    w = model.config

    def build_loss():
        states, _ = model.forward([sent])
        return aspect_loss(states, [sent], w, 1.0)

    params = model.named_parameters()
    subset = {k: v for k, v in params.items()
              if k in ("route.ote_to_asc.w", "fuse.asc.out.b", "dec.ate.b",
                       "doc.ddc.attn.w", "enc.w3.bias", "emb.general")}
    report = gradcheck(build_loss, subset)
    assert report.passed, [(e.name, e.max_rel_err) for e in report.failures]
    assert worst(report) < 1e-5  # comfortably inside the tolerance


def reachable_trainables(model) -> set[int]:
    """The ids of every requires_grad Tensor reachable from the model's
    attributes, walking through the layers and containers but not the
    registry."""
    found, seen, todo = set(), set(), [model]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, Params):
            continue
        seen.add(id(obj))
        if isinstance(obj, T.Tensor):
            if obj.requires_grad:
                found.add(id(obj))
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("ablation", [None, "coarse", "opinion-transfer"])
def test_parameter_inventory_is_complete_in_checkpoint_order(tmp_path,
                                                             ablation):
    cfg = tiny_config() if ablation is None else apply_ablation(
        tiny_config(), ablation)
    model, _, _ = build_tiny_model(cfg)
    params = model.named_parameters()
    assert all(t.name == name for name, t in params.items())
    assert {id(t) for t in params.values()} == reachable_trainables(model)
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    with open(path, "rb") as f:
        manifest = AbsaModel._read_header(f, path)["manifest"]
    assert [m["name"] for m in manifest] == list(params)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    model, _, _ = build_tiny_model()
    path = str(tmp_path_factory.mktemp("ckpt") / "m.ckpt")
    model.save(path)
    with open(path, "rb") as f:
        return model, f.read()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_truncated_checkpoint_raises_checkpoint_error(saved_checkpoint,
                                                      tmp_path, cut):
    _model, raw = saved_checkpoint
    path = str(tmp_path / "cut.ckpt")
    with open(path, "wb") as f:
        f.write(raw[:int(cut * len(raw))])
    with pytest.raises(CheckpointError):
        AbsaModel.load(path)


def test_checkpoint_payload_must_tile_exactly(saved_checkpoint, tmp_path):
    _model, raw = saved_checkpoint
    path = tmp_path / "m.ckpt"
    path.write_bytes(raw + b"\0\0\0\0")
    with pytest.raises(CheckpointError, match="longer than its manifest"):
        AbsaModel.load(str(path))
    (hlen,) = struct.unpack("<Q", raw[7:15])
    header = json.loads(raw[15:15 + hlen])
    header["manifest"][1]["offset"] += 4   # a gap, then an overlap
    path.write_bytes(with_header(raw, json.dumps(header).encode()))
    with pytest.raises(CheckpointError, match="manifest entry 1 is"):
        AbsaModel.load(str(path))
    for bad in (b"{not json", b"\xff\xfe"):
        path.write_bytes(with_header(raw, bad))
        with pytest.raises(CheckpointError, match="undecodable"):
            AbsaModel.load(str(path))


def _set(*keys_and_value):
    """A header edit that sets header[k1][k2]... = value."""
    *keys, value = keys_and_value

    def edit(header):
        node = header
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    return edit


def _drop(*keys):
    def edit(header):
        node = header
        for k in keys[:-1]:
            node = node[k]
        del node[keys[-1]]
    return edit


def _swap_first_manifest_entries(header):
    manifest = header["manifest"]
    manifest[0], manifest[1] = manifest[1], manifest[0]


DAMAGED_HEADERS = {
    "no config": _drop("config"),
    "no schemes": _drop("schemes"),
    "no general_vocab": _drop("general_vocab"),
    "no domain_vocab": _drop("domain_vocab"),
    "no general_dim": _drop("general_dim"),
    "no domain_dim": _drop("domain_dim"),
    "no manifest": _drop("manifest"),
    "config not an object": _set("config", [1, 2]),
    "vocab entry not a string": _set("general_vocab", 0, 7),
    "dim as string": _set("domain_dim", "4"),
    "dim not matching config": _set("domain_dim", 5),
    "offset as string": _set("manifest", 0, "offset", "0"),
    "offset as float": _set("manifest", 1, "offset", 1.5),
    "negative offset": _set("manifest", 1, "offset", -4),
    "shape as int": _set("manifest", 0, "shape", 5),
    "shape with string": _set("manifest", 0, "shape", ["a", 6]),
    "entry without name": _drop("manifest", 0, "name"),
    "unknown config key": _set("config", "bogus", 1),
    "missing config key": _drop("config", "d_enc"),
    "config value of wrong type": _set("config", "d_enc", "8"),
    "config bool as int": _set("config", "iterations", True),
    "transfers not a list": _set("config", "transfers", "ate->ote"),
    "config fails validate": _set("config", "iterations", 0),
    "retired pe_mode value": _set("config", "pe_mode", "off"),
    "retired train_embeddings value": _set("config", "train_embeddings",
                                           False),
    "unknown transfer direction": _set("config", "transfers", ["ate->ddc"]),
    "empty kernel widths": _set("config", "kernel_widths", []),
    "task stacks of depth 0": _set("config", "task_depth", 0),
    "d_enc not divisible by the widths": lambda h: h["config"].update(
        kernel_widths=[3, 5], d_enc=9),
    "schemes missing a key": _drop("schemes", "ate_tags"),
    "schemes of wrong type": _set("schemes", "ate_tags", 3),
    "reordered ate_tags": _set("schemes", "ate_tags", ["O", "BA", "IA"]),
    "non-string asc_tags entry": _set("schemes", "asc_tags",
                                      ["pos", 3, "neu"]),
    "extra schemes key": _set("schemes", "bogus", ["x"]),
    "manifest entries swapped": _swap_first_manifest_entries,
    "duplicate vocabulary word": _set("general_vocab", 1, "the"),
    # the tiny model's own dims as floats: equal as numbers, not as JSON
    "general_dim as float": _set("general_dim", 6.0),
    "domain_dim as float": _set("domain_dim", 4.0),
}


@pytest.mark.parametrize("damage", DAMAGED_HEADERS)
def test_damaged_header_raises_checkpoint_error(saved_checkpoint, tmp_path,
                                                damage):
    model, raw = saved_checkpoint
    path = tmp_path / "m.ckpt"
    path.write_bytes(edit_header(raw, DAMAGED_HEADERS[damage]))
    with pytest.raises(CheckpointError):
        AbsaModel.load(str(path))


def test_saved_header_is_the_models_header(saved_checkpoint, tmp_path):
    model, raw = saved_checkpoint
    path = tmp_path / "m.ckpt"
    path.write_bytes(raw)
    with open(path, "rb") as f:
        assert AbsaModel._read_header(f, str(path)) == model._header()


V1_CHECKPOINT = os.path.join(os.path.dirname(__file__), "data",
                             "tiny_v1.ckpt")


def test_format_1_checkpoint_keeps_loading(tmp_path):
    # build_tiny_model() as saved when format 1 was current; its bytes are
    # fixed, so a change to save or load that breaks old files shows here
    loaded = AbsaModel.load(V1_CHECKPOINT)
    fresh, _, _ = build_tiny_model()
    got, want = loaded.named_parameters(), fresh.named_parameters()
    assert list(got) == list(want)
    for name, t in want.items():
        assert got[name].data.dtype == t.data.dtype
        assert got[name].data.tobytes() == t.data.tobytes(), name
    path = tmp_path / "again.ckpt"
    loaded.save(str(path))
    with open(V1_CHECKPOINT, "rb") as f:
        assert path.read_bytes() == f.read()


def test_mutated_checkpoints_load_whole_or_raise_checkpoint_error(tmp_path):
    # a mutant either loads as a finite model whose families are views of
    # their blocks, or fails as CheckpointError, which eval exits 3 on
    with open(V1_CHECKPOINT, "rb") as f:
        raw = f.read()
    (hlen,) = struct.unpack("<Q", raw[7:15])
    path, rejected = tmp_path / "m.ckpt", []
    for blob in mutants(raw, 15 + hlen, 300, seed=19):
        path.write_bytes(blob)
        try:
            model = AbsaModel.load(str(path))
        except CheckpointError:
            rejected.append(blob)
            continue
        for name, p in model.named_parameters().items():
            assert np.isfinite(p.data).all(), name
        assert_views_of_blocks(model)
    assert 0 < len(rejected) < 300
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    for blob in rejected[::len(rejected) // 5][:5]:
        path.write_bytes(blob)
        assert main(["eval", "--checkpoint", str(path), "--corpus",
                     str(empty)]) == 3


def test_model_accepts_only_the_default_tag_schemes():
    general = random_embeddings(["a"], 6, np.random.default_rng(0))
    domain = random_embeddings(["a"], 4, np.random.default_rng(1))
    other = dataclasses.replace(DEFAULT_SCHEMES, ate_tags=("O", "BA", "IA"))
    with pytest.raises(T.ConfigError, match="default tag schemes"):
        AbsaModel(tiny_config(), other, general, domain)


def test_legacy_max_len_header_loads_bit_identical(saved_checkpoint,
                                                   tmp_path):
    # older checkpoints carry keys that held the one value still supported
    model, raw = saved_checkpoint
    path = tmp_path / "legacy.ckpt"

    def legacy_keys(header):
        header["config"].update(max_len=16, pe_mode="add-both",
                                train_embeddings=True)

    path.write_bytes(edit_header(raw, legacy_keys))
    legacy = AbsaModel.load(str(path))
    assert legacy.config == model.config
    for name, t in model.named_parameters().items():
        np.testing.assert_array_equal(legacy.named_parameters()[name].data,
                                      t.data)
    words = ("the", "battery", "is", "great", "okay")
    for n in (4, 20):
        sent = Sentence(tuple(words[i % 5] for i in range(n)), (2,) * n,
                        (2,) * n, (None,) * n, chain_adjacency(n))
        assign_embedding_ids([sent], model.general_table, model.domain_table)
        want, _ = model.forward([sent])
        got, _ = legacy.forward([sent])
        np.testing.assert_array_equal(got[-1].probs.data,
                                      want[-1].probs.data)
        assert legacy.predict(sent) == model.predict(sent)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path):
    model, _, _ = build_tiny_model()
    path = str(tmp_path / "best.ckpt")
    model.save(path)
    with open(path, "rb") as f:
        before = f.read()
    for t in model.named_parameters().values():
        t.data += 1.0
    with failing_disk(), pytest.raises(OSError, match="No space"):
        model.save(path)
    with open(path, "rb") as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["best.ckpt"]
    AbsaModel.load(path)
