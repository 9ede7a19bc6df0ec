"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The overfitting and
gradient-suite criteria train/check real models and take a couple of minutes
combined; everything else is fast.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from ktabsa import tensor as T
from ktabsa.config import load_config
from ktabsa.data import (DEFAULT_SCHEMES, CorpusError,
                         assign_embedding_ids, corpus_words,
                         load_aspect_corpus)
from ktabsa.metrics import asc_scores, evaluate, span_f1
from ktabsa.model import AbsaModel, ModelConfig, apply_ablation
from ktabsa.routing import positional_encoding, route, routing_prior, squash
from ktabsa.synth import SynthSpec, write_synthetic
from ktabsa.training import (GRADCHECK_STEP, GRADCHECK_TOL, Schedule,
                             aspect_loss, fit, gradcheck_harness)

from fixtures import build_tiny_model, random_model, tiny_config
from helpers import (corpus_stats, gradcheck, param_shapes, read_predictions,
                     squash_ref, worst)
from test_metrics import asc_oracle, micro_f1_oracle, random_instance


def ok(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[ACCEPTANCE] {name}: PASS{suffix}")


# ---------------------------------------------------------------------------


def test_gradient_suite_full_model():
    """End-to-end FD check: 4-token sentence, T=2, iter=2, 64-bit, step 1e-3,
    100% of parameters under 1e-3 relative error, within 60 s."""
    model, sentence, _doc = gradcheck_harness()
    assert sentence.n == 4
    assert model.config.iterations == model.config.route_iters == 2
    assert GRADCHECK_STEP == GRADCHECK_TOL == 1e-3
    def sentence_loss():
        states, _ = model.forward([sentence])
        return aspect_loss(states, [sentence], model.config, 1.0)

    params = model.named_parameters()
    t0 = time.time()
    report = gradcheck(sentence_loss, params)
    elapsed = time.time() - t0
    n_params = sum(p.size for p in params.values())
    assert report.passed, [(e.name, e.max_rel_err) for e in report.failures]
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    ok("gradient-suite",
       f"{n_params} parameters, worst rel err {worst(report):.2e}, "
       f"{elapsed:.1f}s")


def test_routing_invariants_thousand_instances():
    """1000 randomized routings: coupling rows sum to 1 +/- 1e-6, |v_j| < 1,
    and a line-by-line re-execution oracle agrees within 1e-6."""
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        iters = int(rng.integers(1, 5))
        d = int(rng.integers(2, 7))
        scale = rng.uniform(0.2, 2.5)
        p = rng.normal(size=(n, d)) * scale
        q = (np.zeros((n, d)) if rng.random() < 0.25
             else rng.normal(size=(n, d)) * scale)
        adjacency = (rng.random((n, n)) < 0.3).astype(np.float64)
        # the oracle runs on the materialized votes
        # u[i, j] = p[i] + q[i] + q[j]
        u = (p + q)[:, None, :] + q[None, :, :]

        with T.use_dtype(np.float64):
            v, trace = route(T.constant(p), T.constant(q),
                             routing_prior(adjacency, np.float64), iters)

        # independent step-by-step re-execution of the update rules
        b = np.zeros((n, n))
        for st in trace:
            b = b + adjacency
            e = np.exp(b - b.max(axis=1, keepdims=True))
            c = e / e.sum(axis=1, keepdims=True)
            s = np.einsum("ij,ijd->jd", c, u)
            v_ref = squash_ref(s)
            b = b + np.einsum("ijd,jd->ij", u, v_ref)

            np.testing.assert_allclose(st.c.sum(axis=1), np.ones(n),
                                       atol=1e-6)
            assert (np.linalg.norm(st.v, axis=1) < 1.0).all()
            gap = max(np.abs(st.c - c).max(), np.abs(st.v - v_ref).max())
            worst_gap = max(worst_gap, gap)
            assert gap < 1e-6
    ok("routing-invariants", f"1000 instances, worst oracle gap "
       f"{worst_gap:.2e}")


def test_closed_forms():
    """squash(unit) has norm 0.5 +/- 1e-6; positional row 0 is [0,1,0,1,...]
    exactly; uniform-logit cross-entropy equals ln 3 +/- 1e-6."""
    u = np.zeros(6)
    u[2] = 1.0
    norm = float(np.linalg.norm(squash(u)[0]))
    assert abs(norm - 0.5) < 1e-6

    table = positional_encoding(4, 10)
    np.testing.assert_array_equal(table[0], np.tile([0.0, 1.0], 5))

    ce = T.cross_entropy_rows(T.constant([[0.0, 0.0, 0.0]]), [0],
                              [1.0]).item()
    assert abs(ce - math.log(3)) < 1e-6
    ok("closed-forms", f"squash norm {norm:.8f}, CE {ce:.8f}")


def test_metric_oracles_two_hundred_sets():
    """All five metrics equal brute-force oracles exactly on 200 randomized
    prediction/gold sets; F1-I <= F1-a on every instance."""
    rng = np.random.default_rng(99)
    for _ in range(200):
        pred_pairs, gold_pairs = random_instance(rng)
        pred_spans = [[p for p, _ in pp] for pp in pred_pairs]
        gold_spans = [[g for g, _ in gp] for gp in gold_pairs]
        _, _, f1a, _ = span_f1(pred_spans, gold_spans)
        _, _, f1o, _ = span_f1(gold_spans, pred_spans)  # symmetric exercise
        _, _, f1i, _ = span_f1(pred_pairs, gold_pairs)
        acc, f1s, _, _ = asc_scores(pred_pairs, gold_pairs)
        oacc, of1s = asc_oracle(pred_pairs, gold_pairs)
        assert f1a == micro_f1_oracle(pred_spans, gold_spans)
        assert f1o == micro_f1_oracle(gold_spans, pred_spans)
        assert f1i == micro_f1_oracle(pred_pairs, gold_pairs)
        assert acc == oacc and f1s == of1s
        assert f1i <= f1a + 1e-15
    ok("metric-oracles", "200 randomized sets, exact agreement")


def _overfit_run(sentences, bundle, transfers_on: bool):
    """The model and schedule of the synthetic bundle's config, ``bundle``,
    with no document pretraining and a target accuracy of 0.95."""
    cfg = dataclasses.replace(bundle.model, seed=7)
    if not transfers_on:
        cfg = dataclasses.replace(cfg, transfers=(), inject_ddc=False,
                                  inject_dsc=False)
    model = random_model(cfg, corpus_words(sentences),
                         np.random.default_rng(3), sentences)
    schedule = dataclasses.replace(bundle.schedule, epochs=200,
                                   pretrain_epochs=0, patience=0,
                                   target_token_acc=0.95)
    return model, fit(model, sentences, [], [], schedule)


def test_overfitting_and_transfer_benefit(tmp_path):
    """The bundled 50-sentence synthetic corpus reaches >= 95% token accuracy
    on all three tasks within 200 epochs in under 5 CPU-minutes; with every
    transfer path disabled the epochs strictly increase or accuracy drops."""
    paths = write_synthetic(str(tmp_path / "synth"),
                            SynthSpec(train_sentences=50, seed=7))
    sentences = load_aspect_corpus(paths["train"])
    assert len(sentences) == 50
    bundle = load_config(paths["config"])

    t0 = time.time()
    model, full = _overfit_run(sentences, bundle, transfers_on=True)
    elapsed = time.time() - t0
    assert full.reached_target_epoch is not None, full.final_token_acc
    assert full.reached_target_epoch <= 200
    assert all(v >= 0.95 for v in full.final_token_acc.values())
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"

    # the overfit checkpoint evaluated on its own training set clears 0.95
    # on the span-level metrics too
    report = evaluate([model.predict(s) for s in sentences], sentences)
    for metric in ("f1_a", "f1_o", "acc_s", "f1_s", "f1_i"):
        assert getattr(report, metric) >= 0.95, (metric, report.as_dict())

    _, ablated = _overfit_run(sentences, bundle, transfers_on=False)
    if ablated.reached_target_epoch is not None:
        assert ablated.reached_target_epoch > full.reached_target_epoch
        detail_abl = f"ablated needs {ablated.reached_target_epoch} epochs"
    else:
        assert any(ablated.final_token_acc[t] < full.final_token_acc[t]
                   for t in ("ate", "ote", "asc"))
        detail_abl = (f"ablated stuck at asc="
                      f"{ablated.final_token_acc['asc']:.3f} after 200 epochs")
    ok("overfitting",
       f"full model: all tasks >= 95% at epoch "
       f"{full.reached_target_epoch} in {elapsed:.0f}s; {detail_abl}")


def _manifest_diff(a: dict, b: dict):
    missing = {n for n in a if n not in b}
    added = {n for n in b if n not in a}
    reshaped = {n for n in a if n in b and a[n] != b[n]}
    return missing, added, reshaped


def test_ablation_structure_and_discriminate_injection():
    """Each ablation flag changes the tensor manifest exactly as wired, and
    the document-knowledge injections stay discriminate under gradients."""
    base_cfg = tiny_config()
    base_model, sent, _ = build_tiny_model(base_cfg)
    base = param_shapes(base_model)
    d_route = base_cfg.d_route
    c_dsc = len(DEFAULT_SCHEMES.dsc_labels)

    expectations = {
        "aspect-transfer": ({"route.ate_to_ote.w", "route.ate_to_asc.w"},
                            set(), {"fuse.ote.proj.w", "fuse.asc.proj.w"}),
        "opinion-transfer": ({"route.ote_to_ate.w", "route.ote_to_asc.w"},
                             set(), {"fuse.ate.proj.w", "fuse.asc.proj.w"}),
        "sentiment-transfer": ({"route.asc_to_ate.w", "route.asc_to_ote.w"},
                               set(), {"fuse.ate.proj.w", "fuse.ote.proj.w"}),
        "ddc-transfer": (set(), set(), {"fuse.ate.out.w", "fuse.ote.out.w"}),
        "dsc-transfer": (set(), set(), {"fuse.asc.out.w"}),
        "coarse": (set(), set(),
                   {"fuse.ate.out.w", "fuse.ote.out.w", "fuse.asc.out.w"}),
    }
    for flag, (exp_missing, exp_added, exp_reshaped) in expectations.items():
        cfg = apply_ablation(base_cfg, flag)
        model, _, _ = build_tiny_model(cfg)
        cut = param_shapes(model)
        missing, added, reshaped = _manifest_diff(base, cut)
        assert missing == exp_missing, (flag, missing)
        assert added == exp_added, (flag, added)
        assert reshaped == exp_reshaped, (flag, reshaped)
    for flag in ("aspect-transfer", "opinion-transfer", "sentiment-transfer"):
        cut = param_shapes(build_tiny_model(apply_ablation(base_cfg,
                                                           flag))[0])
        for name in expectations[flag][2]:
            assert cut[name][0] == base[name][0] - d_route
    cut = param_shapes(build_tiny_model(apply_ablation(base_cfg,
                                                       "coarse"))[0])
    assert cut["fuse.ate.out.w"][0] == base["fuse.ate.out.w"][0] + c_dsc + 1
    assert cut["fuse.asc.out.w"][0] == base["fuse.asc.out.w"][0] + 1

    # discriminate injection: with routing off and a single aggregation
    # round, the sentiment loss cannot reach the domain head and the
    # extraction losses cannot reach the sentiment head
    cfg = tiny_config(iterations=1, transfers=())
    model, sent, _ = build_tiny_model(cfg)

    def loss_with(weights):
        states, _ = model.forward([sent])
        return aspect_loss(states, [sent], weights, 1.0)

    tape = T.Tape()
    with T.record(tape):
        loss = loss_with(ModelConfig(lambda_ate=0, lambda_ote=0,
                                     lambda_asc=1))
    tape.backward(loss)
    g = model.params.tensors["doc.ddc.attn.w"].grad
    assert g is None or not g.any()

    for p in model.named_parameters().values():
        p.zero_grad()
    tape = T.Tape()
    with T.record(tape):
        loss = loss_with(ModelConfig(lambda_ate=1, lambda_ote=1,
                                     lambda_asc=0))
    tape.backward(loss)
    g = model.params.tensors["doc.dsc.attn.w"].grad
    assert g is None or not g.any()
    ok("ablation-structure",
       "6 flags produce exact manifest diffs; injections stay discriminate")


def test_determinism_and_persistence(tmp_path):
    """Same seed gives a bit-identical loss trace; save->load->predict is
    bit-identical; the prediction file round-trip preserves every metric."""
    paths = write_synthetic(str(tmp_path / "synth"),
                            SynthSpec(train_sentences=12, test_sentences=6,
                                      documents=8, seed=11))
    from ktabsa.data import load_document_corpus

    def one_fit():
        sentences = load_aspect_corpus(paths["train"])
        documents = load_document_corpus(paths["documents"])
        model = random_model(tiny_config(), corpus_words(sentences, documents),
                             np.random.default_rng(1), sentences, documents)
        schedule = Schedule(epochs=2, pretrain_epochs=1, batch_size=8,
                            lr=1e-3, patience=0)
        result = fit(model, sentences, [], documents, schedule)
        return model, result

    model_a, res_a = one_fit()
    model_b, res_b = one_fit()
    assert res_a.step_losses == res_b.step_losses

    test_sentences = load_aspect_corpus(paths["test"])
    ckpt = str(tmp_path / "model.ckpt")
    model_a.save(ckpt)
    clone = AbsaModel.load(ckpt)
    assign_embedding_ids(test_sentences, model_a.general_table,
                         model_a.domain_table)
    preds_orig = [model_a.predict(s) for s in test_sentences]
    preds_clone = [clone.predict(s) for s in test_sentences]
    assert preds_orig == preds_clone

    from ktabsa.metrics import write_predictions
    report = evaluate(preds_orig, test_sentences)
    pred_path = str(tmp_path / "preds.jsonl")
    write_predictions(pred_path, preds_orig, DEFAULT_SCHEMES)
    report2 = evaluate(read_predictions(pred_path, DEFAULT_SCHEMES),
                       test_sentences)
    for f in ("f1_a", "f1_o", "acc_s", "f1_s", "f1_i"):
        assert getattr(report, f) == getattr(report2, f)
    ok("determinism-persistence",
       f"{len(res_a.step_losses)} identical steps; "
       f"{len(preds_orig)} identical predictions")


def test_data_validation_fuzz(tmp_path):
    """1000 fuzzed BIO sequences: the loader's accept/reject decision matches
    an independent validity oracle with zero misclassifications."""
    rng = np.random.default_rng(5)
    mismatches = 0
    for k in range(1000):
        n = int(rng.integers(1, 9))
        tags = rng.integers(0, 3, size=n).tolist()
        # independent oracle: inside requires a begin/inside predecessor
        valid = all(not (t == 1 and (i == 0 or tags[i - 1] == 2))
                    for i, t in enumerate(tags))
        fuzz_ate = k % 2 == 0
        names = ("BA", "IA", "O") if fuzz_ate else ("BP", "IP", "O")
        lines = []
        spans_open = False
        # sentiment column must follow the (lenient) aspect spans so that a
        # valid BIO sequence is rejected only for BIO reasons, never for
        # sentiment placement
        for i, t in enumerate(tags):
            if fuzz_ate:
                inside = tags[i] != 2
                asc = "pos" if inside else "_"
                lines.append(f"w{i}\t{names[t]}\tO\t{asc}")
            else:
                lines.append(f"w{i}\tO\t{names[t]}\t_")
        path = tmp_path / "fuzz.tsv"
        path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        try:
            load_aspect_corpus(str(path))
            accepted = True
        except CorpusError:
            accepted = False
        if accepted != valid:
            mismatches += 1
    assert mismatches == 0
    ok("data-validation", "1000 fuzzed sequences, 0 misclassifications")


def test_real_corpus_counts_if_supplied():
    """When the Restaurant14 training split is available, the loaded counts
    must match 3,044 sentences / 3,699 aspect terms / 3,484 opinion terms."""
    path = os.environ.get("KTABSA_D1_TRAIN", "")
    if not path or not os.path.exists(path):
        print("\n[ACCEPTANCE] real-corpus-counts: SKIP (set KTABSA_D1_TRAIN "
              "to the Restaurant14 train TSV to enable)")
        pytest.skip("real corpus not supplied (KTABSA_D1_TRAIN unset)")
    sentences = load_aspect_corpus(path)
    stats = corpus_stats(sentences)
    assert stats["sentences"] == 3044
    assert stats["aspect_terms"] == 3699
    assert stats["opinion_terms"] == 3484
    ok("real-corpus-counts", str(stats))
