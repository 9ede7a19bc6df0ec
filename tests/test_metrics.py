import os

import numpy as np
import pytest

from ktabsa.data import DEFAULT_SCHEMES, Sentence
from ktabsa.metrics import asc_scores, evaluate, span_f1, write_predictions
from ktabsa.model import Prediction

from helpers import failing_disk, read_predictions, tags_from_spans


# ---------------------------------------------------------------------------
# brute-force oracles


def micro_f1_oracle(pred_sets, gold_sets):
    tp = sum(len(set(p) & set(g)) for p, g in zip(pred_sets, gold_sets))
    np_ = sum(len(set(p)) for p in pred_sets)
    ng = sum(len(set(g)) for g in gold_sets)
    p = tp / np_ if np_ else 0.0
    r = tp / ng if ng else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def asc_oracle(pred_pairs, gold_pairs):
    rows = []
    for pp, gp in zip(pred_pairs, gold_pairs):
        gold = dict(gp)
        for span, lab in pp:
            if span in gold:
                rows.append((gold[span], lab))
    if not rows:
        return 0.0, 0.0
    acc = sum(g == p for g, p in rows) / len(rows)
    f1s = []
    for c in range(3):
        tp = sum(1 for g, p in rows if g == c and p == c)
        fp = sum(1 for g, p in rows if g != c and p == c)
        fn = sum(1 for g, p in rows if g == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return acc, sum(f1s) / 3


def random_span_set(rng, n):
    spans = []
    pos = 0
    while pos < n - 1:
        if rng.random() < 0.35:
            end = pos + int(rng.integers(1, 3))
            end = min(end, n)
            spans.append((pos, end))
            pos = end + 1
        else:
            pos += 1
    return spans


def random_instance(rng, sentences=8, n=12):
    gold_pairs, pred_pairs = [], []
    for _ in range(sentences):
        gold = [(s, int(rng.integers(3))) for s in random_span_set(rng, n)]
        pred = []
        for span, lab in gold:
            roll = rng.random()
            if roll < 0.5:
                pred.append((span, lab))                    # exact hit
            elif roll < 0.7:
                pred.append((span, int(rng.integers(3))))   # span hit
            elif roll < 0.85:
                s, e = span
                pred.append(((s, min(e + 1, n)), lab))      # shifted span
        for s in random_span_set(rng, n):
            if rng.random() < 0.2:
                pred.append((s, int(rng.integers(3))))      # hallucinated
        pred = list(dict.fromkeys(pred))
        gold_pairs.append(gold)
        pred_pairs.append(pred)
    return pred_pairs, gold_pairs


# ---------------------------------------------------------------------------
# hand-checked examples


def test_span_f1_perfect():
    _, _, f1, _ = span_f1([{(0, 1)}, {(2, 4)}], [{(0, 1)}, {(2, 4)}])
    assert f1 == 1.0


def test_span_f1_empty_pred_zero_convention():
    p, r, f1, _ = span_f1([set()], [{(0, 1)}])
    assert (p, r, f1) == (0.0, 0.0, 0.0)


def test_span_f1_hand_case():
    p, r, f1, _ = span_f1([{(0, 1), (3, 4)}], [{(0, 1)}])
    assert p == 0.5 and r == 1.0
    assert abs(f1 - 2 / 3) < 1e-12


def test_asc_scores_all_correct():
    acc, _, _, degenerate = asc_scores([[((0, 1), 2), ((2, 3), 0)]],
                                       [[((0, 1), 2), ((2, 3), 0)]])
    assert acc == 1.0 and not degenerate


def test_asc_scores_single_wrong():
    acc, _, _, _ = asc_scores([[((0, 1), 1)]], [[((0, 1), 2)]])
    assert acc == 0.0


def test_asc_scores_confusion_matrix_case():
    # matched spans, gold (pos, neg, pos), predicted (pos, pos, pos)
    gold = [[((0, 1), 0), ((2, 3), 1), ((4, 5), 0)]]
    pred = [[((0, 1), 0), ((2, 3), 0), ((4, 5), 0)]]
    acc, f1s, per_class, _ = asc_scores(pred, gold)
    assert abs(acc - 2 / 3) < 1e-12
    assert abs(per_class[0]["f1"] - 0.8) < 1e-12
    assert per_class[1]["f1"] == 0.0 and per_class[2]["f1"] == 0.0
    assert abs(f1s - 0.8 / 3) < 1e-12


def test_asc_scores_degenerate_flag():
    acc, f1s, _, degenerate = asc_scores([[((0, 1), 0)]], [[((5, 6), 1)]])
    assert degenerate and acc == 0.0 and f1s == 0.0


def test_pair_f1_examples():
    pairs = [[((0, 2), 1)]]
    assert span_f1(pairs, pairs)[2] == 1.0
    wrong = [[((0, 2), 0)]]
    assert span_f1(wrong, pairs)[2] == 0.0


# ---------------------------------------------------------------------------
# randomized oracle comparison


def test_metrics_match_bruteforce_oracles_on_random_sets():
    rng = np.random.default_rng(42)
    for _ in range(200):
        pred_pairs, gold_pairs = random_instance(rng)
        pred_spans = [[p for p, _ in pp] for pp in pred_pairs]
        gold_spans = [[g for g, _ in gp] for gp in gold_pairs]

        _, _, f1a, _ = span_f1(pred_spans, gold_spans)
        assert f1a == micro_f1_oracle(pred_spans, gold_spans)

        _, _, f1i, _ = span_f1(pred_pairs, gold_pairs)
        assert f1i == micro_f1_oracle(pred_pairs, gold_pairs)

        acc, f1s, _, _ = asc_scores(pred_pairs, gold_pairs)
        oacc, of1s = asc_oracle(pred_pairs, gold_pairs)
        assert acc == oacc and f1s == of1s

        assert f1i <= f1a + 1e-15


def test_metrics_invariant_under_reordering():
    rng = np.random.default_rng(7)
    pred_pairs, gold_pairs = random_instance(rng)
    perm = rng.permutation(len(pred_pairs))
    shuffled_pred = [list(reversed(pred_pairs[i])) for i in perm]
    shuffled_gold = [gold_pairs[i] for i in perm]
    assert (span_f1(pred_pairs, gold_pairs)[2]
            == span_f1(shuffled_pred, shuffled_gold)[2])


# ---------------------------------------------------------------------------
# evaluate + file round trip


def make_gold_sentence(n, ate_spans, asc_labels, ote_spans):
    ate = list(tags_from_spans(ate_spans, n))
    ote = list(tags_from_spans(ote_spans, n))
    asc = [None] * n
    for (s, e), lab in zip(ate_spans, asc_labels):
        for i in range(s, e):
            asc[i] = lab
    return Sentence(tuple(f"w{i}" for i in range(n)), tuple(ate), tuple(ote),
                    tuple(asc), np.eye(n, dtype=np.float32))


def test_evaluate_and_prediction_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    sentences, preds = [], []
    for _ in range(10):
        n = 9
        ate_spans = random_span_set(rng, n)
        ote_spans = random_span_set(rng, n)
        labels = [int(rng.integers(3)) for _ in ate_spans]
        sentences.append(make_gold_sentence(n, ate_spans, labels, ote_spans))
        pred_pairs, _ = random_instance(rng, sentences=1, n=n)
        pairs = tuple((tuple(span), lab) for span, lab in pred_pairs[0])
        preds.append(Prediction(sentences[-1].tokens,
                                tuple(p for p, _ in pairs),
                                tuple(tuple(s) for s in random_span_set(rng, n)),
                                pairs))
    report = evaluate(preds, sentences)
    assert report.f1_i <= report.f1_a + 1e-15

    path = str(tmp_path / "preds.jsonl")
    write_predictions(path, preds, DEFAULT_SCHEMES)
    back = read_predictions(path, DEFAULT_SCHEMES)
    report2 = evaluate(back, sentences)
    for f in ("f1_a", "f1_o", "acc_s", "f1_s", "f1_i"):
        assert getattr(report, f) == getattr(report2, f)


def test_evaluate_empty_corpus_is_all_zero():
    report = evaluate([], [])
    assert (report.f1_a, report.f1_o, report.acc_s, report.f1_s,
            report.f1_i) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert report.degenerate_asc


def test_failed_prediction_write_keeps_the_earlier_file(tmp_path):
    path = str(tmp_path / "preds.jsonl")
    preds = [Prediction(("good", "food"), ((1, 2),), ((0, 1),), (((1, 2), 0),))
             for _ in range(4)]
    write_predictions(path, preds[:1], DEFAULT_SCHEMES)
    before = open(path, "rb").read()
    with failing_disk(nth_write=3), pytest.raises(OSError, match="No space"):
        write_predictions(path, preds, DEFAULT_SCHEMES)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["preds.jsonl"]
