"""Span-level evaluation: extraction F1s, sentiment scores, and pair F1.

All scores follow the 0/0 -> 0 convention for precision, recall, and F1.
Sentiment accuracy and macro-F1 are computed over the predicted aspect spans
that exactly match a gold span (not over gold spans), and the macro average
always divides by the full three-way label set even when a class is absent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .data import (Sentence, TagSchemes, atomic_write, extract_spans,
                   gold_pairs)
from .model import Prediction

Span = tuple[int, int]
Pair = tuple[Span, int]
NUM_SENTIMENTS = 3      # the three-way label set the macro-F1 divides by


def _f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@dataclass
class EvalReport:
    f1_a: float
    f1_o: float
    acc_s: float
    f1_s: float
    f1_i: float
    counts: dict = field(default_factory=dict)
    per_class: dict = field(default_factory=dict)
    degenerate_asc: bool = False

    def as_dict(self) -> dict:
        d = {k: round(getattr(self, k), 6)
             for k in ("f1_a", "f1_o", "f1_s", "acc_s", "f1_i")}
        d["counts"] = self.counts
        # string keys, as JSON stores them, so the dict survives a round trip
        d["per_class"] = {str(c): v for c, v in self.per_class.items()}
        d["degenerate_asc"] = self.degenerate_asc
        return d


def span_f1(pred: Sequence[Sequence[Span] | Sequence[Pair]],
            gold: Sequence[Sequence[Span] | Sequence[Pair]]
            ) -> tuple[float, float, float, dict]:
    """Micro-averaged exact-match F1 over a corpus of spans, or of
    (span, sentiment) pairs."""
    if len(pred) != len(gold):
        raise ValueError(f"pred/gold corpus sizes differ: "
                         f"{len(pred)} vs {len(gold)}")
    tp = fp = fn = 0
    for ps, gs in zip(pred, gold):
        ps, gs = set(ps), set(gs)
        tp += len(ps & gs)
        fp += len(ps - gs)
        fn += len(gs - ps)
    p, r, f = _f1(tp, fp, fn)
    return p, r, f, {"tp": tp, "fp": fp, "fn": fn}


def asc_scores(pred_pairs: Sequence[Sequence[Pair]],
               gold_pairs_: Sequence[Sequence[Pair]]
               ) -> tuple[float, float, dict, bool]:
    """Sentiment accuracy and macro-F1 on correctly extracted aspect spans.

    Only predicted spans that exactly match a gold span enter the confusion
    matrix. Returns (acc, macro_f1, per_class, degenerate) where degenerate
    flags the no-matched-span case (both scores reported as 0).
    """
    matched = correct = 0
    confusion = [[0] * NUM_SENTIMENTS for _ in range(NUM_SENTIMENTS)]
    for pps, gps in zip(pred_pairs, gold_pairs_):
        gold_by_span = {span: lab for span, lab in gps}
        for span, plab in pps:
            glab = gold_by_span.get(span)
            if glab is None:
                continue
            matched += 1
            confusion[glab][plab] += 1
            if glab == plab:
                correct += 1
    per_class = {}
    for c in range(NUM_SENTIMENTS):
        tp = confusion[c][c]
        fn = sum(confusion[c]) - tp
        fp = sum(confusion[r][c] for r in range(NUM_SENTIMENTS)) - tp
        p, r, f = _f1(tp, fp, fn)
        per_class[c] = {"precision": p, "recall": r, "f1": f,
                        "tp": tp, "fp": fp, "fn": fn}
    f1_sum = sum(per_class[c]["f1"] for c in range(NUM_SENTIMENTS))
    acc = correct / matched if matched else 0.0
    return acc, f1_sum / NUM_SENTIMENTS, per_class, not matched


def evaluate(predictions: Sequence[Prediction],
             sentences: Sequence[Sentence]) -> EvalReport:
    if len(predictions) != len(sentences):
        raise ValueError("prediction/sentence counts differ")
    gold_ate = [extract_spans(s.ate_gold) for s in sentences]
    gold_ote = [extract_spans(s.ote_gold) for s in sentences]
    gold_prs = [gold_pairs(s) for s in sentences]
    pred_ate = [p.ate_spans for p in predictions]
    pred_ote = [p.ote_spans for p in predictions]
    pred_prs = [p.pairs for p in predictions]

    _, _, f1_a, counts_a = span_f1(pred_ate, gold_ate)
    _, _, f1_o, counts_o = span_f1(pred_ote, gold_ote)
    acc_s, f1_s, per_class, degenerate = asc_scores(pred_prs, gold_prs)
    _, _, f1_i, counts_i = span_f1(pred_prs, gold_prs)
    return EvalReport(f1_a, f1_o, acc_s, f1_s, f1_i,
                      counts={"ate": counts_a, "ote": counts_o,
                              "pairs": counts_i},
                      per_class=per_class, degenerate_asc=degenerate)


# ---------------------------------------------------------------------------
# prediction files


def write_predictions(path: str, predictions: Sequence[Prediction],
                      schemes: TagSchemes) -> None:
    with atomic_write(path) as f:
        for p in predictions:
            rec = {
                "tokens": list(p.tokens),
                "ate_spans": [list(s) for s in p.ate_spans],
                "ote_spans": [list(s) for s in p.ote_spans],
                "pairs": [{"span": list(span),
                           "sentiment": schemes.asc_tags[lab]}
                          for span, lab in p.pairs],
            }
            f.write(json.dumps(rec) + "\n")
