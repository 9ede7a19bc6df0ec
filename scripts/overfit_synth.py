#!/usr/bin/env python3
"""Overfitting experiment: does inter-task knowledge transfer help?

Trains the full model and a transfer-free variant on the same synthetic
corpus until both either reach the target token accuracy on all three
token-level tasks or exhaust the epoch budget, then prints a comparison.
The synthetic far-distance sentences place the opinion outside the local
receptive field, so the transfer-free model has no path to the sentiment
signal and should plateau on the sentiment task.

Usage: python scripts/overfit_synth.py [--sentences 50] [--epochs 200]
"""

import argparse
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from ktabsa.data import (DEFAULT_SCHEMES, assign_embedding_ids, corpus_words,
                         load_aspect_corpus, random_embeddings)
from ktabsa.metrics import evaluate
from ktabsa.model import AbsaModel, ModelConfig
from ktabsa.synth import SynthSpec, write_synthetic
from ktabsa.training import Schedule, fit


def run(sentences, transfers_on, args):
    kwargs = dict(d_general=24, d_domain=12, d_enc=32, d_task=32, d_route=16,
                  kernel_widths=(3, 5), task_depth=2, dropout=0.0,
                  iterations=2, route_iters=2, seed=args.seed)
    if not transfers_on:
        kwargs.update(transfers=(), inject_ddc=False, inject_dsc=False)
    cfg = ModelConfig(**kwargs)
    rng = np.random.default_rng(args.seed)
    words = corpus_words(sentences)
    general = random_embeddings(words, cfg.d_general, rng)
    domain = random_embeddings(words, cfg.d_domain, rng)
    assign_embedding_ids(sentences, general, domain)
    model = AbsaModel(cfg, DEFAULT_SCHEMES, general, domain)
    schedule = Schedule(epochs=args.epochs, pretrain_epochs=0, batch_size=16,
                        lr=args.lr, patience=0, target_token_acc=args.target)
    t0 = time.time()
    result = fit(model, sentences, [], [], schedule)
    wall = time.time() - t0
    report = evaluate(model.predict_many(sentences), sentences)
    return result, report, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sentences", type=int, default=50)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--lr", type=float, default=2e-3)
    ap.add_argument("--target", type=float, default=0.95)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_synthetic(tmp, SynthSpec(train_sentences=args.sentences,
                                               seed=args.seed))
        sentences = load_aspect_corpus(paths["train"])

    rows = []
    for label, on in (("full model", True), ("no transfer", False)):
        result, report, wall = run(sentences, on, args)
        reached = result.reached_target_epoch
        acc = result.final_token_acc
        rows.append((label,
                     str(reached) if reached else f">{args.epochs}",
                     f"{acc['ate']:.3f}", f"{acc['ote']:.3f}",
                     f"{acc['asc']:.3f}", f"{report.f1_i:.3f}",
                     f"{wall:.0f}s"))

    header = ("variant", "epochs-to-target", "acc-ate", "acc-ote", "acc-asc",
              "train-F1-I", "wall")
    widths = [max(len(h), max(len(r[i]) for r in rows))
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))


if __name__ == "__main__":
    main()
