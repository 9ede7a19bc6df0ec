#!/usr/bin/env python3
"""Overfitting experiment: does inter-task knowledge transfer help?

Trains the full model and a transfer-free variant on the same synthetic
corpus until both either reach the target token accuracy on all three
token-level tasks or exhaust the epoch budget, then prints a comparison.
The synthetic far-distance sentences place the opinion outside the local
receptive field, so the transfer-free model has no path to the sentiment
signal and should plateau on the sentiment task. Both train the model and
schedule of the ``gen-synth`` bundle's config, as ``trace_demo.py`` does.

Usage: python scripts/overfit_synth.py [--sentences 50] [--epochs 200]
"""

import argparse
import dataclasses
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from ktabsa.config import load_config
from ktabsa.data import (DEFAULT_SCHEMES, assign_embedding_ids, corpus_words,
                         load_aspect_corpus, random_embeddings)
from ktabsa.metrics import evaluate
from ktabsa.model import AbsaModel
from ktabsa.synth import SynthSpec, write_synthetic
from ktabsa.training import fit


def synthetic(sentences: int, seed: int):
    """The training sentences of a ``gen-synth`` bundle, and its config."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_synthetic(tmp, SynthSpec(train_sentences=sentences,
                                               seed=seed))
        return load_aspect_corpus(paths["train"]), load_config(paths["config"])


def train(sentences, cfg, schedule, seed: int):
    """A model of ``cfg`` on random embeddings drawn at ``seed``, fit to
    ``sentences`` by ``schedule``, and the fit's result."""
    rng = np.random.default_rng(seed)
    words = corpus_words(sentences)
    model = AbsaModel(cfg, DEFAULT_SCHEMES,
                      random_embeddings(words, cfg.d_general, rng),
                      random_embeddings(words, cfg.d_domain, rng))
    assign_embedding_ids(sentences, model.general_table, model.domain_table)
    return model, fit(model, sentences, [], [], schedule)


def run(sentences, bundle, transfers_on, args):
    cfg = dataclasses.replace(bundle.model, seed=args.seed)
    if not transfers_on:
        cfg = dataclasses.replace(cfg, transfers=(), inject_ddc=False,
                                  inject_dsc=False)
    schedule = dataclasses.replace(
        bundle.schedule, epochs=args.epochs, pretrain_epochs=0, lr=args.lr,
        patience=0, target_token_acc=args.target)
    t0 = time.time()
    model, result = train(sentences, cfg, schedule, args.seed)
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

    sentences, bundle = synthetic(args.sentences, args.seed)
    rows = []
    for label, on in (("full model", True), ("no transfer", False)):
        result, report, wall = run(sentences, bundle, on, args)
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
