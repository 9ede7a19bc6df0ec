#!/usr/bin/env python3
"""Train a small model on synthetic data and print a routing heat map.

Shows, for one far-distance sentence, how much of each source token's
knowledge is routed to each target token on the opinion->sentiment transfer,
per routing iteration. The dependency edge planted between the aspect head
and the opinion head should attract coupling mass as iterations proceed.

Usage: python scripts/trace_demo.py [--epochs 60]
"""

import argparse
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from ktabsa.data import (DEFAULT_SCHEMES, assign_embedding_ids, corpus_words,
                         load_aspect_corpus, random_embeddings)
from ktabsa.model import AbsaModel, ModelConfig
from ktabsa.routing import agreement_trace
from ktabsa.synth import SynthSpec, write_synthetic
from ktabsa.training import Schedule, fit


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--direction", default="ote->asc")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_synthetic(tmp, SynthSpec(train_sentences=50,
                                               seed=args.seed))
        sentences = load_aspect_corpus(paths["train"])

    cfg = ModelConfig(d_general=24, d_domain=12, d_enc=32, d_task=32,
                      d_route=16, kernel_widths=(3, 5), task_depth=2,
                      dropout=0.0, iterations=2, route_iters=3, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    words = corpus_words(sentences)
    general = random_embeddings(words, cfg.d_general, rng)
    domain = random_embeddings(words, cfg.d_domain, rng)
    assign_embedding_ids(sentences, general, domain)
    model = AbsaModel(cfg, DEFAULT_SCHEMES, general, domain)
    fit(model, sentences, [], [], Schedule(epochs=args.epochs,
                                           pretrain_epochs=0, batch_size=16,
                                           lr=2e-3, patience=0))

    sample = max(sentences, key=lambda s: s.n)  # a far-distance sentence
    _, traces = model.forward([sample], keep_trace=True)
    trace = next(tr for tr in traces
                 if tr.round == 1 and tr.direction == args.direction)
    records = agreement_trace(trace, sample.tokens)
    tokens = records[0]["tokens"]
    print(f"sentence: {' '.join(tokens)}")
    print(f"direction: {args.direction} (rows: source, cols: target)\n")
    for rec in records:
        print(f"iteration {rec['iteration']}")
        print("          " + " ".join(f"{t[:6]:>6}" for t in tokens))
        for tok, row in zip(tokens, rec["c"]):
            cells = " ".join(f"{v:6.3f}" for v in row)
            print(f"{tok[:9]:>9} {cells}")
        print()


if __name__ == "__main__":
    main()
