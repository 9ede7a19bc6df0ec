#!/usr/bin/env python3
"""Train a small model on synthetic data and print a routing heat map.

Shows, for one far-distance sentence, how much of each source token's
knowledge is routed to each target token on the opinion->sentiment transfer,
per routing iteration. The dependency edge planted between the aspect head
and the opinion head should attract coupling mass as iterations proceed.

Usage: python scripts/trace_demo.py [--epochs 60]
"""

import argparse
import dataclasses

from overfit_synth import synthetic, train  # and src/ on the path

from ktabsa.routing import agreement_trace


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--direction", default="ote->asc")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    sentences, bundle = synthetic(50, args.seed)
    # the bundle's model with a longer routing loop
    model, _ = train(sentences,
                     dataclasses.replace(bundle.model, route_iters=3,
                                         seed=args.seed),
                     dataclasses.replace(bundle.schedule, epochs=args.epochs,
                                         pretrain_epochs=0, patience=0),
                     args.seed)

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
