#!/usr/bin/env python3
"""Time each phase of the benchmark's set-up, which its ``setup_s`` sums.

A set-up runs as the bench's does: read the train corpus, the documents and
the predict corpus; build seeded random embeddings of their words and index
the train sentences and documents; build the default ``ModelConfig``
model; save it as a checkpoint; load the checkpoint back. The files are
seeded ``ktabsa.synth`` data of short-train's sizes (32 train sentences,
200 predict sentences, 32 documents), written once; ``--corpus PATH``
reads PATH, with its ``.adj`` sidecar if there is one, as the predict
corpus instead. A row prints one phase's median over ``--reps`` set-ups in
milliseconds; ``total`` is the median of the set-ups' sums.

``--against PATH`` runs the same set-up with the package under
``PATH/src`` and alternates the two set-up by set-up (see ``measure``); a
last line says whether the two read the same sentences: tokens, tags and
adjacency values, dtype and shape.

Usage: python scripts/setup_timing.py [--reps 20] [--seed 7]
                                      [--corpus PATH] [--against PATH]
"""

import os
import sys
import tempfile
import time

import measure   # pins BLAS to one thread before numpy loads
import numpy as np

PHASES = ("train_corpus", "documents", "predict_corpus", "embeddings",
          "model", "save", "load")


def set_up(package, paths: dict):
    """One set-up; returns the seconds of each phase and the sentences of
    both corpora."""
    data = package.data
    stamps = [time.perf_counter()]
    train = data.load_aspect_corpus(paths["train"])
    stamps.append(time.perf_counter())
    docs = data.load_document_corpus(paths["documents"])
    stamps.append(time.perf_counter())
    pred = data.load_aspect_corpus(paths["predict"])
    stamps.append(time.perf_counter())
    general, domain = measure.embeddings(package, [train + pred, docs], train,
                                         docs)
    stamps.append(time.perf_counter())
    net = measure.default_model(package, general, domain)
    stamps.append(time.perf_counter())
    net.save(paths["checkpoint"])
    stamps.append(time.perf_counter())
    package.model.AbsaModel.load(paths["checkpoint"])
    stamps.append(time.perf_counter())
    return np.diff(stamps), train + pred


def same_sentences(a, b) -> bool:
    return len(a) == len(b) and all(
        (x.tokens, x.ate_gold, x.ote_gold, x.asc_gold)
        == (y.tokens, y.ate_gold, y.ote_gold, y.asc_gold)
        and x.adjacency.dtype == y.adjacency.dtype
        and x.adjacency.shape == y.adjacency.shape
        and x.adjacency.tobytes() == y.adjacency.tobytes()
        for x, y in zip(a, b))


def main(argv=None) -> int:
    ap = measure.parser(__doc__)
    ap.add_argument("--corpus", metavar="PATH",
                    help="an aspect corpus to read as the predict corpus")
    args, packages = measure.parse(ap, argv)
    if args.corpus and not os.path.isfile(args.corpus):
        ap.error(f"no corpus at {args.corpus}")
    synth = packages[0].synth
    with tempfile.TemporaryDirectory() as tmp:
        paths = synth.write_synthetic(tmp, synth.SynthSpec(
            train_sentences=32, test_sentences=200, documents=32,
            seed=args.seed))
        paths["predict"] = args.corpus or paths["test"]
        paths["checkpoint"] = os.path.join(tmp, "model.ckpt")
        read = [set_up(p, paths)[1] for p in packages]      # warm-up set-up
        samples = measure.alternate(args.reps, len(packages), 1,
                                    lambda k, _: set_up(packages[k], paths)[0])
    measure.print_table(
        f"default ModelConfig, seed {args.seed}, median of {args.reps} "
        "set-ups", 16, ["phase"], ["ms"],
        [([phase], [[measure.median_ms(s[i] if i < len(PHASES) else s.sum()
                                       for s in setups)]
                    for setups, in samples])
         for i, phase in enumerate((*PHASES, "total"))])
    if args.against:
        print("sentences identical: "
              f"{'yes' if same_sentences(*read) else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
