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
milliseconds; ``total`` is the median of the set-ups' sums. numpy runs
with one BLAS thread.

``--against PATH`` runs the same set-up with the package under
``PATH/src`` (for example a ``git archive`` of another revision) and
alternates the two set-up by set-up, swapping which goes first each rep,
so both see the same host; each row then adds that package's median and
the ratio of the medians (this checkout over the other), and a last line
says whether the two read the same sentences: tokens, tags and adjacency
values, dtype and shape.

Usage: python scripts/setup_timing.py [--reps 20] [--seed 7]
                                      [--corpus PATH] [--against PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads its BLAS

import argparse
import statistics
import sys
import tempfile
import time

import numpy as np

from checkout import load_checkout

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PHASES = ("train_corpus", "documents", "predict_corpus", "embeddings",
          "model", "save", "load")
EMBEDDING_SEED = 5


def set_up(package, paths: dict, checkpoint: str):
    """One set-up; returns the seconds of each phase and the sentences of
    both corpora."""
    data, model, _ = package
    stamps = [time.perf_counter()]
    train = data.load_aspect_corpus(paths["train"])
    stamps.append(time.perf_counter())
    docs = data.load_document_corpus(paths["documents"])
    stamps.append(time.perf_counter())
    pred = data.load_aspect_corpus(paths["predict"])
    stamps.append(time.perf_counter())
    config = model.ModelConfig()
    rng = np.random.default_rng(EMBEDDING_SEED)
    words = data.corpus_words(train + pred, docs)
    general = data.random_embeddings(words, config.d_general, rng)
    domain = data.random_embeddings(words, config.d_domain, rng)
    data.assign_embedding_ids(train, general, domain)
    data.assign_embedding_ids(docs, general, domain)
    stamps.append(time.perf_counter())
    net = model.AbsaModel(config, data.DEFAULT_SCHEMES, general, domain)
    stamps.append(time.perf_counter())
    net.save(checkpoint)
    stamps.append(time.perf_counter())
    model.AbsaModel.load(checkpoint)
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
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--corpus", metavar="PATH",
                    help="an aspect corpus to read as the predict corpus")
    ap.add_argument("--against", metavar="PATH",
                    help="a second checkout whose src/ktabsa to time too")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    if args.corpus and not os.path.isfile(args.corpus):
        ap.error(f"no corpus at {args.corpus}")
    modules = ("data", "model", "synth")
    packages = [load_checkout(os.path.join(ROOT, "src"), "ktabsa", *modules)]
    if args.against:
        src = os.path.join(args.against, "src")
        if not os.path.isfile(os.path.join(src, "ktabsa", "data.py")):
            ap.error(f"no src/ktabsa/data.py under {args.against}")
        packages.append(load_checkout(src, "ktabsa_against", *modules))
    synth = packages[0][2]
    samples = [[] for _ in packages]
    with tempfile.TemporaryDirectory() as tmp:
        paths = synth.write_synthetic(tmp, synth.SynthSpec(
            train_sentences=32, test_sentences=200, documents=32,
            seed=args.seed))
        paths["predict"] = args.corpus or paths["test"]
        checkpoints = [os.path.join(tmp, f"model{k}.ckpt")
                       for k in range(len(packages))]
        read = [set_up(p, paths, c)[1]                 # warm-up set-up
                for p, c in zip(packages, checkpoints)]
        for rep in range(args.reps):
            order = range(len(packages))
            for k in (order if rep % 2 == 0 else reversed(order)):
                samples[k].append(set_up(packages[k], paths,
                                         checkpoints[k])[0])
    cols = ["phase", "ms"]
    if args.against:
        cols += ["against_ms", "ratio"]
    print(f"numpy {np.__version__}, default ModelConfig, seed {args.seed}, "
          f"median of {args.reps} set-ups")
    print(" ".join(f"{c:>16}" for c in cols))
    for i, phase in enumerate((*PHASES, "total")):
        ms = [1e3 * statistics.median(s[i] if i < len(PHASES) else s.sum()
                                      for s in runs)
              for runs in samples]
        row = [phase, *ms] + ([ms[0] / ms[1]] if args.against else [])
        print(" ".join(f"{x:>16.3f}" if isinstance(x, float) else f"{x:>16}"
                       for x in row))
    if args.against:
        print("sentences identical: "
              f"{'yes' if same_sentences(*read) else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
