#!/usr/bin/env python3
"""Time ``AbsaModel.predict`` per sentence, by sentence length class.

The corpus is seeded ``ktabsa.synth`` sentences: short ones as the
generator makes them, and sentences stitched from them and padded with
"and" to exactly 64 and 128 tokens. The model is the default
``ModelConfig`` on seeded random embeddings, untrained; it runs in float32
with one BLAS thread. A row prints the median latency of one length class
over ``--reps`` passes of every sentence, in milliseconds, and the Python
calls (``sys.setprofile`` call events) of one untimed predict of the
class's first sentence and the tape nodes of one forward of it: counts
that, unlike the latency, do not drift with the host.

``--against PATH`` builds the same model from the package under
``PATH/src`` (for example a ``git archive`` of another revision) and
alternates the two predict by predict, swapping which goes first each
pass, so both see the same host; the row then adds that package's median,
calls and nodes and the ratio of the medians (this checkout over the
other), and a last line says whether the two predicted the same spans and
pairs.

Usage: python scripts/predict_timing.py [--reps 20] [--seed 7]
                                        [--against PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads its BLAS

import argparse
import importlib
import statistics
import sys
import tempfile
import time

import numpy as np

from checkout import load_checkout

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SHORT = 60                      # short sentences in the corpus
LONG = {64: 8, 128: 4}          # long sentences per length
EMBEDDING_SEED = 5


def write_corpus(path: str, seed: int) -> None:
    """SHORT synth sentences, then LONG stitched ones, as a TSV corpus with
    its adjacency sidecar."""
    synth = importlib.import_module("ktabsa.synth")
    rows = synth.build_rows(SHORT, seed)
    pool = iter(synth.build_rows(sum(n * k for n, k in LONG.items()),
                                 seed + 1))
    for n, count in LONG.items():
        for _ in range(count):
            row = synth.Row([], [], [], [], [])
            while True:
                part = next(pool)
                if len(row.tokens) + len(part.tokens) > n:
                    break
                start = len(row.tokens)
                for field in ("tokens", "ate", "ote", "asc"):
                    getattr(row, field).extend(getattr(part, field))
                row.edges += [(i + start, j + start) for i, j in part.edges]
            pad = n - len(row.tokens)
            for field, fill in (("tokens", "and"), ("ate", "O"),
                                ("ote", "O"), ("asc", "_")):
                getattr(row, field).extend([fill] * pad)
            rows.append(row)
    synth.write_rows(path, rows)


def build(package, corpus: str):
    """The default model of ``package`` and the corpus, indexed for it."""
    data, model, _ = package
    sentences = data.load_aspect_corpus(corpus)
    config = model.ModelConfig()
    rng = np.random.default_rng(EMBEDDING_SEED)
    words = data.corpus_words(sentences)
    general = data.random_embeddings(words, config.d_general, rng)
    domain = data.random_embeddings(words, config.d_domain, rng)
    data.assign_embedding_ids(sentences, general, domain)
    return (model.AbsaModel(config, data.DEFAULT_SCHEMES, general, domain),
            sentences)


def length_class(n: int) -> str:
    return str(n) if n in LONG else "short"


def python_calls(net, sentence) -> int:
    """The Python function calls one ``net.predict(sentence)`` makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        net.predict(sentence)
    finally:
        sys.setprofile(None)
    return calls


def tape_nodes(tensor, net, sentence) -> int:
    """The tape nodes one ``net.forward([sentence])`` records on a tape of
    the package's ``tensor`` module."""
    tape = tensor.Tape()
    with tensor.record(tape):
        net.forward([sentence])
    return len(tape)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--against", metavar="PATH",
                    help="a second checkout whose src/ktabsa to time too")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    modules = ("data", "model", "tensor")
    packages = [load_checkout(os.path.join(ROOT, "src"), "ktabsa", *modules)]
    if args.against:
        src = os.path.join(args.against, "src")
        if not os.path.isfile(os.path.join(src, "ktabsa", "model.py")):
            ap.error(f"no src/ktabsa/model.py under {args.against}")
        packages.append(load_checkout(src, "ktabsa_against", *modules))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus.tsv")
        write_corpus(corpus, args.seed)
        runs = [build(p, corpus) for p in packages]
    classes = [length_class(s.n) for s in runs[0][1]]
    firsts = [[net.predict(s) for s in sentences]     # warm-up pass
              for net, sentences in runs]
    counts = [{c: (python_calls(net, sentences[classes.index(c)]),
                   tape_nodes(tensor, net, sentences[classes.index(c)]))
               for c in dict.fromkeys(classes)}
              for (_, _, tensor), (net, sentences) in zip(packages, runs)]
    samples = [{c: [] for c in classes} for _ in runs]
    for rep in range(args.reps):
        order = range(len(runs))
        for i, c in enumerate(classes):
            for k in (order if rep % 2 == 0 else reversed(order)):
                net, sentences = runs[k]
                t0 = time.perf_counter()
                net.predict(sentences[i])
                samples[k][c].append(time.perf_counter() - t0)
    cols = ["class", "sentences", "p50_ms", "calls", "nodes"]
    if args.against:
        cols += ["against_p50_ms", "against_calls", "against_nodes", "ratio"]
    print(f"numpy {np.__version__}, float32, default ModelConfig, seed "
          f"{args.seed}, median of {args.reps} passes")
    print(" ".join(f"{c:>14}" for c in cols))
    for c in dict.fromkeys(classes):
        p50 = [1e3 * statistics.median(s[c]) for s in samples]
        row = [c, classes.count(c)]
        for ms, count in zip(p50, counts):
            row += [ms, *count[c]]
        if args.against:
            row.append(p50[0] / p50[1])
        print(" ".join(f"{x:>14.3f}" if isinstance(x, float) else f"{x:>14}"
                       for x in row))
    if args.against:
        a, b = ([(p.tokens, p.ate_spans, p.ote_spans, p.pairs) for p in f]
                for f in firsts)
        print(f"predictions identical: {'yes' if a == b else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
