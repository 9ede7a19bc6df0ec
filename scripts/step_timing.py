#!/usr/bin/env python3
"""Time one training step, aspect and document, on mixed and equal lengths.

The batches are seeded ``ktabsa.synth`` data: ``--batch`` sentences and
``--batch`` documents as the generator makes them, of mixed lengths, and
the same tokens cut into ``--batch`` items of one length (the remainder
dropped), so that the two batches differ only in how their tokens split
into items. The
model is the default ``ModelConfig`` on seeded random embeddings, in
float32 with one BLAS thread. A step is what ``fit`` runs per batch: zero
the gradients, the batch loss with its backward (dropout drawn from a fresh
seeded rng), clipping and one Adam update. A row prints the median of
``--reps`` steps in milliseconds and, from untimed steps, counts that do
not drift with the host: the model forwards, the tape nodes, the ``route``
calls, the Python calls (``sys.setprofile`` call events) and the step's
peak of traced memory in KiB (``tracemalloc``, above what was held before
the step).

``--against PATH`` builds the same model from the package under
``PATH/src`` (for example a ``git archive`` of another revision) and
alternates the two step by step, swapping which goes first each rep, so
both see the same host; the row then adds that package's median and counts
and the ratio of the medians (this checkout over the other).

Usage: python scripts/step_timing.py [--reps 20] [--seed 7] [--batch 32]
                                     [--against PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads its BLAS

import argparse
import gc
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from checkout import load_checkout

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
EMBEDDING_SEED = 5
LR = 1e-4
CLIP = 5.0


def equal_lengths(data, items, kind: str) -> list:
    """The tokens of ``items`` laid end to end and cut into as many items of
    one length; a sentence's adjacency is its token chain."""
    n = sum(it.n for it in items) // len(items)
    if kind == "aspect":
        cols = [sum((list(getattr(s, f)) for s in items), [])
                for f in ("tokens", "ate_gold", "ote_gold", "asc_gold")]
        chain = np.eye(n, dtype=np.float32)
        chain[np.arange(n - 1), np.arange(1, n)] = 1.0
        chain = np.maximum(chain, chain.T)
        return [data.Sentence(*(tuple(c[i:i + n]) for c in cols),
                              chain.copy())
                for i in range(0, n * len(items), n)]
    tokens = sum((list(d.tokens) for d in items), [])
    return [data.Document(tuple(tokens[i:i + n]), d.domain_gold,
                          d.sentiment_gold)
            for i, d in zip(range(0, n * len(items), n), items)]


def build(package, tmp: str, seed: int, batch: int):
    """The default model of ``package`` and its four cases: (step kind,
    batch name, items), the items indexed for the model."""
    data, model, training, _, synth = package
    paths = synth.write_synthetic(tmp, synth.SynthSpec(
        train_sentences=batch, test_sentences=0, documents=batch, seed=seed))
    sentences = data.load_aspect_corpus(paths["train"])
    docs = data.load_document_corpus(paths["documents"])
    config = model.ModelConfig()
    rng = np.random.default_rng(EMBEDDING_SEED)
    words = data.corpus_words(sentences, docs)
    general = data.random_embeddings(words, config.d_general, rng)
    domain = data.random_embeddings(words, config.d_domain, rng)
    cases = [("aspect", "mixed", sentences),
             ("aspect", "equal", equal_lengths(data, sentences, "aspect")),
             ("document", "mixed", docs),
             ("document", "equal", equal_lengths(data, docs, "document"))]
    for _, _, items in cases:
        data.assign_embedding_ids(items, general, domain)
    net = model.AbsaModel(config, data.DEFAULT_SCHEMES, general, domain)
    return net, training.Adam(net.named_parameters(), LR), cases


def step(training, net, opt, kind: str, items) -> None:
    """One training step as ``fit`` runs it."""
    loss = (training.batch_aspect_loss if kind == "aspect"
            else training.batch_document_loss)
    opt.zero_grad()
    loss(net, items, np.random.default_rng(0))
    training.clip_grads(opt.params.values(), CLIP)
    opt.step()


def counts(package, net, opt, kind: str, items) -> tuple[int, ...]:
    """Forwards, tape nodes, ``route`` calls, Python calls and the traced
    memory peak in KiB of one step each."""
    _, model, training, tensor, _ = package
    seen = {"forward": 0, "nodes": 0, "route": 0}
    saved = (model.route, tensor.Tape.backward)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def backward(tape, loss):
        seen["nodes"] += len(tape)
        return saved[1](tape, loss)

    net.forward = counting("forward", net.forward)
    net.forward_document = counting("forward", net.forward_document)
    model.route = counting("route", model.route)
    tensor.Tape.backward = backward
    try:
        step(training, net, opt, kind, items)
    finally:
        del net.forward, net.forward_document    # the methods again
        model.route, tensor.Tape.backward = saved
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        step(training, net, opt, kind, items)
    finally:
        sys.setprofile(None)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(training, net, opt, kind, items)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return seen["forward"], seen["nodes"], seen["route"], calls, peak // 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--against", metavar="PATH",
                    help="a second checkout whose src/ktabsa to time too")
    args = ap.parse_args(argv)
    if args.reps < 1 or args.batch < 1:
        ap.error("--reps and --batch must be at least 1")
    modules = ("data", "model", "training", "tensor", "synth")
    packages = [load_checkout(os.path.join(ROOT, "src"), "ktabsa", *modules)]
    if args.against:
        src = os.path.join(args.against, "src")
        if not os.path.isfile(os.path.join(src, "ktabsa", "model.py")):
            ap.error(f"no src/ktabsa/model.py under {args.against}")
        packages.append(load_checkout(src, "ktabsa_against", *modules))
    runs = []
    for package in packages:
        with tempfile.TemporaryDirectory() as tmp:
            runs.append(build(package, tmp, args.seed, args.batch))
    table = [[counts(p, net, opt, kind, items) for kind, _, items in cases]
             for p, (net, opt, cases) in zip(packages, runs)]
    samples = [[[] for _ in runs[0][2]] for _ in runs]
    for rep in range(args.reps):
        order = range(len(runs))
        for c in range(len(runs[0][2])):
            for k in (order if rep % 2 == 0 else reversed(order)):
                net, opt, cases = runs[k]
                t0 = time.perf_counter()
                step(packages[k][2], net, opt, cases[c][0], cases[c][2])
                samples[k][c].append(time.perf_counter() - t0)
    names = ["forwards", "nodes", "routes", "calls", "peak_kb"]
    cols = ["step", "batch", "items", "tokens", "ms", *names]
    if args.against:
        cols += ["against_ms", *(f"against_{c}" for c in names), "ratio"]
    print(f"numpy {np.__version__}, float32, default ModelConfig, seed "
          f"{args.seed}, median of {args.reps} steps")
    print(" ".join(f"{c:>16}" for c in cols))
    for c, (kind, batch, items) in enumerate(runs[0][2]):
        ms = [1e3 * statistics.median(s[c]) for s in samples]
        row = [kind, batch, len(items), sum(it.n for it in items)]
        for k in range(len(runs)):
            row += [ms[k], *table[k][c]]
        if args.against:
            row.append(ms[0] / ms[1])
        print(" ".join(f"{x:>16.3f}" if isinstance(x, float) else f"{x:>16}"
                       for x in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
