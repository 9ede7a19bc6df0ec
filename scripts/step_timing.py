#!/usr/bin/env python3
"""Time one training step, aspect and document, on mixed and equal lengths.

The batches are seeded ``ktabsa.synth`` data: ``--batch`` sentences and
``--batch`` documents as the generator makes them, of mixed lengths, and
the same tokens cut into ``--batch`` items of one length (the remainder
dropped), so that the two batches differ only in how their tokens split
into items. The model is the default ``ModelConfig`` on seeded random
embeddings, in float32. A step is what ``fit`` runs per batch: zero the
gradients, the batch loss with its backward (dropout drawn from a fresh
seeded rng), clipping and one Adam update. A row prints the median of
``--reps`` steps in milliseconds and, from untimed steps, the counts of
``measure.counts``, which do not drift with the host: forwards, tape
nodes, ``route`` calls, Python calls and the traced memory peak in KiB.

``--against PATH`` builds the same model from the package under
``PATH/src`` and alternates the two step by step (see ``measure``).

Usage: python scripts/step_timing.py [--reps 20] [--seed 7] [--batch 32]
                                     [--against PATH]
"""

import sys
import tempfile

import measure   # pins BLAS to one thread before numpy loads
import numpy as np

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


def build(package, paths: dict):
    """The default model of ``package``, its optimizer and its four cases:
    (step kind, batch name, items), the items indexed for the model."""
    data = package.data
    sentences = data.load_aspect_corpus(paths["train"])
    docs = data.load_document_corpus(paths["documents"])
    cases = [("aspect", "mixed", sentences),
             ("aspect", "equal", equal_lengths(data, sentences, "aspect")),
             ("document", "mixed", docs),
             ("document", "equal", equal_lengths(data, docs, "document"))]
    net = measure.default_model(package, *measure.embeddings(
        package, [sentences, docs], *(items for _, _, items in cases)))
    return net, package.training.Adam(net.named_parameters(), LR), cases


def step(training, net, opt, kind: str, items) -> None:
    """One training step as ``fit`` runs it."""
    loss = (training.batch_aspect_loss if kind == "aspect"
            else training.batch_document_loss)
    opt.zero_grad()
    loss(net, items, np.random.default_rng(0))
    training.clip_grads(opt.params.values(), CLIP)
    opt.step()


def main(argv=None) -> int:
    ap = measure.parser(__doc__)
    ap.add_argument("--batch", type=int, default=32)
    args, packages = measure.parse(ap, argv)
    if args.batch < 1:
        ap.error("--batch must be at least 1")
    synth = packages[0].synth
    with tempfile.TemporaryDirectory() as tmp:
        paths = synth.write_synthetic(tmp, synth.SynthSpec(
            train_sentences=args.batch, test_sentences=0,
            documents=args.batch, seed=args.seed))
        runs = [build(p, paths) for p in packages]
    steps = [[(p.training, net, opt, kind, items) for kind, _, items in cases]
             for p, (net, opt, cases) in zip(packages, runs)]
    table = [[measure.counts(p.model, p.tensor, step, *a) for a in s]
             for p, s in zip(packages, steps)]
    samples = measure.alternate(
        args.reps, len(runs), len(steps[0]),
        lambda k, c: measure.seconds(step, *steps[k][c]))
    measure.print_table(
        f"float32, default ModelConfig, seed {args.seed}, median of "
        f"{args.reps} steps", 16, ["step", "batch", "items", "tokens"],
        ["ms", "forwards", "nodes", "routes", "calls", "peak_kb"],
        [([kind, batch, len(items), sum(it.n for it in items)],
          [[measure.median_ms(s[c]), *t[c]] for s, t in zip(samples, table)])
         for c, (kind, batch, items) in enumerate(runs[0][2])])
    return 0


if __name__ == "__main__":
    sys.exit(main())
