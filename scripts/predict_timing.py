#!/usr/bin/env python3
"""Time ``AbsaModel.predict`` per sentence, by sentence length class.

The corpus is seeded ``ktabsa.synth`` sentences: short ones as the
generator makes them, and sentences stitched from them and padded with
"and" to exactly 64 and 128 tokens. The model is the default
``ModelConfig`` on seeded random embeddings, untrained, in float32. A row
prints the median latency of one length class over ``--reps`` passes of
every sentence, in milliseconds, and the Python calls of one untimed
predict of the class's first sentence and the tape nodes of one forward of
it: counts that, unlike the latency, do not drift with the host.

``--against PATH`` builds the same model from the package under
``PATH/src`` and alternates the two predict by predict (see ``measure``);
a last line says whether the two predicted the same spans and pairs.

Usage: python scripts/predict_timing.py [--reps 20] [--seed 7]
                                        [--against PATH]
"""

import os
import sys
import tempfile

import measure   # pins BLAS to one thread before numpy loads

SHORT = 60                      # short sentences in the corpus
LONG = {64: 8, 128: 4}          # long sentences per length


def write_corpus(synth, path: str, seed: int) -> None:
    """SHORT synth sentences, then LONG stitched ones, as a TSV corpus with
    its adjacency sidecar."""
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
    sentences = package.data.load_aspect_corpus(corpus)
    general, domain = measure.embeddings(package, [sentences], sentences)
    return measure.default_model(package, general, domain), sentences


def main(argv=None) -> int:
    args, packages = measure.parse(measure.parser(__doc__), argv)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus.tsv")
        write_corpus(packages[0].synth, corpus, args.seed)
        runs = [build(p, corpus) for p in packages]
    classes = [str(s.n) if s.n in LONG else "short" for s in runs[0][1]]
    firsts = [[net.predict(s) for s in sentences]     # warm-up pass
              for net, sentences in runs]
    samples = measure.alternate(
        args.reps, len(runs), len(classes),
        lambda k, i: measure.seconds(runs[k][0].predict, runs[k][1][i]))
    rows = []
    for c in dict.fromkeys(classes):
        i = classes.index(c)            # the class's first sentence
        cells = []
        for p, (net, sentences), s in zip(packages, runs, samples):
            ms = [x for j, cj in enumerate(classes) if cj == c for x in s[j]]
            cells.append([measure.median_ms(ms),
                          measure.python_calls(net.predict, sentences[i]),
                          measure.tape_counts(p.model, p.tensor, net.forward,
                                              [sentences[i]])[1]])
        rows.append(([c, classes.count(c)], cells))
    measure.print_table(
        f"float32, default ModelConfig, seed {args.seed}, median of "
        f"{args.reps} passes", 14, ["class", "sentences"],
        ["p50_ms", "calls", "nodes"], rows)
    if args.against:
        a, b = ([(p.tokens, p.ate_spans, p.ote_spans, p.pairs) for p in f]
                for f in firsts)
        print(f"predictions identical: {'yes' if a == b else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
