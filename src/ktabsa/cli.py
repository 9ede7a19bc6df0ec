"""Command-line interface.

Subcommands: train, eval, predict, ablate, trace, gradcheck, gen-synth.
Exit codes: 0 ok, 2 configuration/usage, 3 data or compatibility (also a
file that cannot be read or written), 4 numerical failure. ``--set``,
``--seed`` and ``KTABSA_OUT_DIR`` (which overrides ``out_dir``) set keys of
the one table in :mod:`ktabsa.config`; ``ablate`` trains the configured
model through :func:`ktabsa.model.apply_ablation`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import config as C
from .data import (CorpusError, DEFAULT_SCHEMES, assign_embedding_ids,
                   atomic_write, corpus_words, dev_split, length_chunks,
                   load_aspect_corpus, load_document_corpus, load_embeddings,
                   random_embeddings)
from .metrics import evaluate, write_predictions
from .model import (ABLATIONS, ALL_DIRECTIONS, AbsaModel, CheckpointError,
                    apply_ablation)
from .routing import agreement_trace
from .synth import SynthSpec, write_synthetic
from .tensor import ConfigError
from .training import (GRADCHECK_TOL, DivergenceError, fit,
                       gradcheck_harness, model_gradcheck)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

METRIC_COLUMNS = ("f1_a", "f1_o", "f1_s", "acc_s", "f1_i")
METRIC_HEADERS = ("F1-a", "F1-o", "F1-s", "acc-s", "F1-I")


def _load_run_config(args) -> C.RunConfig:
    rc = C.load_config(args.config)
    rc = C.apply_overrides(rc, args.set or [])
    if args.seed is not None:
        rc = C.with_keys(rc, seed=args.seed)
    env_out = os.environ.get("KTABSA_OUT_DIR")
    if env_out:
        rc = C.with_keys(rc, out_dir=env_out)
    return rc


def _build_corpora(rc: C.RunConfig):
    if not rc.aspect_train:
        raise ConfigError("aspect_train is required but not set")
    for key in ("aspect_train", "aspect_test", "documents"):
        path = getattr(rc, key)
        if path and not os.path.exists(path):
            raise ConfigError(f"{key}: file not found: {path}")
    train = load_aspect_corpus(rc.aspect_train)
    if not train:
        raise CorpusError(f"aspect_train: no sentences in {rc.aspect_train}")
    test = load_aspect_corpus(rc.aspect_test) if rc.aspect_test else []
    documents = load_document_corpus(rc.documents) if rc.documents else []

    words = corpus_words(train + test, documents)
    mc = rc.model
    emb_rng = np.random.default_rng(np.random.SeedSequence([mc.seed, 77]))

    def embeddings(kind: str):
        path = getattr(rc, f"{kind}_embeddings")
        dim = getattr(mc, f"d_{kind}")
        if not path:
            return random_embeddings(words, dim, emb_rng)
        table = load_embeddings(path)
        if table.dim != dim:
            raise ConfigError(f"{kind}_embeddings have dim {table.dim}; "
                              f"set d_{kind} = {table.dim}")
        return table

    general, domain = embeddings("general"), embeddings("domain")
    for part in (train, test, documents):
        assign_embedding_ids(part, general, domain)
    return train, test, documents, general, domain


def _print_report(report) -> None:
    d = report.as_dict()
    widths = [max(len(h), 8) for h in METRIC_HEADERS]
    header = "  ".join(h.rjust(w) for h, w in zip(METRIC_HEADERS, widths))
    values = "  ".join(f"{d[c]:.6f}".rjust(w)
                       for c, w in zip(METRIC_COLUMNS, widths))
    print(header)
    print(values)
    print(json.dumps({c: d[c] for c in METRIC_COLUMNS}))


def _single_run(rc: C.RunConfig, corpora, out_dir: str, quiet: bool
                ) -> dict:
    train, test, documents, general, domain = corpora
    if rc.dev_fraction > 0:
        train, dev = dev_split(train, rc.dev_fraction, rc.model.seed)
    else:
        dev = []
    model = AbsaModel(rc.model, DEFAULT_SCHEMES, general, domain)
    log = None if quiet else print
    result = fit(model, train, dev, documents, rc.schedule,
                 out_dir=out_dir, log=log)
    summary = {"out_dir": out_dir, "epochs_run": result.epochs_run,
               "best_dev_f1_i": result.best_f1_i,
               "checkpoint": result.best_path}
    if test:
        best = AbsaModel.load(result.best_path)
        report = evaluate(best.predict_many(test), test)
        summary["test"] = report.as_dict()
        if not quiet:
            _print_report(report)
    return summary


def _train_runs(rc: C.RunConfig, quiet: bool) -> int:
    """Echo ``rc`` and train ``rc.runs`` seeds (``seed``, ``seed + 1``, …)
    into ``out_dir/run<k>``, with a mean/std summary over several runs.
    Run 0's corpora are checked before anything is written (no check
    depends on the seed); a later run reads its own when it starts."""
    rc.validate()
    runs = [C.with_keys(rc, seed=rc.model.seed + k) for k in range(rc.runs)]
    corpora = _build_corpora(runs[0])
    echoed = C.echo_config(rc, rc.out_dir)
    if not quiet:
        print(f"effective config: {echoed}")
    summaries = []
    for k, run in enumerate(runs):
        summaries.append(_single_run(run, corpora or _build_corpora(run),
                                     os.path.join(rc.out_dir, f"run{k}"),
                                     quiet))
        corpora = None
    if rc.runs > 1:
        agg_source = ("test" if all("test" in s for s in summaries)
                      else "best_dev_f1_i")
        agg = {}
        if agg_source == "test":
            for c in METRIC_COLUMNS:
                vals = [s["test"][c] for s in summaries]
                agg[c] = {"mean": float(np.mean(vals)),
                          "std": float(np.std(vals))}
        else:
            vals = [s["best_dev_f1_i"] for s in summaries]
            agg["dev_f1_i"] = {"mean": float(np.mean(vals)),
                               "std": float(np.std(vals))}
        with atomic_write(os.path.join(rc.out_dir, "summary.json")) as f:
            json.dump({"runs": summaries, "aggregate": agg}, f, indent=2)
        if not quiet:
            for name, stats in agg.items():
                print(f"{name}: {stats['mean']:.4f} +/- {stats['std']:.4f} "
                      f"over {rc.runs} runs")
    with atomic_write(os.path.join(rc.out_dir, "train_summary.json")) as f:
        json.dump(summaries, f, indent=2)
    return EXIT_OK


def cmd_train(args) -> int:
    return _train_runs(_load_run_config(args), args.quiet)


def cmd_ablate(args) -> int:
    rc = _load_run_config(args)
    return _train_runs(dataclasses.replace(
        rc, model=apply_ablation(rc.model, args.ablate),
        out_dir=os.path.join(rc.out_dir, f"ablate-{args.ablate}")),
        args.quiet)


def _load_checkpoint_corpus(args):
    model = AbsaModel.load(args.checkpoint)
    return model, load_aspect_corpus(args.corpus)


def cmd_eval(args) -> int:
    model, sentences = _load_checkpoint_corpus(args)
    if not sentences:
        print("warning: empty evaluation corpus; all metrics are 0",
              file=sys.stderr)
    report = evaluate(model.predict_many(sentences), sentences)
    _print_report(report)
    if args.json_out:
        with atomic_write(args.json_out) as f:
            json.dump(report.as_dict(), f, indent=2)
    return EXIT_OK


def cmd_predict(args) -> int:
    model, sentences = _load_checkpoint_corpus(args)
    predictions = model.predict_many(sentences)
    write_predictions(args.out, predictions, model.schemes)
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return EXIT_OK


def cmd_trace(args) -> int:
    if args.limit < 0:
        raise ConfigError(f"--limit must be >= 0, got {args.limit}")
    model = AbsaModel.load(args.checkpoint)
    if args.direction not in ALL_DIRECTIONS:
        raise ConfigError(f"unknown direction {args.direction!r}; valid: "
                          f"{', '.join(ALL_DIRECTIONS)}")
    if args.direction not in model.config.transfers:
        raise ConfigError(f"direction {args.direction!r} is disabled in this "
                          f"checkpoint (enabled: "
                          f"{', '.join(model.config.transfers)})")
    sentences = load_aspect_corpus(args.corpus)
    sentences = sentences[:args.limit] if args.limit > 0 else sentences
    assign_embedding_ids(sentences, model.general_table, model.domain_table)
    os.makedirs(args.out, exist_ok=True)
    for chunk in length_chunks(sentences):
        _states, traces = model.checked_forward(sentences, chunk,
                                                keep_trace=True)
        # round 1's routing for the direction, per sentence in chunk order
        chosen = [trace for trace in traces
                  if trace.round == 1 and trace.direction == args.direction]
        for i, trace in zip(chunk, chosen):
            path = os.path.join(args.out, f"trace_{i:03d}.json")
            with atomic_write(path) as f:
                json.dump(agreement_trace(trace, sentences[i].tokens), f,
                          indent=2)
    print(f"wrote {len(sentences)} trace files to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    model, sentence, document = gradcheck_harness()
    report = model_gradcheck(model, [sentence], [document])
    for e in report.entries:
        status = "PASS" if e.passed else "FAIL"
        print(f"{status}  {e.name:<24} {str(e.shape):<14} "
              f"max_rel_err={e.max_rel_err:.3e}")
    n = len(report.entries)
    print(f"{'all pass' if report.passed else 'FAILURES'}: "
          f"{n - len(report.failures)}/{n} parameters within "
          f"{GRADCHECK_TOL}")
    return EXIT_OK if report.passed else EXIT_NUMERIC


def cmd_gen_synth(args) -> int:
    counts = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(SynthSpec)}
    for key, value in counts.items():
        if value < 0:
            raise ConfigError(f"--{key.replace('_', '-')} must be >= 0")
    paths = write_synthetic(args.out, SynthSpec(**counts))
    for k, v in paths.items():
        print(f"{k}: {v}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktabsa",
        description="Multi-task aspect-based sentiment tagger with "
                    "iterative knowledge routing")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("train", help="train a model")
    add_config_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="train without one knowledge path")
    add_config_args(p)
    p.add_argument("--ablate", required=True,
                   help=f"one of: {', '.join(sorted(ABLATIONS))}")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--json-out", default="")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="write predictions as JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("trace", help="export routing coupling matrices")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--direction", required=True,
                   help="source->target, e.g. ote->asc")
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=int, default=0)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all gradients")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("gen-synth", help="write a synthetic corpus bundle")
    p.add_argument("--out", required=True)
    for field in dataclasses.fields(SynthSpec):     # the counts and seed
        p.add_argument(f"--{field.name.replace('_', '-')}", type=int,
                       default=field.default)
    p.set_defaults(fn=cmd_gen_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, CheckpointError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
