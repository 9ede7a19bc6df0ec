"""Command-line interface.

Subcommands: train, eval, predict, ablate, trace, gradcheck, gen-synth.
Exit codes: 0 ok, 2 configuration/usage, 3 data or compatibility, 4 numerical
failure. ``--set``, ``--seed`` and ``KTABSA_OUT_DIR`` (which overrides
``out_dir``) set keys of the one table in :mod:`ktabsa.config`; ``ablate``
trains the configured model through :func:`ktabsa.model.apply_ablation`.
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
                   corpus_words, dev_split, load_aspect_corpus,
                   load_document_corpus, load_embeddings, random_embeddings)
from .metrics import evaluate, write_predictions
from .model import (ABLATIONS, ALL_DIRECTIONS, AbsaModel, CheckpointError,
                    apply_ablation)
from .routing import agreement_trace
from .synth import SynthSpec, write_synthetic
from .tensor import ConfigError
from .training import (DivergenceError, fit, gradcheck_harness,
                       model_gradcheck)

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
    if not os.path.exists(rc.aspect_train):
        raise ConfigError(f"aspect_train: file not found: {rc.aspect_train}")
    schemes = DEFAULT_SCHEMES
    train = load_aspect_corpus(rc.aspect_train, schemes)
    test = []
    if rc.aspect_test:
        if not os.path.exists(rc.aspect_test):
            raise ConfigError(f"aspect_test: file not found: {rc.aspect_test}")
        test = load_aspect_corpus(rc.aspect_test, schemes)
    documents = []
    if rc.documents:
        if not os.path.exists(rc.documents):
            raise ConfigError(f"documents: file not found: {rc.documents}")
        documents = load_document_corpus(rc.documents, schemes)

    words = corpus_words(train + test, documents)
    mc = rc.model
    emb_rng = np.random.default_rng(np.random.SeedSequence([mc.seed, 77]))
    if rc.general_embeddings:
        general = load_embeddings(rc.general_embeddings)
        if general.dim != mc.d_general:
            raise ConfigError(f"general_embeddings have dim {general.dim}; "
                              f"set d_general = {general.dim}")
    else:
        general = random_embeddings(words, mc.d_general, emb_rng)
    if rc.domain_embeddings:
        domain = load_embeddings(rc.domain_embeddings)
        if domain.dim != mc.d_domain:
            raise ConfigError(f"domain_embeddings have dim {domain.dim}; "
                              f"set d_domain = {domain.dim}")
    else:
        domain = random_embeddings(words, mc.d_domain, emb_rng)

    for part in (train, test, documents):
        assign_embedding_ids(part, general, domain)
    return schemes, train, test, documents, general, domain


def _print_report(report) -> None:
    d = report.as_dict()
    widths = [max(len(h), 8) for h in METRIC_HEADERS]
    header = "  ".join(h.rjust(w) for h, w in zip(METRIC_HEADERS, widths))
    values = "  ".join(f"{d[c]:.6f}".rjust(w)
                       for c, w in zip(METRIC_COLUMNS, widths))
    print(header)
    print(values)
    print(json.dumps({c: d[c] for c in METRIC_COLUMNS}))


def _single_run(rc: C.RunConfig, out_dir: str, quiet: bool) -> dict:
    schemes, train, test, documents, general, domain = _build_corpora(rc)
    if rc.dev_fraction > 0:
        train, dev = dev_split(train, rc.dev_fraction, rc.model.seed)
    else:
        dev = []
    model = AbsaModel(rc.model, schemes, general, domain)
    log = None if quiet else print
    result = fit(model, train, dev, documents, rc.schedule,
                 out_dir=out_dir, log=log)
    summary = {"out_dir": out_dir, "epochs_run": result.epochs_run,
               "best_dev_f1_i": result.best_f1_i,
               "checkpoint": result.best_path}
    if test:
        best = AbsaModel.load(result.best_path)
        for s in test:
            best.index_tokens(s)
        report = evaluate([best.predict(s) for s in test], test)
        summary["test"] = report.as_dict()
        if not quiet:
            _print_report(report)
    return summary


def _train_runs(rc: C.RunConfig, quiet: bool) -> int:
    """Echo ``rc`` and train ``rc.runs`` seeds (``seed``, ``seed + 1``, …)
    into ``out_dir/run<k>``, with a mean/std summary over several runs."""
    rc.validate()
    echoed = C.echo_config(rc, rc.out_dir)
    if not quiet:
        print(f"effective config: {echoed}")
    if rc.runs == 1:
        summaries = [_single_run(rc, os.path.join(rc.out_dir, "run0"),
                                 quiet)]
    else:
        summaries = []
        for k in range(rc.runs):
            run_rc = C.with_keys(rc, seed=rc.model.seed + k)
            summaries.append(_single_run(
                run_rc, os.path.join(rc.out_dir, f"run{k}"), quiet))
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
        with open(os.path.join(rc.out_dir, "summary.json"), "w") as f:
            json.dump({"runs": summaries, "aggregate": agg}, f, indent=2)
        if not quiet:
            for name, stats in agg.items():
                print(f"{name}: {stats['mean']:.4f} +/- {stats['std']:.4f} "
                      f"over {rc.runs} runs")
    with open(os.path.join(rc.out_dir, "train_summary.json"), "w") as f:
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
    sentences = load_aspect_corpus(args.corpus, model.schemes)
    for s in sentences:
        model.index_tokens(s)
    return model, sentences


def cmd_eval(args) -> int:
    model, sentences = _load_checkpoint_corpus(args)
    if not sentences:
        print("warning: empty evaluation corpus; all metrics are 0",
              file=sys.stderr)
    report = evaluate([model.predict(s) for s in sentences], sentences)
    _print_report(report)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(report.as_dict(), f, indent=2)
    return EXIT_OK


def cmd_predict(args) -> int:
    model, sentences = _load_checkpoint_corpus(args)
    predictions = [model.predict(s) for s in sentences]
    write_predictions(args.out, predictions, model.schemes)
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return EXIT_OK


def cmd_trace(args) -> int:
    model = AbsaModel.load(args.checkpoint)
    if args.direction not in ALL_DIRECTIONS:
        print(f"unknown direction {args.direction!r}; valid: "
              f"{', '.join(ALL_DIRECTIONS)}", file=sys.stderr)
        return EXIT_CONFIG
    if args.direction not in model.config.transfers:
        print(f"direction {args.direction!r} is disabled in this checkpoint "
              f"(enabled: {', '.join(model.config.transfers)})",
              file=sys.stderr)
        return EXIT_CONFIG
    sentences = load_aspect_corpus(args.corpus, model.schemes)
    os.makedirs(args.out, exist_ok=True)
    limit = args.limit if args.limit > 0 else len(sentences)
    written = []
    for i, sent in enumerate(sentences[:limit]):
        model.index_tokens(sent)
        _states, traces = model.forward([sent], keep_trace=True)
        # export the first aggregation round's routing for the direction
        for step, trace in traces:
            if step == 1 and trace.direction == args.direction:
                path = os.path.join(args.out, f"trace_{i:03d}.json")
                with open(path, "w") as f:
                    json.dump(agreement_trace(trace), f, indent=2)
                written.append(path)
                break
    print(f"wrote {len(written)} trace files to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    model, sentence, document = gradcheck_harness(
        iterations=args.iterations, route_iters=args.route_iters,
        seed=args.seed if args.seed is not None else 5,
        nonlinearity=args.nonlinearity)
    report = model_gradcheck(model, [sentence], [document],
                             step=args.step, tol=args.tol)
    for e in report.entries:
        status = "PASS" if e.passed else "FAIL"
        print(f"{status}  {e.name:<24} {str(e.shape):<14} "
              f"max_rel_err={e.max_rel_err:.3e}")
    n = len(report.entries)
    print(f"{'all pass' if report.passed else 'FAILURES'}: "
          f"{n - len(report.failures)}/{n} parameters within {report.tol}")
    return EXIT_OK if report.passed else EXIT_NUMERIC


def cmd_gen_synth(args) -> int:
    spec = SynthSpec(train_sentences=args.train_sentences,
                     test_sentences=args.test_sentences,
                     documents=args.documents, seed=args.seed)
    paths = write_synthetic(args.out, spec)
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
    p.add_argument("--iterations", type=int, default=2)
    p.add_argument("--route-iters", type=int, default=2)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--nonlinearity", default="sigmoid",
                   choices=("sigmoid", "relu"))
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("gen-synth", help="write a synthetic corpus bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--train-sentences", type=int, default=50)
    p.add_argument("--test-sentences", type=int, default=20)
    p.add_argument("--documents", type=int, default=40)
    p.add_argument("--seed", type=int, default=7)
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
    except (CorpusError, CheckpointError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
