"""Run one benchmark workload in this process and report it as JSON lines.

``run.py`` starts this file as a fresh child process, with the BLAS thread
variables set to 1 before numpy is imported and ``src`` on the import path.
It drives the program only through its public entry points: ``data.load_*``,
``training.fit``, ``AbsaModel.save/load/predict`` and
``metrics.evaluate/write_predictions``.

Each stdout line is one JSON object:

* ``{"kind": "env", ...}``: environment and input identity;
* ``{"kind": "plan", "ops_per_unit": n}``: operations in a unit of work;
* ``{"kind": "unit", ...}``: operations attempted and failed, per unit;
* ``{"kind": "result", ...}``: the metrics, after every check.

An operation is one training step or one predicted sentence. With
``--trace 1`` untraced and traced units alternate, and the result holds the
per-layer metrics of the traced units; otherwise no tracer code is imported.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from ktabsa import data, metrics, model as kmodel, training

import workloads as W

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("train_sent_per_s", "sent/s"),
              ("loss_end", "nat"), ("peak_rss_mb", "MB"),
              ("predict_sent_per_s", "sent/s"), ("predict_ms_p50", "ms"),
              ("predict_ms_p99", "ms"))
BATCH_SIZE = 32
LR = 2e-3            # large enough that a few steps visibly lower J_a
EMBEDDING_SEED = 77
ROUNDTRIP_SAMPLE = 16
MIN_UNITS = 3        # medians need at least three units
MAX_RUN_S = 150.0    # start no unit after this; a run must end within 180 s
clock = time.perf_counter


def emit(kind: str, **fields) -> None:
    print(json.dumps({"kind": kind, **fields}), flush=True)


# ---------------------------------------------------------------------------
# environment


def git_revision(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except Exception:   # the config layout differs across numpy versions
        return "unknown"


def blas_threads_runtime() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: str, workload: str, seed: int, digest: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_library(),
        "blas_threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas_threads_runtime": blas_threads_runtime(),
        "git_revision": git_revision(root),
        "workload": workload,
        "seed": seed,
        "inputs_sha256": digest,
    }


# ---------------------------------------------------------------------------
# checks


def well_formed(pred, row: W.Row) -> bool:
    """Spans in range, sorted and disjoint; pairs name ATE spans and a
    known polarity."""
    n = len(row.tokens)
    if tuple(pred.tokens) != tuple(row.tokens):
        return False
    for spans in (pred.ate_spans, pred.ote_spans):
        end = 0
        for span in spans:
            if len(span) != 2 or not end <= span[0] < span[1] <= n:
                return False
            end = span[1]
    ate = set(map(tuple, pred.ate_spans))
    return all(tuple(span) in ate and lab in range(len(W.POLARITIES))
               for span, lab in pred.pairs)


def pair_f1(preds, rows) -> float:
    """F1-I counted from the generator's own gold pairs."""
    tp = fp = fn = 0
    for pred, row in zip(preds, rows):
        got = {(tuple(span), lab) for span, lab in pred.pairs}
        gold = set(row.pairs)
        tp += len(got & gold)
        fp += len(got - gold)
        fn += len(gold - got)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def written_matches(path: str, preds) -> bool:
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    if len(records) != len(preds):
        return False
    for rec, pred in zip(records, preds):
        want = {"tokens": list(pred.tokens),
                "ate_spans": [list(s) for s in pred.ate_spans],
                "ote_spans": [list(s) for s in pred.ote_spans],
                "pairs": [{"span": list(span),
                           "sentiment": W.POLARITIES[lab]}
                          for span, lab in pred.pairs]}
        if rec != want:
            return False
    return True


# ---------------------------------------------------------------------------
# one unit of work


class Run:
    """State shared by the units of one run: inputs, references, problems."""

    def __init__(self, workload: W.Workload, inputs: W.Inputs, work: str):
        self.w = workload
        self.inputs = inputs
        self.work = work
        self.schedule = training.Schedule(
            epochs=1, pretrain_epochs=0, batch_size=BATCH_SIZE, lr=LR,
            patience=0)
        # one aspect step per batch, each followed by one document step
        self.steps_per_epoch = 2 * math.ceil(workload.train.size / BATCH_SIZE)
        self.planned_steps = workload.epochs * self.steps_per_epoch
        # at most: only the first unit adds the round-trip sample
        self.ops_per_unit = (self.planned_steps + ROUNDTRIP_SAMPLE
                             + workload.predict_passes
                             * workload.predict.size)
        # each pass predicts the sentences in a fresh seeded order, so that
        # a GC pause, which recurs at the same point of every unit's
        # allocations, lands on another sentence each time
        self.order_rng = random.Random(inputs.sha256)
        self.ref_losses: list[float] | None = None
        self.ref_preds: list | None = None
        self.problems: list[str] = []

    def build(self):
        """Set-up part one: read the files, build embeddings and model."""
        train = data.load_aspect_corpus(self.inputs.train)
        docs = data.load_document_corpus(self.inputs.docs)
        pred = data.load_aspect_corpus(self.inputs.predict)
        config = kmodel.ModelConfig()
        rng = np.random.default_rng(EMBEDDING_SEED)
        words = data.corpus_words(train + pred, docs)
        general = data.random_embeddings(words, config.d_general, rng)
        domain = data.random_embeddings(words, config.d_domain, rng)
        data.assign_embedding_ids(train, general, domain)
        data.assign_embedding_ids(docs, general, domain)
        net = kmodel.AbsaModel(config, data.DEFAULT_SCHEMES, general, domain)
        return train, docs, pred, net

    def train(self, net, train, docs) -> tuple[int, list[float], float]:
        """Fit one epoch per ``fit`` call, so that each call is a short
        timed sample; returns (failed steps, call seconds, final J_a)."""
        failed, seconds, losses, loss_end = 0, [], [], math.nan
        for _ in range(self.w.epochs):
            t0 = clock()
            try:
                result = training.fit(net, train, [], docs, self.schedule)
            except Exception:   # divergence or a crash fails the call
                traceback.print_exc()
                failed += self.steps_per_epoch
                continue
            seconds.append(clock() - t0)
            step = result.step_losses
            losses += step
            loss_end = result.history[-1]["J_a"]
            failed += min(self.steps_per_epoch,
                          sum(not math.isfinite(x) for x in step)
                          + abs(self.steps_per_epoch - len(step)))
        if not all(np.isfinite(t.data).all()
                   for t in net.named_parameters().values()):
            failed = self.planned_steps
        if self.ref_losses is None:
            self.ref_losses = losses
        elif losses != self.ref_losses:
            self.problems.append("fit loss trace differs between units")
        return failed, seconds, loss_end

    def roundtrip(self, net, served, pred) -> int:
        failed = 0
        for s in pred[:ROUNDTRIP_SAMPLE]:
            if net.predict(s) != served.predict(s):
                failed += 1
        if failed:
            self.problems.append(f"{failed} saved-then-loaded predictions "
                                 "differ from the in-memory model's")
        return failed

    def predict_timed(self, served, pred):
        """One timed pass of ``predict`` over every sentence, in a fresh
        seeded order; returns (latencies, predictions), indexed like
        ``pred``."""
        lat, preds = [0.0] * len(pred), [None] * len(pred)
        order = list(range(len(pred)))
        self.order_rng.shuffle(order)
        for i in order:
            t = clock()
            try:
                preds[i] = served.predict(pred[i])
            except Exception:
                traceback.print_exc()
            lat[i] = clock() - t
        return lat, preds

    def score(self, served, pred, preds, out: str):
        """Evaluate and write the predictions; returns (seconds, report)."""
        safe = [p if p is not None else
                kmodel.Prediction(s.tokens, (), (), ())
                for p, s in zip(preds, pred)]
        t = clock()
        report = metrics.evaluate(safe, pred)
        metrics.write_predictions(out, safe, served.schemes)
        return clock() - t, report

    def check_pass(self, preds, report, out: str) -> int:
        """Failed predictions; a pass must repeat the first one exactly."""
        rows = self.inputs.predict_rows
        if self.ref_preds is not None:
            return sum(p is None or p != ref
                       for p, ref in zip(preds, self.ref_preds))
        self.ref_preds = preds
        bad = sum(p is None or not well_formed(p, r)
                  for p, r in zip(preds, rows))
        if not math.isclose(pair_f1(preds, rows), report.f1_i,
                            rel_tol=1e-9, abs_tol=1e-12):
            self.problems.append("metrics.evaluate F1-I disagrees with the "
                                 "recount")
        if not written_matches(out, preds):
            self.problems.append("write_predictions output does not match "
                                 "the predictions")
        return bad

    def unit(self, first: bool) -> dict:
        """Set up, fit, checkpoint, then the workload's predict passes, the
        first one evaluated and written; only the timed phases count toward
        the metrics."""
        t0 = clock()
        train, docs, pred, net = self.build()
        setup_s = clock() - t0

        failed, fit_s, loss_end = self.train(net, train, docs)

        t0 = clock()
        ckpt = os.path.join(self.work, "model.ckpt")
        net.save(ckpt)
        served = kmodel.AbsaModel.load(ckpt)
        setup_s += clock() - t0

        out = os.path.join(self.work, "predictions.jsonl")
        latencies = []
        for k in range(self.w.predict_passes):
            lat, preds = self.predict_timed(served, pred)
            latencies.append(lat)
            if k == 0:
                score_s, report = self.score(served, pred, preds, out)
            failed += self.check_pass(preds, report, out)
        attempted = self.planned_steps + len(latencies) * len(pred)
        if first:
            attempted += ROUNDTRIP_SAMPLE
            failed += self.roundtrip(net, served, pred)
        return {"setup_s": setup_s,
                "fit_s": fit_s, "train_sent": len(train),
                "loss_end": loss_end,
                "latencies": latencies, "score_s": score_s,
                "timed_s": (setup_s + sum(fit_s) + sum(map(sum, latencies))
                            + score_s),
                "attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------
# runs


def end_to_end(units: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced units.

    Each timed piece is taken at its fastest repeat: a sentence's latency is
    its fastest of the run's predict passes, a predict pass is the fastest
    latencies plus the fastest evaluate+write, and training throughput is
    that of the fastest one-epoch ``fit`` call. Neighbour load on a shared
    host slows stretches of seconds by up to 1.8x; the fastest repeat is
    the estimate of the program's own cost that such stretches disturb
    least. p99 is the exception: it is taken within each pass, at the pass
    where it is lowest, because the top of the sentences' fastest latencies
    is the few sentences that never met a fast stretch, while one pass is
    short enough to fall inside a single stretch. Set-up time is the
    fastest unit's too: a median of units follows whichever host speed held
    for most of the run, and moved by 30-40% between sets of runs.
    """
    passes = np.array([lat for u in units for lat in u["latencies"]]) * 1e3
    fastest = passes.min(axis=0)
    best_pass = fastest.sum() / 1e3 + min(u["score_s"] for u in units)
    values = {
        "setup_s": min(u["setup_s"] for u in units),
        "train_sent_per_s": units[0]["train_sent"] / min(
            t for u in units for t in u["fit_s"]),
        "loss_end": units[0]["loss_end"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "predict_sent_per_s": fastest.size / best_pass,
        "predict_ms_p50": float(np.percentile(fastest, 50)),
        "predict_ms_p99": float(np.percentile(passes, 99, axis=1).min()),
    }
    return values, {"units": len(units), "predict_passes": len(passes),
                    "predict_samples": fastest.size}


def measure(run: Run, seconds: float, trace: bool):
    start = clock()
    tracer = None
    if trace:
        from tracer import METRICS, Tracer   # end-to-end runs never import it
        tracer = Tracer()
    untraced, traced, layer_runs = [], [], []
    while True:
        is_traced = trace and len(untraced) > len(traced)
        if is_traced:
            tracer.reset()
            tracer.install()
            try:
                u = run.unit(first=False)
            finally:
                tracer.uninstall()
            layer_runs.append(tracer.results(u["timed_s"]))
            traced.append(u)
        else:
            u = run.unit(first=not untraced)
            untraced.append(u)
        emit("unit", attempted=u["attempted"], failed=u["failed"])
        gc.collect()
        elapsed = clock() - start
        # stop when the next unit (with tracing: the next pair) would
        # overrun the measured seconds
        if trace:
            if is_traced and elapsed * (1 + 1 / len(traced)) > seconds:
                break
        elif (len(untraced) >= MIN_UNITS
              and elapsed * (1 + 1 / len(untraced)) > seconds):
            break
        if elapsed > MAX_RUN_S:
            break
    units = untraced + traced
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    if trace:
        values = {name: statistics.median(r[name] for r in layer_runs)
                  for name, _ in METRICS}
        values["trace.overhead_frac"] = (
            min(u["timed_s"] for u in traced)
            / min(u["timed_s"] for u in untraced) - 1.0)
        unit_of = dict(METRICS)
        notes = {"units": len(units), "traced_units": len(traced),
                 "missing_hooks": tracer.missing()}
    else:
        values, notes = end_to_end(untraced)
        unit_of = dict(END_TO_END)
    metrics_out = {name: {"value": values[name], "unit": unit_of[name]}
                   for name in unit_of}
    return attempted, failed, metrics_out, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workload = W.WORKLOADS[args.workload]
    try:
        inputs = W.write_inputs(os.path.join(args.workdir, "inputs"),
                                args.seed, workload)
        emit("env", **environment(root, workload.name, args.seed,
                                  inputs.sha256))
        run = Run(workload, inputs, args.workdir)
        emit("plan", ops_per_unit=run.ops_per_unit)
        attempted, failed, values, notes = measure(run, args.seconds,
                                                   bool(args.trace))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    notes["problems"] = run.problems
    emit("result", correct=failed == 0 and not run.problems,
         attempted=attempted, failed=failed, metrics=values, notes=notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
