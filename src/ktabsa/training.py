"""Losses, optimization, the two-phase schedule, and gradient checking.

Training runs in two phases: the document tasks are pretrained alone for a
few epochs, then sentence-level batches and document batches alternate at a
configurable ratio. A batch runs one model forward per group of
equal-length inputs ([G, n, ·] tensors, no padding), in order of each
group's first member; its loss is the mean of the per-input losses. Every
epoch ends with a dev evaluation; the checkpoint with the best pair-F1 is
kept. All randomness flows from the model seed, so
a rerun with the same config reproduces the loss trace bit for bit.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import Document, Sentence, length_groups, make_batches
from .metrics import evaluate
from .model import ASPECT_TASKS, AbsaModel, IterationState, ModelConfig
from .tensor import (ConfigError, Tape, Tensor, adam_step, clip_grads,
                     cross_entropy_rows, global_grad_norm, record, scale)


class DivergenceError(ArithmeticError):
    """Training loss or gradient norm became non-finite."""


def aspect_loss(states: Sequence[IterationState],
                sentences: Sequence[Sentence], config: ModelConfig) -> Tensor:
    """Sum of the per-sentence losses of a group of equal-length sentences.

    A sentence's loss is the token-averaged cross-entropy per task on the
    final iteration, weighted by ``config.lambda_ate/ote/asc``. The
    sentiment term averages over labeled tokens only and contributes 0 (not
    NaN) when the sentence has no aspect tokens.
    """
    final = states[-1]
    n = sentences[0].n
    ate = np.array([s.ate_gold for s in sentences], dtype=np.int64)
    ote = np.array([s.ote_gold for s in sentences], dtype=np.int64)
    asc = np.array([[0 if lab is None else lab for lab in s.asc_gold]
                    for s in sentences], dtype=np.int64)
    labeled = np.array([[lab is not None for lab in s.asc_gold]
                        for s in sentences], dtype=np.float64)
    uniform = np.full(ate.shape, 1.0 / n)
    loss = scale(cross_entropy_rows(final.logits["ate"], ate, uniform),
                 config.lambda_ate)
    loss = loss + scale(cross_entropy_rows(final.logits["ote"], ote,
                                           uniform), config.lambda_ote)
    if labeled.any():
        per_token = labeled / np.maximum(labeled.sum(axis=1, keepdims=True),
                                         1.0)
        loss = loss + scale(cross_entropy_rows(final.logits["asc"], asc,
                                               per_token), config.lambda_asc)
    return loss


def _mean_over_groups(items: Sequence, keep: list | None,
                      group_loss: Callable[[list, list | None], Tensor]
                      ) -> Tensor:
    """Mean per-item loss of a batch: ``group_loss(group, keep)`` returns
    the summed loss of one group of equal-length items, given its dropout
    multipliers (None in evaluation)."""
    total: Tensor | None = None
    for idx in length_groups(items):
        loss = group_loss([items[i] for i in idx],
                          None if keep is None else [keep[i] for i in idx])
        total = loss if total is None else total + loss
    return scale(total, 1.0 / len(items))


def batch_aspect_loss(model: AbsaModel, batch: Sequence[Sentence],
                      train: bool, rng: np.random.Generator | None) -> Tensor:
    """Mean per-sentence loss over a batch, one forward per group of
    equal-length sentences. Training draws the dropout of the whole batch
    first, in batch order."""
    def group_loss(group, keep):
        states, _ = model.forward(group, keep)
        return aspect_loss(states, group, model.config)

    keep = model.draw_dropout(batch, rng) if train else None
    return _mean_over_groups(batch, keep, group_loss)


def document_loss(doc_logits: dict[str, Tensor],
                  documents: Sequence[Document],
                  config: ModelConfig) -> Tensor:
    """Sum over a group of documents of the cross-entropy per present
    document label, weighted by ``config.lambda_ddc/dsc``; absent labels
    contribute 0."""
    if any(d.domain_gold is None and d.sentiment_gold is None
           for d in documents):
        raise ValueError("document carries no label")
    loss: Tensor | None = None
    for task, weight, gold in (
            ("ddc", config.lambda_ddc, [d.domain_gold for d in documents]),
            ("dsc", config.lambda_dsc, [d.sentiment_gold for d in documents])):
        present = [g is not None for g in gold]
        if not any(present):
            continue
        term = scale(cross_entropy_rows(
            doc_logits[task], [0 if g is None else g for g in gold],
            np.array(present, dtype=np.float64)), weight)
        loss = term if loss is None else loss + term
    return loss


def batch_document_loss(model: AbsaModel, docs: Sequence[Document],
                        train: bool, rng: np.random.Generator | None
                        ) -> Tensor:
    """Mean per-document loss, one forward per group of equal-length
    documents."""
    def group_loss(group, keep):
        return document_loss(model.forward_document(group, keep), group,
                             model.config)

    keep = model.draw_dropout(docs, rng) if train else None
    return _mean_over_groups(docs, keep, group_loss)


class Adam:
    """Bias-corrected Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data, dtype=np.float32)
                  for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data, dtype=np.float32)
                  for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        for k, p in self.params.items():
            adam_step(p, self.m[k], self.v[k], self.t, self.lr,
                      self.beta1, self.beta2, self.eps)


@dataclass
class Schedule:
    epochs: int = 30
    pretrain_epochs: int = 2
    aspect_batches_per_doc: int = 1
    batch_size: int = 32
    lr: float = 1e-4
    clip_norm: float = 5.0
    patience: int = 10
    target_token_acc: float = 0.0  # 0 disables accuracy-based early stop

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.pretrain_epochs < 0:
            raise ConfigError("pretrain_epochs must be >= 0")
        if self.aspect_batches_per_doc < 1:
            raise ConfigError("aspect_batches_per_doc must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.clip_norm) and self.clip_norm >= 0):
            raise ConfigError(f"clip_norm must be finite and >= 0, "
                              f"got {self.clip_norm}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if not 0.0 <= self.target_token_acc <= 1.0:
            raise ConfigError(f"target_token_acc must be in [0, 1], "
                              f"got {self.target_token_acc}")


@dataclass
class TrainResult:
    best_path: str | None
    best_f1_i: float
    epochs_run: int
    step_losses: list[float] = field(default_factory=list)
    history: list[dict] = field(default_factory=list)
    reached_target_epoch: int | None = None
    final_token_acc: dict[str, float] = field(default_factory=dict)


def token_accuracy(model: AbsaModel,
                   sentences: Sequence[Sentence]) -> dict[str, float]:
    """Argmax tag accuracy per task; sentiment counts labeled tokens only."""
    hit = {t: 0 for t in ASPECT_TASKS}
    total = {t: 0 for t in ASPECT_TASKS}
    for idx in length_groups(sentences):
        group = [sentences[i] for i in idx]
        states, _ = model.forward(group)
        probs = states[-1].probs
        for task, gold in (("ate", [s.ate_gold for s in group]),
                           ("ote", [s.ote_gold for s in group])):
            pred = probs[task].data.argmax(axis=-1)
            hit[task] += int((pred == np.array(gold)).sum())
            total[task] += pred.size
        for pred, sent in zip(probs["asc"].data.argmax(axis=-1), group):
            for i, lab in enumerate(sent.asc_gold):
                if lab is not None:
                    total["asc"] += 1
                    hit["asc"] += int(pred[i] == lab)
    return {t: (hit[t] / total[t] if total[t] else 1.0) for t in ASPECT_TASKS}


def _train_step(model: AbsaModel, opt: Adam, loss_fn: Callable[[], Tensor],
                clip_norm: float, what: str,
                grad_norms: list[float] | None = None) -> float:
    """One optimizer step; returns the loss and appends the pre-clip global
    gradient norm to ``grad_norms``. A non-finite loss or gradient norm
    raises :class:`DivergenceError` before any parameter changes."""
    tape = Tape()
    with record(tape):
        loss = loss_fn()
    value = loss.item()
    if not np.isfinite(value):
        raise DivergenceError(f"non-finite loss on {what}")
    opt.zero_grad()
    tape.backward(loss)
    for emb, row in model.frozen_embedding_rows():
        if emb.grad is not None:
            emb.grad[row] = 0.0
    if clip_norm > 0:
        norm = clip_grads(opt.params.values(), clip_norm)
    else:
        norm = global_grad_norm(opt.params.values())
    if not np.isfinite(norm):
        raise DivergenceError(f"non-finite gradient norm on {what}")
    opt.step()
    if grad_norms is not None:
        grad_norms.append(norm)
    return value


def grad_norm_stats(norms: Sequence[float], clip_norm: float) -> dict:
    """Per-epoch gradient-norm summary; ``clip_frac`` is the share of steps
    whose norm was clipped."""
    if not norms:
        return {"grad_norm_min": None, "grad_norm_mean": None,
                "grad_norm_max": None, "clip_frac": None}
    clipped = sum(n > clip_norm for n in norms) if clip_norm > 0 else 0
    return {"grad_norm_min": float(min(norms)),
            "grad_norm_mean": float(np.mean(norms)),
            "grad_norm_max": float(max(norms)),
            "clip_frac": clipped / len(norms)}


def fit(model: AbsaModel, train_sentences: Sequence[Sentence],
        dev_sentences: Sequence[Sentence], documents: Sequence[Document],
        schedule: Schedule, out_dir: str | None = None,
        log: Callable[[str], None] | None = None) -> TrainResult:
    """Two-phase training loop; deterministic under the model seed."""
    schedule.validate()
    opt = Adam(model.named_parameters(), schedule.lr)
    rng = np.random.default_rng(np.random.SeedSequence(
        [model.config.seed, 9261]))

    result = TrainResult(best_path=None, best_f1_i=-1.0, epochs_run=0)
    metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        open(metrics_path, "w").close()

    def emit(msg: str) -> None:
        if log is not None:
            log(msg)

    def log_epoch(rec: dict) -> None:
        result.history.append(rec)
        if metrics_path is not None:
            with open(metrics_path, "a", encoding="utf-8") as f:
                f.write(json.dumps(rec) + "\n")

    def doc_chunks(seed: int) -> list[list[Document]]:
        order = np.random.default_rng(seed).permutation(len(documents))
        shuffled = [documents[i] for i in order]
        bs = schedule.batch_size
        return [shuffled[i:i + bs] for i in range(0, len(shuffled), bs)]

    # phase 1: document pretraining
    for epoch in range(schedule.pretrain_epochs):
        if not documents:
            break
        t0 = time.time()
        losses, norms = [], []
        for bi, chunk in enumerate(doc_chunks(int(rng.integers(2 ** 31)))):
            losses.append(_train_step(
                model, opt,
                lambda: batch_document_loss(model, chunk, True, rng),
                schedule.clip_norm, f"pretrain epoch {epoch} batch {bi}",
                norms))
        rec = {"epoch": epoch, "phase": "pretrain",
               "J_d": float(np.mean(losses)) if losses else None,
               **grad_norm_stats(norms, schedule.clip_norm),
               "wall_time_s": round(time.time() - t0, 3)}
        result.step_losses.extend(losses)
        log_epoch(rec)
        emit(f"pretrain {epoch}: J_d={rec['J_d']:.4f}")

    # phase 2: alternating aspect/document updates
    best_epoch = -1
    stale = 0
    for epoch in range(schedule.epochs):
        t0 = time.time()
        batches = make_batches(train_sentences, schedule.batch_size,
                               int(rng.integers(2 ** 31)))
        chunks = doc_chunks(int(rng.integers(2 ** 31))) if documents else []
        ci = 0
        ja_losses, jd_losses, norms = [], [], []
        for bi, batch in enumerate(batches):
            ja_losses.append(_train_step(
                model, opt,
                lambda: batch_aspect_loss(model, batch, True, rng),
                schedule.clip_norm, f"epoch {epoch} aspect batch {bi}",
                norms))
            if chunks and (bi + 1) % schedule.aspect_batches_per_doc == 0:
                chunk = chunks[ci % len(chunks)]
                ci += 1
                jd_losses.append(_train_step(
                    model, opt,
                    lambda: batch_document_loss(model, chunk, True, rng),
                    schedule.clip_norm, f"epoch {epoch} doc batch {ci - 1}",
                    norms))
        result.step_losses.extend(ja_losses)
        result.step_losses.extend(jd_losses)
        result.epochs_run = epoch + 1

        rec = {"epoch": epoch, "phase": "joint",
               "J_a": float(np.mean(ja_losses)) if ja_losses else None,
               "J_d": float(np.mean(jd_losses)) if jd_losses else None,
               **grad_norm_stats(norms, schedule.clip_norm)}

        if dev_sentences:
            report = evaluate([model.predict(s) for s in dev_sentences],
                              dev_sentences)
            rec["dev"] = report.as_dict()
            if report.f1_i > result.best_f1_i:
                result.best_f1_i = report.f1_i
                best_epoch = epoch
                stale = 0
                if out_dir is not None:
                    result.best_path = os.path.join(out_dir, "best.ckpt")
                    model.save(result.best_path)
            else:
                stale += 1

        if schedule.target_token_acc > 0:
            acc = token_accuracy(model, train_sentences)
            rec["train_token_acc"] = {k: round(v, 4) for k, v in acc.items()}
            result.final_token_acc = acc
            if (result.reached_target_epoch is None
                    and all(v >= schedule.target_token_acc
                            for v in acc.values())):
                result.reached_target_epoch = epoch + 1

        rec["wall_time_s"] = round(time.time() - t0, 3)
        log_epoch(rec)
        ja = rec.get("J_a")
        emit(f"epoch {epoch}: J_a={ja:.4f}" if ja is not None
             else f"epoch {epoch}")

        if result.reached_target_epoch is not None:
            break
        if dev_sentences and schedule.patience > 0 and stale >= schedule.patience:
            emit(f"early stop: no dev F1-I gain for {schedule.patience} epochs")
            break

    if out_dir is not None and result.best_path is None:
        result.best_path = os.path.join(out_dir, "best.ckpt")
        model.save(result.best_path)
    if schedule.target_token_acc > 0 and not result.final_token_acc:
        result.final_token_acc = token_accuracy(model, train_sentences)
    return result


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradcheckEntry:
    name: str
    shape: tuple[int, ...]
    max_rel_err: float
    passed: bool


@dataclass
class GradcheckReport:
    entries: list[GradcheckEntry]
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self) -> list[GradcheckEntry]:
        return [e for e in self.entries if not e.passed]

    @property
    def worst(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)


def gradcheck_harness(iterations: int = 2, route_iters: int = 2,
                      seed: int = 5, nonlinearity: str = "sigmoid",
                      coarse: bool = False):
    """Small float64 model plus one labeled sentence and one document.

    The harness defaults to the sigmoid nonlinearity: central differences at
    the mandated 1e-3 step are meaningless across a relu kink, and with a few
    hundred relu sites some preactivation always sits within a step of zero.
    relu's backward rule is finite-difference-checked at the op level instead.
    """
    from .data import (DEFAULT_SCHEMES, Document, Sentence,
                       assign_embedding_ids, random_embeddings)
    from .tensor import use_dtype

    config = ModelConfig(
        d_general=5, d_domain=3, d_enc=8, d_task=8, d_route=6,
        kernel_widths=(3,), task_depth=1, nonlinearity=nonlinearity,
        dropout=0.0, iterations=iterations, route_iters=route_iters,
        seed=seed, coarse=coarse)
    words = ["the", "battery", "is", "great", "awful", "service"]
    rng = np.random.default_rng(seed + 101)
    general = random_embeddings(words, config.d_general, rng)
    domain = random_embeddings(words, config.d_domain, rng)
    adjacency = np.eye(4, dtype=np.float32)
    for i in range(3):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    adjacency[1, 3] = adjacency[3, 1] = 1.0
    sentence = Sentence(tokens=("the", "battery", "is", "great"),
                        ate_gold=(2, 0, 2, 2), ote_gold=(2, 2, 2, 0),
                        asc_gold=(None, 0, None, None), adjacency=adjacency)
    document = Document(tokens=("great", "battery", "service"),
                        domain_gold=0, sentiment_gold=0)
    with use_dtype(np.float64):
        model = AbsaModel(config, DEFAULT_SCHEMES, general, domain)
    assign_embedding_ids([sentence], general, domain)
    assign_embedding_ids([document], general, domain)
    return model, sentence, document


def model_gradcheck(model: AbsaModel, sentences: Sequence[Sentence],
                    documents: Sequence[Document] | None = None,
                    step: float = 1e-3, tol: float = 1e-3) -> GradcheckReport:
    """Finite-difference check of the batch sentence loss (and, when
    documents are given, the batch document loss) against analytic
    gradients, per parameter. Inputs of mixed length run as their
    equal-length groups, exactly as in training."""
    params = model.named_parameters()
    report = gradcheck(
        lambda: batch_aspect_loss(model, sentences, False, None),
        params, step=step, tol=tol)
    if not documents:
        return report
    doc_report = gradcheck(
        lambda: batch_document_loss(model, documents, False, None),
        params, step=step, tol=tol)
    merged = []
    for a, b in zip(report.entries, doc_report.entries):
        worst = max(a.max_rel_err, b.max_rel_err)
        merged.append(GradcheckEntry(a.name, a.shape, worst, worst < tol))
    return GradcheckReport(merged, tol)


def gradcheck(build_loss: Callable[[], Tensor], params: dict[str, Tensor],
              step: float = 1e-3, tol: float = 1e-3,
              floor: float = 1e-6) -> GradcheckReport:
    """Compare analytic gradients against central finite differences.

    Parameters must be float64; float32 rounding drowns the comparison.
    ``build_loss`` must be a deterministic pure function of the parameters.
    """
    for p in params.values():
        if p.dtype != np.float64:
            raise ValueError(f"gradcheck requires float64 parameters; "
                             f"{p.name or 'parameter'} is {p.dtype}")
    for p in params.values():
        p.zero_grad()
    tape = Tape()
    with record(tape):
        loss = build_loss()
    tape.backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None
                       else np.zeros_like(p.data))
                for name, p in params.items()}

    entries = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = build_loss().item()
            flat[i] = orig - step
            lo = build_loss().item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            a = analytic[name].reshape(-1)[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            worst = max(worst, err)
        entries.append(GradcheckEntry(name, tuple(p.shape), worst,
                                      worst < tol))
    return GradcheckReport(entries, tol)
