"""Full model: iterative multi-task forward pass and checkpointing.

A forward pass runs a chunk of B sentences of any lengths, laid end to end
on one token axis of N rows (a :class:`tensor.Segments`), so token-level
tensors are [N, ·] and document-level ones [B, ·]; nothing is padded.
One forward pass embeds the sentences, runs the shared encoder, produces
five task-specific representations (three token-level tasks, two document-level
auxiliary tasks), and then iterates: each token-level task receives routed
knowledge from the other two, fuses it with the previous iteration's
predictions, and is re-decoded. Domain knowledge (the document-domain
attention weights) is injected only into aspect and opinion extraction;
document-sentiment knowledge only into token sentiment classification.
:meth:`ModelConfig.doc_inputs` is the one table of this wiring, the
``coarse`` ablation's merged form included. The document-task
representations themselves do not iterate, so a forward builds their
signals once, together with the routing prior and the route plan, and
every round reuses them.

The tasks are an axis, not a loop: the shared encoder's one group [1, N,
d_enc] feeds the five task stacks, which run as one [5, N, d] stack, its
document rows run through one attention head, and the three token-level
tasks stay [3, N, ·] from there to the loss. Only routing runs per length
group, a run of G sentences of one length n: a round computes the hidden
parts p = h W of a block of directions' votes in one
:func:`predict_vectors` call of the group's rows, [k, G*n, d_route],
routes those rows against the plan's position parts q = PE W in
target-major order (:func:`route` folds them into the group's squares),
and lays the routed rows along the token axis; it then
projects, fuses and decodes the three targets in one grouped affine map
each, whose narrower inputs are zero-padded to the widest. Each family
of per-task parameters lives as views of one block
(:meth:`layers.Params.block`) that the grouped ops read as it is; names
and the checkpoint stay per task.

The layers and the round are called as units that a tracer can wrap:
:class:`layers.SharedEncoder`, :class:`layers.TaskStack`,
:class:`layers.AttentionHead` and :class:`layers.TokenDecoder` once per
forward or round, :meth:`AbsaModel.transfer_and_aggregate` once per round,
and :func:`predict_vectors` and :func:`route` through this module's names.
Each :func:`route` call follows a :func:`predict_vectors` call of the
same block of directions, whose second positional argument is the first
of them, a :class:`routing.TransferDirection`.

Training and inference share one chunking rule, :func:`data.length_chunks`
(packing without cross-contamination, as in Krell et al. 2021), and
training backpropagates each chunk as soon as it is recorded.

Every parameter registers in the model's :class:`layers.Params` where it is
created, so creation order is the order Adam and gradcheck see and the
payload order of a checkpoint. :meth:`AbsaModel._header` describes a
checkpoint once: ``save`` writes it, and ``load`` accepts exactly it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, zip_longest
from typing import Sequence

import numpy as np

from . import layers as L
from .data import (DEFAULT_SCHEMES, Document, EmbeddingTable, Sentence,
                   TagSchemes, assign_embedding_ids, atomic_write,
                   extract_spans, length_chunks)
from .routing import (RoutingState, RoutingTrace, TransferDirection,
                      directions_per_call, predict_vectors, route,
                      routing_prior, target_votes)
from .tensor import (ConfigError, DivergenceError, Segments, Tensor, concat,
                     default_dtype, dropout, dropout_keep, embedding_lookup,
                     grouped_affine, segment_expand, select, softmax)

ASPECT_TASKS = ("ate", "ote", "asc")
DOC_TASKS = ("ddc", "dsc")
ALL_DIRECTIONS = ("ate->ote", "ate->asc", "ote->ate", "ote->asc",
                  "asc->ate", "asc->ote")

CHECKPOINT_VERSION = 1
CHECKPOINT_MAGIC = b"KTABSA\n"


class CheckpointError(RuntimeError):
    """Unreadable or incompatible checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    d_general: int = 50
    d_domain: int = 30
    d_enc: int = 64
    d_task: int = 64
    d_route: int = 32
    kernel_widths: tuple[int, ...] = (3, 5)
    task_depth: int = 2
    nonlinearity: str = "relu"
    dropout: float = 0.1
    iterations: int = 2          # aggregation rounds T
    route_iters: int = 3         # routing loop length
    transfers: tuple[str, ...] = ALL_DIRECTIONS
    inject_ddc: bool = True
    inject_dsc: bool = True
    coarse: bool = False
    lambda_ate: float = 1.0
    lambda_ote: float = 1.0
    lambda_asc: float = 1.0
    lambda_ddc: float = 1.0
    lambda_dsc: float = 1.0
    seed: int = 1

    def validate(self) -> None:
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.route_iters < 1:
            raise ConfigError(f"route_iters must be >= 1, "
                              f"got {self.route_iters}")
        kw = self.kernel_widths
        if not kw or len(set(kw)) < len(kw) or any(w < 1 or w % 2 == 0
                                                   for w in kw):
            raise ConfigError(f"kernel_widths must be one or more distinct "
                              f"positive odd widths, got {kw}")
        for name in ("d_general", "d_domain", "d_enc", "d_task", "d_route"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, "
                                  f"got {getattr(self, name)}")
        if self.d_enc % len(kw) != 0:
            raise ConfigError(f"d_enc {self.d_enc} is not divisible by the "
                              f"{len(kw)} kernel widths")
        if self.task_depth < 1:
            raise ConfigError(f"task_depth must be >= 1, "
                              f"got {self.task_depth}")
        if self.nonlinearity not in L.NONLINEARITIES:
            raise ConfigError(f"unknown nonlinearity {self.nonlinearity!r}")
        for d in self.transfers:
            if d not in ALL_DIRECTIONS:
                raise ConfigError(f"unknown transfer direction {d!r}")
        for name in ("lambda_ate", "lambda_ote", "lambda_asc", "lambda_ddc",
                     "lambda_dsc"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, "
                                  f"got {value}")
        if self.d_task % 2 != 0:
            raise ConfigError("d_task must be even for sinusoidal positions")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def sources_into(self, target: str) -> tuple[str, ...]:
        return tuple(src for src in ASPECT_TASKS
                     if src != target and f"{src}->{target}" in self.transfers)

    def doc_inputs(self, target: str) -> tuple[str, ...]:
        """The document signals fused into ``target``, in concatenation
        order: the domain attention weights ("ddc.attn") into aspect and
        opinion extraction, the document sentiment distribution and
        attention weights ("dsc.probs", "dsc.attn") into sentiment
        classification. ``coarse`` appends the other task's signals."""
        domain, sentiment = ("ddc.attn",), ("dsc.probs", "dsc.attn")
        if target == "asc":
            return ((sentiment if self.inject_dsc else ())
                    + (domain if self.coarse else ()))
        return ((domain if self.inject_ddc else ())
                + (sentiment if self.coarse else ()))

    def receives_knowledge(self, target: str) -> bool:
        return bool(self.sources_into(target) or self.doc_inputs(target))

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The ``config`` of a checkpoint header; a missing, unknown or
        wrongly typed key raises :class:`ConfigError`. Keys of older
        checkpoints are dropped when they hold the one value the model still
        supports."""
        if not isinstance(d, dict):
            raise ConfigError(f"model config is not an object: {d!r}")
        d = {k: v for k, v in d.items() if k != "max_len"}
        for key, kept in (("pe_mode", "add-both"), ("train_embeddings", True)):
            if key in d and d.pop(key) != kept:
                raise ConfigError(f"model config {key} is no longer "
                                  f"supported; only {kept!r} loads")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        if set(d) != set(defaults):
            raise ConfigError(
                f"model config keys differ: missing "
                f"{sorted(set(defaults) - set(d))}, unknown "
                f"{sorted(set(d) - set(defaults))}")
        for name, default in defaults.items():
            if not _json_type_matches(d[name], default):
                raise ConfigError(f"model config {name} = {d[name]!r} has "
                                  f"the wrong type")
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in d.items()})


def _json_type_matches(value, default) -> bool:
    """Whether a JSON value fits a field with this default: tuples are lists
    of their elements' type, floats accept ints, bools are not ints."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(
            _json_type_matches(v, default[0]) for v in value)
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


# Named knowledge-path ablations: each removes one source of transferred
# knowledge together with its parameters, or switches to the merged
# ("coarse") document-knowledge wiring.
ABLATIONS = {
    "aspect-transfer": {"drop": ("ate->ote", "ate->asc")},
    "opinion-transfer": {"drop": ("ote->ate", "ote->asc")},
    "sentiment-transfer": {"drop": ("asc->ate", "asc->ote")},
    "ddc-transfer": {"inject_ddc": False},
    "dsc-transfer": {"inject_dsc": False},
    "coarse": {"coarse": True},
}


def apply_ablation(config: ModelConfig, name: str) -> ModelConfig:
    if name not in ABLATIONS:
        raise ConfigError(f"unknown ablation {name!r}; valid names: "
                          f"{', '.join(sorted(ABLATIONS))}")
    spec = ABLATIONS[name]
    changes: dict = {k: v for k, v in spec.items() if k != "drop"}
    if "drop" in spec:
        changes["transfers"] = tuple(d for d in config.transfers
                                     if d not in spec["drop"])
    return dataclasses.replace(config, **changes)


@dataclass
class IterationState:
    """Round t's hidden states, tag logits and tag distributions of the
    aspect tasks, each stacked [3, N, ·] in :data:`ASPECT_TASKS` order."""

    t: int
    hidden: Tensor
    logits: Tensor
    probs: Tensor


@dataclass
class Prediction:
    tokens: tuple[str, ...]
    ate_spans: tuple[tuple[int, int], ...]
    ote_spans: tuple[tuple[int, int], ...]
    pairs: tuple[tuple[tuple[int, int], int], ...]


def majority_sentiment(labels: list[int]) -> int:
    """Majority vote over per-token labels; ties go to the tied label whose
    first occurrence in the span comes earliest."""
    counts = Counter(labels)
    top = max(counts.values())
    tied = {lab for lab, c in counts.items() if c == top}
    for lab in labels:
        if lab in tied:
            return lab
    raise AssertionError("unreachable: labels nonempty")


class AbsaModel:
    """Multi-task tagger with iterative inter-task knowledge routing."""

    def __init__(self, config: ModelConfig, schemes: TagSchemes,
                 general: EmbeddingTable, domain: EmbeddingTable):
        config.validate()
        if schemes != DEFAULT_SCHEMES:
            raise ConfigError("only the default tag schemes are supported")
        if general.dim != config.d_general or domain.dim != config.d_domain:
            raise ConfigError(
                f"embedding dims ({general.dim}, {domain.dim}) do not match "
                f"config ({config.d_general}, {config.d_domain})")
        self.config = config
        self.schemes = schemes
        self.general_table = general
        self.domain_table = domain
        self.params = params = L.Params(np.random.default_rng(config.seed))
        # a lone item's Segments, with their windows, by its length, which
        # recurs predict after predict; a chunk's lengths seldom recur
        self.lone = functools.lru_cache(maxsize=64)(Segments)
        c1 = schemes.token_classes

        self.emb_general = params.add(
            "emb.general", general.matrix.astype(default_dtype()))
        self.emb_domain = params.add(
            "emb.domain", domain.matrix.astype(default_dtype()))
        d_emb = general.dim + domain.dim
        self.nonlin = L.NONLINEARITIES[config.nonlinearity]
        self.encoder = L.SharedEncoder(params, d_emb, config.d_enc,
                                       config.kernel_widths,
                                       config.nonlinearity)
        self.stacks = L.TaskStack(params, config.d_enc, config.d_task,
                                  config.task_depth, config.nonlinearity,
                                  ASPECT_TASKS + DOC_TASKS)
        self.decoders = L.TokenDecoder(params, config.d_task, c1,
                                       ASPECT_TASKS)
        self.heads = L.AttentionHead(params, config.d_task, {
            s: schemes.doc_classes(s) for s in DOC_TASKS})

        # the directions of a round grouped by target: the route plan's
        # order, the order of the votes and of the routed vectors, and the
        # entry order of the route weights' block
        order = [f"{src}->{target}" for target in ASPECT_TASKS
                 for src in config.sources_into(target)]
        self.route_weights = params.block(len(order), config.d_task,
                                          config.d_route)
        for name in ALL_DIRECTIONS:
            if name in config.transfers:
                src, tgt = name.split("->")
                params.glorot(f"route.{src}_to_{tgt}.w",
                              (config.d_task, config.d_route),
                              self.route_weights, order.index(name))
        self.order = [TransferDirection(*name.split("->")) for name in order]
        # the targets that fuse knowledge, each with the rows of ``order``
        # routed into it
        self.into = {t: [k for k, d in enumerate(self.order) if d.target == t]
                     for t in ASPECT_TASKS if config.receives_knowledge(t)}

        # the projections and the fusions of the targets are a family
        # each, in target order, created target by target
        projected = [t for t in self.into if self.into[t]]
        proj = {t: config.d_task + len(self.into[t]) * config.d_route
                for t in projected}
        fuse = {t: self._fuse_width(t) for t in self.into}
        self.proj_blocks, self.fuse_blocks = (
            params.family(len(widths), max(widths.values(), default=0),
                          config.d_task) for widths in (proj, fuse))
        for i, target in enumerate(self.into):
            if target in proj:
                params.layer(f"fuse.{target}.proj",
                             (proj[target], config.d_task), self.proj_blocks,
                             projected.index(target))
            params.layer(f"fuse.{target}.out", (fuse[target], config.d_task),
                         self.fuse_blocks, i)

    def _fuse_width(self, target: str) -> int:
        """The hidden vector, three tag distributions and the document
        signals: an attention weight is one wide, a distribution C wide."""
        width = self.config.d_task + 3 * self.schemes.token_classes
        for signal in self.config.doc_inputs(target):
            task, _, kind = signal.partition(".")
            width += 1 if kind == "attn" else self.schemes.doc_classes(task)
        return width

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor, embeddings included, in creation order:
        a copy of the registry the constructor filled."""
        return dict(self.params.tensors)

    # -- forward ------------------------------------------------------------

    def draw_dropout(self, items: Sequence[Sentence | Document],
                     rng: np.random.Generator
                     ) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """Training dropout keep masks, booleans: per item, in item order,
        one [n, d_emb] mask for the embeddings and then one [n, d_enc] mask
        for the shared encoding; None when dropout is off.

        A batch draws all of its masks up front, in batch order, so the
        random stream does not depend on how the batch splits into
        chunks."""
        p = self.config.dropout
        if p == 0:
            return None
        d_emb = self.emb_general.shape[1] + self.emb_domain.shape[1]
        return [(dropout_keep((it.n, d_emb), p, rng),
                 dropout_keep((it.n, self.config.d_enc), p, rng))
                for it in items]

    def _shared(self, items: Sequence[Sentence | Document],
                keep: Sequence[tuple[np.ndarray, np.ndarray]] | None
                ) -> tuple[Tensor, Segments]:
        """Shared encoding [1, N, d_enc] of the items' tokens in item order,
        with dropout when ``keep`` (from :meth:`draw_dropout`) is given, and
        their :class:`Segments`."""
        if not items:
            raise ValueError("a forward pass needs at least one input")
        if any(it.general_ids is None or it.domain_ids is None
               for it in items):
            raise ValueError("input has no embedding ids; run "
                             "assign_embedding_ids first")
        lengths = tuple(it.n for it in items)
        segments = self.lone(lengths) if len(items) == 1 else Segments(lengths)
        general = np.concatenate([it.general_ids for it in items])
        domain = np.concatenate([it.domain_ids for it in items])
        emb = concat([embedding_lookup(self.emb_general, general),
                      embedding_lookup(self.emb_domain, domain)], axis=-1)
        p = self.config.dropout
        if keep is not None:
            emb = dropout(emb, np.concatenate([k[0] for k in keep]), p)
        h = self.encoder(emb, segments)
        if keep is not None:
            h = dropout(h, np.concatenate([k[1] for k in keep]), p)
        return h, segments

    def forward(self, sentences: Sequence[Sentence],
                keep: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
                keep_trace: bool = False
                ) -> tuple[list[IterationState], list[RoutingTrace]]:
        """Run T aggregation rounds over a chunk of sentences of any lengths.

        Returns T+1 states, whose tensors are [3, N, ·], and, if
        ``keep_trace``, the routing traces by round, length group, direction
        and sentence. ``keep`` (from :meth:`draw_dropout`) applies training
        dropout. The document signals and the route plan are built once and
        serve every round."""
        state, doc = self.initial_state(sentences, keep)
        plan = self.route_plan(sentences)
        states = [state]
        traces: list[RoutingTrace] = []
        for _ in range(self.config.iterations):
            state = self.transfer_and_aggregate(
                state, doc, plan, traces if keep_trace else None)
            states.append(state)
        return states, traces

    def initial_state(self, sentences: Sequence[Sentence],
                      keep: Sequence[tuple[np.ndarray, np.ndarray]] | None
                      ) -> tuple[IterationState,
                                 dict[str, tuple[Tensor, int]]]:
        """Round 0 (the task stacks' hidden vectors and their decodes) and
        the document signals that every later round fuses, keyed as in
        :meth:`ModelConfig.doc_inputs`: (x, i) with ``x.data[i]`` [N, ·], an
        attention weight or the sentence's document label distribution at
        each token. Only the signals some target fuses are built: the aspect
        stacks run with the document stacks they need as one [k, N, d]
        :class:`layers.TaskStack` call, and those document rows of its
        output as one :class:`layers.AttentionHead` call."""
        shared, segments = self._shared(sentences, keep)
        wanted = dict.fromkeys(signal for target in ASPECT_TASKS
                               for signal in self.config.doc_inputs(target))
        docs = tuple(s for s in DOC_TASKS
                     if any(signal.startswith(f"{s}.") for signal in wanted))
        hidden = self.stacks(shared, ASPECT_TASKS + docs, segments)
        doc = {}
        if docs:
            a, logits = self.heads(
                select(hidden, slice(len(ASPECT_TASKS), None)), docs,
                segments, tuple(s for s in docs if f"{s}.probs" in wanted))
            for signal in wanted:
                task, _, kind = signal.partition(".")
                doc[signal] = ((a, docs.index(task)) if kind == "attn" else
                               (segment_expand(softmax(logits[task], axis=-1),
                                               segments), 0))
            hidden = select(hidden, slice(0, len(ASPECT_TASKS)))
        return IterationState(0, hidden, *self.decoders(hidden)), doc

    def route_plan(self, sentences: Sequence[Sentence]) -> list[tuple]:
        """Per length group (a run of G sentences of length n): its rows of
        the token axis, its :func:`routing.routing_prior` and the
        directions of :attr:`order` in blocks of at most
        :func:`directions_per_call`, each with its rows of the route
        weights' block and its target votes q [k, 1, n, d_route]."""
        plan, start, rows = [], 0, list(range(len(self.order)))
        for n, run in groupby(sentences, key=lambda s: s.n):
            run = list(run)
            g, size = len(run), directions_per_call(len(run), n)
            blocks = []
            for i in range(0, len(rows), size):
                weights = self.route_weights.rows(rows[i:i + size])
                blocks.append((self.order[i:i + size], weights,
                               target_votes(n, weights)))
            plan.append((slice(start, start + g * n), routing_prior(
                np.stack([s.adjacency for s in run]), self.emb_general.dtype),
                blocks))
            start += g * n
        return plan

    def transfer_and_aggregate(self, state: IterationState,
                               doc: dict[str, tuple[Tensor, int]],
                               plan: list, traces: list[RoutingTrace] | None
                               ) -> IterationState:
        """One aggregation round: per length group and block of ``plan``
        (from :meth:`route_plan`), one :func:`predict_vectors` call of the
        group's rows and one :func:`route` call of them, [k, G*n, d_route],
        each trace appended to ``traces`` unless it is None; then
        :meth:`aggregate` of the routed rows and ``doc``."""
        routed = []
        for tokens, prior, blocks in plan:
            vs = []
            for block, weights, q in blocks:
                p = predict_vectors(state.hidden, *block, tasks=ASPECT_TASKS,
                                    weights=weights, tokens=tokens)
                v, kept = route(p, q, prior, self.config.route_iters)
                if traces is not None:
                    traces += [RoutingTrace(state.t + 1, d.name, [
                        RoutingState(st.c[k, i], st.s[k, i], st.v[k, i])
                        for st in kept]) for k, d in enumerate(block)
                        for i in range(len(prior[0]))]
                del kept    # held past the call, they would raise the peak
                vs.append(v)
            if vs:
                routed.append(concat(vs))
        return self.aggregate(state, concat(routed, axis=1) if routed
                              else None, doc)

    def aggregate(self, state: IterationState, routed: Tensor | None,
                  doc: dict[str, tuple[Tensor, int]]) -> IterationState:
        """Fuse each target's routed knowledge, row k of ``routed`` [k, N,
        d_route] for the k-th direction of :attr:`order`, with the previous
        predictions and its document signals ``doc[signal]`` (from
        :meth:`initial_state`), and re-decode.

        The targets are the groups of one grouped affine map for the
        projection and one for the fusion; a narrower input (fewer sources
        or document signals) ends in zeros, met by zero weight rows."""
        cfg, h, into = self.config, state.hidden, self.into
        fusing = list(into)
        if not fusing:
            return dataclasses.replace(state, t=state.t + 1)
        projected = [t for t in fusing if into[t]]
        if projected:
            p = grouped_affine(
                [[(h, ASPECT_TASKS.index(t))] + [(routed, k) for k in into[t]]
                 for t in projected], *self.proj_blocks)
        fused = self.nonlin(grouped_affine(
            [[(p, projected.index(t)) if into[t]
              else (h, ASPECT_TASKS.index(t))]
             + [(state.probs, i) for i in range(len(ASPECT_TASKS))]
             + [doc[signal] for signal in cfg.doc_inputs(t)]
             for t in fusing], *self.fuse_blocks), inplace=True)
        if len(fusing) < len(ASPECT_TASKS):     # the others keep their state
            fused = select(concat([h, fused]), [
                len(ASPECT_TASKS) + fusing.index(t) if t in fusing else i
                for i, t in enumerate(ASPECT_TASKS)])
        return IterationState(state.t + 1, fused, *self.decoders(fused))

    def forward_document(self, docs: Sequence[Document],
                         keep: Sequence[tuple[np.ndarray, np.ndarray]]
                         | None = None) -> dict[str, Tensor]:
        """Document-task logits [1, B, C] of a chunk of documents of any
        lengths, as the attention head returns them; these do not depend on
        the iteration loop."""
        shared, segments = self._shared(docs, keep)
        return self.heads(self.stacks(shared, DOC_TASKS, segments),
                          DOC_TASKS, segments, DOC_TASKS)[1]

    # -- inference ----------------------------------------------------------

    def checked_forward(self, sentences: Sequence[Sentence],
                        chunk: Sequence[int], keep_trace: bool = False
                        ) -> tuple[list[IterationState], list[RoutingTrace]]:
        """:meth:`forward` of ``sentences[i]`` for i in ``chunk``; a
        non-finite final distribution (a finite checkpoint can still
        overflow the forward) raises :class:`DivergenceError` naming the
        first such sentence's index."""
        with np.errstate(all="ignore"):     # checked below instead
            states, traces = self.forward([sentences[i] for i in chunk],
                                          keep_trace=keep_trace)
        finite = np.isfinite(states[-1].probs.data).all(axis=(0, 2))
        if not finite.all():    # the sentence of the first such token
            row = np.cumsum([sentences[i].n for i in chunk]) <= finite.argmin()
            raise DivergenceError(f"non-finite prediction for sentence "
                                  f"{chunk[row.sum()]}")
        return states, traces

    def _final_tags(self, sentences: Sequence[Sentence]
                    ) -> list[dict[str, np.ndarray]]:
        """Each sentence's final argmax tags [n] per token-level task, in
        input order, one :meth:`checked_forward` per chunk of
        :func:`data.length_chunks`; unindexed sentences are indexed
        first."""
        assign_embedding_ids([s for s in sentences if s.general_ids is None],
                             self.general_table, self.domain_table)
        tags: list = [None] * len(sentences)
        for chunk in length_chunks(sentences):
            states, _ = self.checked_forward(sentences, chunk)
            best, start = states[-1].probs.data.argmax(axis=-1), 0
            for i in chunk:
                end = start + sentences[i].n
                tags[i] = dict(zip(ASPECT_TASKS, best[:, start:end]))
                start = end
        return tags

    def predict_many(self, sentences: Sequence[Sentence]) -> list[Prediction]:
        """Spans and (aspect span, majority sentiment) pairs of every
        sentence, in input order, decoded from :meth:`_final_tags`."""
        preds = []
        for sentence, tags in zip(sentences, self._final_tags(sentences)):
            ate_spans = extract_spans(tags["ate"].tolist())
            ote_spans = extract_spans(tags["ote"].tolist())
            pairs = tuple(
                ((s, e), majority_sentiment(tags["asc"][s:e].tolist()))
                for s, e in ate_spans)
            preds.append(Prediction(sentence.tokens, ate_spans, ote_spans,
                                    pairs))
        return preds

    def predict(self, sentence: Sentence) -> Prediction:
        return self.predict_many([sentence])[0]

    # -- persistence --------------------------------------------------------

    def _header(self) -> dict:
        """The checkpoint header of this model, as JSON reads it back: the
        config, tag schemes, vocabularies and embedding dims, and a manifest
        of the parameters packed as little-endian float32 in creation
        order."""
        manifest, offset = [], 0
        for name, t in self.params.tensors.items():
            manifest.append({"name": name, "shape": list(t.shape),
                             "offset": offset})
            offset += 4 * t.size
        return json.loads(json.dumps({
            "format_version": CHECKPOINT_VERSION,
            "config": dataclasses.asdict(self.config),
            "schemes": dataclasses.asdict(self.schemes),
            "general_vocab": self.general_table.word_list(),
            "domain_vocab": self.domain_table.word_list(),
            "general_dim": self.general_table.dim,
            "domain_dim": self.domain_table.dim,
            "manifest": manifest,
        }))

    def save(self, path: str) -> None:
        """Write the magic, the length of the :meth:`_header` JSON, the
        header and the payload, atomically: an interrupted save leaves any
        earlier file at ``path`` untouched."""
        head = json.dumps(self._header()).encode("utf-8")
        with atomic_write(path, binary=True) as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<Q", len(head)))
            f.write(head)
            for t in self.params.tensors.values():
                f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())

    @staticmethod
    def _read_header(f, path: str) -> dict:
        """Read the header, leaving ``f`` at the payload, and check what
        building its model needs: the format version and both vocabularies
        as lists of distinct strings."""
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint")
        size = f.read(8)
        if len(size) != 8:
            raise CheckpointError(f"{path}: truncated header")
        (hlen,) = struct.unpack("<Q", size)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if hlen > left:
            raise CheckpointError(f"{path}: truncated header: {left} of "
                                  f"{hlen} bytes")
        head = f.read(hlen)
        try:
            header = json.loads(head.decode("utf-8"))
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON
            raise CheckpointError(f"{path}: undecodable header: {e}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint format version "
                f"{header.get('format_version')} is not supported "
                f"(expected {CHECKPOINT_VERSION})")
        for key in ("general_vocab", "domain_vocab"):
            words = header.get(key)
            if not (isinstance(words, list)
                    and all(isinstance(w, str) for w in words)
                    and len(set(words)) == len(words)):
                raise CheckpointError(f"{path}: header field {key!r} is not "
                                      f"a list of distinct strings")
        return header

    @classmethod
    def load(cls, path: str) -> "AbsaModel":
        """Read ``path`` in one pass and build the model of its config and
        vocabularies. Its other header fields must equal that model's
        :meth:`_header` as JSON text, and its payload must hold exactly that
        model's parameters, all finite; otherwise :class:`CheckpointError`
        is raised."""
        with open(path, "rb") as f:
            header = cls._read_header(f, path)
            payload = f.read()
        try:
            config = ModelConfig.from_dict(header.get("config"))
            config.validate()
        except ConfigError as e:
            raise CheckpointError(f"{path}: bad model config: {e}") from None
        # zero tables of the checkpoint's vocabularies: the payload fills them
        general, domain = (
            EmbeddingTable.from_words(words, np.zeros((len(words), dim),
                                                      np.float32),
                                      np.zeros(dim, np.float32))
            for words, dim in ((header["general_vocab"], config.d_general),
                               (header["domain_vocab"], config.d_domain)))
        model = cls(config, DEFAULT_SCHEMES, general, domain)
        expected = model._header()
        listed = header.get("manifest")
        fields = [(key, header.get(key), expected[key])
                  for key in ("schemes", "general_dim", "domain_dim")]
        fields += [(f"manifest entry {i}", got, want) for i, (got, want) in
                   enumerate(zip_longest(listed if isinstance(listed, list)
                                         else [], expected["manifest"]))]
        for name, got, want in fields:
            # compared as JSON text, where 4.0 != 4 and true != 1
            if json.dumps(got) != json.dumps(want):
                raise CheckpointError(f"{path}: header {name} is "
                                      f"{json.dumps(got)}, the model's is "
                                      f"{json.dumps(want)}")
        params = model.params.tensors
        size = 4 * sum(t.size for t in params.values())
        if size != len(payload):
            what = ("truncated" if size > len(payload)
                    else "longer than its manifest")
            raise CheckpointError(
                f"{path}: payload {what}: the manifest lists {size} bytes, "
                f"the file holds {len(payload)}")
        for m, t in zip(expected["manifest"], params.values()):
            # into the model's arrays, which may be views of a block
            t.data[...] = np.frombuffer(payload, "<f4", t.size, m["offset"]
                                        ).reshape(t.shape)
            if not np.isfinite(t.data).all():
                raise CheckpointError(f"{path}: tensor {m['name']} holds a "
                                      f"non-finite value")
        return model
