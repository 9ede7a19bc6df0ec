"""Full model: iterative multi-task forward pass and checkpointing.

A forward pass runs a group of G sentences of equal length n at once, so
every token-level tensor is [G, n, ·] and every document-level one [G, ·];
equal lengths need no padding, and a single sentence is a group of one.
One forward pass embeds the sentences, runs the shared encoder, produces
five task-specific representations (three token-level tasks, two document-level
auxiliary tasks), and then iterates: each token-level task receives routed
knowledge from the other two, fuses it with the previous iteration's
predictions, and is re-decoded. Domain knowledge (the document-domain
attention weights) is injected only into aspect and opinion extraction;
document-sentiment knowledge only into token sentiment classification.
The document-task representations themselves do not iterate, so their
attention weights and predictions are computed once per sentence.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import layers as L
from .data import (BEGIN, INSIDE, Document, EmbeddingTable, Sentence,
                   TagSchemes, extract_spans)
from .routing import (PositionalEncoding, RoutingState, RoutingTrace,
                      TransferDirection, predict_vectors, route)
from .tensor import (ConfigError, Tensor, add, concat, constant,
                     default_dtype, dropout, dropout_keep, embedding_lookup,
                     reshape, softmax)

ASPECT_TASKS = ("ate", "ote", "asc")
DOC_TASKS = ("ddc", "dsc")
ALL_DIRECTIONS = ("ate->ote", "ate->asc", "ote->ate", "ote->asc",
                  "asc->ate", "asc->ote")

CHECKPOINT_VERSION = 1
CHECKPOINT_MAGIC = b"KTABSA\n"


class CheckpointError(RuntimeError):
    """Unreadable or incompatible checkpoint file."""


# Header fields every checkpoint carries besides its format version, with
# their JSON types; manifest entries are checked one by one.
_HEADER_FIELDS = {"config": dict, "schemes": dict, "general_vocab": list,
                  "domain_vocab": list, "general_dim": int,
                  "domain_dim": int, "manifest": list}


def _is_count(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


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

    def sources_into(self, target: str) -> tuple[str, ...]:
        return tuple(src for src in ASPECT_TASKS
                     if src != target and f"{src}->{target}" in self.transfers)

    def injects_into(self, target: str) -> bool:
        if target in ("ate", "ote"):
            return self.inject_ddc or self.coarse
        return self.inject_dsc or self.coarse

    def receives_knowledge(self, target: str) -> bool:
        return bool(self.sources_into(target)) or self.injects_into(target)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)    # JSON writes tuples as lists

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of :meth:`to_dict` after a JSON round trip; a missing,
        unknown or wrongly typed key raises :class:`ConfigError`. Keys of
        older checkpoints are dropped when they hold the one value the model
        still supports."""
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
    t: int
    hidden: dict[str, Tensor]
    logits: dict[str, Tensor]
    probs: dict[str, Tensor]
    doc_attn: dict[str, Tensor]
    doc_logits: dict[str, Tensor]
    doc_probs: dict[str, Tensor]


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


def _broadcast_rows(rows: Tensor, n: int) -> Tensor:
    """Tile per-item rows [G, k] to [G, n, k] differentiably."""
    g, k = rows.shape
    zeros = constant(np.zeros((n, 1), dtype=rows.dtype))
    return add(zeros, reshape(rows, (g, 1, k)))


class AbsaModel:
    """Multi-task tagger with iterative inter-task knowledge routing."""

    def __init__(self, config: ModelConfig, schemes: TagSchemes,
                 general: EmbeddingTable, domain: EmbeddingTable,
                 rng: np.random.Generator | None = None):
        config.validate()
        if general.dim != config.d_general or domain.dim != config.d_domain:
            raise ConfigError(
                f"embedding dims ({general.dim}, {domain.dim}) do not match "
                f"config ({config.d_general}, {config.d_domain})")
        self.config = config
        self.schemes = schemes
        self.general_table = general
        self.domain_table = domain
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        c1 = schemes.token_classes

        self.emb_general = Tensor(general.matrix.astype(default_dtype()),
                                  requires_grad=True, name="emb.general")
        self.emb_domain = Tensor(domain.matrix.astype(default_dtype()),
                                 requires_grad=True, name="emb.domain")
        d_emb = general.dim + domain.dim
        self.nonlin = L.NONLINEARITIES[config.nonlinearity]
        self.encoder = L.SharedEncoder(rng, d_emb, config.d_enc,
                                       config.kernel_widths,
                                       config.nonlinearity)
        self.stacks = {task: L.TaskStack(rng, config.d_enc, config.d_task,
                                         config.task_depth,
                                         config.nonlinearity, f"task.{task}")
                       for task in ASPECT_TASKS + DOC_TASKS}
        self.decoders = {task: L.TokenDecoder(rng, config.d_task, c1,
                                              f"dec.{task}")
                         for task in ASPECT_TASKS}
        self.heads = {s: L.AttentionHead(rng, config.d_task,
                                         schemes.doc_classes(s), f"doc.{s}")
                      for s in DOC_TASKS}
        self.pe = PositionalEncoding(config.d_task)

        self.routes: dict[str, TransferDirection] = {}
        for name in ALL_DIRECTIONS:
            if name not in config.transfers:
                continue
            src, tgt = name.split("->")
            w = Tensor(L.glorot(rng, (config.d_task, config.d_route),
                                config.d_task, config.d_route),
                       requires_grad=True,
                       name=f"route.{src}_to_{tgt}.w")
            self.routes[name] = TransferDirection(src, tgt, w)

        self.proj: dict[str, L.Affine] = {}
        self.fuse: dict[str, L.Affine] = {}
        for target in ASPECT_TASKS:
            srcs = config.sources_into(target)
            if srcs:
                self.proj[target] = L.Affine(
                    rng, config.d_task + len(srcs) * config.d_route,
                    config.d_task, f"fuse.{target}.proj")
            if config.receives_knowledge(target):
                self.fuse[target] = L.Affine(
                    rng, self._fuse_width(target), config.d_task,
                    f"fuse.{target}.out")

    def _fuse_width(self, target: str) -> int:
        c1 = self.schemes.token_classes
        c_dsc = self.schemes.doc_classes("dsc")
        width = self.config.d_task + 3 * c1
        if target in ("ate", "ote"):
            if self.config.inject_ddc:
                width += 1                     # domain attention weight
            if self.config.coarse:
                width += c_dsc + 1             # merged sentiment knowledge
        else:
            if self.config.inject_dsc:
                width += c_dsc + 1             # doc sentiment pred + attention
            if self.config.coarse:
                width += 1                     # merged domain knowledge
        return width

    # -- parameters ---------------------------------------------------------

    def named_tensors(self) -> dict[str, Tensor]:
        """Every persistent tensor, embeddings included, in stable order."""
        out: dict[str, Tensor] = {}

        def put(name, t):
            if name in out:
                raise AssertionError(f"duplicate parameter name {name}")
            out[name] = t

        put("emb.general", self.emb_general)
        put("emb.domain", self.emb_domain)
        for name, t in self.encoder.named():
            put(name, t)
        for task in ASPECT_TASKS + DOC_TASKS:
            for name, t in self.stacks[task].named():
                put(name, t)
        for task in ASPECT_TASKS:
            for name, t in self.decoders[task].named():
                put(name, t)
        for s in DOC_TASKS:
            for name, t in self.heads[s].named():
                put(name, t)
        for dname in ALL_DIRECTIONS:
            if dname in self.routes:
                w = self.routes[dname].weight
                put(w.name, w)
        for target in ASPECT_TASKS:
            if target in self.proj:
                for name, t in self.proj[target].named():
                    put(name, t)
            if target in self.fuse:
                for name, t in self.fuse[target].named():
                    put(name, t)
        return out

    def named_parameters(self) -> dict[str, Tensor]:
        """The trainable tensors: all of :meth:`named_tensors`."""
        return self.named_tensors()

    def manifest(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(name, tuple(t.shape))
                for name, t in self.named_tensors().items()]

    def frozen_embedding_rows(self) -> list[tuple[Tensor, int]]:
        """Rows whose gradients are zeroed every step (the pad rows)."""
        return [(self.emb_general, self.general_table.pad_index),
                (self.emb_domain, self.domain_table.pad_index)]

    # -- forward ------------------------------------------------------------

    def draw_dropout(self, items: Sequence[Sentence | Document],
                     rng: np.random.Generator
                     ) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """Training dropout keep multipliers: per item, in item order, one
        [n, d_emb] array for the embeddings and then one [n, d_enc] array
        for the shared encoding; None when dropout is off.

        A batch draws all of its multipliers up front, in batch order, so the
        random stream does not depend on how the batch splits into
        equal-length groups."""
        p = self.config.dropout
        if p == 0:
            return None
        d_emb = self.emb_general.shape[1] + self.emb_domain.shape[1]
        dtype = self.emb_general.dtype
        return [(dropout_keep((it.n, d_emb), p, rng, dtype),
                 dropout_keep((it.n, self.config.d_enc), p, rng, dtype))
                for it in items]

    def _shared(self, items: Sequence[Sentence | Document],
                keep: Sequence[tuple[np.ndarray, np.ndarray]] | None
                ) -> Tensor:
        """Shared encoding [G, n, d_enc] of a group of equal-length items,
        with dropout when ``keep`` (from :meth:`draw_dropout`) is given."""
        if not items:
            raise ValueError("a forward pass needs at least one input")
        if any(it.n != items[0].n for it in items):
            raise ValueError(f"a group needs inputs of equal length, got "
                             f"lengths {sorted({it.n for it in items})}")
        if any(it.general_ids is None or it.domain_ids is None
               for it in items):
            raise ValueError("input has no embedding ids; run "
                             "assign_embedding_ids or index_tokens first")
        general = np.stack([it.general_ids for it in items])
        domain = np.stack([it.domain_ids for it in items])
        emb = concat([embedding_lookup(self.emb_general, general),
                      embedding_lookup(self.emb_domain, domain)], axis=-1)
        if keep is not None:
            emb = dropout(emb, np.stack([k[0] for k in keep]))
        h = self.encoder(emb)
        if keep is not None:
            h = dropout(h, np.stack([k[1] for k in keep]))
        return h

    def index_tokens(self, sentence: Sentence) -> None:
        sentence.general_ids = self.general_table.lookup(sentence.tokens)
        sentence.domain_ids = self.domain_table.lookup(sentence.tokens)

    def forward(self, sentences: Sequence[Sentence],
                keep: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
                keep_trace: bool = False
                ) -> tuple[list[IterationState], list[tuple[int, RoutingTrace]]]:
        """Run T aggregation rounds over a group of equal-length sentences.

        Returns T+1 states, whose token-level tensors are [G, n, ·] and
        document-level ones [G, ·], and the routing traces (one per
        sentence and direction) labelled with the aggregation round that
        produced them. ``keep`` (from :meth:`draw_dropout`) applies training
        dropout."""
        shared = self._shared(sentences, keep)
        hidden = {task: self.stacks[task](shared) for task in ASPECT_TASKS}
        doc_hidden = {s: self.stacks[s](shared) for s in DOC_TASKS}

        doc_attn, doc_logits, doc_probs = {}, {}, {}
        for s in DOC_TASKS:
            a, _vec, logits = self.heads[s](doc_hidden[s])
            doc_attn[s] = a
            doc_logits[s] = logits
            doc_probs[s] = softmax(logits, axis=-1)

        state = self._decode_state(0, hidden, None, doc_attn, doc_logits,
                                   doc_probs)
        states = [state]
        traces: list[tuple[int, RoutingTrace]] = []
        for t in range(1, self.config.iterations + 1):
            state = self.transfer_and_aggregate(state, sentences, keep_trace,
                                                traces)
            states.append(state)
        return states, traces

    def _decode_state(self, t, hidden, prev: IterationState | None,
                      doc_attn, doc_logits, doc_probs) -> IterationState:
        logits, probs = {}, {}
        for task in ASPECT_TASKS:
            if prev is not None and hidden[task] is prev.hidden[task]:
                logits[task] = prev.logits[task]   # unchanged hidden: reuse
                probs[task] = prev.probs[task]
            else:
                logits[task], probs[task] = self.decoders[task](hidden[task])
        return IterationState(t, hidden, logits, probs, doc_attn, doc_logits,
                              doc_probs)

    def transfer_and_aggregate(self, state: IterationState,
                               sentences: Sequence[Sentence],
                               keep_trace: bool = False,
                               traces: list | None = None) -> IterationState:
        """One aggregation round over the group: route knowledge between the
        token-level tasks, fuse it with the previous predictions and the
        document-level signals, and re-decode."""
        cfg = self.config
        g, n = len(sentences), sentences[0].n
        # the routing prior, built once in the model's dtype for every
        # direction of this round
        adjacency = np.stack([s.adjacency for s in sentences]).astype(
            self.emb_general.dtype, copy=False)
        new_hidden: dict[str, Tensor] = {}
        for target in ASPECT_TASKS:
            srcs = cfg.sources_into(target)
            if not srcs and not cfg.injects_into(target):
                new_hidden[target] = state.hidden[target]
                continue
            parts = [state.hidden[target]]
            for src in srcs:
                direction = self.routes[f"{src}->{target}"]
                r, q = predict_vectors(state.hidden[src], direction, self.pe)
                v, snaps = route(r, q, adjacency, cfg.route_iters,
                                 keep_trace=keep_trace)
                if keep_trace and traces is not None:
                    for i, sent in enumerate(sentences):
                        traces.append((state.t + 1, RoutingTrace(
                            direction.name, sent.tokens, sent.adjacency,
                            [RoutingState(st.iteration, st.b[i], st.c[i],
                                          st.s[i], st.v[i])
                             for st in snaps])))
                parts.append(v)
            h = concat(parts, axis=-1)
            if srcs:
                h = self.proj[target](h)
            fuse_in = [h, state.probs["ate"], state.probs["ote"],
                       state.probs["asc"]]
            if target in ("ate", "ote"):
                if cfg.inject_ddc:
                    fuse_in.append(reshape(state.doc_attn["ddc"], (g, n, 1)))
                if cfg.coarse:
                    fuse_in.append(_broadcast_rows(state.doc_probs["dsc"], n))
                    fuse_in.append(reshape(state.doc_attn["dsc"], (g, n, 1)))
            else:
                if cfg.inject_dsc:
                    fuse_in.append(_broadcast_rows(state.doc_probs["dsc"], n))
                    fuse_in.append(reshape(state.doc_attn["dsc"], (g, n, 1)))
                if cfg.coarse:
                    fuse_in.append(reshape(state.doc_attn["ddc"], (g, n, 1)))
            fused = self.fuse[target](concat(fuse_in, axis=-1))
            new_hidden[target] = self.nonlin(fused)
        return self._decode_state(state.t + 1, new_hidden, state,
                                  state.doc_attn, state.doc_logits,
                                  state.doc_probs)

    def forward_document(self, docs: Sequence[Document],
                         keep: Sequence[tuple[np.ndarray, np.ndarray]]
                         | None = None) -> dict[str, Tensor]:
        """Document-task logits [G, C] of a group of equal-length documents;
        these do not depend on the iteration loop."""
        shared = self._shared(docs, keep)
        out = {}
        for s in DOC_TASKS:
            _a, _vec, logits = self.heads[s](self.stacks[s](shared))
            out[s] = logits
        return out

    # -- inference ----------------------------------------------------------

    def predict(self, sentence: Sentence) -> Prediction:
        if sentence.general_ids is None:
            self.index_tokens(sentence)
        states, _ = self.forward([sentence])
        final = states[-1]
        ate_tags = final.probs["ate"].data[0].argmax(axis=-1)
        ote_tags = final.probs["ote"].data[0].argmax(axis=-1)
        asc_tags = final.probs["asc"].data[0].argmax(axis=-1)
        ate_spans = extract_spans(ate_tags.tolist(), BEGIN, INSIDE)
        ote_spans = extract_spans(ote_tags.tolist(), BEGIN, INSIDE)
        pairs = tuple(
            ((s, e), majority_sentiment(asc_tags[s:e].tolist()))
            for s, e in ate_spans)
        return Prediction(sentence.tokens, ate_spans, ote_spans, pairs)

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the checkpoint through a temporary file in the same
        directory and rename it over ``path``, so an interrupted save
        leaves any earlier file at ``path`` untouched."""
        params = self.named_tensors()
        manifest = []
        offset = 0
        for name, t in params.items():
            manifest.append({"name": name, "shape": list(t.shape),
                             "offset": offset})
            offset += 4 * t.size
        header = {
            "format_version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "schemes": self.schemes.to_dict(),
            "general_vocab": self.general_table.word_list(),
            "domain_vocab": self.domain_table.word_list(),
            "general_dim": self.general_table.dim,
            "domain_dim": self.domain_table.dim,
            "manifest": manifest,
        }
        head = json.dumps(header).encode("utf-8")
        tmp = f"{path}.tmp{os.getpid()}"
        try:
            with open(tmp, "wb") as f:
                f.write(CHECKPOINT_MAGIC)
                f.write(struct.pack("<Q", len(head)))
                f.write(head)
                for t in params.values():
                    f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise

    @staticmethod
    def _read_header(f, path: str) -> dict:
        """Read and check the header, leaving ``f`` at the payload."""
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
        except ValueError as e:     # bad UTF-8 or bad JSON
            raise CheckpointError(f"{path}: undecodable header: {e}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint format version "
                f"{header.get('format_version')} is not supported "
                f"(expected {CHECKPOINT_VERSION})")
        for key, kind in _HEADER_FIELDS.items():
            value = header.get(key)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise CheckpointError(f"{path}: header field {key!r} is "
                                      f"missing or not a {kind.__name__}")
        for key in ("general_vocab", "domain_vocab"):
            if not all(isinstance(w, str) for w in header[key]):
                raise CheckpointError(f"{path}: {key} holds a non-string")
        for m in header["manifest"]:
            if not (isinstance(m, dict) and isinstance(m.get("name"), str)
                    and _is_count(m.get("offset"))
                    and isinstance(m.get("shape"), list)
                    and all(_is_count(k) for k in m["shape"])):
                raise CheckpointError(f"{path}: malformed manifest entry "
                                      f"{m!r}")
        return header

    @classmethod
    def read_header(cls, path: str) -> dict:
        with open(path, "rb") as f:
            return cls._read_header(f, path)

    @classmethod
    def load(cls, path: str) -> "AbsaModel":
        header = cls.read_header(path)
        try:
            config = ModelConfig.from_dict(header["config"])
            config.validate()
            schemes = TagSchemes.from_dict(header["schemes"])
        except (ConfigError, KeyError, TypeError) as e:
            raise CheckpointError(f"{path}: bad header: "
                                  f"{type(e).__name__}: {e}") from None
        dims = (header["general_dim"], header["domain_dim"])
        if dims != (config.d_general, config.d_domain):
            raise CheckpointError(f"{path}: embedding dims {dims} do not "
                                  f"match the model config")

        def build_table(words: list[str], dim: int) -> EmbeddingTable:
            vocab = {w: i for i, w in enumerate(words)}
            matrix = np.zeros((len(words) + 2, dim), dtype=np.float32)
            return EmbeddingTable(vocab, matrix, dim, unk_index=len(words),
                                  pad_index=len(words) + 1)

        model = cls(config, schemes,
                    build_table(header["general_vocab"],
                                header["general_dim"]),
                    build_table(header["domain_vocab"], header["domain_dim"]))
        model.load_payload(path)
        return model

    def load_payload(self, path: str) -> None:
        """Load every tensor from ``path``. The manifest must name exactly
        this model's tensors with their shapes, and its entries must tile
        the payload exactly; otherwise nothing is loaded."""
        with open(path, "rb") as f:
            header = self._read_header(f, path)
            payload = f.read()
        params = self.named_tensors()
        listed = {m["name"] for m in header["manifest"]}
        if listed != set(params):
            missing = sorted(set(params) - listed)
            extra = sorted(listed - set(params))
            raise CheckpointError(
                f"{path}: parameter mismatch; missing={missing} extra={extra}")
        spans = []
        for m in header["manifest"]:
            t = params[m["name"]]
            shape = tuple(m["shape"])
            if shape != t.shape:
                raise CheckpointError(
                    f"{path}: shape mismatch for {m['name']}: checkpoint has "
                    f"{shape}, model has {tuple(t.shape)}")
            spans.append((m["offset"], m["offset"] + 4 * t.size, m["name"],
                          shape))
        spans.sort()
        covered = 0
        for start, end, name, _shape in spans:
            if start != covered:
                raise CheckpointError(
                    f"{path}: payload entry {name} starts at byte {start}, "
                    f"expected {covered}")
            covered = end
        if covered != len(payload):
            what = ("truncated" if covered > len(payload)
                    else "longer than its manifest")
            raise CheckpointError(
                f"{path}: payload {what}: the manifest lists {covered} bytes, "
                f"the file holds {len(payload)}")
        for start, end, name, shape in spans:
            arr = np.frombuffer(payload, dtype="<f4", count=(end - start) // 4,
                                offset=start).reshape(shape)
            # copy: a view of the read-only payload bytes cannot be trained
            params[name].data = np.array(arr, dtype=np.float32)
