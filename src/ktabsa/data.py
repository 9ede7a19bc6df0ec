"""Corpora, tagging schemes, spans, embeddings, batching, length chunks.

File formats
------------
Aspect corpus: UTF-8 TSV, one token per line as
``token<TAB>ate-tag<TAB>ote-tag<TAB>sentiment-or-_``, blank line between
sentences. An optional sidecar at ``<path>.adj``, the only source of
edges, lists dependency edges as ``<sentence-index> <i> <j>`` (0-based);
matrices are symmetrized and get a unit diagonal. Without a sidecar,
adjacency is the identity.

Document corpus: JSONL, one object per line with keys ``text`` (required),
``domain`` and ``sentiment`` (each optional, at least one present).

Embeddings: word2vec text format, optional ``count dim`` header, values
finite in float32.

Training cuts sentences and documents alike with :func:`make_batches`.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import routing


class CorpusError(ValueError):
    """Malformed corpus, embedding, or label content."""


def _text_lines(path: str):
    """(line number, line) pairs of a UTF-8 text file; undecodable bytes
    raise :class:`CorpusError` naming the file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            yield from enumerate(f, 1)
        except UnicodeDecodeError as e:
            raise CorpusError(f"{path}: not UTF-8 text: {e}") from None


@contextlib.contextmanager
def atomic_write(path: str, binary: bool = False):
    """Open a temporary file next to ``path`` for writing (UTF-8 text unless
    ``binary``) and rename it over ``path`` once the block completes. A
    write that fails part-way leaves any earlier file at ``path`` intact and
    removes the temporary file."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class TagSchemes:
    """Tag inventories for the three token-level tasks and two document tasks.

    Token-level BIO inventories are ordered (begin, inside, outside), so index
    0/1/2 always mean B/I/O, and sentiment has three polarities. Spans,
    decoders and metrics hard-wire both facts, so :data:`DEFAULT_SCHEMES` is
    the only inventory a model accepts.
    """

    ate_tags: tuple[str, ...] = ("BA", "IA", "O")
    ote_tags: tuple[str, ...] = ("BP", "IP", "O")
    asc_tags: tuple[str, ...] = ("pos", "neg", "neu")
    domain_labels: tuple[str, ...] = ("Laptop", "Restaurant")
    dsc_labels: tuple[str, ...] = ("pos", "neg", "neu")

    @property
    def token_classes(self) -> int:
        return len(self.ate_tags)

    def doc_classes(self, task: str) -> int:
        if task == "ddc":
            return len(self.domain_labels)
        if task == "dsc":
            return len(self.dsc_labels)
        raise KeyError(task)

    def tags_for(self, task: str) -> tuple[str, ...]:
        return {"ate": self.ate_tags, "ote": self.ote_tags,
                "asc": self.asc_tags}[task]

    def index(self, task: str, tag: str) -> int:
        tags = self.tags_for(task)
        try:
            return tags.index(tag)
        except ValueError:
            raise CorpusError(f"unknown {task} tag {tag!r}; "
                              f"expected one of {tags}") from None


DEFAULT_SCHEMES = TagSchemes()

BEGIN, INSIDE, OUTSIDE = 0, 1, 2


@dataclass
class Sentence:
    tokens: tuple[str, ...]
    ate_gold: tuple[int, ...]
    ote_gold: tuple[int, ...]
    asc_gold: tuple[int | None, ...]
    adjacency: np.ndarray
    general_ids: np.ndarray | None = None
    domain_ids: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.tokens)


@dataclass
class Document:
    tokens: tuple[str, ...]
    domain_gold: int | None
    sentiment_gold: int | None
    general_ids: np.ndarray | None = None
    domain_ids: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.tokens)


# ---------------------------------------------------------------------------
# BIO validity and spans


def bio_valid(tags: Sequence[int]) -> bool:
    """Strict BIO: an inside tag must continue a begin/inside run."""
    prev = OUTSIDE
    for t in tags:
        if t == INSIDE and prev not in (BEGIN, INSIDE):
            return False
        prev = t
    return True


def extract_spans(tags: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Maximal begin-then-inside runs as (start, end-exclusive) spans.

    Decoding is lenient: an orphan inside tag opens a new span, so model
    output never has to be repaired before evaluation.
    """
    spans: list[tuple[int, int]] = []
    start: int | None = None
    for i, t in enumerate(tags):
        if t == BEGIN:
            if start is not None:
                spans.append((start, i))
            start = i
        elif t == INSIDE:
            if start is None:
                start = i
        else:
            if start is not None:
                spans.append((start, i))
                start = None
    if start is not None:
        spans.append((start, len(tags)))
    return tuple(spans)


def gold_pairs(sent: Sentence) -> tuple[tuple[tuple[int, int], int], ...]:
    """Gold (aspect span, sentiment) pairs; the span's first token labels it."""
    out = []
    for s, e in extract_spans(sent.ate_gold):
        lab = sent.asc_gold[s]
        if lab is not None:
            out.append(((s, e), lab))
    return tuple(out)


# ---------------------------------------------------------------------------
# aspect corpus


def _load_adjacency(path: str, sentences: list[Sentence]) -> None:
    edges: dict[int, list[tuple[int, int]]] = {}
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise CorpusError(f"{path}:{lineno}: expected "
                              f"'<sentence> <i> <j>', got {line!r}")
        try:
            si, i, j = (int(p) for p in parts)
        except ValueError:
            raise CorpusError(f"{path}:{lineno}: non-integer edge "
                              f"entry {line!r}") from None
        if not 0 <= si < len(sentences):
            raise CorpusError(f"{path}:{lineno}: sentence index {si} out "
                              f"of range (corpus has {len(sentences)})")
        n = sentences[si].n
        if not (0 <= i < n and 0 <= j < n):
            raise CorpusError(f"{path}:{lineno}: token index out of range "
                              f"for sentence {si} of length {n}")
        edges.setdefault(si, []).append((i, j))
    for si, pairs in edges.items():
        a = sentences[si].adjacency
        for i, j in pairs:
            a[i, j] = 1.0
            a[j, i] = 1.0


def load_aspect_corpus(path: str) -> list[Sentence]:
    """Parse the TSV corpus, validating tags, BIO structure, and sentiment
    placement, and add the edges of the ``<path>.adj`` sidecar if it
    exists."""
    sentences: list[Sentence] = []
    tokens: list[str] = []
    ate: list[int] = []
    ote: list[int] = []
    asc: list[int | None] = []
    first_line = 0

    def flush(lineno: int) -> None:
        nonlocal tokens, ate, ote, asc
        if not tokens:
            return
        idx = len(sentences)
        where = f"sentence {idx} (line {first_line})"
        if not bio_valid(ate):
            raise CorpusError(f"{path}: {where}: invalid aspect BIO sequence "
                              f"{[DEFAULT_SCHEMES.ate_tags[t] for t in ate]}")
        if not bio_valid(ote):
            raise CorpusError(f"{path}: {where}: invalid opinion BIO sequence "
                              f"{[DEFAULT_SCHEMES.ote_tags[t] for t in ote]}")
        inside_aspect = [False] * len(tokens)
        for s, e in extract_spans(ate):
            for i in range(s, e):
                inside_aspect[i] = True
        for i, lab in enumerate(asc):
            if inside_aspect[i] and lab is None:
                raise CorpusError(f"{path}: {where}: token {i} is inside an "
                                  "aspect span but carries no sentiment")
            if not inside_aspect[i] and lab is not None:
                raise CorpusError(f"{path}: {where}: token {i} is outside all "
                                  "aspect spans but carries a sentiment")
        sentences.append(Sentence(tuple(tokens), tuple(ate), tuple(ote),
                                  tuple(asc),
                                  np.eye(len(tokens), dtype=np.float32)))
        tokens, ate, ote, asc = [], [], [], []

    for lineno, raw in _text_lines(path):
        line = raw.rstrip("\n")
        if not line.strip():
            flush(lineno)
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise CorpusError(
                f"{path}:{lineno}: expected 4 tab-separated fields "
                f"(token, aspect, opinion, sentiment), got {len(parts)}")
        if not tokens:
            first_line = lineno
        tok, a, o, s = parts
        try:
            ate.append(DEFAULT_SCHEMES.index("ate", a))
            ote.append(DEFAULT_SCHEMES.index("ote", o))
            asc.append(None if s == "_" else DEFAULT_SCHEMES.index("asc", s))
        except CorpusError as e:
            raise CorpusError(f"{path}:{lineno}: {e}") from None
        tokens.append(tok)
    flush(lineno if sentences or tokens else 0)

    if os.path.exists(path + ".adj"):
        _load_adjacency(path + ".adj", sentences)
    return sentences


# ---------------------------------------------------------------------------
# document corpus


def load_document_corpus(path: str) -> list[Document]:
    docs: list[Document] = []
    for lineno, raw in _text_lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as e:
            raise CorpusError(f"{path}:{lineno}: bad JSON: {e}") from None
        if not isinstance(rec, dict):
            raise CorpusError(f"{path}:{lineno}: expected a JSON object, "
                              f"got {type(rec).__name__}")
        text = rec.get("text")
        if not isinstance(text, str) or not text.split():
            raise CorpusError(f"{path}:{lineno}: missing or empty 'text'")
        domain = rec.get("domain")
        sentiment = rec.get("sentiment")
        if domain is None and sentiment is None:
            raise CorpusError(f"{path}:{lineno}: record carries neither "
                              "'domain' nor 'sentiment'")
        di = None
        if domain is not None:
            if domain not in DEFAULT_SCHEMES.domain_labels:
                raise CorpusError(f"{path}:{lineno}: unknown domain "
                                  f"{domain!r}; expected one of "
                                  f"{DEFAULT_SCHEMES.domain_labels}")
            di = DEFAULT_SCHEMES.domain_labels.index(domain)
        si = None
        if sentiment is not None:
            if sentiment not in DEFAULT_SCHEMES.dsc_labels:
                raise CorpusError(f"{path}:{lineno}: unknown sentiment "
                                  f"{sentiment!r}; expected one of "
                                  f"{DEFAULT_SCHEMES.dsc_labels}")
            si = DEFAULT_SCHEMES.dsc_labels.index(sentiment)
        docs.append(Document(tuple(text.split()), di, si))
    return docs


# ---------------------------------------------------------------------------
# embeddings


@dataclass
class EmbeddingTable:
    vocab: dict[str, int]
    matrix: np.ndarray
    dim: int
    unk_index: int
    pad_index: int

    def lookup(self, tokens: Sequence[str]) -> np.ndarray:
        unk = self.unk_index
        return np.array([self.vocab.get(t, unk) for t in tokens],
                        dtype=np.int64)

    def word_list(self) -> list[str]:
        words = [""] * len(self.vocab)
        for w, i in self.vocab.items():
            words[i] = w
        return words

    @classmethod
    def from_words(cls, words: Sequence[str], matrix: np.ndarray,
                   unk_row: np.ndarray) -> "EmbeddingTable":
        dim = matrix.shape[1] if matrix.size else unk_row.shape[0]
        full = np.vstack([matrix.reshape(-1, dim), unk_row.reshape(1, dim),
                          np.zeros((1, dim), dtype=np.float32)])
        vocab = {w: i for i, w in enumerate(words)}
        return cls(vocab, full.astype(np.float32), dim,
                   unk_index=len(words), pad_index=len(words) + 1)


def load_embeddings(path: str) -> EmbeddingTable:
    """Word2vec text format, with an optional ``count dim`` header that must
    match the rows; first-seen row wins on duplicate words."""
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    dim: int | None = None
    header, count = None, 0
    for lineno, raw in _text_lines(path):
        parts = raw.rstrip("\n").split(" ")
        parts = [p for p in parts if p != ""]
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                header = int(parts[0]), int(parts[1])
                continue
            except ValueError:
                pass
        word, vals = parts[0], parts[1:]
        if dim is None:
            dim = len(vals)
            if dim == 0:
                raise CorpusError(f"{path}:{lineno}: row has no values")
        if len(vals) != dim:
            raise CorpusError(f"{path}:{lineno}: expected {dim} values, "
                              f"got {len(vals)}")
        count += 1
        if word in seen:
            warnings.warn(f"{path}:{lineno}: duplicate word {word!r}; "
                          "keeping the first occurrence")
            continue
        try:
            # a value beyond float32's range casts to inf, rejected below
            with np.errstate(over="ignore"):
                vec = np.array([float(v) for v in vals], dtype=np.float32)
        except ValueError:
            raise CorpusError(f"{path}:{lineno}: non-numeric value in "
                              f"embedding row for {word!r}") from None
        if not np.isfinite(vec).all():
            raise CorpusError(f"{path}:{lineno}: non-finite value in "
                              f"embedding row for {word!r}")
        seen.add(word)
        words.append(word)
        rows.append(vec)
    if dim is None:
        raise CorpusError(f"{path}: embedding file is empty")
    if header not in (None, (count, dim)):
        raise CorpusError(f"{path}:1: header says {header[0]} rows of "
                          f"{header[1]}, the file has {count} of {dim}")
    matrix = np.vstack(rows)
    # in float64: a float32 sum of finite rows can overflow, their mean not
    unk = matrix.mean(axis=0, dtype=np.float64).astype(np.float32)
    return EmbeddingTable.from_words(words, matrix, unk)


def random_embeddings(words: Sequence[str], dim: int,
                      rng: np.random.Generator) -> EmbeddingTable:
    """Offline fallback: rows uniform in [-0.25, 0.25], zero pad row."""
    words = list(dict.fromkeys(words))
    matrix = rng.uniform(-0.25, 0.25, size=(len(words), dim)).astype(np.float32)
    unk = rng.uniform(-0.25, 0.25, size=dim).astype(np.float32)
    return EmbeddingTable.from_words(words, matrix, unk)


def corpus_words(sentences: Iterable[Sentence],
                 documents: Iterable[Document] = ()) -> list[str]:
    seen: dict[str, None] = {}
    for s in sentences:
        for t in s.tokens:
            seen.setdefault(t, None)
    for d in documents:
        for t in d.tokens:
            seen.setdefault(t, None)
    return list(seen)


def assign_embedding_ids(items: Iterable[Sentence | Document],
                         general: EmbeddingTable,
                         domain: EmbeddingTable) -> None:
    for it in items:
        it.general_ids = general.lookup(it.tokens)
        it.domain_ids = domain.lookup(it.tokens)


# ---------------------------------------------------------------------------
# splitting and batching


def dev_split(items: Sequence, fraction: float = 0.2,
              seed: int = 0) -> tuple[list, list]:
    """Deterministic, disjoint, exhaustive split; dev takes floor(fraction*n)."""
    if not 0 < fraction < 1:
        raise ValueError(f"dev fraction must be in (0, 1), got {fraction}")
    idx = np.random.default_rng(seed).permutation(len(items))
    n_dev = int(math.floor(fraction * len(items)))
    dev_idx = set(idx[:n_dev].tolist())
    train = [items[i] for i in range(len(items)) if i not in dev_idx]
    dev = [items[i] for i in range(len(items)) if i in dev_idx]
    return train, dev


def make_batches(items: Sequence, batch_size: int, seed: int) -> list[list]:
    """Shuffle with ``seed`` and cut into batches of ``batch_size``."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(items))
    shuffled = [items[i] for i in order]
    return [shuffled[i:i + batch_size]
            for i in range(0, len(shuffled), batch_size)]


def length_chunks(items: Sequence[Sentence | Document]) -> list[list[int]]:
    """The inputs that share a model forward, in training and inference
    alike: the indices of ``items`` sorted stably by length, longest first
    (so long items fill chunks among themselves), cut greedily into chunks
    whose n^2 (one routing direction's couplings per item) sum to at most
    ``routing.COUPLING_BUDGET``; an item over the budget is a chunk alone."""
    chunks: list[list[int]] = []
    for i in sorted(range(len(items)), key=lambda i: -items[i].n):
        cost = items[i].n ** 2
        if not chunks or total + cost > routing.COUPLING_BUDGET:
            chunks.append([])
            total = 0
        chunks[-1].append(i)
        total += cost
    return chunks
