"""Corpora, tagging schemes, spans, embeddings, batching, length chunks.

File formats
------------
Aspect corpus: UTF-8 TSV, one token per line as
``token<TAB>ate-tag<TAB>ote-tag<TAB>sentiment-or-_``, blank line between
sentences. An optional sidecar at ``<path>.adj``, the only source of
edges, lists dependency edges as ``<sentence-index> <i> <j>`` (0-based)
and skips blank lines and full-line ``#`` comments. A corpus's matrices
are views of one float32 buffer; they are symmetrized and get a unit
diagonal, and without a sidecar they are the identity.

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
from itertools import chain, compress, repeat
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
        return len({"ddc": self.domain_labels, "dsc": self.dsc_labels}[task])


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
# spans


def extract_spans(tags: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Maximal begin-then-inside runs as (start, end-exclusive) spans.

    Decoding is lenient: an orphan inside tag opens a new span, so model
    output never has to be repaired before evaluation.
    """
    spans: list[tuple[int, int]] = []
    start: int | None = None
    for i, t in enumerate(tags):
        if start is not None and t != INSIDE:
            spans.append((start, i))
            start = None
        if start is None and t != OUTSIDE:
            start = i
    if start is not None:
        spans.append((start, len(tags)))
    return tuple(spans)


def gold_pairs(sent: Sentence) -> tuple[tuple[tuple[int, int], int], ...]:
    """Gold (aspect span, sentiment) pairs; the span's first token labels it."""
    return tuple(((s, e), sent.asc_gold[s])
                 for s, e in extract_spans(sent.ate_gold)
                 if sent.asc_gold[s] is not None)


# ---------------------------------------------------------------------------
# aspect corpus

NO_SENTIMENT = len(DEFAULT_SCHEMES.asc_tags)     # the sentiment code of "_"
_TAG_COLUMNS = {task: getattr(DEFAULT_SCHEMES, f"{task}_tags")
                for task in ("ate", "ote", "asc")}
# per tag column, tag -> code; the reader maps an unknown tag to -1
_TAG_CODES = [{t: i for i, t in enumerate(c)} for c in _TAG_COLUMNS.values()]
_TAG_CODES[2]["_"] = NO_SENTIMENT


def _read_text(path: str) -> tuple[str, CorpusError | None]:
    """The text of a UTF-8 file, and None. For a file with undecodable
    bytes: the lines that :func:`_text_lines` yields before it meets them,
    joined without their last newline, and the error it then raises, which
    the caller raises after any error of those lines."""
    lines: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read(), None
    except UnicodeDecodeError:
        try:
            for _, line in _text_lines(path):
                lines.append(line.rstrip("\n"))
        except CorpusError as e:
            return "\n".join(lines), e
    return "\n".join(lines), None


def _first(mask: np.ndarray) -> int | None:
    return next(iter(np.flatnonzero(mask).tolist()), None)


def _int_or_none(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _load_adjacency(path: str, sizes: np.ndarray, offsets: np.ndarray,
                    buf: np.ndarray) -> None:
    """Set the sidecar's edges both ways in ``buf``, which holds sentence
    s's n x n matrix (n = ``sizes[s]``) from ``offsets[s]`` on."""
    text, decode_error = _read_text(path)
    b = np.frombuffer(text.encode(), np.uint8)
    digit = (b >= 48) & (b <= 57)
    starts = np.flatnonzero(digit & ~np.r_[False, digit[:-1]])
    ends = np.flatnonzero(digit & ~np.r_[digit[1:], False])
    if (digit | (b == 32) | (b == 10)).all() and (ends - starts < 18).all():
        # ASCII digits, spaces and newlines only, no number past int64: the
        # fields parse without a string each (no number at all reads as 0)
        counts = np.bincount(np.cumsum(b == 10)[starts])
        fields = np.fromstring(text, np.int64, sep=" ")[:starts.size]
    else:
        rows = [[] if line.lstrip()[:1] == "#" else line.split()
                for line in text.split("\n")]
        counts = np.fromiter(map(len, rows), np.int64, len(rows))
        fields = list(chain.from_iterable(rows))
    linenos = np.flatnonzero(counts) + 1
    stop = _first(counts[linenos - 1] != 3)
    fields = fields[:None if stop is None else 3 * stop]
    try:            # int() per field, as a line-by-line reader would call it
        v = np.array(fields, np.int64).reshape(-1, 3)
        non_int = np.zeros(len(v), bool)
    except (ValueError, OverflowError):   # past int64 means out of range
        v = np.array(list(map(_int_or_none, fields)), object).reshape(-1, 3)
        non_int = np.equal(v, None).any(axis=1)
        v[np.equal(v, None)] = 0
    si, i, j = v.T
    bad_si = (si < 0) | (si >= sizes.size)
    n = np.append(sizes, 0)[np.where(bad_si, sizes.size, si).astype(np.int64)]
    k = _first(non_int | bad_si | (np.minimum(i, j) < 0)
               | (np.maximum(i, j) >= n))
    if k is not None or stop is not None:     # k comes before stop
        r = stop if k is None else k
        entry = text.split("\n")[linenos[r] - 1].strip()
        raise CorpusError(f"{path}:{linenos[r]}: " + (
            f"expected '<sentence> <i> <j>', got {entry!r}" if k is None else
            f"non-integer edge entry {entry!r}" if non_int[k] else
            f"sentence index {si[k]} out of range (corpus has {sizes.size})"
            if bad_si[k] else f"token index out of range for sentence "
            f"{si[k]} of length {n[k]}"))
    if decode_error is not None:
        raise decode_error
    buf[offsets[si] + i * n + j] = 1.0
    buf[offsets[si] + j * n + i] = 1.0


def load_aspect_corpus(path: str) -> list[Sentence]:
    """Parse the TSV corpus, validating tags, BIO structure, and sentiment
    placement, and add the edges of the ``<path>.adj`` sidecar if it
    exists. The sentences' adjacency matrices are views of one float32
    buffer.

    Each file is read whole and checked as arrays, yet a bad file raises
    the error a line-by-line read meets first: a line's at that line (field
    count, then aspect, opinion and sentiment tags), a sentence's at the
    blank line or end of file closing it (aspect BIO, opinion BIO, then
    sentiment placement token by token). The sidecar follows the corpus; a
    line's errors there are its field count, a non-integer, the sentence
    index, then the token indices. A sidecar of ASCII digits, spaces and
    newlines alone is parsed as one array, not a string per field."""
    text, decode_error = _read_text(path)
    lines = text.split("\n")
    blank = np.array([not line or line.isspace() for line in lines], bool)
    tabs = np.array(list(map(str.count, lines, repeat("\t"))), np.int64)
    stop = _first((tabs != 3) & ~blank)
    error = None if stop is None else (stop, (
        "expected 4 tab-separated fields (token, aspect, opinion, "
        f"sentiment), got {tabs[stop] + 1}"))
    rows = np.flatnonzero(~blank[:stop])
    fields = "\t".join(compress(lines, (~blank[:stop]).tolist())).split("\t")
    cols = [fields[c::4] if rows.size else [] for c in range(4)]
    codes = np.array([list(map(d.get, col, repeat(-1)))
                      for d, col in zip(_TAG_CODES, cols[1:])], np.int64)
    k = _first(codes.min(axis=0) < 0)
    if k is not None:
        c = int(np.argmax(codes[:, k] < 0))
        task, tags = list(_TAG_COLUMNS.items())[c]
        error = (rows[k], f"unknown {task} tag {cols[c + 1][k]!r}; expected "
                          f"one of {tags}")
        rows, cols, codes = rows[:k], [x[:k] for x in cols], codes[:, :k]
    ate, ote, asc = codes
    start = np.diff(rows, prepend=-2) > 1     # after a blank line or first
    starts = np.flatnonzero(start)
    sid = np.cumsum(start) - 1
    firsts = [_first((t == INSIDE) & (start | (np.roll(t, 1) == OUTSIDE)))
              for t in (ate, ote)]
    firsts.append(_first((ate == OUTSIDE) != (asc == NO_SENTIMENT)))
    bad = min((sid[k] for k in firsts if k is not None), default=None)
    # a sentence is closed by the next sentence, by a blank line before the
    # line error, or by the end of a file that decoded whole
    if bad is not None and (
            bad + 1 < starts.size
            or rows[-1] + 1 < (len(lines) if error is None else error[0])
            or (error is None and decode_error is None)):
        b = starts[bad]
        e = starts[bad + 1] if bad + 1 < starts.size else rows.size
        where = f"{path}: sentence {bad} (line {rows[b] + 1})"
        for name, col, k in zip(("aspect", "opinion"), cols[1:], firsts):
            if k is not None and sid[k] == bad:
                raise CorpusError(f"{where}: invalid {name} BIO sequence "
                                  f"{col[b:e]}")
        k = firsts[2]
        raise CorpusError(f"{where}: token {k - b} is " + (
            "inside an aspect span but carries no sentiment"
            if ate[k] != OUTSIDE else
            "outside all aspect spans but carries a sentiment"))
    if error is not None:
        raise CorpusError(f"{path}:{error[0] + 1}: {error[1]}")
    if decode_error is not None:
        raise decode_error

    sizes = np.diff(np.append(starts, rows.size))
    offsets = np.cumsum(sizes * sizes) - sizes * sizes
    buf = np.zeros(int((sizes * sizes).sum()), np.float32)
    buf[offsets[sid] + (np.arange(rows.size) - starts[sid])
        * (sizes[sid] + 1)] = 1.0
    if os.path.exists(path + ".adj"):
        _load_adjacency(path + ".adj", sizes, offsets, buf)
    asc = list(map((*range(NO_SENTIMENT), None).__getitem__, asc.tolist()))
    ate, ote = ate.tolist(), ote.tolist()
    return [Sentence(tuple(cols[0][b:e]), tuple(ate[b:e]), tuple(ote[b:e]),
                     tuple(asc[b:e]), buf[o:o + n * n].reshape(n, n))
            for b, e, o, n in zip(starts.tolist(), (starts + sizes).tolist(),
                                  offsets.tolist(), sizes.tolist())]


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
        golds = []
        for key, labels in (("domain", DEFAULT_SCHEMES.domain_labels),
                            ("sentiment", DEFAULT_SCHEMES.dsc_labels)):
            value = rec.get(key)
            if value is not None and value not in labels:
                raise CorpusError(f"{path}:{lineno}: unknown {key} {value!r}; "
                                  f"expected one of {labels}")
            golds.append(None if value is None else labels.index(value))
        if golds == [None, None]:
            raise CorpusError(f"{path}:{lineno}: record carries neither "
                              "'domain' nor 'sentiment'")
        docs.append(Document(tuple(text.split()), *golds))
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
        return sorted(self.vocab, key=self.vocab.__getitem__)

    @classmethod
    def from_words(cls, words: Sequence[str], matrix: np.ndarray,
                   unk_row: np.ndarray) -> "EmbeddingTable":
        dim = matrix.shape[1] if matrix.size else unk_row.shape[0]
        full = np.vstack([matrix.reshape(-1, dim), unk_row.reshape(1, dim),
                          np.zeros((1, dim), dtype=np.float32)])
        vocab = {w: i for i, w in enumerate(words)}
        return cls(vocab, full.astype(np.float32, copy=False), dim,
                   unk_index=len(words), pad_index=len(words) + 1)


def load_embeddings(path: str) -> EmbeddingTable:
    """Word2vec text format, with an optional ``count dim`` header that must
    match the rows; first-seen row wins on duplicate words."""
    rows: dict[str, np.ndarray] = {}
    dim: int | None = None
    header, count = None, 0
    for lineno, raw in _text_lines(path):
        parts = [p for p in raw.rstrip("\n").split(" ") if p]
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
        if word in rows:
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
        rows[word] = vec
    if dim is None:
        raise CorpusError(f"{path}: embedding file is empty")
    if header not in (None, (count, dim)):
        raise CorpusError(f"{path}:1: header says {header[0]} rows of "
                          f"{header[1]}, the file has {count} of {dim}")
    matrix = np.vstack(list(rows.values()))
    # in float64: a float32 sum of finite rows can overflow, their mean not
    unk = matrix.mean(axis=0, dtype=np.float64).astype(np.float32)
    return EmbeddingTable.from_words(list(rows), matrix, unk)


def random_embeddings(words: Sequence[str], dim: int,
                      rng: np.random.Generator) -> EmbeddingTable:
    """Offline fallback: rows uniform in [-0.25, 0.25], zero pad row."""
    words = list(dict.fromkeys(words))
    matrix = rng.uniform(-0.25, 0.25, size=(len(words), dim)).astype(np.float32)
    unk = rng.uniform(-0.25, 0.25, size=dim).astype(np.float32)
    return EmbeddingTable.from_words(words, matrix, unk)


def corpus_words(sentences: Iterable[Sentence],
                 documents: Iterable[Document] = ()) -> list[str]:
    """Every token once, in order of first appearance."""
    return list(dict.fromkeys(chain.from_iterable(
        it.tokens for it in chain(sentences, documents))))


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
    dev = set(idx[:int(math.floor(fraction * len(items)))].tolist())
    return ([x for i, x in enumerate(items) if i not in dev],
            [x for i, x in enumerate(items) if i in dev])


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
