"""Workload definitions and their seeded inputs, written in the program's
documented file formats.

Everything here is the benchmark's own code and uses only the standard
library, so an edit to ``src/`` cannot change what a workload feeds the
program. The same seed always gives byte-identical files.

Sentence families (mirroring the ones the paper's transfer claim rests on):

* near:   ``the ASPECT VERB OPINION``; polarity sits next to the aspect.
* far:    ``the ASPECT <7-token filler> OPINION``; the opinion is outside
          the convolutional receptive field and a dependency edge links it
          to the aspect, so only routing can carry it across.
* double: two near pairs joined by ``but``.

Long sentences are stitched from the same families and padded with
connective tokens to an exact length. Every sentence's adjacency sidecar is
the token chain plus one aspect-opinion edge per planted pair.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

LAPTOP = (("battery",), ("screen",), ("keyboard",), ("touchpad",),
          ("battery", "life"), ("hard", "drive"), ("charger",), ("fan",))
RESTAURANT = (("pasta",), ("waiter",), ("dessert",), ("bread",),
              ("wine", "list"), ("table", "service"), ("soup",), ("tea",))
OPINIONS = {
    "pos": (("great",), ("superb",), ("lovely",), ("very", "good")),
    "neg": (("poor",), ("awful",), ("broken",), ("really", "bad")),
    "neu": (("fine",), ("average",), ("plain",), ("so", "so")),
}
POLARITIES = ("pos", "neg", "neu")
VERBS = ("is", "was", "felt", "looked")
FILLER = ("that", "we", "tried", "last", "week", "seemed", "quite")
CONNECTIVES = ("and", "then", "so", "also")
FAMILY_SHARES = (("near", 0.4), ("far", 0.4), ("double", 0.2))


@dataclass
class Row:
    """One sentence: tokens, the three tag columns and its planted edges."""

    tokens: list[str] = field(default_factory=list)
    ate: list[str] = field(default_factory=list)
    ote: list[str] = field(default_factory=list)
    asc: list[str] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    # gold (aspect span, polarity index) pairs, spans end-exclusive
    pairs: list[tuple[tuple[int, int], int]] = field(default_factory=list)

    def extend(self, other: "Row") -> None:
        base = len(self.tokens)
        self.tokens += other.tokens
        self.ate += other.ate
        self.ote += other.ote
        self.asc += other.asc
        self.edges += [(i + base, j + base) for i, j in other.edges]
        self.pairs += [((s + base, e + base), p) for (s, e), p in other.pairs]

    def pad(self, word: str) -> None:
        self.tokens.append(word)
        self.ate.append("O")
        self.ote.append("O")
        self.asc.append("_")


def _plain(row: Row, words) -> None:
    for w in words:
        row.pad(w)


def _pair(rng: random.Random, row: Row, aspect, polarity: str,
          middle, lead=("the",)) -> None:
    opinion = rng.choice(OPINIONS[polarity])
    _plain(row, lead)
    a0 = len(row.tokens)
    for k, w in enumerate(aspect):
        row.tokens.append(w)
        row.ate.append("BA" if k == 0 else "IA")
        row.ote.append("O")
        row.asc.append(polarity)
    _plain(row, middle)
    o0 = len(row.tokens)
    for k, w in enumerate(opinion):
        row.tokens.append(w)
        row.ate.append("O")
        row.ote.append("BP" if k == 0 else "IP")
        row.asc.append("_")
    row.edges.append((a0, o0))
    row.pairs.append(((a0, a0 + len(aspect)), POLARITIES.index(polarity)))


def short_row(rng: random.Random, family: str) -> Row:
    row = Row()
    aspects = LAPTOP + RESTAURANT
    if family == "near":
        _pair(rng, row, rng.choice(aspects), rng.choice(POLARITIES),
              (rng.choice(VERBS),))
    elif family == "far":
        _pair(rng, row, rng.choice(aspects), rng.choice(POLARITIES), FILLER)
    else:
        first, second = rng.sample(aspects, 2)
        _pair(rng, row, first, rng.choice(POLARITIES), (rng.choice(VERBS),))
        _pair(rng, row, second, rng.choice(POLARITIES), (rng.choice(VERBS),),
              lead=("but", "the"))
    return row


def short_rows(rng: random.Random, count: int) -> list[Row]:
    """``count`` sentences in the fixed family shares, in seeded order."""
    families: list[str] = []
    for name, share in FAMILY_SHARES[:-1]:
        families += [name] * round(count * share)
    families += [FAMILY_SHARES[-1][0]] * (count - len(families))
    rng.shuffle(families)
    return [short_row(rng, f) for f in families]


def long_row(rng: random.Random, length: int) -> Row:
    """Family segments stitched to exactly ``length`` tokens."""
    row = Row()
    while True:
        seg = short_row(rng, rng.choice(("near", "far", "double")))
        if len(row.tokens) + len(seg.tokens) + 1 > length:
            break
        if row.tokens:
            row.pad(rng.choice(CONNECTIVES))
        row.extend(seg)
    while len(row.tokens) < length:
        row.pad(rng.choice(CONNECTIVES))
    return row


def documents(rng: random.Random, count: int) -> list[dict]:
    docs = []
    for _ in range(count):
        domain, aspects = rng.choice((("Laptop", LAPTOP),
                                      ("Restaurant", RESTAURANT)))
        polarity = rng.choice(POLARITIES)
        words = (("the",) + rng.choice(aspects) + (rng.choice(VERBS),)
                 + rng.choice(OPINIONS[polarity]))
        docs.append({"text": " ".join(words), "domain": domain,
                     "sentiment": polarity})
    return docs


@dataclass(frozen=True)
class CorpusSpec:
    """Sentence counts per length class; 0 means the short families."""

    classes: tuple[tuple[int, int], ...]   # (length or 0, count)

    @property
    def size(self) -> int:
        return sum(c for _, c in self.classes)

    def build(self, rng: random.Random) -> list[Row]:
        rows: list[Row] = []
        for length, count in self.classes:
            if length == 0:
                rows += short_rows(rng, count)
            else:
                rows += [long_row(rng, length) for _ in range(count)]
        rng.shuffle(rows)
        return rows


def write_rows(path: str, rows: list[Row]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            for cols in zip(row.tokens, row.ate, row.ote, row.asc):
                f.write("\t".join(cols) + "\n")
            f.write("\n")
    with open(path + ".adj", "w", encoding="utf-8") as f:
        for si, row in enumerate(rows):
            for i in range(len(row.tokens) - 1):
                f.write(f"{si} {i} {i + 1}\n")
            for i, j in row.edges:
                f.write(f"{si} {i} {j}\n")


@dataclass
class Inputs:
    train: str
    docs: str
    predict: str
    predict_rows: list[Row]
    sha256: str


def write_inputs(out_dir: str, seed: int, workload: "Workload") -> Inputs:
    """Write the workload's train and predict corpora with their adjacency
    sidecars, and its document corpus; the files depend only on ``seed``."""
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"ktabsa-bench:{workload.name}:{seed}")
    paths = {name: os.path.join(out_dir, name)
             for name in ("train.tsv", "docs.jsonl", "predict.tsv")}
    write_rows(paths["train.tsv"], workload.train.build(rng))
    with open(paths["docs.jsonl"], "w", encoding="utf-8") as f:
        for rec in documents(rng, workload.docs):
            f.write(json.dumps(rec) + "\n")
    predict_rows = workload.predict.build(rng)
    write_rows(paths["predict.tsv"], predict_rows)
    digest = hashlib.sha256()
    for name in ("train.tsv", "train.tsv.adj", "docs.jsonl", "predict.tsv",
                 "predict.tsv.adj"):
        with open(os.path.join(out_dir, name), "rb") as f:
            digest.update(name.encode() + b"\0" + f.read())
    return Inputs(paths["train.tsv"], paths["docs.jsonl"],
                  paths["predict.tsv"], predict_rows, digest.hexdigest())


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A unit of work is: set up (read the files, build embeddings and the
    model), train for ``epochs`` epochs with one ``fit`` call per epoch,
    save and reload the trained checkpoint, then ``predict_passes`` passes
    of predict over the predict corpus, the first followed by evaluate +
    write. A run repeats units for its measured seconds, so units are kept
    to a second or two.
    """

    name: str
    why: str
    train: CorpusSpec
    docs: int
    epochs: int
    predict: CorpusSpec
    predict_passes: int = 1


WORKLOADS = {w.name: w for w in (
    Workload(
        "short-train",
        "short sentences, so training pays Python dispatch, the tape and the "
        "optimizer rather than FLOPs; forward-only predict has a 5% tail of "
        "128 tokens that sets the latency tail",
        train=CorpusSpec(((0, 32),)), docs=32, epochs=3,
        predict=CorpusSpec(((0, 190), (128, 10))), predict_passes=2),
    Workload(
        "long-train",
        "sentences of exactly 64 and 128 tokens mixed in one batch, so the "
        "O(n^2 d) votes and routing dominate time and peak memory",
        train=CorpusSpec(((64, 8), (128, 8))), docs=16, epochs=1,
        predict=CorpusSpec(((64, 12), (128, 4))), predict_passes=6),
)}
