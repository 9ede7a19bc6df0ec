"""Synthetic corpus generator for fully offline training and testing.

Three sentence families with planted aspect/opinion/sentiment patterns:

* near:   "the ASPECT was OPINION" — polarity visible inside the local
          receptive field of the convolutional stacks.
* far:    "the ASPECT of this thing honestly really seemed rather OPINION" —
          the filler block is constant and longer than the receptive field,
          and (aspect, polarity) pairs are cycled evenly, so token-level
          sentiment is unresolvable without cross-token knowledge transfer;
          a dependency edge links the aspect head to the opinion head.
* double: two aspect/opinion pairs with independent polarities in one
          sentence.

Adjacency is a token chain plus one aspect-opinion edge per planted pair.
Documents pair a domain-flavored aspect with one opinion; the domain label
follows the aspect vocabulary and the sentiment label follows the opinion.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .data import atomic_write

LAPTOP_ASPECTS = (("battery",), ("screen",), ("keyboard",), ("trackpad",),
                  ("battery", "life"), ("speakers",))
RESTAURANT_ASPECTS = (("pizza",), ("service",), ("staff",), ("sushi",),
                      ("wine", "list"), ("coffee",))
OPINIONS = {
    "pos": (("great",), ("excellent",), ("amazing",), ("really", "nice")),
    "neg": (("terrible",), ("awful",), ("horrible",), ("really", "bad")),
    "neu": (("okay",), ("average",), ("ordinary",), ("acceptable",)),
}
POLARITIES = ("pos", "neg", "neu")
NEAR_VERBS = ("is", "was", "seemed")
FAR_FILLER = ("of", "this", "thing", "honestly", "really", "seemed", "rather")
FAR_FRACTION = 0.4      # shares of a corpus's far and double sentences
DOUBLE_FRACTION = 0.2


@dataclass
class SynthSpec:
    train_sentences: int = 50
    test_sentences: int = 20
    documents: int = 40
    seed: int = 7


@dataclass
class Row:
    """One sentence in loader-ready form."""

    tokens: list[str]
    ate: list[str]
    ote: list[str]
    asc: list[str]
    edges: list[tuple[int, int]]


def _tag_span(tags: list[str], start: int, words: tuple[str, ...],
              begin: str, inside: str) -> None:
    tags[start] = begin
    for k in range(1, len(words)):
        tags[start + k] = inside


def _append_pair(row: Row, aspect: tuple[str, ...], opinion: tuple[str, ...],
                 polarity: str, filler: tuple[str, ...],
                 lead: tuple[str, ...] = ("the",)) -> None:
    base = len(row.tokens)
    words = list(lead) + list(aspect) + list(filler) + list(opinion)
    row.tokens.extend(words)
    row.ate.extend(["O"] * len(words))
    row.ote.extend(["O"] * len(words))
    row.asc.extend(["_"] * len(words))
    a_start = base + len(lead)
    o_start = base + len(lead) + len(aspect) + len(filler)
    _tag_span(row.ate, a_start, aspect, "BA", "IA")
    _tag_span(row.ote, o_start, opinion, "BP", "IP")
    for k in range(len(aspect)):
        row.asc[a_start + k] = polarity
    row.edges.append((a_start, o_start))


def _near_row(rng: np.random.Generator, aspects) -> Row:
    row = Row([], [], [], [], [])
    aspect = aspects[rng.integers(len(aspects))]
    polarity = POLARITIES[rng.integers(3)]
    opinion = OPINIONS[polarity][rng.integers(len(OPINIONS[polarity]))]
    verb = NEAR_VERBS[rng.integers(len(NEAR_VERBS))]
    _append_pair(row, aspect, opinion, polarity, (verb,))
    return row


def _far_row(rng: np.random.Generator, aspects,
             combo: tuple[int, int]) -> Row:
    row = Row([], [], [], [], [])
    aspect = aspects[combo[0] % len(aspects)]
    polarity = POLARITIES[combo[1]]
    opinion = OPINIONS[polarity][rng.integers(len(OPINIONS[polarity]))]
    _append_pair(row, aspect, opinion, polarity, FAR_FILLER)
    return row


def _double_row(rng: np.random.Generator, aspects) -> Row:
    row = Row([], [], [], [], [])
    seen = rng.choice(len(aspects), size=2, replace=False)
    for k, ai in enumerate(seen):
        pol = POLARITIES[rng.integers(3)]
        opn = OPINIONS[pol][rng.integers(len(OPINIONS[pol]))]
        verb = NEAR_VERBS[rng.integers(len(NEAR_VERBS))]
        lead = ("the",) if k == 0 else ("but", "the")
        _append_pair(row, aspects[ai], opn, pol, (verb,), lead)
    return row


def build_rows(count: int, seed: int) -> list[Row]:
    rng = np.random.default_rng(seed)
    n_far = int(round(count * FAR_FRACTION))
    n_double = int(round(count * DOUBLE_FRACTION))
    n_near = count - n_far - n_double
    # cycle (aspect, polarity) combinations so no aspect acquires a usable
    # polarity prior in the far block
    combos = itertools.cycle(
        [(a, p) for a in range(len(LAPTOP_ASPECTS) + len(RESTAURANT_ASPECTS))
         for p in range(3)])
    rows: list[Row] = []
    all_aspects = LAPTOP_ASPECTS + RESTAURANT_ASPECTS
    for _ in range(n_near):
        rows.append(_near_row(rng, all_aspects))
    for _ in range(n_far):
        rows.append(_far_row(rng, all_aspects, next(combos)))
    for _ in range(n_double):
        rows.append(_double_row(rng, all_aspects))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def build_documents(count: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(count):
        if rng.random() < 0.5:
            domain, aspects = "Laptop", LAPTOP_ASPECTS
        else:
            domain, aspects = "Restaurant", RESTAURANT_ASPECTS
        aspect = aspects[rng.integers(len(aspects))]
        polarity = POLARITIES[rng.integers(3)]
        opinion = OPINIONS[polarity][rng.integers(len(OPINIONS[polarity]))]
        verb = NEAR_VERBS[rng.integers(len(NEAR_VERBS))]
        text = " ".join(("the",) + aspect + (verb,) + opinion)
        docs.append({"text": text, "domain": domain, "sentiment": polarity})
    return docs


def write_rows(path: str, rows: list[Row]) -> None:
    with atomic_write(path) as f:
        for row in rows:
            for tok, a, o, s in zip(row.tokens, row.ate, row.ote, row.asc):
                f.write(f"{tok}\t{a}\t{o}\t{s}\n")
            f.write("\n")
    with atomic_write(path + ".adj") as f:
        for si, row in enumerate(rows):
            n = len(row.tokens)
            for i in range(n - 1):
                f.write(f"{si} {i} {i + 1}\n")
            for i, j in row.edges:
                f.write(f"{si} {i} {j}\n")


SYNTH_CONFIG = """\
# synthetic-corpus training configuration (offline, desk scale)
# paths are relative to this file's directory
aspect_train = {train}
aspect_test = {test}
documents = {docs}
out_dir = {out}

d_general = 24
d_domain = 12
d_enc = 32
d_task = 32
d_route = 16
kernel_widths = 3,5
task_depth = 2
dropout = 0.0
iterations = 2
route_iters = 2

lr = 0.002
batch_size = 16
epochs = 120
pretrain_epochs = 2
patience = 25
dev_fraction = 0.2
seed = 7
"""


def write_synthetic(out_dir: str, spec: SynthSpec) -> dict[str, str]:
    """Write train/test TSVs with adjacency sidecars, the document corpus,
    and a ready-to-run config; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    train = os.path.join(out_dir, "train.tsv")
    test = os.path.join(out_dir, "test.tsv")
    docs = os.path.join(out_dir, "docs.jsonl")
    cfg = os.path.join(out_dir, "synthetic.cfg")
    write_rows(train, build_rows(spec.train_sentences, spec.seed))
    write_rows(test, build_rows(spec.test_sentences, spec.seed + 1))
    with atomic_write(docs) as f:
        for rec in build_documents(spec.documents, spec.seed + 2):
            f.write(json.dumps(rec) + "\n")
    with atomic_write(cfg) as f:
        f.write(SYNTH_CONFIG.format(train="train.tsv", test="test.tsv",
                                    docs="docs.jsonl", out="run"))
    return {"train": train, "test": test, "documents": docs, "config": cfg}
