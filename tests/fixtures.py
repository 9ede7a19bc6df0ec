"""Shared model fixtures: tiny configurations and synthetic inputs."""

from __future__ import annotations

import importlib
import json
import os
import struct
import sys

import numpy as np

from ktabsa import tensor as T
from ktabsa.data import (DEFAULT_SCHEMES, Document, Sentence,
                         assign_embedding_ids, random_embeddings)
from ktabsa.model import AbsaModel, ModelConfig

TINY_WORDS = ["the", "battery", "is", "great", "screen", "awful", "service",
              "okay"]


def tiny_config(**overrides) -> ModelConfig:
    base = dict(d_general=6, d_domain=4, d_enc=8, d_task=8, d_route=6,
                kernel_widths=(3,), task_depth=1, nonlinearity="relu",
                dropout=0.0, iterations=2, route_iters=2, seed=3)
    base.update(overrides)
    return ModelConfig(**base)


def chain_adjacency(n: int, extra=()) -> np.ndarray:
    a = np.eye(n, dtype=np.float32)
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    for i, j in extra:
        a[i, j] = a[j, i] = 1.0
    return a


def tiny_sentence() -> Sentence:
    # "the battery is great": aspect span at token 1, opinion at token 3
    return Sentence(
        tokens=("the", "battery", "is", "great"),
        ate_gold=(2, 0, 2, 2),
        ote_gold=(2, 2, 2, 0),
        asc_gold=(None, 0, None, None),
        adjacency=chain_adjacency(4, extra=[(1, 3)]),
    )


def random_sentence(rng: np.random.Generator, n: int) -> Sentence:
    """Sentence of n tiny-vocabulary tokens with random tags and a chain
    dependency prior; roughly every other token carries a sentiment label."""
    tokens = tuple(rng.choice(TINY_WORDS, size=n))
    asc = tuple(int(rng.integers(3)) if rng.random() < 0.5 else None
                for _ in range(n))
    return Sentence(tokens, tuple(int(t) for t in rng.integers(3, size=n)),
                    tuple(int(t) for t in rng.integers(3, size=n)), asc,
                    chain_adjacency(n))


def tiny_document() -> Document:
    return Document(tokens=("great", "battery", "overall"),
                    domain_gold=0, sentiment_gold=0)


def random_model(config: ModelConfig, words, rng: np.random.Generator,
                 *indexed) -> AbsaModel:
    """A model on random embeddings of ``words``, general then domain from
    ``rng``, with each list of ``indexed`` items indexed by its tables."""
    model = AbsaModel(config, DEFAULT_SCHEMES,
                      random_embeddings(words, config.d_general, rng),
                      random_embeddings(words, config.d_domain, rng))
    for items in indexed:
        assign_embedding_ids(items, model.general_table, model.domain_table)
    return model


def build_tiny_model(config: ModelConfig | None = None, seed: int = 11,
                     index=()):
    """Model plus indexed sentence/document on random tiny embeddings."""
    sent, doc = tiny_sentence(), tiny_document()
    model = random_model(config or tiny_config(), TINY_WORDS,
                         np.random.default_rng(seed), [sent, doc, *index])
    return model, sent, doc


def build_tiny_model_f64(config: ModelConfig | None = None, seed: int = 11):
    with T.use_dtype(np.float64):
        return build_tiny_model(config, seed)


def bench_inputs(out_dir, workload: str, seed: int):
    """The benchmark's seeded input files of ``workload``."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    return workloads.write_inputs(str(out_dir), seed,
                                  workloads.WORKLOADS[workload])


def with_header(raw: bytes, head: bytes) -> bytes:
    """The checkpoint ``raw`` with its JSON header bytes replaced."""
    (hlen,) = struct.unpack("<Q", raw[7:15])
    return raw[:7] + struct.pack("<Q", len(head)) + head + raw[15 + hlen:]


def edit_header(raw: bytes, edit) -> bytes:
    """The checkpoint ``raw`` with ``edit`` applied to its decoded header."""
    (hlen,) = struct.unpack("<Q", raw[7:15])
    header = json.loads(raw[15:15 + hlen])
    edit(header)
    return with_header(raw, json.dumps(header).encode())
