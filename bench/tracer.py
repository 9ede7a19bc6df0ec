"""Outside-in per-layer tracer for the ktabsa benchmark.

The tracer never edits the program. It replaces public functions and methods
with wrappers that record a span (name, start, end, parent) per call, and it
attributes backward time to layers without touching the autodiff engine:
when a wrapped call returns during recording, the closures of the tape nodes
that the call appended are replaced by timed wrappers tagged with the layer.
A node's closure is its last element, so the tracer does not depend on what
else a node stores.

Every hook lists the places its target is looked up at call time. A hook
none of whose targets exists, or that recorded no call in a traced unit, is
reported as missing instead of failing the run.

Only the traced run imports this module.
"""

from __future__ import annotations

import gc
import importlib
import resource
import time
from collections import defaultdict

DIRECTIONS = ("ate->ote", "ate->asc", "ote->ate", "ote->asc", "asc->ate",
              "asc->ote")

# (span name, targets as "module:attribute" or "module:Class.method")
HOOKS = (
    ("data.load", ("ktabsa.data:load_aspect_corpus",
                   "ktabsa.data:load_document_corpus")),
    ("data.batch", ("ktabsa.training:make_batches",
                    "ktabsa.data:make_batches")),
    ("layers.encoder", ("ktabsa.layers:SharedEncoder.__call__",)),
    ("layers.task_stacks", ("ktabsa.layers:TaskStack.__call__",)),
    ("layers.doc_heads", ("ktabsa.layers:AttentionHead.__call__",)),
    ("layers.decoders", ("ktabsa.layers:TokenDecoder.__call__",)),
    ("routing.votes", ("ktabsa.model:predict_vectors",
                       "ktabsa.routing:predict_vectors")),
    ("routing.route", ("ktabsa.model:route", "ktabsa.routing:route")),
    ("model.forward", ("ktabsa.model:AbsaModel.forward",)),
    ("model.aggregate", ("ktabsa.model:AbsaModel.transfer_and_aggregate",)),
    ("model.forward_document", ("ktabsa.model:AbsaModel.forward_document",)),
    ("model.predict", ("ktabsa.model:AbsaModel.predict",)),
    ("model.save", ("ktabsa.model:AbsaModel.save",)),
    ("model.load", ("ktabsa.model:AbsaModel.load",)),
    ("training.loss", ("ktabsa.training:batch_aspect_loss",
                       "ktabsa.training:batch_document_loss",
                       "ktabsa.training:cross_entropy_rows",
                       "ktabsa.tensor:cross_entropy_rows")),
    ("training.clip", ("ktabsa.training:clip_grads",
                       "ktabsa.tensor:clip_grads")),
    ("training.adam", ("ktabsa.training:Adam.step",)),
    ("training.zero_grad", ("ktabsa.training:Adam.zero_grad",)),
    ("tensor.backward", ("ktabsa.tensor:Tape.backward",)),
    ("metrics.evaluate", ("ktabsa.metrics:evaluate",)),
    ("metrics.write", ("ktabsa.metrics:write_predictions",)),
)
ACTIVE_TAPE = "ktabsa.tensor:active_tape"

# per-layer metrics: (metric name, unit); the order is the report order
METRICS = (
    [("routing.votes.fwd_s", "s"), ("routing.votes.bwd_s", "s"),
     ("routing.route.fwd_s", "s"), ("routing.route.bwd_s", "s")]
    + [(f"routing.route.{d.replace('->', '-')}.s", "s") for d in DIRECTIONS]
    + [("routing.nodes", "count"), ("routing.tape_bytes", "bytes"),
       ("tensor.backward_s", "s"), ("tensor.backward.self_s", "s"),
       ("tensor.tape_nodes", "count"), ("tensor.tape_bytes", "bytes")]
    + [(f"layers.{layer}.{part}_s", "s")
       for layer in ("encoder", "task_stacks", "doc_heads", "decoders")
       for part in ("fwd", "bwd")]
    + [("layers.nodes", "count"),
       ("model.forward.self_s", "s"), ("model.forward.bwd_s", "s"),
       ("model.aggregate.fwd_s", "s"), ("model.aggregate.bwd_s", "s"),
       ("model.forward_document.fwd_s", "s"),
       ("model.forward_document.bwd_s", "s"),
       ("model.predict.self_s", "s"), ("model.save_s", "s"),
       ("model.load_s", "s"), ("model.nodes", "count"),
       ("training.loss.fwd_s", "s"), ("training.loss.bwd_s", "s"),
       ("training.clip_s", "s"), ("training.adam_s", "s"),
       ("training.zero_grad_s", "s"), ("training.steps", "count"),
       ("data.load_s", "s"), ("data.batch_s", "s"), ("data.pad_frac", "frac"),
       ("metrics.evaluate_s", "s"), ("metrics.write_s", "s"),
       ("proc.gc_s", "s"), ("proc.gc_collections", "count"),
       ("proc.minor_faults", "count"), ("proc.user_s", "s"),
       ("proc.sys_s", "s"),
       ("trace.overhead_frac", "frac"), ("trace.unattributed_frac", "frac"),
       ("trace.hooks_missing", "count")])

# span name -> metric of its self time; the backward time of the tape nodes
# a span claimed is kept under the span name and reported as <name>.bwd_s
SELF_METRIC = {
    "routing.votes": "routing.votes.fwd_s",
    "routing.route": "routing.route.fwd_s",
    "layers.encoder": "layers.encoder.fwd_s",
    "layers.task_stacks": "layers.task_stacks.fwd_s",
    "layers.doc_heads": "layers.doc_heads.fwd_s",
    "layers.decoders": "layers.decoders.fwd_s",
    "model.forward": "model.forward.self_s",
    "model.aggregate": "model.aggregate.fwd_s",
    "model.forward_document": "model.forward_document.fwd_s",
    "model.predict": "model.predict.self_s",
    "model.save": "model.save_s",
    "model.load": "model.load_s",
    "training.loss": "training.loss.fwd_s",
    "training.clip": "training.clip_s",
    "training.adam": "training.adam_s",
    "training.zero_grad": "training.zero_grad_s",
    "data.load": "data.load_s",
    "data.batch": "data.batch_s",
    "metrics.evaluate": "metrics.evaluate_s",
    "metrics.write": "metrics.write_s",
}
NODE_GROUPS = ("routing", "layers", "model")


def _resolve(target: str):
    """(owner, attribute, current value) for a target, or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = vars(owner).get(attr)   # patch only what the class defines
    else:
        value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class _TimedClosure:
    """A tape node's backward closure that adds its run time to a layer."""

    __slots__ = ("fn", "key", "direction", "tracer")

    def __init__(self, fn, key, direction, tracer):
        self.fn = fn
        self.key = key
        self.direction = direction
        self.tracer = tracer

    def __call__(self, *args):
        t0 = time.perf_counter()
        try:
            return self.fn(*args)
        finally:
            dt = time.perf_counter() - t0
            self.tracer.bwd[self.key] += dt
            if self.direction is not None:
                self.tracer.direction_s[self.direction] += dt


class Tracer:
    """Installs the hooks and turns one traced unit into per-layer metrics."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._unresolved: list[str] = []
        self._active_tape = None
        self.reset()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self._unresolved = []
        for key, targets in HOOKS:
            found = False
            for target in targets:
                hit = _resolve(target)
                if hit is None:
                    continue
                owner, attr, value = hit
                self._patches.append((owner, attr, value))
                setattr(owner, attr, self._wrap(key, value))
                found = True
            if not found:
                self._unresolved.append(key)
        hit = _resolve(ACTIVE_TAPE)
        self._active_tape = hit[2] if hit is not None else None
        if self._active_tape is None:
            self._unresolved.append("tensor.active_tape")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, key: str, value):
        if isinstance(value, (classmethod, staticmethod)):
            return type(value)(self._wrap(key, value.__func__))
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(key, value, args, kwargs)

        wrapper.__wrapped__ = value
        wrapper.__name__ = getattr(value, "__name__", key)
        return wrapper

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        self.spans: list[list] = []        # [name, start, end, parent, dir]
        self._stack: list[int] = []
        self.bwd: dict[str, float] = defaultdict(float)
        self.direction_s: dict[str, float] = defaultdict(float)
        self.nodes: dict[str, int] = defaultdict(int)
        self.tape_nodes = 0
        self._tape_bytes_by_id: dict[int, tuple[int, int]] = {}
        self.tape_bytes = 0
        self.routing_tape_bytes = 0
        self.padded = 0
        self.slots = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = None
        self._direction = None
        self._rusage0 = resource.getrusage(resource.RUSAGE_SELF)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1
            self._gc_t0 = None

    def _call(self, key, fn, args, kwargs):
        if key == "routing.votes":
            direction = kwargs.get("direction", args[1] if len(args) > 1
                                   else None)
            self._direction = getattr(direction, "name", None)
        elif key == "tensor.backward" and args:
            self._measure_tape(args[0])
        tape = self._active_tape() if self._active_tape is not None else None
        n0 = len(tape.nodes) if tape is not None else 0
        direction = self._direction if key == "routing.route" else None
        index = len(self.spans)
        span = [key, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                direction]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if tape is not None and len(tape.nodes) > n0:
                self._claim(tape, n0, key, direction)
        if key == "data.batch":
            self._count_padding(result)
        return result

    def _claim(self, tape, start: int, key: str, direction) -> None:
        group = key.split(".", 1)[0]
        nodes = tape.nodes
        claimed = size = 0
        for i in range(start, len(nodes)):
            node = nodes[i]
            if isinstance(node[-1], _TimedClosure):
                continue
            nodes[i] = node[:-1] + (_TimedClosure(
                node[-1], key, direction, self),)
            claimed += 1
            size += getattr(getattr(node[0], "data", None), "nbytes", 0)
        self.nodes[group] += claimed
        total, routing = self._tape_bytes_by_id.get(id(tape), (0, 0))
        self._tape_bytes_by_id[id(tape)] = (
            total + size, routing + (size if group == "routing" else 0))

    def _measure_tape(self, tape) -> None:
        total, routing = self._tape_bytes_by_id.pop(id(tape), (0, 0))
        self.tape_nodes += len(getattr(tape, "nodes", ()))
        if total > self.tape_bytes:
            self.tape_bytes = total
            self.routing_tape_bytes = routing

    def _count_padding(self, batches) -> None:
        for batch in batches:
            lengths = [len(s.tokens) for s in getattr(batch, "sentences",
                                                      batch)]
            self.slots += len(lengths) * max(lengths)
            self.padded += len(lengths) * max(lengths) - sum(lengths)

    # -- results ------------------------------------------------------------

    def results(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded since :meth:`reset`;
        ``wall_s`` is the traced unit's timed wall time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        route_fwd: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, direction) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            calls[name] += 1
            if direction is not None:
                route_fwd[direction] += end - start
        out = {name: 0.0 for name, _ in METRICS}
        for name, metric in SELF_METRIC.items():
            out[metric] = self_s[name]
        for metric, _ in METRICS:
            if metric.endswith(".bwd_s"):
                out[metric] = self.bwd[metric[:-len(".bwd_s")]]
        for d in DIRECTIONS:
            out[f"routing.route.{d.replace('->', '-')}.s"] = (
                route_fwd[d] + self.direction_s[d])
        out["tensor.backward_s"] = total_s["tensor.backward"]
        out["tensor.backward.self_s"] = (total_s["tensor.backward"]
                                         - sum(self.bwd.values()))
        for group in NODE_GROUPS:
            out[f"{group}.nodes"] = self.nodes[group]
        out["tensor.tape_nodes"] = self.tape_nodes
        out["tensor.tape_bytes"] = self.tape_bytes
        out["routing.tape_bytes"] = self.routing_tape_bytes
        out["training.steps"] = calls["training.adam"]
        out["data.pad_frac"] = self.padded / self.slots if self.slots else 0.0
        ru = resource.getrusage(resource.RUSAGE_SELF)
        out["proc.gc_s"] = self.gc_s
        out["proc.gc_collections"] = self.gc_collections
        out["proc.minor_faults"] = ru.ru_minflt - self._rusage0.ru_minflt
        out["proc.user_s"] = ru.ru_utime - self._rusage0.ru_utime
        out["proc.sys_s"] = ru.ru_stime - self._rusage0.ru_stime
        attributed = sum(self_s.values())
        out["trace.unattributed_frac"] = 1.0 - attributed / wall_s
        out["trace.hooks_missing"] = len(self.missing(calls))
        return out

    def missing(self, calls: dict[str, int] | None = None) -> list[str]:
        """Hooks that do not exist or recorded no call since the reset."""
        if calls is None:
            calls = defaultdict(int)
            for span in self.spans:
                calls[span[0]] += 1
        idle = [key for key, _ in HOOKS
                if key not in self._unresolved and not calls[key]]
        return self._unresolved + idle
