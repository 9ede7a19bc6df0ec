"""What the timing scripts share: the BLAS pin, the parser, the packages of
this checkout and of ``--against PATH``, the default model on seeded random
embeddings, the alternating timing loop, the counters and the table.

Import this module before numpy: it pins BLAS to one thread. ``--against
PATH`` loads the package under ``PATH/src`` (for example a ``git archive``
of another revision) beside this checkout's; :func:`alternate` swaps which
of the two runs first each rep, so both see the same host, and
:func:`print_table` adds the other's columns and the ratio of the medians
(this checkout over the other). The counters take the package's modules as
arguments and import nothing from ``ktabsa``, so they count whichever
checkout's package they are given.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads its BLAS

import argparse
import gc
import importlib.util
import statistics
import sys
import time
import tracemalloc

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
EMBEDDING_SEED = 5


def parser(doc: str, reps: int = 20, seed: bool = True):
    """A parser described by ``doc``'s first line, with ``--reps``,
    ``--seed`` (unless ``seed`` is false) and ``--against``."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("--reps", type=int, default=reps)
    if seed:
        ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--against", metavar="PATH",
                    help="a second checkout whose src/ktabsa to time too")
    return ap


def load_checkout(src: str, name: str):
    """The package ``src/ktabsa``, whose ``__init__`` imports its modules,
    imported as ``name``, so that two revisions load side by side."""
    pkg = os.path.join(src, "ktabsa")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def parse(ap, argv):
    """The arguments and the packages to time: this checkout's and, with
    ``--against PATH``, PATH's."""
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    packages = [load_checkout(os.path.join(ROOT, "src"), "ktabsa")]
    if args.against:
        src = os.path.join(args.against, "src")
        if not os.path.isfile(os.path.join(src, "ktabsa", "__init__.py")):
            ap.error(f"no src/ktabsa under {args.against}")
        packages.append(load_checkout(src, "ktabsa_against"))
    return args, packages


def embeddings(package, corpora, *indexed):
    """Seeded random embeddings, general and domain, of the words of
    ``corpora`` at the default widths; ``indexed`` are indexed for them."""
    config = package.model.ModelConfig()
    rng = np.random.default_rng(EMBEDDING_SEED)
    words = package.data.corpus_words(*corpora)
    general = package.data.random_embeddings(words, config.d_general, rng)
    domain = package.data.random_embeddings(words, config.d_domain, rng)
    for items in indexed:
        package.data.assign_embedding_ids(items, general, domain)
    return general, domain


def default_model(package, general, domain):
    return package.model.AbsaModel(package.model.ModelConfig(),
                                   package.data.DEFAULT_SCHEMES, general,
                                   domain)


def alternate(reps: int, runs: int, cases: int, measure) -> list:
    """``results[k][c][rep]``: ``measure(k, c)`` of each run k and case c,
    ``reps`` times. Each rep takes the cases in order and each case the
    runs, in order on even reps and reversed on odd ones."""
    results = [[[] for _ in range(cases)] for _ in range(runs)]
    for rep in range(reps):
        order = range(runs)[::-1] if rep % 2 else range(runs)
        for c in range(cases):
            for k in order:
                results[k][c].append(measure(k, c))
    return results


def seconds(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def median_ms(samples) -> float:
    return 1e3 * statistics.median(samples)


def tape_counts(model, tensor, fn, *args) -> tuple[int, int, int]:
    """The model forwards, tape nodes and ``route`` calls of one
    ``fn(*args)``: the nodes its tapes backpropagate and those it leaves on
    the tape it runs under."""
    seen = dict.fromkeys(("forward", "nodes", "route"), 0)
    cls = model.AbsaModel
    saved = (cls.forward, cls.forward_document, model.route,
             tensor.Tape.backward)

    def counting(name, method, by=lambda *args: 1):
        def wrapper(*args, **kwargs):
            seen[name] += by(*args)
            return method(*args, **kwargs)
        return wrapper

    cls.forward = counting("forward", saved[0])
    cls.forward_document = counting("forward", saved[1])
    model.route = counting("route", saved[2])
    tensor.Tape.backward = counting("nodes", saved[3], lambda t, _: len(t))
    tape = tensor.Tape()
    try:
        with tensor.record(tape):
            fn(*args)
    finally:
        (cls.forward, cls.forward_document, model.route,
         tensor.Tape.backward) = saved
    return seen["forward"], seen["nodes"] + len(tape), seen["route"]


def python_calls(fn, *args) -> int:
    """The Python calls (``sys.setprofile`` call events) of one
    ``fn(*args)``, its own included. A wrapper around ``fn`` would add
    one, so callers pass ``fn`` itself."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def peak_kb(fn, *args) -> int:
    """The traced memory peak (``tracemalloc``) of one ``fn(*args)`` in
    KiB, above what was held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak // 1024


def counts(model, tensor, fn, *args) -> tuple[int, ...]:
    """Forwards, tape nodes, ``route`` calls, Python calls and traced peak
    KiB of ``fn(*args)``, each from a call of its own."""
    return (*tape_counts(model, tensor, fn, *args), python_calls(fn, *args),
            peak_kb(fn, *args))


def print_table(title: str, width: int, labels, cols, rows,
                times: int = 1) -> None:
    """Print ``numpy <version>, title``, the header and a line per row of
    ``rows``, (label cells, [cells of each run]). With two runs, the
    second's are the ``against_`` columns, and the ratio of each of the
    first ``times`` cells (medians of times) ends the row."""
    runs = len(rows[0][1])
    head = [*labels, *cols]
    if runs > 1:
        head += [f"against_{c}" for c in cols]
        head += (["ratio"] if times == 1 else
                 [f"{c.removesuffix('_ms')}_ratio" for c in cols[:times]])
    print(f"numpy {np.__version__}, {title}")
    print(" ".join(f"{c:>{width}}" for c in head))
    for label, cells in rows:
        row = [*label, *(x for run in cells for x in run)]
        if runs > 1:
            row += [a / b for a, b in zip(cells[0][:times], cells[1])]
        print(" ".join(f"{x:>{width}.3f}" if isinstance(x, float)
                       else f"{x:>{width}}" for x in row))
