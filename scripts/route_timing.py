#!/usr/bin/env python3
"""Time the routing loop's tape node, forward and backward, at the shapes
the benchmark's workloads route.

Each shape (k directions, G sentences, n tokens) routes the vote parts
p [k, G*n, 32], the group's token rows, and q [k, 1, n, 32] in float32
under a [G, n, n] adjacency (unit diagonal, token chain and a few random
edges, symmetrized as the corpus reader does) for 3 iterations, with one
BLAS thread. The forward is one ``route`` call
recorded on a tape; the backward is that node's own backward, fed a fixed
dLoss/dv, with a push that discards the gradients. A row prints the median
over ``--reps`` calls, in milliseconds.

``--against PATH`` imports the package under ``PATH/src`` as a second
kernel (for example a ``git archive`` of another revision) and alternates
the two call by call, swapping which goes first every repetition, so both
see the same host; the row then adds that kernel's medians and the ratio
of the medians (this checkout over the other). A checkout whose ``route``
takes the source parts r = p + q in place of p reads the same arrays as
(r, q): the same shapes and the same loop, so the ratio stays comparable.
A checkout whose ``route`` takes p already folded, [k, G, n, 32], gets the
same p and dLoss/dv reshaped so.

Usage: python scripts/route_timing.py [--reps 200] [--against PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads its BLAS

import argparse
import statistics
import sys
import time

import numpy as np

from checkout import load_checkout

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SHAPES = ((4, 1, 128), (2, 1, 128), (6, 1, 64), (1, 4, 128), (2, 8, 64),
          (6, 1, 15), (6, 8, 15))
D_ROUTE = 32
ITERATIONS = 3


def inputs(k: int, g: int, n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(k, g * n, D_ROUTE)).astype(np.float32)
    q = rng.normal(size=(k, 1, n, D_ROUTE)).astype(np.float32)
    adjacency = np.zeros((g, n, n), dtype=np.float32)
    idx = np.arange(n - 1)
    adjacency[:, idx, idx + 1] = 1.0
    for a in adjacency:
        a[rng.integers(0, n, 2), rng.integers(0, n, 2)] = 1.0
    adjacency = np.maximum(adjacency, adjacency.swapaxes(-1, -2))
    adjacency[:, np.arange(n), np.arange(n)] = 1.0
    gv = rng.normal(size=p.shape).astype(np.float32)
    return p, q, adjacency, gv


def reads_rows(kernel) -> bool:
    """Whether the kernel's ``route`` reads a group's token rows [k, G*n,
    d] and folds them itself: one that takes them folded, [k, G, n, d],
    rejects the rows of two one-token sentences."""
    routing, tensor = kernel
    adjacency = np.zeros((2, 1, 1), np.float32)
    if hasattr(routing, "routing_prior"):
        adjacency = routing.routing_prior(adjacency, np.float32)
    try:
        routing.route(tensor.Tensor(np.zeros((1, 2, 1), np.float32)),
                      tensor.Tensor(np.zeros((1, 1, 1, 1), np.float32)),
                      adjacency, 1)
    except ValueError:
        return False
    return True


def time_call(kernel, p, q, adjacency, gv) -> tuple[float, float]:
    """Seconds of one forward ``route`` call and of its node's backward.
    The routing prior, which a model forward builds once for all of its
    route calls, is built before the clock starts; a checkout without
    ``routing_prior`` builds it inside ``route``. ``kernel`` is (routing,
    tensor, whether its ``route`` reads token rows)."""
    routing, tensor, rows = kernel
    if not rows:
        p, gv = (x.reshape(q.shape[:1] + adjacency.shape[:2] + x.shape[-1:])
                 for x in (p, gv))
    pt = tensor.Tensor(p, requires_grad=True)
    qt = tensor.Tensor(q, requires_grad=True)
    if hasattr(routing, "routing_prior"):
        adjacency = routing.routing_prior(adjacency, p.dtype)
    tape = tensor.Tape()
    with tensor.record(tape):
        t0 = time.perf_counter()
        routing.route(pt, qt, adjacency, ITERATIONS)
        t1 = time.perf_counter()
    (_, backward), = tape.nodes
    t2 = time.perf_counter()
    backward(gv, lambda t, g: None)
    t3 = time.perf_counter()
    return t1 - t0, t3 - t2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--against", metavar="PATH",
                    help="a second checkout whose src/ktabsa to time too")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    kernels = [load_checkout(os.path.join(ROOT, "src"), "ktabsa", "routing",
                             "tensor")]
    if args.against:
        src = os.path.join(args.against, "src")
        if not os.path.isfile(os.path.join(src, "ktabsa", "routing.py")):
            ap.error(f"no src/ktabsa/routing.py under {args.against}")
        kernels.append(load_checkout(src, "ktabsa_against", "routing",
                                     "tensor"))
    cols = ["k", "G", "n", "fwd_ms", "bwd_ms"]
    if args.against:
        cols += ["against_fwd_ms", "against_bwd_ms", "fwd_ratio",
                 "bwd_ratio"]
    print(f"numpy {np.__version__}, float32, d_route {D_ROUTE}, "
          f"{ITERATIONS} iterations, median of {args.reps} calls")
    print(" ".join(f"{c:>8}" for c in cols))
    kernels = [(*kernel, reads_rows(kernel)) for kernel in kernels]
    for k, g, n in SHAPES:
        data = inputs(k, g, n)
        for kernel in kernels:      # warm caches and lazy set-up
            time_call(kernel, *data)
        samples = [[] for _ in kernels]
        for rep in range(args.reps):
            order = range(len(kernels))
            for i in (order if rep % 2 == 0 else reversed(order)):
                samples[i].append(time_call(kernels[i], *data))
        medians = [[1e3 * statistics.median(x) for x in zip(*s)]
                   for s in samples]
        row = [k, g, n] + [m for pair in medians for m in pair]
        if args.against:
            row += [medians[0][0] / medians[1][0],
                    medians[0][1] / medians[1][1]]
        print(" ".join(f"{x:>8}" if isinstance(x, int) else f"{x:>8.3f}"
                       for x in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
