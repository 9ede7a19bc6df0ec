#!/usr/bin/env python3
"""Time the routing loop's tape node, forward and backward, at the shapes
the benchmark's workloads route.

Each shape (k directions, G sentences, n tokens) routes the vote parts
p [k, G*n, 32], the group's token rows, and q [k, 1, n, 32] in float32
under a [G, n, n] adjacency (unit diagonal, token chain and a few random
edges, symmetrized as the corpus reader does) for 3 iterations. The
forward is one ``route`` call recorded on a tape; the backward is that
node's own backward, fed a fixed dLoss/dv, with a push that discards the
gradients. A row prints the median over ``--reps`` calls, in milliseconds.

``--against PATH`` imports the package under ``PATH/src`` as a second
kernel and alternates the two call by call (see ``measure``). The oldest
revision it accepts is 76eccf2, the first whose ``route`` reads a group's
token rows and a prior built by ``routing_prior``.

Usage: python scripts/route_timing.py [--reps 200] [--against PATH]
"""

import sys

import measure   # pins BLAS to one thread before numpy loads
import numpy as np

SHAPES = ((4, 1, 128), (2, 1, 128), (6, 1, 64), (1, 4, 128), (2, 8, 64),
          (6, 1, 15), (6, 8, 15))
D_ROUTE = 32
ITERATIONS = 3


def inputs(k: int, g: int, n: int):
    rng = np.random.default_rng(0)
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


def time_call(package, p, q, adjacency, gv) -> tuple[float, float]:
    """Seconds of one forward ``route`` call and of its node's backward.
    The routing prior, which a model forward builds once for all of its
    route calls, is built before the clock starts."""
    routing, tensor = package.routing, package.tensor
    pt = tensor.Tensor(p, requires_grad=True)
    qt = tensor.Tensor(q, requires_grad=True)
    prior = routing.routing_prior(adjacency, p.dtype)
    tape = tensor.Tape()
    with tensor.record(tape):
        forward = measure.seconds(routing.route, pt, qt, prior, ITERATIONS)
    (_, backward), = tape.nodes
    return forward, measure.seconds(backward, gv, lambda t, g: None)


def main(argv=None) -> int:
    args, packages = measure.parse(
        measure.parser(__doc__, reps=200, seed=False), argv)
    rows = []
    for k, g, n in SHAPES:
        data = inputs(k, g, n)
        for package in packages:    # warm caches and lazy set-up
            time_call(package, *data)
        samples = measure.alternate(
            args.reps, len(packages), 1,
            lambda i, _: time_call(packages[i], *data))
        rows.append(([k, g, n], [[measure.median_ms(x) for x in zip(*s[0])]
                                 for s in samples]))
    measure.print_table(
        f"float32, d_route {D_ROUTE}, {ITERATIONS} iterations, median of "
        f"{args.reps} calls", 8, ["k", "G", "n"], ["fwd_ms", "bwd_ms"], rows,
        times=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
