#!/usr/bin/env python3
"""ktabsa benchmark: run workloads in fresh child processes and report them.

Usage, from the repository root:

    python3 bench/run.py                  # every workload, one table each
    python3 bench/run.py --workload short-train --seed 1 --seconds 60 --trace 0

Each workload runs in its own child process (``worker.py``) with BLAS pinned
to one thread, so every workload is one single-threaded process. The child
checks the program's outputs; this parent prints every metric by name and
unit, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. A child that dies, for
example from an out-of-memory kill, counts all of its operations as failed.

The exit code is 0 when every output check passed and no operation failed,
1 otherwise, and 2 when the program is not there to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 175.0   # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    """Run one workload in a child; returns its parsed records."""
    workdir = os.path.join(HERE, ".work", f"{name}-{seed}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    env = child_env()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
        out, status = proc.stdout, f"exit code {proc.returncode}"
        ok = proc.returncode == 0
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        out, status, ok = exc.stdout or "", "timeout", False
        if isinstance(out, bytes):
            out = out.decode("utf-8", "replace")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records: dict = {"unit": []}
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if isinstance(rec, dict) and "kind" in rec:
            kind = rec.pop("kind")
            if kind == "unit":
                records["unit"].append(rec)
            else:
                records[kind] = rec
    records.setdefault("env", {})["blas_threads_set"] = {
        v: env[v] for v in THREAD_VARS}
    if not ok or "result" not in records:
        # the child died: every operation it attempted, and the unit it was
        # in the middle of, counts as failed
        attempted = (sum(u["attempted"] for u in records["unit"])
                     + records.get("plan", {}).get("ops_per_unit", 1))
        records["result"] = {
            "correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {}, "notes": {"problems": [f"child died: {status}"]}}
    return records


def print_report(name: str, seed: int, records: dict) -> dict:
    res = records["result"]
    notes = res.get("notes", {})
    print(f"== {name}  seed {seed}  units {notes.get('units', '?')}")
    print("env " + json.dumps(records["env"], sort_keys=True))
    for metric, m in res["metrics"].items():
        extra = ""
        if metric == "predict_ms_p99":
            extra = (f"  (n={notes.get('predict_samples')} sentences a pass,"
                     f" lowest of {notes.get('predict_passes')} passes)")
        print(f"  {metric:<32} {m['value']:>14.6g} {m['unit']}{extra}")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'error_rate':<32} {rate:>14.6g} "
          f"({res['failed']} of {res['attempted']} operations failed)")
    for key in ("missing_hooks", "problems"):
        if notes.get(key):
            print(f"  {key}: {'; '.join(notes[key])}")
    return {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ktabsa", "__init__.py")):
        print(f"error: the program is missing: no package at {SRC}/ktabsa",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    all_ok = True
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        records = run_workload(name, args.seed, args.seconds, args.trace,
                               deadline)
        line = print_report(name, args.seed, records)
        print(json.dumps(line), flush=True)
        all_ok = all_ok and line["correct"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
