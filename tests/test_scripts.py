"""Smoke runs of the example scripts. Each trains through ``fit`` and reads
``forward``'s outputs, so an interface change that breaks a script fails
here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(cwd, name: str, *args: str) -> subprocess.CompletedProcess:
    # the scripts find src/ from their own location, so they run from any
    # directory; ``cwd`` is one outside the repository
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_trace_demo_prints_a_routing_heat_map(tmp_path):
    proc = run_script(tmp_path, "trace_demo.py", "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("sentence: ")
    assert lines[1] == "direction: ote->asc (rows: source, cols: target)"
    assert "iteration 1" in lines


def test_overfit_synth_prints_the_comparison_table(tmp_path):
    proc = run_script(tmp_path, "overfit_synth.py", "--sentences", "8",
                      "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["variant", "epochs-to-target", "acc-ate",
                              "acc-ote", "acc-asc", "train-F1-I", "wall"]
    assert len(rows) == 2
    assert rows[0].startswith("full model")
    assert rows[1].startswith("no transfer")


def test_route_timing_prints_a_row_per_bench_shape(tmp_path):
    # --against this checkout loads a second copy of the package beside the
    # first, as it would another revision's
    proc = run_script(tmp_path, "route_timing.py", "--reps", "1",
                      "--against", ROOT)
    assert proc.returncode == 0, proc.stderr
    _, header, *rows = proc.stdout.splitlines()
    assert header.split() == ["k", "G", "n", "fwd_ms", "bwd_ms",
                              "against_fwd_ms", "against_bwd_ms",
                              "fwd_ratio", "bwd_ratio"]
    assert [tuple(int(x) for x in row.split()[:3]) for row in rows] == [
        (4, 1, 128), (2, 1, 128), (6, 1, 64), (1, 4, 128), (2, 8, 64),
        (6, 1, 15), (6, 8, 15)]
    assert all(float(x) > 0 for row in rows for x in row.split()[3:])


def test_predict_timing_prints_a_row_per_length_class(tmp_path):
    # --against this checkout loads a second copy of the package beside the
    # first, as it would another revision's, and predicts the same
    proc = run_script(tmp_path, "predict_timing.py", "--reps", "1",
                      "--against", ROOT)
    assert proc.returncode == 0, proc.stderr
    _, header, *rows, same = proc.stdout.splitlines()
    assert header.split() == ["class", "sentences", "p50_ms", "calls",
                              "nodes", "against_p50_ms", "against_calls",
                              "against_nodes", "ratio"]
    assert [row.split()[:2] for row in rows] == [
        ["short", "60"], ["64", "8"], ["128", "4"]]
    assert all(float(x) > 0 for row in rows for x in row.split()[2:])
    # counts, and the same code makes the same calls and records the same
    # tape nodes
    counts = [row.split()[3:5] for row in rows]
    assert all(c.isdigit() for pair in counts for c in pair)
    assert counts == [row.split()[6:8] for row in rows]
    assert same == "predictions identical: yes"


def test_step_timing_prints_a_row_per_step_and_batch(tmp_path):
    # --against this checkout loads a second copy of the package beside the
    # first; the same code runs the same counts and the same traced memory
    # peak, and the mixed batch takes one forward a step like the batch of
    # one length
    proc = run_script(tmp_path, "step_timing.py", "--reps", "1", "--batch",
                      "8", "--against", ROOT)
    assert proc.returncode == 0, proc.stderr
    _, header, *rows = proc.stdout.splitlines()
    names = ["forwards", "nodes", "routes", "calls", "peak_kb"]
    assert header.split() == ["step", "batch", "items", "tokens", "ms",
                              *names, "against_ms",
                              *(f"against_{c}" for c in names), "ratio"]
    cells = [row.split() for row in rows]
    assert [c[:3] for c in cells] == [
        ["aspect", "mixed", "8"], ["aspect", "equal", "8"],
        ["document", "mixed", "8"], ["document", "equal", "8"]]
    assert all(float(c[4]) > 0 and float(c[10]) > 0 for c in cells)
    assert all(x.isdigit() for c in cells for x in c[5:10] + c[11:16])
    assert all(c[5:10] == c[11:16] for c in cells)
    assert [c[5] for c in cells] == ["1"] * 4
    assert all(int(c[9]) > 0 for c in cells)


def test_step_timing_default_batches_record_only_computing_nodes(tmp_path):
    # the default batches (seed 7, 32 items) run one forward each, whose
    # tape holds only nodes that compute: no reshape around a route call
    # or after the encoder, and no node that scales a loss. The mixed
    # aspect chunk records 66 nodes and the mixed document chunk 21
    proc = run_script(tmp_path, "step_timing.py", "--reps", "1")
    assert proc.returncode == 0, proc.stderr
    _, header, *rows = proc.stdout.splitlines()
    nodes = header.split().index("nodes")
    assert {tuple(row.split()[:2]): int(row.split()[nodes])
            for row in rows} == {("aspect", "mixed"): 66,
                                 ("aspect", "equal"): 39,
                                 ("document", "mixed"): 21,
                                 ("document", "equal"): 21}
