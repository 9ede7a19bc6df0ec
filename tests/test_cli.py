import json
import os

import numpy as np
import pytest

from ktabsa.cli import main
from ktabsa.model import AbsaModel
from ktabsa.synth import SynthSpec, write_synthetic

from fixtures import build_tiny_model, edit_header
from helpers import corrupt_squash_backward


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    write_synthetic(str(out), SynthSpec(train_sentences=14, test_sentences=4,
                                        documents=8, seed=3))
    return str(out)


def fast_overrides(out_dir, **extra):
    """Shrink the synthetic config for smoke-speed CLI runs."""
    sets = {"epochs": "2", "pretrain_epochs": "1", "d_general": "6",
            "d_domain": "4", "d_enc": "8", "d_task": "8", "d_route": "6",
            "kernel_widths": "3", "task_depth": "1", "iterations": "1",
            "route_iters": "1", "batch_size": "8", "out_dir": out_dir,
            "patience": "0"}
    sets.update(extra)
    args = []
    for k, v in sets.items():
        args += ["--set", f"{k}={v}"]
    return args


def run_cli(*argv):
    return main(list(argv))


def test_gen_synth_writes_bundle(tmp_path):
    out = str(tmp_path / "bundle")
    assert run_cli("gen-synth", "--out", out, "--train-sentences", "6",
                   "--test-sentences", "2", "--documents", "4") == 0
    for name in ("train.tsv", "train.tsv.adj", "test.tsv", "docs.jsonl",
                 "synthetic.cfg"):
        assert os.path.exists(os.path.join(out, name))


def test_gen_synth_seed_zero_is_its_own_corpus(tmp_path):
    # seed 0 is a seed like any other, not a request for the default 7
    corpora = {}
    for seed in ("0", "7"):
        out = tmp_path / f"seed{seed}"
        assert run_cli("gen-synth", "--out", str(out), "--seed", seed,
                       "--train-sentences", "6", "--test-sentences", "2",
                       "--documents", "4") == 0
        corpora[seed] = (out / "train.tsv").read_bytes()
    assert corpora["0"] != corpora["7"]


def test_train_eval_predict_cycle(synth_dir, tmp_path):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out = str(tmp_path / "run")
    assert run_cli("train", "--config", cfg, "--quiet",
                   *fast_overrides(out)) == 0
    assert os.path.exists(os.path.join(out, "effective.cfg"))
    ckpt = os.path.join(out, "run0", "best.ckpt")
    assert os.path.exists(ckpt)
    metrics_log = os.path.join(out, "run0", "metrics.jsonl")
    lines = [json.loads(l) for l in open(metrics_log)]
    assert lines and lines[-1]["phase"] == "joint"

    test_tsv = os.path.join(synth_dir, "test.tsv")
    json_out = str(tmp_path / "report.json")
    code = run_cli("eval", "--checkpoint", ckpt, "--corpus", test_tsv,
                   "--json-out", json_out)
    assert code == 0
    report = json.load(open(json_out))
    assert set(report) >= {"f1_a", "f1_o", "f1_s", "acc_s", "f1_i"}

    preds = str(tmp_path / "preds.jsonl")
    assert run_cli("predict", "--checkpoint", ckpt, "--corpus", test_tsv,
                   "--out", preds) == 0
    rows = [json.loads(l) for l in open(preds)]
    assert len(rows) == 4
    assert all({"tokens", "ate_spans", "ote_spans", "pairs"} <= set(r)
               for r in rows)


def test_eval_table_and_json_agree(synth_dir, tmp_path, capsys):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out = str(tmp_path / "run")
    run_cli("train", "--config", cfg, "--quiet", *fast_overrides(out))
    ckpt = os.path.join(out, "run0", "best.ckpt")
    capsys.readouterr()
    run_cli("eval", "--checkpoint", ckpt, "--corpus",
            os.path.join(synth_dir, "test.tsv"))
    lines = capsys.readouterr().out.strip().splitlines()
    table_values = [float(v) for v in lines[1].split()]
    json_values = json.loads(lines[2])
    assert table_values == [json_values[k] for k in
                            ("f1_a", "f1_o", "f1_s", "acc_s", "f1_i")]


def test_missing_corpus_path_exit_2_names_field(synth_dir, tmp_path, capsys):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out = str(tmp_path / "run")
    code = run_cli("train", "--config", cfg, "--quiet",
                   *fast_overrides(out, aspect_train="/nonexistent/x.tsv"))
    assert code == 2
    assert "aspect_train" in capsys.readouterr().err


def test_set_override_round_trips_into_echoed_config(synth_dir, tmp_path):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out = str(tmp_path / "run")
    run_cli("train", "--config", cfg, "--quiet",
            *fast_overrides(out, iterations="2"))
    echoed = open(os.path.join(out, "effective.cfg")).read()
    assert "iterations = 2" in echoed


def test_echoed_config_reproduces_identical_loss_trace(synth_dir, tmp_path):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    run_cli("train", "--config", cfg, "--quiet", *fast_overrides(out1))
    echoed = os.path.join(out1, "effective.cfg")
    run_cli("train", "--config", echoed, "--quiet", "--set",
            f"out_dir={out2}")
    log1 = [json.loads(l) for l in open(os.path.join(out1, "run0",
                                                     "metrics.jsonl"))]
    log2 = [json.loads(l) for l in open(os.path.join(out2, "run0",
                                                     "metrics.jsonl"))]
    for a, b in zip(log1, log2):
        assert a.get("J_a") == b.get("J_a")
        assert a.get("J_d") == b.get("J_d")
        assert a.get("dev") == b.get("dev")


def test_unknown_ablation_exit_2_lists_names(synth_dir, tmp_path, capsys):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    code = run_cli("ablate", "--config", cfg, "--ablate", "bogus", "--quiet")
    assert code == 2
    err = capsys.readouterr().err
    for name in ("aspect-transfer", "opinion-transfer", "sentiment-transfer",
                 "ddc-transfer", "dsc-transfer", "coarse"):
        assert name in err


def test_ablate_opinion_transfer_manifest(synth_dir, tmp_path):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out = str(tmp_path / "run")
    code = run_cli("ablate", "--config", cfg, "--ablate", "opinion-transfer",
                   "--quiet", *fast_overrides(out, epochs="1",
                                              pretrain_epochs="0"))
    assert code == 0
    ckpt = os.path.join(out, "ablate-opinion-transfer", "run0", "best.ckpt")
    header = AbsaModel.read_header(ckpt)
    names = [m["name"] for m in header["manifest"]]
    assert not any(n.startswith("route.ote_to") for n in names)
    assert any(n.startswith("route.ate_to") for n in names)


def test_trace_export(synth_dir, tmp_path):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out = str(tmp_path / "run")
    run_cli("train", "--config", cfg, "--quiet", *fast_overrides(out))
    ckpt = os.path.join(out, "run0", "best.ckpt")
    tdir = str(tmp_path / "traces")
    code = run_cli("trace", "--checkpoint", ckpt, "--corpus",
                   os.path.join(synth_dir, "test.tsv"), "--direction",
                   "ote->asc", "--out", tdir, "--limit", "2")
    assert code == 0
    files = sorted(os.listdir(tdir))
    assert len(files) == 2
    recs = json.load(open(os.path.join(tdir, files[0])))
    assert recs[0]["direction"] == "ote->asc"
    for rec in recs:
        c = np.array(rec["c"])
        np.testing.assert_allclose(c.sum(axis=1), 1.0, atol=1e-5)
        assert rec["tokens"]


def test_trace_single_token_sentence(tmp_path):
    out = str(tmp_path / "one")
    os.makedirs(out)
    with open(os.path.join(out, "one.tsv"), "w") as f:
        f.write("battery\tBA\tO\tpos\n\n")
    bundle = str(tmp_path / "synthbundle")
    write_synthetic(bundle, SynthSpec(train_sentences=8, test_sentences=2,
                                      documents=4, seed=1))
    cfg = os.path.join(bundle, "synthetic.cfg")
    run_dir = str(tmp_path / "run")
    run_cli("train", "--config", cfg, "--quiet", *fast_overrides(run_dir))
    ckpt = os.path.join(run_dir, "run0", "best.ckpt")
    tdir = str(tmp_path / "traces")
    code = run_cli("trace", "--checkpoint", ckpt, "--corpus",
                   os.path.join(out, "one.tsv"), "--direction", "ate->asc",
                   "--out", tdir)
    assert code == 0
    recs = json.load(open(os.path.join(tdir, "trace_000.json")))
    for rec in recs:
        assert rec["c"] == [[1.0]]


def test_trace_invalid_direction_exit_2(synth_dir, tmp_path, capsys):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out = str(tmp_path / "run")
    run_cli("train", "--config", cfg, "--quiet", *fast_overrides(out))
    ckpt = os.path.join(out, "run0", "best.ckpt")
    code = run_cli("trace", "--checkpoint", ckpt, "--corpus",
                   os.path.join(synth_dir, "test.tsv"), "--direction",
                   "ate->ddc", "--out", str(tmp_path / "t"))
    assert code == 2


def test_eval_empty_corpus_warns_exit_0(synth_dir, tmp_path, capsys):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out = str(tmp_path / "run")
    run_cli("train", "--config", cfg, "--quiet", *fast_overrides(out))
    ckpt = os.path.join(out, "run0", "best.ckpt")
    empty = str(tmp_path / "empty.tsv")
    open(empty, "w").close()
    code = run_cli("eval", "--checkpoint", ckpt, "--corpus", empty)
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err.lower()
    assert json.loads(captured.out.strip().splitlines()[-1])["f1_a"] == 0.0


def test_eval_scheme_mismatch_exit_3(synth_dir, tmp_path, capsys):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out = str(tmp_path / "run")
    run_cli("train", "--config", cfg, "--quiet", *fast_overrides(out))
    ckpt = os.path.join(out, "run0", "best.ckpt")
    alien = str(tmp_path / "alien.tsv")
    with open(alien, "w") as f:
        f.write("word\tB-WEIRD\tO\t_\n\n")
    code = run_cli("eval", "--checkpoint", ckpt, "--corpus", alien)
    assert code == 3


def test_eval_truncated_checkpoint_exit_3(synth_dir, tmp_path, capsys):
    model, _, _ = build_tiny_model()
    ckpt = str(tmp_path / "m.ckpt")
    model.save(ckpt)
    raw = open(ckpt, "rb").read()
    with open(ckpt, "wb") as f:
        f.write(raw[:-100])
    code = run_cli("eval", "--checkpoint", ckpt, "--corpus",
                   os.path.join(synth_dir, "test.tsv"))
    assert code == 3
    assert "truncated" in capsys.readouterr().err


def test_eval_damaged_header_exit_3(synth_dir, tmp_path, capsys):
    model, _, _ = build_tiny_model()
    ckpt = tmp_path / "m.ckpt"
    model.save(str(ckpt))
    raw = ckpt.read_bytes()
    # a missing key, and retired keys holding a value the model dropped
    for key, damage in (("d_enc", lambda h: h["config"].pop("d_enc")),
                        ("pe_mode", lambda h: h["config"].update(
                            pe_mode="off")),
                        ("train_embeddings", lambda h: h["config"].update(
                            train_embeddings=False))):
        ckpt.write_bytes(edit_header(raw, damage))
        code = run_cli("eval", "--checkpoint", str(ckpt), "--corpus",
                       os.path.join(synth_dir, "test.tsv"))
        assert code == 3
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["batch_size=0", "pretrain_epochs=-1",
                                     "aspect_batches_per_doc=0",
                                     "kernel_widths=", "kernel_widths=3,3",
                                     "d_enc=-8", "epochs=-1", "lr=nan",
                                     "lr=inf", "lr=-1", "lr=0",
                                     "clip_norm=-1", "clip_norm=inf",
                                     "patience=-2", "target_token_acc=5",
                                     "lambda_ate=nan", "lambda_ote=inf",
                                     "runs=0", "dev_fraction=1.5",
                                     "dev_fraction=-0.1"])
def test_invalid_schedule_or_widths_exit_2(synth_dir, tmp_path, capsys,
                                           setting):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    code = run_cli("train", "--config", cfg, "--quiet",
                   *fast_overrides(str(tmp_path / "run")), "--set", setting)
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_gradcheck_cli_passes_and_corruption_fails(capsys):
    assert run_cli("gradcheck") == 0
    out = capsys.readouterr().out
    assert "all pass" in out
    # every parameter listed exactly once
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    names = [l.split()[1] for l in lines]
    assert len(names) == len(set(names))

    with corrupt_squash_backward(1.05):
        assert run_cli("gradcheck") == 4
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "route." in out  # squash-dependent parameters are named


def test_out_dir_env_override(synth_dir, tmp_path, monkeypatch):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    ignored = str(tmp_path / "ignored")
    actual = str(tmp_path / "env_out")
    monkeypatch.setenv("KTABSA_OUT_DIR", actual)
    assert run_cli("train", "--config", cfg, "--quiet",
                   *fast_overrides(ignored, epochs="1",
                                   pretrain_epochs="0")) == 0
    assert os.path.exists(os.path.join(actual, "effective.cfg"))
    assert not os.path.exists(ignored)


def test_multi_run_summary(synth_dir, tmp_path):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    out = str(tmp_path / "runs")
    code = run_cli("train", "--config", cfg, "--quiet",
                   *fast_overrides(out, runs="2", epochs="1",
                                   pretrain_epochs="0"))
    assert code == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert len(summary["runs"]) == 2
    assert "aggregate" in summary
