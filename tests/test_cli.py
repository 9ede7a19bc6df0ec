import json
import os
import struct

import numpy as np
import pytest

from ktabsa.cli import main
from ktabsa.data import assign_embedding_ids, length_chunks, load_aspect_corpus
from ktabsa.model import AbsaModel, apply_ablation
from ktabsa.routing import agreement_trace
from ktabsa.synth import SynthSpec, write_synthetic

from fixtures import (build_tiny_model, edit_header, tiny_config,
                      with_header)
from helpers import corrupt_squash_backward


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    write_synthetic(str(out), SynthSpec(train_sentences=14, test_sentences=4,
                                        documents=8, seed=3))
    return str(out)


@pytest.fixture(scope="module")
def ckpt(synth_dir, tmp_path_factory):
    """The best checkpoint of a smoke-speed run on the synthetic bundle."""
    out = str(tmp_path_factory.mktemp("trained") / "run")
    run_cli("train", "--config", os.path.join(synth_dir, "synthetic.cfg"),
            "--quiet", *fast_overrides(out))
    return os.path.join(out, "run0", "best.ckpt")


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


def test_gen_synth_defaults_are_the_synth_specs(tmp_path):
    # with no count flags, gen-synth writes SynthSpec()'s bundle
    run_cli("gen-synth", "--out", str(tmp_path / "cli"))
    write_synthetic(str(tmp_path / "spec"), SynthSpec())
    for name in ("train.tsv", "train.tsv.adj", "test.tsv", "test.tsv.adj",
                 "docs.jsonl", "synthetic.cfg"):
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "spec" / name).read_bytes()), name


@pytest.mark.parametrize("command", [
    ["train"], ["train", "--set", "runs=2"], ["ablate", "--ablate", "coarse"]],
    ids=" ".join)
def test_empty_aspect_training_corpus_exit_3(tmp_path, capsys, command):
    # a bundle of no sentences and no documents: nothing to train on, so no
    # run of empty epochs and no untrained checkpoint
    bundle = str(tmp_path / "bundle")
    assert run_cli("gen-synth", "--out", bundle, "--train-sentences", "0",
                   "--test-sentences", "0", "--documents", "0") == 0
    out = tmp_path / "run"
    assert run_cli(*command, "--config",
                   os.path.join(bundle, "synthetic.cfg"), "--quiet",
                   *fast_overrides(str(out))) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: aspect_train: no sentences")
    # the corpora are read before anything is written: no run directory,
    # no echoed config, no checkpoint
    assert not [f for _, _, files in os.walk(out) for f in files]


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


def test_eval_table_and_json_agree(ckpt, synth_dir, capsys):
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
    names = list(AbsaModel.load(ckpt).named_parameters())
    assert not any(n.startswith("route.ote_to") for n in names)
    assert any(n.startswith("route.ate_to") for n in names)


def test_trace_export(ckpt, synth_dir, tmp_path):
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


def test_trace_single_token_sentence(ckpt, tmp_path):
    out = str(tmp_path / "one")
    os.makedirs(out)
    with open(os.path.join(out, "one.tsv"), "w") as f:
        f.write("battery\tBA\tO\tpos\n\n")
    tdir = str(tmp_path / "traces")
    code = run_cli("trace", "--checkpoint", ckpt, "--corpus",
                   os.path.join(out, "one.tsv"), "--direction", "ate->asc",
                   "--out", tdir)
    assert code == 0
    recs = json.load(open(os.path.join(tdir, "trace_000.json")))
    for rec in recs:
        assert rec["c"] == [[1.0]]


def test_trace_invalid_direction_exit_2(ckpt, synth_dir, tmp_path):
    code = run_cli("trace", "--checkpoint", ckpt, "--corpus",
                   os.path.join(synth_dir, "test.tsv"), "--direction",
                   "ate->ddc", "--out", str(tmp_path / "t"))
    assert code == 2


def test_trace_disabled_direction_is_a_config_error(tmp_path, capsys):
    model, _, _ = build_tiny_model(
        apply_ablation(tiny_config(), "opinion-transfer"))
    ckpt = str(tmp_path / "ablated.ckpt")
    model.save(ckpt)
    corpus = tmp_path / "one.tsv"
    corpus.write_text("the\tO\tO\t_\nbattery\tBA\tO\tpos\n\n")
    code = run_cli("trace", "--checkpoint", ckpt, "--corpus", str(corpus),
                   "--direction", "ote->asc", "--out", str(tmp_path / "t"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "(enabled: ate->ote, ate->asc, asc->ate, asc->ote)" in err


def test_trace_forwards_each_chunk_once(tiny_checkpoint, tmp_path,
                                        monkeypatch):
    # sentences of two interleaved lengths: one forward per length chunk,
    # which sorts them by length, files named by corpus index, each as the
    # one-sentence export
    words = ("the", "battery", "is", "great", "screen", "awful")
    corpus = tmp_path / "two_lengths.tsv"
    corpus.write_text("".join(
        "".join(f"{words[(k + i) % 6]}\tO\tO\t_\n" for i in range(n)) + "\n"
        for k, n in enumerate((4, 6, 4, 6, 4))))
    model = AbsaModel.load(tiny_checkpoint)
    sentences = load_aspect_corpus(str(corpus))
    assign_embedding_ids(sentences, model.general_table, model.domain_table)
    want = []
    for sent in sentences:
        _states, traces = model.forward([sent], keep_trace=True)
        want.append(next(agreement_trace(t, sent.tokens) for t in traces
                         if t.round == 1 and t.direction == "ote->asc"))
    calls, forward = [], AbsaModel.forward

    def counted(self, group, *args, **kwargs):
        calls.append(len(group))
        return forward(self, group, *args, **kwargs)

    monkeypatch.setattr(AbsaModel, "forward", counted)
    tdir = tmp_path / "traces"
    assert run_cli("trace", "--checkpoint", tiny_checkpoint, "--corpus",
                   str(corpus), "--direction", "ote->asc",
                   "--out", str(tdir)) == 0
    assert calls == [len(chunk) for chunk in length_chunks(sentences)]
    assert calls == [5]     # both lengths in one chunk
    assert sorted(os.listdir(tdir)) == [f"trace_{i:03d}.json"
                                        for i in range(len(sentences))]
    for i, records in enumerate(want):
        got = json.loads((tdir / f"trace_{i:03d}.json").read_text())
        assert len(got) == len(records)
        for g, w in zip(got, records):
            assert {**g, "c": None} == {**w, "c": None}
            np.testing.assert_allclose(g["c"], w["c"], rtol=0, atol=1e-6)


def test_eval_empty_corpus_warns_exit_0(ckpt, tmp_path, capsys):
    empty = str(tmp_path / "empty.tsv")
    open(empty, "w").close()
    code = run_cli("eval", "--checkpoint", ckpt, "--corpus", empty)
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err.lower()
    assert json.loads(captured.out.strip().splitlines()[-1])["f1_a"] == 0.0


def test_eval_scheme_mismatch_exit_3(ckpt, tmp_path):
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
    # a missing key, retired keys holding a value the model dropped, and
    # tag schemes that would misread every gold tag
    for key, damage in (("d_enc", lambda h: h["config"].pop("d_enc")),
                        ("pe_mode", lambda h: h["config"].update(
                            pe_mode="off")),
                        ("train_embeddings", lambda h: h["config"].update(
                            train_embeddings=False)),
                        ("seed", lambda h: h["config"].update(seed=-1)),
                        ("task_depth", lambda h: h["config"].update(
                            task_depth=0)),
                        ("divisible", lambda h: h["config"].update(
                            kernel_widths=[3, 5], d_enc=9)),
                        ("schemes", lambda h: h["schemes"].update(
                            ate_tags=["O", "BA", "IA"]))):
        ckpt.write_bytes(edit_header(raw, damage))
        code = run_cli("eval", "--checkpoint", str(ckpt), "--corpus",
                       os.path.join(synth_dir, "test.tsv"))
        assert code == 3
        assert key in capsys.readouterr().err


def test_eval_deeply_nested_checkpoint_header_exit_3(synth_dir, tmp_path,
                                                     capsys):
    # json.loads raises RecursionError, not ValueError, on deep nesting
    model, _, _ = build_tiny_model()
    ckpt = tmp_path / "m.ckpt"
    model.save(str(ckpt))
    ckpt.write_bytes(with_header(ckpt.read_bytes(), b"[" * 5000))
    code = run_cli("eval", "--checkpoint", str(ckpt), "--corpus",
                   os.path.join(synth_dir, "test.tsv"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "undecodable header" in err
    assert len(err.strip().splitlines()) == 1


@pytest.fixture
def tiny_checkpoint(tmp_path):
    model, _, _ = build_tiny_model()
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    return path


def test_unreadable_or_unwritable_paths_exit_3(synth_dir, tiny_checkpoint,
                                               tmp_path, capsys):
    # a directory where a file is expected, an existing file where the
    # trace directory goes, and a corpus that is not UTF-8: each is a data
    # error with a one-line message, not a traceback
    test_tsv = os.path.join(synth_dir, "test.tsv")
    a_dir = str(tmp_path / "a_dir")
    os.makedirs(a_dir)
    a_file = str(tmp_path / "a_file")
    open(a_file, "w").close()
    latin1 = str(tmp_path / "latin1.tsv")
    with open(latin1, "wb") as f:
        f.write(b"caf\xe9\tO\tO\t_\n\n")
    for argv, named in (
            (("predict", "--corpus", test_tsv, "--out", a_dir), a_dir),
            (("eval", "--corpus", test_tsv, "--json-out", a_dir), a_dir),
            (("predict", "--corpus", a_dir, "--out", a_file), a_dir),
            (("trace", "--corpus", test_tsv, "--direction", "ote->asc",
              "--out", a_file), a_file),
            (("eval", "--corpus", latin1), latin1)):
        code = run_cli(argv[0], "--checkpoint", tiny_checkpoint, *argv[1:])
        err = capsys.readouterr().err
        assert code == 3, argv
        assert err.startswith("data error:") and named in err
        assert len(err.strip().splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["a_dir", "a_file", "latin1.tsv",
                                            "m.ckpt"]
    assert not os.listdir(a_dir) and os.path.getsize(a_file) == 0


@pytest.mark.parametrize("setting", ["batch_size=0", "pretrain_epochs=-1",
                                     "aspect_batches_per_doc=0",
                                     "kernel_widths=", "kernel_widths=3,3",
                                     "kernel_widths=4", "task_depth=0",
                                     "kernel_widths=3,5 d_enc=33",
                                     "d_enc=-8", "epochs=-1", "lr=nan",
                                     "lr=inf", "lr=-1", "lr=0",
                                     "clip_norm=-1", "clip_norm=inf",
                                     "patience=-2", "target_token_acc=5",
                                     "lambda_ate=nan", "lambda_ote=inf",
                                     "runs=0", "dev_fraction=1.5",
                                     "dev_fraction=-0.1", "seed=-5"])
def test_invalid_schedule_or_widths_exit_2(synth_dir, tmp_path, capsys,
                                           setting):
    cfg = os.path.join(synth_dir, "synthetic.cfg")
    # a setting of several assignments sets each of them
    sets = [arg for s in setting.split() for arg in ("--set", s)]
    code = run_cli("train", "--config", cfg, "--quiet",
                   *fast_overrides(str(tmp_path / "run")), *sets)
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []     # nothing written before the check


@pytest.mark.parametrize("argv", [
    ("train", "--seed", "-1"), ("gen-synth", "--seed", "-1"),
    ("gen-synth", "--documents", "-1")], ids=" ".join)
def test_bad_number_exit_2(synth_dir, tmp_path, capsys, argv):
    command, *flags = argv
    if command == "train":
        flags += ["--config", os.path.join(synth_dir, "synthetic.cfg"),
                  "--quiet", *fast_overrides(str(tmp_path / "run"))]
    elif command == "gen-synth":
        flags += ["--out", str(tmp_path / "bundle")]
    assert run_cli(command, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


def test_config_file_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\nepochs = 1\n")
    assert run_cli("train", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "latin1.cfg" in err


def test_trace_negative_limit_exit_2(synth_dir, tiny_checkpoint, tmp_path,
                                     capsys):
    out = tmp_path / "traces"
    code = run_cli("trace", "--checkpoint", tiny_checkpoint, "--corpus",
                   os.path.join(synth_dir, "test.tsv"), "--direction",
                   "ote->asc", "--out", str(out), "--limit", "-3")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "--limit" in err
    assert not out.exists()


def test_eval_non_finite_checkpoint_value_exit_3(synth_dir, tiny_checkpoint,
                                                 capsys):
    raw = bytearray(open(tiny_checkpoint, "rb").read())
    (hlen,) = struct.unpack("<Q", raw[7:15])
    header = json.loads(raw[15:15 + hlen])
    entry, = [m for m in header["manifest"] if m["name"] == "emb.general"]
    at = 15 + hlen + entry["offset"] + 4 * 3        # its fourth float
    for bad in (np.nan, np.inf, -np.inf):
        raw[at:at + 4] = np.float32(bad).astype("<f4").tobytes()
        with open(tiny_checkpoint, "wb") as f:
            f.write(raw)
        code = run_cli("eval", "--checkpoint", tiny_checkpoint, "--corpus",
                       os.path.join(synth_dir, "test.tsv"))
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("data error:")
        assert "emb.general" in captured.err
        assert "non-finite" in captured.err


@pytest.mark.parametrize("command", ["eval", "predict", "trace"])
def test_forward_overflow_exits_4_naming_the_sentence(command, tmp_path,
                                                      capsys):
    # a finite checkpoint whose forward overflows: 12 emb.general floats
    # (the rows of "the" and "battery") at 3e38 load, then turn the second
    # sentence's logits into NaN; no metric, prediction or trace of it is
    # written
    model, _, _ = build_tiny_model()
    model.emb_general.data[:2] = 3e38
    ckpt = str(tmp_path / "m.ckpt")
    model.save(ckpt)
    corpus = tmp_path / "c.tsv"
    corpus.write_text("".join(
        "".join(f"{w}\tO\tO\t_\n" for w in words) + "\n"
        for words in (("is", "great"), ("the", "battery", "is", "great"))))
    out = tmp_path / "out"
    extra = {"eval": [], "predict": ["--out", str(out)],
             "trace": ["--direction", "ote->asc", "--out", str(out)]}
    code = run_cli(command, "--checkpoint", ckpt, "--corpus", str(corpus),
                   *extra[command])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("numerical failure: non-finite prediction for "
                            "sentence 1\n")
    assert not (out / "trace_001.json").exists()
    if command == "predict":
        assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--step", "1e-4"), ("--tol", "1e-2"), ("--iterations", "3"),
    ("--route-iters", "3"), ("--seed", "5"), ("--nonlinearity", "relu")])
def test_gradcheck_takes_no_options(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_:
        run_cli("gradcheck", flag, value)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments" in err


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
