import dataclasses
import os

import pytest

from ktabsa import cli
from ktabsa import config as C
from ktabsa.model import ABLATIONS, ModelConfig, apply_ablation
from ktabsa.tensor import ConfigError
from ktabsa.training import Schedule

from helpers import failing_disk


def test_keys_are_the_fields_of_the_three_classes_each_once():
    own = [f.name for f in dataclasses.fields(C.RunConfig)
           if f.name not in ("model", "schedule")]
    model = [f.name for f in dataclasses.fields(ModelConfig)]
    schedule = [f.name for f in dataclasses.fields(Schedule)]
    declared = own + model + schedule
    assert len(declared) == len(set(declared))
    assert list(C.KEYS) == declared
    assert set(own) == set(C.PATH_FIELDS) | {"dev_fraction", "runs"}
    rc = C.RunConfig()
    for key in model:
        assert C.get_key(rc, key) == getattr(rc.model, key)
    for key in schedule:
        assert C.get_key(rc, key) == getattr(rc.schedule, key)


def non_default_config() -> C.RunConfig:
    return C.with_keys(
        C.RunConfig(), aspect_train="/data/train.tsv", out_dir="/tmp/o",
        dev_fraction=0.35, runs=3, seed=42, d_enc=48, dropout=0.25,
        kernel_widths=(3, 5, 7), transfers=("ote->asc", "ate->ote"),
        coarse=True, inject_dsc=False, lambda_asc=0.3,
        lr=0.0013, batch_size=7, epochs=11, pretrain_epochs=0,
        aspect_batches_per_doc=3, clip_norm=0.0, patience=4,
        target_token_acc=0.9)


def test_format_then_parse_is_the_identity():
    rc = non_default_config()
    assert rc.model.seed == 42 and rc.schedule.batch_size == 7
    text = C.format_config(rc)
    assert "transfers = ote->asc,ate->ote\n" in text
    assert "kernel_widths = 3,5,7\n" in text
    assert C.parse_config(text) == rc
    none = C.with_keys(rc, transfers=())
    assert C.parse_config(C.format_config(none)) == none


def test_file_syntax_paths_and_overrides():
    rc = C.parse_config("# comment\naspect_train = a/t.tsv  # trailing\n"
                        "transfers = ate->ote, asc->ote\nseed = 9\n",
                        base_dir="/base")
    assert rc.aspect_train == os.path.normpath("/base/a/t.tsv")
    assert rc.model.transfers == ("ate->ote", "asc->ote")
    assert rc.model.seed == 9
    rc = C.apply_overrides(rc, ["batch_size=5", "inject_ddc=false"])
    assert rc.schedule.batch_size == 5 and rc.model.inject_ddc is False
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        C.parse_config("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        C.parse_config("epochs = many\n")


@pytest.mark.parametrize("key", ["route_ate_to_ote", "max_len", "pe_mode",
                                 "train_embeddings", "model", "schedule"])
def test_removed_and_section_names_are_unknown_keys(key):
    with pytest.raises(ConfigError, match="unknown config key"):
        C.parse_config(f"{key} = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        C.apply_overrides(C.RunConfig(), [f"{key}=1"])


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_ablate_echoes_the_ablated_model_config(name, tmp_path, monkeypatch):
    base = non_default_config()
    cfg = tmp_path / "base.cfg"
    cfg.write_text(C.format_config(
        C.with_keys(base, out_dir=str(tmp_path / "out"))))
    trained = []

    def fake_run(rc, corpora, out_dir, quiet):
        trained.append((rc.model, os.path.basename(out_dir)))
        return {"checkpoint": None, "best_dev_f1_i": 0.0}

    monkeypatch.setattr(cli, "_build_corpora", lambda rc: None)
    monkeypatch.setattr(cli, "_single_run", fake_run)
    assert cli.main(["ablate", "--config", str(cfg), "--ablate", name,
                     "--quiet"]) == 0
    echoed = C.load_config(str(tmp_path / "out" / f"ablate-{name}"
                               / "effective.cfg"))
    ablated = apply_ablation(base.model, name)
    assert echoed.model == ablated
    assert echoed.schedule == base.schedule
    # ablate trains every configured run, as train does
    assert trained == [(dataclasses.replace(ablated, seed=42 + k), f"run{k}")
                       for k in range(base.runs)]


def test_failed_echo_keeps_the_earlier_config(tmp_path):
    path = C.echo_config(C.RunConfig(), str(tmp_path))
    with open(path, encoding="utf-8") as f:
        before = f.read()
    with failing_disk(nth_write=1), pytest.raises(OSError, match="No space"):
        C.echo_config(non_default_config(), str(tmp_path))
    with open(path, encoding="utf-8") as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["effective.cfg"]
