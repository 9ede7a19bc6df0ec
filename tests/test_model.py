import dataclasses
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ktabsa import tensor as T
from ktabsa.data import DEFAULT_SCHEMES, Sentence
from ktabsa.model import (AbsaModel, CheckpointError, ModelConfig,
                          apply_ablation, majority_sentiment)
from ktabsa.training import aspect_loss

from fixtures import (build_tiny_model, chain_adjacency, edit_header,
                      tiny_config, with_header)


def clone_states(states):
    return [{task: st.probs[task].data.copy() for task in ("ate", "ote", "asc")}
            for st in states]


# ---------------------------------------------------------------------------
# forward structure


def test_forward_returns_t_plus_one_states():
    model, sent, _ = build_tiny_model(tiny_config(iterations=3))
    states, _ = model.forward([sent])
    assert len(states) == 4
    assert [s.t for s in states] == [0, 1, 2, 3]


def test_forward_probability_rows_are_distributions():
    model, sent, _ = build_tiny_model()
    states, _ = model.forward([sent])
    for st in states:
        for task in ("ate", "ote", "asc"):
            rows = st.probs[task].data
            np.testing.assert_allclose(rows.sum(axis=-1),
                                       np.ones((1, sent.n)), atol=1e-6)
        for s in ("ddc", "dsc"):
            assert abs(st.doc_probs[s].data.sum() - 1.0) < 1e-6
            np.testing.assert_allclose(st.doc_attn[s].data.sum(), 1.0,
                                       atol=1e-6)


def test_full_ablation_t1_equals_iteration_zero_decode():
    cfg = tiny_config(iterations=1, transfers=(), inject_ddc=False,
                      inject_dsc=False)
    model, sent, _ = build_tiny_model(cfg)
    states, _ = model.forward([sent])
    for task in ("ate", "ote", "asc"):
        np.testing.assert_array_equal(states[0].probs[task].data,
                                      states[1].probs[task].data)
    # parameter-for-parameter: no routing, fusion, or projection tensors
    names = [n for n, _ in model.manifest()]
    assert not any(n.startswith(("route.", "fuse.")) for n in names)


def test_t2_equals_composing_transfer_and_aggregate_twice():
    model, sent, _ = build_tiny_model(tiny_config(iterations=2))
    states, _ = model.forward([sent])
    s0 = states[0]
    s1 = model.transfer_and_aggregate(s0, [sent])
    s2 = model.transfer_and_aggregate(s1, [sent])
    for task in ("ate", "ote", "asc"):
        np.testing.assert_array_equal(states[1].probs[task].data,
                                      s1.probs[task].data)
        np.testing.assert_array_equal(states[2].probs[task].data,
                                      s2.probs[task].data)


def test_zeroed_fusion_weights_freeze_hiddens_across_iterations():
    model, sent, _ = build_tiny_model(tiny_config(iterations=3))
    for target in ("ate", "ote", "asc"):
        for _n, t in model.fuse[target].named():
            t.data[:] = 0.0
    states, _ = model.forward([sent])
    for task in ("ate", "ote", "asc"):
        np.testing.assert_array_equal(states[1].hidden[task].data,
                                      states[2].hidden[task].data)
        np.testing.assert_array_equal(states[2].hidden[task].data,
                                      states[3].hidden[task].data)


def test_eval_forward_deterministic_bitwise():
    model, sent, _ = build_tiny_model()
    a, _ = model.forward([sent])
    b, _ = model.forward([sent])
    for sa, sb in zip(a, b):
        for task in ("ate", "ote", "asc"):
            np.testing.assert_array_equal(sa.probs[task].data,
                                          sb.probs[task].data)


# ---------------------------------------------------------------------------
# ablations


def test_opinion_transfer_ablation_removes_source_routing_tensors():
    cfg = apply_ablation(tiny_config(), "opinion-transfer")
    assert "ote->ate" not in cfg.transfers and "ote->asc" not in cfg.transfers
    model, _, _ = build_tiny_model(cfg)
    names = [n for n, _ in model.manifest()]
    assert not any("route.ote_to" in n for n in names)
    assert any("route.ate_to_asc" in n for n in names)
    # both targets lost one routed source: projection widths shrink
    full_model, _, _ = build_tiny_model(tiny_config())
    full = dict(full_model.manifest())
    cut = dict(model.manifest())
    d_route = cfg.d_route
    assert cut["fuse.ate.proj.w"][0] == full["fuse.ate.proj.w"][0] - d_route
    assert cut["fuse.asc.proj.w"][0] == full["fuse.asc.proj.w"][0] - d_route


def test_ddc_ablation_shrinks_fusion_inputs():
    cfg = apply_ablation(tiny_config(), "ddc-transfer")
    model, _, _ = build_tiny_model(cfg)
    full_model, _, _ = build_tiny_model(tiny_config())
    full = dict(full_model.manifest())
    cut = dict(model.manifest())
    assert cut["fuse.ate.out.w"][0] == full["fuse.ate.out.w"][0] - 1
    assert cut["fuse.ote.out.w"][0] == full["fuse.ote.out.w"][0] - 1
    assert cut["fuse.asc.out.w"] == full["fuse.asc.out.w"]


def test_coarse_adds_exactly_the_merged_injection_widths():
    base_model, _, _ = build_tiny_model(tiny_config())
    coarse_model, _, _ = build_tiny_model(apply_ablation(tiny_config(),
                                                         "coarse"))
    base = dict(base_model.manifest())
    coarse = dict(coarse_model.manifest())
    assert set(base) == set(coarse)
    c_dsc = len(DEFAULT_SCHEMES.dsc_labels)
    for target, extra in (("ate", c_dsc + 1), ("ote", c_dsc + 1), ("asc", 1)):
        assert (coarse[f"fuse.{target}.out.w"][0]
                == base[f"fuse.{target}.out.w"][0] + extra)
    base_count = sum(int(np.prod(s)) for s in base.values())
    coarse_count = sum(int(np.prod(s)) for s in coarse.values())
    d_task = tiny_config().d_task
    assert coarse_count - base_count == (2 * (c_dsc + 1) + 1) * d_task


def test_unknown_ablation_rejected():
    with pytest.raises(T.ConfigError, match="opinion-transfer"):
        apply_ablation(tiny_config(), "bogus")


# ---------------------------------------------------------------------------
# discriminate injection


def grad_of_loss_wrt(model, build_loss, param):
    tape = T.Tape()
    with T.record(tape):
        loss = build_loss()
    for p in model.named_parameters().values():
        p.zero_grad()
    tape.backward(loss)
    return param.grad


def test_sentiment_loss_blind_to_domain_attention_head():
    # with routing off and T=1, the only cross paths are the two injections
    cfg = tiny_config(iterations=1, transfers=())
    model, sent, _ = build_tiny_model(cfg)
    w = ModelConfig(lambda_ate=0, lambda_ote=0, lambda_asc=1)

    def l_asc():
        states, _ = model.forward([sent])
        return aspect_loss(states, [sent], w)

    g = grad_of_loss_wrt(model, l_asc, model.heads["ddc"].w)
    assert g is None or not g.any()
    g_dsc = grad_of_loss_wrt(model, l_asc, model.heads["dsc"].w)
    assert g_dsc is not None and g_dsc.any()


def test_extraction_loss_blind_to_sentiment_attention_head():
    cfg = tiny_config(iterations=1, transfers=())
    model, sent, _ = build_tiny_model(cfg)
    w = ModelConfig(lambda_ate=1, lambda_ote=1, lambda_asc=0)

    def l_ext():
        states, _ = model.forward([sent])
        return aspect_loss(states, [sent], w)

    g = grad_of_loss_wrt(model, l_ext, model.heads["dsc"].w)
    assert g is None or not g.any()
    g_ddc = grad_of_loss_wrt(model, l_ext, model.heads["ddc"].w)
    assert g_ddc is not None and g_ddc.any()


def test_doc_signal_sensitivity_routes_to_the_right_tasks():
    # perturbing the ddc attention weight moves h_ate(t+1) but not h_asc(t+1)
    cfg = tiny_config(iterations=1, transfers=())
    model, sent, _ = build_tiny_model(cfg)
    states, _ = model.forward([sent])
    base_ate = states[1].hidden["ate"].data.copy()
    base_asc = states[1].hidden["asc"].data.copy()
    model.heads["ddc"].w.data += 0.5
    states2, _ = model.forward([sent])
    assert not np.array_equal(states2[1].hidden["ate"].data, base_ate)
    np.testing.assert_array_equal(states2[1].hidden["asc"].data, base_asc)

    model.heads["ddc"].w.data -= 0.5
    model.heads["dsc"].w.data += 0.5
    states3, _ = model.forward([sent])
    np.testing.assert_array_equal(states3[1].hidden["ate"].data, base_ate)
    assert not np.array_equal(states3[1].hidden["asc"].data, base_asc)


def test_task_stack_parameter_disjointness():
    model, sent, _ = build_tiny_model()
    states, _ = model.forward([sent])
    base_ote = states[0].hidden["ote"].data.copy()
    for _n, t in model.stacks["ate"].named():
        t.data += 0.7
    states2, _ = model.forward([sent])
    np.testing.assert_array_equal(states2[0].hidden["ote"].data, base_ote)


# ---------------------------------------------------------------------------
# prediction


def test_predict_all_outside():
    model, sent, _ = build_tiny_model()
    for _n, t in model.decoders["ate"].named():
        t.data[:] = 0.0
    model.decoders["ate"].map.b.data[:] = [0.0, 0.0, 10.0]  # force O
    for _n, t in model.decoders["ote"].named():
        t.data[:] = 0.0
    model.decoders["ote"].map.b.data[:] = [0.0, 0.0, 10.0]
    cfg = dataclasses.replace(model.config, iterations=1, transfers=(),
                              inject_ddc=False, inject_dsc=False)
    frozen = AbsaModel(cfg, model.schemes, model.general_table,
                       model.domain_table)
    for name, t in frozen.named_tensors().items():
        t.data = model.named_tensors()[name].data.copy()
    pred = frozen.predict(sent)
    assert pred.ate_spans == () and pred.ote_spans == () and pred.pairs == ()


def test_predict_sentence_longer_than_max_len():
    model, _, _ = build_tiny_model()
    words = ("the", "battery", "is", "great", "okay")
    n = 20
    sent = Sentence(tuple(words[i % 5] for i in range(n)), (2,) * n,
                    (2,) * n, (None,) * n, chain_adjacency(n))
    pred = model.predict(sent)
    assert pred.tokens == sent.tokens
    assert all(0 <= s < e <= n for s, e in pred.ate_spans + pred.ote_spans)


def test_majority_sentiment_vote_and_ties():
    assert majority_sentiment([0, 1, 0]) == 0
    assert majority_sentiment([1, 1, 0]) == 1
    # enumerate all 27 label triples against a brute-force oracle
    from collections import Counter
    for a in range(3):
        for b in range(3):
            for c in range(3):
                labels = [a, b, c]
                got = majority_sentiment(labels)
                counts = Counter(labels)
                top = max(counts.values())
                tied = {k for k, v in counts.items() if v == top}
                assert got in tied
                expected = next(l for l in labels if l in tied)
                assert got == expected


def test_predict_pairs_majority():
    model, sent, _ = build_tiny_model()
    pred = model.predict(sent)
    for (s, e), lab in pred.pairs:
        assert 0 <= s < e <= sent.n
        assert 0 <= lab < 3


def test_predict_assembles_spans_and_majority_sentiment(monkeypatch):
    model, sent, _ = build_tiny_model()
    from types import SimpleNamespace

    import ktabsa.tensor as KT

    def fake_forward(sentences, keep=None, keep_trace=False):
        def rows(tags):
            return KT.constant(np.eye(3, dtype=np.float32)[None, tags] * 9.0)
        probs = {"ate": rows([0, 1, 2, 2]),   # BA IA O O -> span (0, 2)
                 "ote": rows([2, 2, 0, 2]),   # one opinion span at token 2
                 "asc": rows([0, 0, 1, 2])}   # pos, pos inside the span
        state = SimpleNamespace(probs=probs)
        return [state], []

    monkeypatch.setattr(model, "forward", fake_forward)
    pred = model.predict(sent)
    assert pred.ate_spans == ((0, 2),)
    assert pred.ote_spans == ((2, 3),)
    assert pred.pairs == (((0, 2), 0),)


# ---------------------------------------------------------------------------
# persistence


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model, sent, _ = build_tiny_model()
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    clone = AbsaModel.load(path)
    for name, t in model.named_tensors().items():
        np.testing.assert_array_equal(clone.named_tensors()[name].data, t.data)
    clone.index_tokens(sent)
    a = model.predict(sent)
    states_a, _ = model.forward([sent])
    states_b, _ = clone.forward([sent])
    for sa, sb in zip(states_a, states_b):
        for task in ("ate", "ote", "asc"):
            np.testing.assert_array_equal(sa.probs[task].data,
                                          sb.probs[task].data)
    b = clone.predict(sent)
    assert a == b


def test_checkpoint_version_mismatch(tmp_path):
    model, _, _ = build_tiny_model()
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    import json
    import struct
    raw = open(path, "rb").read()
    magic_len = 7
    (hlen,) = struct.unpack("<Q", raw[magic_len:magic_len + 8])
    header = json.loads(raw[magic_len + 8:magic_len + 8 + hlen])
    header["format_version"] = 99
    head = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(raw[:magic_len])
        f.write(struct.pack("<Q", len(head)))
        f.write(head)
        f.write(raw[magic_len + 8 + hlen:])
    with pytest.raises(CheckpointError, match="version"):
        AbsaModel.load(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        AbsaModel.load(str(path))


# ---------------------------------------------------------------------------
# end-to-end gradients (small version; the acceptance suite runs the full one)


def test_end_to_end_gradcheck_subset():
    from ktabsa.training import gradcheck, gradcheck_harness
    model, sent, _doc = gradcheck_harness()
    w = model.config

    def build_loss():
        states, _ = model.forward([sent])
        return aspect_loss(states, [sent], w)

    params = model.named_parameters()
    subset = {k: v for k, v in params.items()
              if k in ("route.ote_to_asc.w", "fuse.asc.out.b", "dec.ate.b",
                       "doc.ddc.attn.w", "enc.w3.bias", "emb.general")}
    report = gradcheck(build_loss, subset)
    assert report.passed, [(e.name, e.max_rel_err) for e in report.failures]
    assert report.worst < 1e-5  # comfortably inside the tolerance


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    model, _, _ = build_tiny_model()
    path = str(tmp_path_factory.mktemp("ckpt") / "m.ckpt")
    model.save(path)
    with open(path, "rb") as f:
        return model, f.read()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_truncated_checkpoint_raises_checkpoint_error(saved_checkpoint,
                                                      tmp_path, cut):
    model, raw = saved_checkpoint
    path = str(tmp_path / "cut.ckpt")
    with open(path, "wb") as f:
        f.write(raw[:int(cut * len(raw))])
    with pytest.raises(CheckpointError):
        AbsaModel.load(path)
    with pytest.raises(CheckpointError):
        model.load_payload(path)


def test_checkpoint_payload_must_tile_exactly(saved_checkpoint, tmp_path):
    _model, raw = saved_checkpoint
    path = tmp_path / "m.ckpt"
    path.write_bytes(raw + b"\0\0\0\0")
    with pytest.raises(CheckpointError, match="longer than its manifest"):
        AbsaModel.load(str(path))
    (hlen,) = struct.unpack("<Q", raw[7:15])
    header = json.loads(raw[15:15 + hlen])
    header["manifest"][1]["offset"] += 4   # a gap, then an overlap
    path.write_bytes(with_header(raw, json.dumps(header).encode()))
    with pytest.raises(CheckpointError, match="starts at byte"):
        AbsaModel.load(str(path))
    for bad in (b"{not json", b"\xff\xfe"):
        path.write_bytes(with_header(raw, bad))
        with pytest.raises(CheckpointError, match="undecodable"):
            AbsaModel.load(str(path))


def _set(*keys_and_value):
    """A header edit that sets header[k1][k2]... = value."""
    *keys, value = keys_and_value

    def edit(header):
        node = header
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    return edit


def _drop(*keys):
    def edit(header):
        node = header
        for k in keys[:-1]:
            node = node[k]
        del node[keys[-1]]
    return edit


DAMAGED_HEADERS = {
    "no config": _drop("config"),
    "no schemes": _drop("schemes"),
    "no general_vocab": _drop("general_vocab"),
    "no domain_vocab": _drop("domain_vocab"),
    "no general_dim": _drop("general_dim"),
    "no domain_dim": _drop("domain_dim"),
    "no manifest": _drop("manifest"),
    "config not an object": _set("config", [1, 2]),
    "vocab entry not a string": _set("general_vocab", 0, 7),
    "dim as string": _set("domain_dim", "4"),
    "dim not matching config": _set("domain_dim", 5),
    "offset as string": _set("manifest", 0, "offset", "0"),
    "offset as float": _set("manifest", 1, "offset", 1.5),
    "negative offset": _set("manifest", 1, "offset", -4),
    "shape as int": _set("manifest", 0, "shape", 5),
    "shape with string": _set("manifest", 0, "shape", ["a", 6]),
    "entry without name": _drop("manifest", 0, "name"),
    "unknown config key": _set("config", "bogus", 1),
    "missing config key": _drop("config", "d_enc"),
    "config value of wrong type": _set("config", "d_enc", "8"),
    "config bool as int": _set("config", "iterations", True),
    "transfers not a list": _set("config", "transfers", "ate->ote"),
    "config fails validate": _set("config", "iterations", 0),
    "retired pe_mode value": _set("config", "pe_mode", "off"),
    "retired train_embeddings value": _set("config", "train_embeddings",
                                           False),
    "unknown transfer direction": _set("config", "transfers", ["ate->ddc"]),
    "empty kernel widths": _set("config", "kernel_widths", []),
    "schemes missing a key": _drop("schemes", "ate_tags"),
    "schemes of wrong type": _set("schemes", "ate_tags", 3),
}


@pytest.mark.parametrize("damage", DAMAGED_HEADERS)
def test_damaged_header_raises_checkpoint_error(saved_checkpoint, tmp_path,
                                                damage):
    model, raw = saved_checkpoint
    path = tmp_path / "m.ckpt"
    path.write_bytes(edit_header(raw, DAMAGED_HEADERS[damage]))
    with pytest.raises(CheckpointError):
        AbsaModel.load(str(path))


def test_legacy_max_len_header_loads_bit_identical(saved_checkpoint,
                                                   tmp_path):
    # older checkpoints carry keys that held the one value still supported
    model, raw = saved_checkpoint
    path = tmp_path / "legacy.ckpt"

    def legacy_keys(header):
        header["config"].update(max_len=16, pe_mode="add-both",
                                train_embeddings=True)

    path.write_bytes(edit_header(raw, legacy_keys))
    legacy = AbsaModel.load(str(path))
    assert legacy.config == model.config
    for name, t in model.named_tensors().items():
        np.testing.assert_array_equal(legacy.named_tensors()[name].data,
                                      t.data)
    words = ("the", "battery", "is", "great", "okay")
    for n in (4, 20):
        sent = Sentence(tuple(words[i % 5] for i in range(n)), (2,) * n,
                        (2,) * n, (None,) * n, chain_adjacency(n))
        model.index_tokens(sent)
        want, _ = model.forward([sent])
        got, _ = legacy.forward([sent])
        for task in ("ate", "ote", "asc"):
            np.testing.assert_array_equal(got[-1].probs[task].data,
                                          want[-1].probs[task].data)
        assert legacy.predict(sent) == model.predict(sent)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    import ktabsa.model as kmodel
    model, _, _ = build_tiny_model()
    path = str(tmp_path / "best.ckpt")
    model.save(path)
    with open(path, "rb") as f:
        before = f.read()

    class FailingFile:
        """Writes through until the third write, then fails (disk full)."""

        def __init__(self, f):
            self.f, self.writes = f, 0

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                self.f.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")
            return self.f.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    real_open = open
    monkeypatch.setattr(kmodel, "open",
                        lambda *a, **k: FailingFile(real_open(*a, **k)),
                        raising=False)
    for t in model.named_parameters().values():
        t.data += 1.0
    with pytest.raises(OSError, match="No space"):
        model.save(path)
    monkeypatch.undo()
    with open(path, "rb") as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["best.ckpt"]
    AbsaModel.load(path)
