import argparse
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import MISSING, fields, is_dataclass

import numpy as np
import pytest

from conftest import ArrayModule, load_like, toy_dialogue_text, traced_peak_bytes
import personagen
from personagen.checkpoint import MAGIC, CheckpointError, save_model
from personagen import cli
from personagen.cli import load_expansion_records, main
from personagen.config import Config
from personagen.corpus import RESERVED_TOKENS, Vocabulary
from personagen.net import DialogueModel


BAD_CONFIG_FILES = {
    "malformed_json": '{"model": {"beam": 2,}}',
    "unknown_section": '{"optimizer": {}}',
    "unknown_key": '{"model": {"hidde": 8}}',
    "section_not_object": '{"model": 8}',
    "beam_zero": '{"model": {"beam": 0}}',
}


def section_settings() -> set[tuple[str, object]]:
    """The (name, default) pair of every field of every Config section."""
    config = Config()
    return {(f.name, f.default) for section in fields(config)
            if is_dataclass(getattr(config, section.name))
            for f in fields(getattr(config, section.name)) if f.default is not MISSING}


class TestConfig:
    def test_published_defaults(self):
        config = Config()
        assert config.model.hidden == 512
        assert config.model.batch_size == 64
        assert config.model.lr == pytest.approx(1e-4)
        assert config.model.hops == 3
        assert config.model.beam == 2
        assert config.topic.topics == 50
        assert config.topic.vocab_size == 10000
        assert config.expansion.max_words == 100
        assert config.losses.gamma_match == pytest.approx(0.1)
        assert config.losses.gamma_bows == pytest.approx(0.1)
        assert config.losses.bows_extra_weight == pytest.approx(1.0)
        assert config.losses.match_threshold == pytest.approx(0.03)

    def test_empty_override_reproduces_defaults(self):
        assert Config.from_dict({}) == Config()

    def test_partial_override(self):
        config = Config.from_dict({"model": {"hidden": 32}, "seed": 5})
        assert config.model.hidden == 32
        assert config.model.batch_size == 64
        assert config.seed == 5

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            Config.from_dict({"optimizer": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            Config.from_dict({"model": {"hidde": 8}})

    def test_round_trip(self):
        config = Config.from_dict({"model": {"hidden": 16}})
        assert Config.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("key", ["beam", "hops", "max_len"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"model.{key}"):
            Config.from_dict({"model": {key: value}})

    @pytest.mark.parametrize("key,value", [("neighbors", 0), ("neighbors", -3),
                                           ("max_words", -1), ("max_words", -5)])
    def test_expansion_counts_out_of_range_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"expansion.{key}"):
            Config.from_dict({"expansion": {key: value}})

    @pytest.mark.parametrize("key,value", [("gamma_match", -1), ("gamma_bows", -0.5),
                                           ("match_threshold", -0.5),
                                           ("bows_extra_weight", 0),
                                           ("bows_extra_weight", -1.0)])
    def test_loss_settings_out_of_range_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"losses.{key} must be"):
            Config.from_dict({"losses": {key: value}})

    def test_zero_loss_weights_and_threshold_allowed(self):
        zeros = {"gamma_match": 0, "gamma_bows": 0.0, "match_threshold": 0}
        losses = Config.from_dict({"losses": zeros}).losses
        assert (losses.gamma_match, losses.gamma_bows, losses.match_threshold) == (0, 0, 0)

    def test_zero_epochs_and_grad_clip_allowed(self):
        config = Config.from_dict({"model": {"epochs": 0, "grad_clip": 0},
                                   "topic": {"epochs": 0}})
        assert (config.model.epochs, config.model.grad_clip, config.topic.epochs) == (0, 0, 0)

    def test_zero_expansion_words_allowed(self):
        assert Config.from_dict({"expansion": {"max_words": 0}}).expansion.max_words == 0

    def test_bad_expansion_config_fails_expand_with_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"expansion": {"neighbors": -3}}', encoding="utf-8")
        code = main(["expand", "--config", str(path), "--topic", str(tmp_path / "t.ckpt"),
                     "--data", str(tmp_path / "d.txt"), "--out", str(tmp_path / "e.jsonl")])
        assert code == 2
        assert "expansion.neighbors" in capsys.readouterr().err

    def test_no_dataclass_outside_config_restates_a_section_setting(self):
        # each setting's name and default live in config.py alone; a dataclass
        # elsewhere that declares one keeps a second copy to drift apart
        settings = section_settings()
        restated = []
        for info in pkgutil.walk_packages(personagen.__path__, "personagen."):
            module = importlib.import_module(info.name)
            for obj in vars(module).values():
                if (not is_dataclass(obj) or not isinstance(obj, type)
                        or obj.__module__ != info.name or info.name == "personagen.config"):
                    continue
                own = obj.__dict__.get("__annotations__", {})
                restated += [f"{obj.__qualname__}.{f.name}" for f in fields(obj)
                             if f.name in own and (f.name, f.default) in settings]
        assert restated == []

    def test_no_parameter_restates_a_section_setting(self):
        # a keyword default that equals a section field's is the same second
        # copy: callers that omit it silently stop following the config
        settings = section_settings()
        restated = []
        for info in pkgutil.walk_packages(personagen.__path__, "personagen."):
            module = importlib.import_module(info.name)
            for obj in vars(module).values():
                members = [obj] + (list(vars(obj).values()) if isinstance(obj, type) else [])
                for fn in members:
                    fn = getattr(fn, "__func__", fn)
                    # code compiled from the module's own file: not imports,
                    # not the __init__ a dataclass generates
                    if not inspect.isfunction(fn) or fn.__code__.co_filename != module.__file__:
                        continue
                    restated += [f"{info.name}.{fn.__qualname__}({p.name}={p.default!r})"
                                 for p in inspect.signature(fn).parameters.values()
                                 if p.default is not p.empty and (p.name, p.default) in settings]
        assert restated == []

    @pytest.mark.parametrize("case", sorted(BAD_CONFIG_FILES))
    def test_bad_config_file_is_user_error(self, case, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(BAD_CONFIG_FILES[case], encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "m.ckpt")]) == 2
        assert f"error: {path}" in capsys.readouterr().err


# a config value of the wrong type or out of range, and the key the error names
BAD_CONFIG_VALUES = {
    "seed_null": ({"seed": None}, "seed"),
    "seed_fraction": ({"seed": 1.5}, "seed"),
    "seed_negative": ({"seed": -1}, "seed"),
    "lr_string": ({"model": {"lr": "fast"}}, "model.lr"),
    "hidden_string": ({"model": {"hidden": "abc"}}, "model.hidden"),
    "hidden_odd": ({"model": {"hidden": 3}}, "model.hidden"),
    "beam_bool": ({"model": {"beam": True}}, "model.beam"),
    "model_batch_zero": ({"model": {"batch_size": 0}}, "model.batch_size"),
    "model_vocab_reserved_only": ({"model": {"vocab_size": 4}}, "model.vocab_size"),
    "topic_batch_zero": ({"topic": {"batch_size": 0}}, "topic.batch_size"),
    "topic_vocab_reserved_only": ({"topic": {"vocab_size": 4}}, "topic.vocab_size"),
    "topics_zero": ({"topic": {"topics": 0}}, "topic.topics"),
    "train_path_number": ({"paths": {"train": 5}}, "paths.train"),
    "corpora_not_list": ({"paths": {"topic_corpora": "a.txt"}}, "paths.topic_corpora"),
    "gamma_string": ({"losses": {"gamma_match": "high"}}, "losses.gamma_match"),
    "lr_nan": ({"model": {"lr": float("nan")}}, "model.lr"),
    "grad_clip_infinity": ({"model": {"grad_clip": float("inf")}}, "model.grad_clip"),
    "topic_lr_minus_infinity": ({"topic": {"lr": float("-inf")}}, "topic.lr"),
    "gamma_nan": ({"losses": {"gamma_bows": float("nan")}}, "losses.gamma_bows"),
    "gamma_negative": ({"losses": {"gamma_match": -1}}, "losses.gamma_match"),
    "bows_extra_weight_zero": ({"losses": {"bows_extra_weight": 0}},
                               "losses.bows_extra_weight"),
    "threshold_negative": ({"losses": {"match_threshold": -0.5}}, "losses.match_threshold"),
    "model_epochs_negative": ({"model": {"epochs": -1}}, "model.epochs"),
    "topic_epochs_negative": ({"topic": {"epochs": -2}}, "topic.epochs"),
    "lr_negative": ({"model": {"lr": -0.5}}, "model.lr"),
    "lr_zero": ({"model": {"lr": 0}}, "model.lr"),
    "topic_lr_zero": ({"topic": {"lr": 0.0}}, "topic.lr"),
    "topic_lr_negative": ({"topic": {"lr": -1e-3}}, "topic.lr"),
    "grad_clip_negative": ({"model": {"grad_clip": -1}}, "model.grad_clip"),
}


def run_small_config(override, command, corpus, tmp_path, *options) -> int:
    """``command`` on a config that trains in well under a second, with the
    sections of ``override`` merged in and ``options`` appended."""
    config = {"paths": {"train": str(corpus)},
              "topic": {"topics": 2, "hidden": 4, "epochs": 1, "vocab_size": 64},
              "model": {"hidden": 4, "emb_dim": 3, "vocab_size": 64, "epochs": 1}}
    for section, values in override.items():
        config[section] = dict(config.get(section, {}), **values) if isinstance(values, dict) \
            else values
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return main([command, "--config", str(path), "--out", str(tmp_path / "out.ckpt"), *options])


@pytest.mark.parametrize("command", ["pretrain-topic", "train"])
def test_small_config_runs(command, toy_corpus, tmp_path):
    assert run_small_config({}, command, toy_corpus, tmp_path) == 0


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_bad_config_value_exits_2_naming_its_key(case, toy_corpus, tmp_path, capsys):
    override, key = BAD_CONFIG_VALUES[case]
    command = "pretrain-topic" if key.startswith("topic") else "train"
    assert run_small_config(override, command, toy_corpus, tmp_path) == 2
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain-topic", "train"])
def test_negative_seed_option_exits_2_naming_seed(command, toy_corpus, tmp_path, capsys):
    assert run_small_config({}, command, toy_corpus, tmp_path, "--seed", "-1") == 2
    assert "seed must be" in capsys.readouterr().err


def unwritable(kind: str, tmp_path) -> str:
    """A path where no file can be made: a directory, or a path under a
    regular file."""
    if kind == "directory":
        (tmp_path / "dir").mkdir()
        return str(tmp_path / "dir")
    (tmp_path / "file").write_text("", encoding="utf-8")
    return str(tmp_path / "file" / "out")


@pytest.mark.parametrize("kind", ["directory", "under_a_file"])
@pytest.mark.parametrize("option", ["--out", "--trace"])
@pytest.mark.parametrize("command", ["pretrain-topic", "train"])
def test_unwritable_output_exits_2_before_training(command, option, kind, toy_corpus,
                                                   tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("trained before checking the outputs")

    monkeypatch.setattr(cli, "train_topic_model", refuse)
    monkeypatch.setattr(cli, "train_dialogue_model", refuse)
    path = unwritable(kind, tmp_path)
    assert run_small_config({}, command, toy_corpus, tmp_path, option, path) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and path in err[0]


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vocab = Vocabulary.from_tokens(["alpha", "beta"])
        model = ArrayModule(vocab, {"layer.w": rng.normal(size=(7, 3)),
                                    "layer.b": rng.normal(size=(3,)),
                                    "scalarish": np.array(rng.normal())})
        path = tmp_path / "model.ckpt"
        save_model(path, "dialogue", model, {"seed": 3}, {"note": 1})
        got, loaded = load_like(path, "dialogue", model)
        assert loaded.kind == "dialogue"
        assert loaded.config == {"seed": 3}
        assert loaded.extra == {"note": 1}
        assert got.vocab.index_to_token == vocab.index_to_token
        for (name, want), (got_name, have) in zip(model.named_params(), got.named_params()):
            assert got_name == name
            assert have.data.shape == want.data.shape
            assert have.data.tobytes() == want.data.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_like(path, "dialogue", ArrayModule(None, {}))

    def test_repeated_parameter_name_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(MALFORMED_CHECKPOINTS["params_duplicate"])
        with pytest.raises(CheckpointError, match="params lists w twice"):
            load_like(path, "dialogue", VALID_MODEL)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = ArrayModule(Vocabulary.from_tokens(["x"]), {"w": np.zeros((4, 4))})
        save_model(path, "topic", model, {}, {})
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_like(path, "topic", model)

    def test_failed_save_keeps_the_earlier_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        vocab = Vocabulary.from_tokens(["x"])
        save_model(path, "topic", ArrayModule(vocab, {"w": np.arange(3.0)}), {}, {})
        failing = ArrayModule(vocab, {"w": np.zeros(3), "b": np.zeros(1)})
        failing.b.data = np.array(["nan?"])  # its payload cannot be written as float64
        with pytest.raises(ValueError):
            save_model(path, "topic", failing, {}, {})
        kept, _ = load_like(path, "topic", ArrayModule(vocab, {"w": np.zeros(3)}))
        assert kept.w.data.tolist() == [0.0, 1.0, 2.0]
        assert os.listdir(tmp_path) == ["model.ckpt"]

    @pytest.mark.parametrize("kind", ["directory", "under_a_file"])
    def test_save_to_an_unwritable_path_leaves_no_file(self, kind, tmp_path):
        path = unwritable(kind, tmp_path)
        before = sorted(os.listdir(tmp_path))
        with pytest.raises((IsADirectoryError, NotADirectoryError)):
            save_model(path, "topic", ArrayModule(Vocabulary.from_tokens(["x"]),
                                                  {"w": np.zeros(3)}), {}, {})
        assert sorted(os.listdir(tmp_path)) == before

    def test_model_load_reads_payloads_into_the_model(self, tmp_path):
        # one copy of the parameters: no array beside the model's own
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(2000)])
        config = Config.from_dict({"model": {"hidden": 64, "emb_dim": 32, "hops": 1}})
        model = DialogueModel(vocab, 32, 64, 1, np.random.default_rng(2))
        path = tmp_path / "model.ckpt"
        save_model(path, "dialogue", model, config.to_dict())
        args = argparse.Namespace(config=None, seed=None, checkpoint=str(path))
        loaded = []
        peak = traced_peak_bytes(lambda: loaded.append(cli._load_dialogue_model(args)))
        (got, _), = loaded
        param_bytes = sum(t.data.nbytes for _, t in model.named_params())
        assert peak < 1.25 * param_bytes
        for (name, want), (_, have) in zip(model.named_params(), got.named_params()):
            assert have.data.tobytes() == want.data.tobytes(), name

    @pytest.mark.parametrize("change,message", [("missing", "missing parameter"),
                                                ("unexpected", "unexpected parameter extra.w"),
                                                ("reshaped", "has shape")])
    def test_model_load_checks_the_manifest_against_the_model(self, change, message, tmp_path):
        vocab = Vocabulary.from_tokens(["x", "y"])
        model = DialogueModel(vocab, 3, 4, 1, np.random.default_rng(0))
        arrays = {n: t.data for n, t in model.named_params()}
        name = list(arrays)[1]
        if change == "missing":
            del arrays[name]
        elif change == "unexpected":
            arrays["extra.w"] = np.zeros(2)
        else:
            arrays[name] = np.zeros(arrays[name].size + 1)
        path = tmp_path / "model.ckpt"
        config = Config.from_dict({"model": {"hidden": 4, "emb_dim": 3, "hops": 1}})
        save_model(path, "dialogue", ArrayModule(vocab, arrays), config.to_dict())
        with pytest.raises(CheckpointError, match=message):
            cli._load_dialogue_model(argparse.Namespace(config=None, seed=None,
                                                        checkpoint=str(path)))


def raw_checkpoint(header, payload: bytes = b"", header_len: int | None = None) -> bytes:
    encoded = json.dumps(header).encode("utf-8")
    length = len(encoded) if header_len is None else header_len
    return MAGIC + length.to_bytes(8, "little") + encoded + payload


VALID_HEADER = {"format_version": 1, "kind": "dialogue", "config": {},
                "vocab": list(RESERVED_TOKENS) + ["x"],
                "params": [{"name": "w", "shape": [2]}], "extra": {}}
VALID_PAYLOAD = np.zeros(2).tobytes()
VALID_MODEL = ArrayModule(None, {"w": np.zeros(2)})  # the parameters VALID_HEADER lists


def without(key):
    return {k: v for k, v in VALID_HEADER.items() if k != key}


MALFORMED_CHECKPOINTS = {
    "header_not_object": raw_checkpoint([VALID_HEADER]),
    "missing_kind": raw_checkpoint(without("kind"), VALID_PAYLOAD),
    "missing_params": raw_checkpoint(without("params")),
    "missing_vocab": raw_checkpoint(without("vocab"), VALID_PAYLOAD),
    "header_longer_than_file": raw_checkpoint(
        dict(VALID_HEADER, params=[]),
        header_len=len(json.dumps(dict(VALID_HEADER, params=[]))) + 8),
    "trailing_bytes": raw_checkpoint(VALID_HEADER, VALID_PAYLOAD + b"\0" * 8),
    "params_not_list": raw_checkpoint(dict(VALID_HEADER, params=5), VALID_PAYLOAD),
    "entry_not_object": raw_checkpoint(dict(VALID_HEADER, params=["w"]), VALID_PAYLOAD),
    "entry_without_name": raw_checkpoint(dict(VALID_HEADER, params=[{"shape": [2]}]),
                                         VALID_PAYLOAD),
    "entry_without_shape": raw_checkpoint(dict(VALID_HEADER, params=[{"name": "w"}]),
                                          VALID_PAYLOAD),
    "shape_not_list": raw_checkpoint(dict(VALID_HEADER, params=[{"name": "w", "shape": 2}]),
                                     VALID_PAYLOAD),
    "shape_float": raw_checkpoint(dict(VALID_HEADER, params=[{"name": "w", "shape": [2.0]}]),
                                  VALID_PAYLOAD),
    "shape_negative": raw_checkpoint(dict(VALID_HEADER, params=[{"name": "w", "shape": [-2]}]),
                                     VALID_PAYLOAD),
    "vocab_not_list": raw_checkpoint(dict(VALID_HEADER, vocab=5), VALID_PAYLOAD),
    "vocab_not_strings": raw_checkpoint(dict(VALID_HEADER, vocab=list(RESERVED_TOKENS) + [3]),
                                        VALID_PAYLOAD),
    "vocab_duplicate": raw_checkpoint(
        dict(VALID_HEADER, vocab=list(RESERVED_TOKENS) + ["x", "x"]), VALID_PAYLOAD),
    "extra_not_object": raw_checkpoint(dict(VALID_HEADER, extra=[1]), VALID_PAYLOAD),
    "params_duplicate": raw_checkpoint(
        dict(VALID_HEADER, params=[{"name": "w", "shape": [2]}] * 2), VALID_PAYLOAD * 2),
    "shape_larger_than_file": raw_checkpoint(
        dict(VALID_HEADER, params=[{"name": "w", "shape": [10**12]}]), VALID_PAYLOAD),
    "empty_shape_too_large_to_index": raw_checkpoint(
        dict(VALID_HEADER, params=[{"name": "w", "shape": [2**40, 2**40, 0]}])),
}

# topic checkpoints whose header loads but whose saved config's sizes cannot
# build a model, and the key the error names
TOPIC_HEADER = dict(VALID_HEADER, kind="topic")
MALFORMED_TOPIC_SIZES = {
    "topics_null": ({"topics": None, "hidden": 4}, "topics"),
    "topics_string": ({"topics": "2", "hidden": 4}, "topics"),
    "topics_float": ({"topics": 2.0, "hidden": 4}, "topics"),
    "topics_zero": ({"topics": 0, "hidden": 4}, "topics"),
    "hidden_bool": ({"topics": 2, "hidden": True}, "hidden"),
    "hidden_zero": ({"topics": 2, "hidden": 0}, "hidden"),
}


class TestMalformedCheckpoint:
    def test_valid_raw_checkpoint_loads(self, tmp_path):
        path = tmp_path / "ok.ckpt"
        path.write_bytes(raw_checkpoint(VALID_HEADER, VALID_PAYLOAD))
        model, _ = load_like(path, "dialogue", VALID_MODEL)
        assert model.w.data.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_rejected_with_exit_2(self, case, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MALFORMED_CHECKPOINTS[case])
        with pytest.raises(CheckpointError):
            load_like(path, "dialogue", VALID_MODEL)
        data = tmp_path / "dialogues.txt"
        data.write_text(toy_dialogue_text(), encoding="utf-8")
        assert main(["generate", "--checkpoint", str(path), "--data", str(data),
                     "--out", str(tmp_path / "out.jsonl")]) == 2
        assert main(["expand", "--topic", str(path), "--data", str(data),
                     "--out", str(tmp_path / "out.jsonl")]) == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_TOPIC_SIZES))
    def test_topic_sizes_rejected_with_exit_2(self, case, tmp_path, capsys):
        sizes, key = MALFORMED_TOPIC_SIZES[case]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(raw_checkpoint(dict(TOPIC_HEADER, config={"topic": sizes}),
                                        VALID_PAYLOAD))
        data = tmp_path / "dialogues.txt"
        data.write_text(toy_dialogue_text(), encoding="utf-8")
        assert main(["expand", "--topic", str(path), "--data", str(data),
                     "--out", str(tmp_path / "out.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: saved config: topic.{key} must be" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full command pipeline once on the toy corpus."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "dialogues.txt"
    data.write_text(toy_dialogue_text(), encoding="utf-8")
    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "paths": {"train": str(data), "valid": str(data)},
        "topic": {"topics": 2, "hidden": 8, "epochs": 3, "vocab_size": 64, "batch_size": 8},
        "expansion": {"neighbors": 3, "max_words": 5},
        "model": {"hidden": 8, "emb_dim": 6, "vocab_size": 120, "batch_size": 8,
                  "lr": 0.01, "hops": 2, "beam": 2, "max_len": 8, "epochs": 2},
    }), encoding="utf-8")

    topic_ckpt = root / "topic.ckpt"
    expansions = root / "expansions.jsonl"
    model_ckpt = root / "model.ckpt"

    assert main(["pretrain-topic", "--config", str(config_path), "--seed", "3",
                 "--out", str(topic_ckpt)]) == 0
    assert main(["expand", "--config", str(config_path), "--topic", str(topic_ckpt),
                 "--data", str(data), "--out", str(expansions)]) == 0
    assert main(["train", "--config", str(config_path), "--seed", "3",
                 "--expansions", str(expansions), "--out", str(model_ckpt)]) == 0
    return {
        "root": root, "data": data, "config": config_path,
        "topic_ckpt": topic_ckpt, "expansions": expansions, "model_ckpt": model_ckpt,
    }


class TestPipeline:
    def test_topic_checkpoint_and_trace(self, pipeline):
        model = cli._load_topic_model(pipeline["topic_ckpt"])
        assert model.topics == 2
        _, loaded = load_like(pipeline["topic_ckpt"], "topic", model)
        assert loaded.kind == "topic"
        assert loaded.extra == {}  # the sizes live in the saved config alone
        trace = [json.loads(line) for line in
                 open(f"{pipeline['topic_ckpt']}.trace.jsonl", encoding="utf-8")]
        assert [r["epoch"] for r in trace] == [1, 2, 3]
        assert all(np.isfinite(r["loss"]) for r in trace)

    def test_topic_checkpoint_with_sizes_in_extra_expands_the_same(self, pipeline, tmp_path):
        # earlier topic checkpoints also carried their sizes in extra
        model = cli._load_topic_model(pipeline["topic_ckpt"])
        _, loaded = load_like(pipeline["topic_ckpt"], "topic", model)
        earlier = tmp_path / "topic.ckpt"
        save_model(earlier, "topic", model, loaded.config, {"topics": 2, "hidden": 8})
        out = tmp_path / "expansions.jsonl"
        assert main(["expand", "--config", str(pipeline["config"]), "--topic", str(earlier),
                     "--data", str(pipeline["data"]), "--out", str(out)]) == 0
        assert out.read_bytes() == pipeline["expansions"].read_bytes()

    def test_default_topic_count_recorded(self, pipeline, tmp_path):
        # without a config override the checkpoint metadata records 50 topics
        model = cli._load_topic_model(pipeline["topic_ckpt"])
        _, loaded = load_like(pipeline["topic_ckpt"], "topic", model)
        assert loaded.config["topic"]["topics"] == 2
        assert Config().topic.topics == 50

    def test_expansion_records(self, pipeline):
        records = [json.loads(line) for line in open(pipeline["expansions"], encoding="utf-8")]
        assert [r["conversation"] for r in records] == list(range(8))
        for record in records:
            assert len(record["words"]) <= 5
            scores = [s for _, s in record["words"]]
            assert scores == sorted(scores, reverse=True)

    def test_train_trace_and_checkpoint(self, pipeline):
        model, _ = cli._load_dialogue_model(argparse.Namespace(
            config=None, seed=None, checkpoint=str(pipeline["model_ckpt"])))
        _, loaded = load_like(pipeline["model_ckpt"], "dialogue", model)
        assert loaded.kind == "dialogue"
        trace = [json.loads(line) for line in
                 open(f"{pipeline['model_ckpt']}.trace.jsonl", encoding="utf-8")]
        assert len(trace) == 2
        assert trace[0]["valid_loss"] is not None

    def test_generate_writes_one_record_per_example(self, pipeline, tmp_path):
        out = tmp_path / "responses.jsonl"
        assert main(["generate", "--checkpoint", str(pipeline["model_ckpt"]),
                     "--data", str(pipeline["data"]),
                     "--expansions", str(pipeline["expansions"]),
                     "--out", str(out), "--mode", "greedy", "--diagnostics"]) == 0
        records = [json.loads(line) for line in open(out, encoding="utf-8")]
        assert len(records) == 16
        assert all("response" in r for r in records)
        assert all(abs(sum(r["match_weights"]) - 1.0) < 1e-9 for r in records)

    def test_beam_diagnostics_include_memory_attention(self, pipeline, tmp_path):
        out = tmp_path / "responses.jsonl"
        assert main(["generate", "--checkpoint", str(pipeline["model_ckpt"]),
                     "--data", str(pipeline["data"]),
                     "--expansions", str(pipeline["expansions"]),
                     "--out", str(out), "--mode", "beam", "--diagnostics"]) == 0
        records = [json.loads(line) for line in open(out, encoding="utf-8")]
        assert len(records) == 16
        for record in records:
            attention = record["memory_attention"]
            assert abs(sum(attention["attention"]) - 1.0) < 1e-9
            assert abs(sum(attention["word_memory"]) - 1.0) < 1e-9
            assert abs(sum(attention["external_memory"]) - 1.0) < 1e-9

    @pytest.mark.parametrize("command", ["generate", "eval"])
    def test_stdout_closed_by_its_reader_exits_1_quietly(self, command, pipeline):
        # as in `personagen generate … | head -c 10` once head has exited:
        # the pipe's read end is closed before the command writes
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from personagen.cli import main; "
                 "sys.exit(main())", command, "--checkpoint", str(pipeline["model_ckpt"]),
                 "--data", str(pipeline["data"]), "--mode", "greedy"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (1, "")

    def test_eval_report_schema(self, pipeline, tmp_path):
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(pipeline["model_ckpt"]),
                     "--data", str(pipeline["data"]),
                     "--expansions", str(pipeline["expansions"]),
                     "--out", str(out), "--mode", "greedy"]) == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert list(record) == ["BLEU1", "BLEU2", "BLEU3", "BLEU4", "F1",
                                "Average", "Extrema", "Greedy", "PersonaUseRatio"]
        assert all(np.isfinite(v) for v in record.values())

    def test_eval_identity_fixture(self, pipeline, tmp_path, monkeypatch):
        # candidates == references gives BLEU1 = 100 and F1 = 1: check the
        # metric wiring through evaluate_corpus directly
        from personagen.metrics import evaluate_corpus

        sents = [["i", "love", "guitar", "."]]
        report = evaluate_corpus(sents, sents, None, [([["guitar"]], sents)])
        assert report.BLEU1 == pytest.approx(100.0)
        assert report.F1 == pytest.approx(1.0)

    def test_eval_scores_the_responses_generate_writes(self, pipeline, tmp_path):
        from personagen.corpus import load_personachat
        from personagen.metrics import evaluate_corpus

        inputs = ["--checkpoint", str(pipeline["model_ckpt"]), "--data", str(pipeline["data"]),
                  "--expansions", str(pipeline["expansions"]), "--mode", "greedy"]
        responses, report = tmp_path / "responses.jsonl", tmp_path / "report.json"
        assert main(["generate", *inputs, "--out", str(responses)]) == 0
        assert main(["eval", *inputs, "--out", str(report)]) == 0
        records = [json.loads(line) for line in open(responses, encoding="utf-8")]
        conversations = load_personachat(pipeline["data"])
        candidates = [record["response"].split() for record in records]
        references = [example.response for conv in conversations for example in conv.examples]
        per_conversation = [
            (conv.persona_sentences, [candidates[r["example"]] for r in records
                                      if r["conversation"] == i])
            for i, conv in enumerate(conversations) if conv.examples]
        want = evaluate_corpus(candidates, references, None, per_conversation)
        assert json.loads(report.read_text(encoding="utf-8")) == want.to_record()

    def test_eval_reads_only_candidate_and_reference_embeddings(self, pipeline, tmp_path,
                                                                monkeypatch):
        from personagen.corpus import load_embeddings, load_personachat
        from personagen.metrics import evaluate_corpus

        # "zebra" is a reference token outside the model vocabulary
        data = tmp_path / "dialogues.txt"
        data.write_text(toy_dialogue_text() + "1 your persona: i love guitar.\n"
                        "2 what do you like?\ti love zebra .\n", encoding="utf-8")
        emb = tmp_path / "emb.txt"
        emb.write_text("".join(f"{token} {i / 10} {1 - i / 20} 0.3\n" for i, token in enumerate(
            ["i", "love", "guitar", "my", "makes", "me", "happy", ".", "zebra", "zzextra"])),
            encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"paths": {"embeddings": str(emb)},
                                           "model": {"beam": 2, "max_len": 8}}),
                               encoding="utf-8")
        scored = []

        def spy(candidates, references, table, conversations):
            scored.append((candidates, references, table, conversations))
            return evaluate_corpus(candidates, references, table, conversations)

        monkeypatch.setattr(cli, "evaluate_corpus", spy)
        report = tmp_path / "report.json"
        assert main(["eval", "--config", str(config_path),
                     "--checkpoint", str(pipeline["model_ckpt"]), "--data", str(data),
                     "--mode", "greedy", "--out", str(report)]) == 0
        (candidates, references, table, conversations), = scored
        vocab = cli._load_dialogue_model(argparse.Namespace(
            config=None, seed=None, checkpoint=str(pipeline["model_ckpt"])))[0].vocab
        wanted = set(vocab.index_to_token).union(
            token for conv in load_personachat(data) for example in conv.examples
            for token in example.response)
        assert "zebra" not in vocab and set(table.vectors) <= wanted
        assert {"guitar", "zebra"} <= set(table.vectors) and "zzextra" not in table.vectors
        unfiltered = evaluate_corpus(candidates, references, load_embeddings(emb), conversations)
        assert unfiltered.Average != 0.0
        assert json.loads(report.read_text(encoding="utf-8")) == unfiltered.to_record()

    @pytest.mark.parametrize("kind", ["directory", "under_a_file"])
    def test_eval_out_where_no_file_can_be_made_exits_2_before_decoding(
            self, kind, pipeline, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decoded before checking --out")

        monkeypatch.setattr(DialogueModel, "generate", refuse)
        path = unwritable(kind, tmp_path)
        assert main(["eval", "--checkpoint", str(pipeline["model_ckpt"]),
                     "--data", str(pipeline["data"]), "--out", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and path in err[0]

    @pytest.mark.parametrize("command", ["generate", "eval"])
    def test_missing_expansion_records_warn_and_decode_as_empty(self, command, pipeline,
                                                                tmp_path, capsys):
        # a conversation that the records leave out warns once and is
        # decoded as with a record of no words
        with open(pipeline["expansions"], encoding="utf-8") as handle:
            first = handle.readline()
        partial, empty = tmp_path / "partial.jsonl", tmp_path / "empty.jsonl"
        partial.write_text(first, encoding="utf-8")
        empty.write_text(first + "".join(json.dumps({"conversation": i, "words": []}) + "\n"
                                         for i in range(1, 8)), encoding="utf-8")
        outputs, errors = [], []
        for records in (partial, empty):
            out = tmp_path / f"{records.stem}.out"
            assert main([command, "--checkpoint", str(pipeline["model_ckpt"]),
                         "--data", str(pipeline["data"]), "--expansions", str(records),
                         "--out", str(out), "--mode", "greedy"]) == 0
            outputs.append(out.read_bytes())
            errors.append(capsys.readouterr().err)
        assert outputs[0] == outputs[1]
        assert errors[0].splitlines() == [
            f"warning: no expansion record for conversation {i}; "
            "external persona memory will be empty" for i in range(1, 8)]
        assert errors[1] == ""

    def test_chat_session(self, pipeline, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n\nwhat do you like?\n"))
        persona = pipeline["root"] / "persona.txt"
        persona.write_text("i love guitar.\ni work at the corner store.\n", encoding="utf-8")
        assert main(["chat", "--checkpoint", str(pipeline["model_ckpt"]),
                     "--persona", str(persona), "--mode", "greedy"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2  # empty line re-prompts, no decode

    def test_chat_uses_the_first_expansion_record_in_file_order(self, pipeline, monkeypatch,
                                                               tmp_path):
        records = tmp_path / "expansions.jsonl"
        records.write_text(json.dumps({"conversation": 5, "words": [["guitar", 0.9]]}) + "\n"
                           + json.dumps({"conversation": 2, "words": [["store", 0.8]]}) + "\n",
                           encoding="utf-8")
        persona = tmp_path / "persona.txt"
        persona.write_text("i love guitar.\n", encoding="utf-8")
        bound_with = []
        bind = cli.bind_example

        def spy(example, vocab, expansions):
            bound_with.append(list(expansions))
            return bind(example, vocab, expansions)

        monkeypatch.setattr(cli, "bind_example", spy)
        monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n"))
        assert main(["chat", "--checkpoint", str(pipeline["model_ckpt"]),
                     "--persona", str(persona), "--expansions", str(records),
                     "--mode", "greedy"]) == 0
        assert bound_with == [["guitar"]]

    def test_generate_deterministic(self, pipeline, tmp_path):
        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main(["generate", "--checkpoint", str(pipeline["model_ckpt"]),
                         "--data", str(pipeline["data"]),
                         "--expansions", str(pipeline["expansions"]),
                         "--out", str(out)]) == 0
            outputs.append(out.read_text(encoding="utf-8"))
        assert outputs[0] == outputs[1]


class TestTrainVariants:
    def test_pretrained_embeddings_adopted(self, pipeline, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("guitar 0.1 0.2 0.3\nlove 0.4 0.5 0.6\n", encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "paths": {"train": str(pipeline["data"]), "embeddings": str(emb)},
            "model": {"hidden": 8, "emb_dim": 6, "vocab_size": 120, "batch_size": 16,
                      "lr": 0.01, "hops": 1, "max_len": 6, "epochs": 1},
        }), encoding="utf-8")
        out = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        model, _ = cli._load_dialogue_model(argparse.Namespace(config=None, seed=None,
                                                               checkpoint=str(out)))
        # table dim (3) wins over the configured emb_dim
        assert model.embedding.data.shape[1] == 3
        guitar = model.vocab.token_to_index["guitar"]
        assert np.isfinite(model.embedding.data[guitar]).all()

    def test_missing_expansion_record_warns(self, pipeline, tmp_path, capsys):
        partial = tmp_path / "partial.jsonl"
        with open(pipeline["expansions"], encoding="utf-8") as handle:
            first = handle.readline()
        partial.write_text(first, encoding="utf-8")
        out = tmp_path / "m.ckpt"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "paths": {"train": str(pipeline["data"])},
            "model": {"hidden": 8, "emb_dim": 6, "vocab_size": 120, "batch_size": 16,
                      "lr": 0.01, "hops": 1, "max_len": 6, "epochs": 1},
        }), encoding="utf-8")
        assert main(["train", "--config", str(config_path),
                     "--expansions", str(partial), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "no expansion record for conversation" in err


class TestExitCodes:
    def test_unreadable_corpus_is_user_error(self, tmp_path):
        assert main(["pretrain-topic", "--corpus", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "x.ckpt")]) == 2

    def test_wrong_checkpoint_kind_is_user_error(self, pipeline, tmp_path, capsys):
        assert main(["expand", "--topic", str(pipeline["model_ckpt"]),
                     "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "x.jsonl")]) == 2
        assert capsys.readouterr().err == (f"error: {pipeline['model_ckpt']}: checkpoint kind "
                                           "'dialogue' is not a topic model\n")

    def test_generate_on_topic_checkpoint_is_user_error(self, pipeline, capsys):
        # the kind check names the file, as every other checkpoint error does
        assert main(["generate", "--checkpoint", str(pipeline["topic_ckpt"]),
                     "--data", str(pipeline["data"])]) == 2
        assert capsys.readouterr().err == (f"error: {pipeline['topic_ckpt']}: checkpoint kind "
                                           "'topic' is not a dialogue model\n")

    @pytest.mark.parametrize("kind", ["directory", "under_a_file"])
    def test_expand_out_where_no_file_can_be_made_is_user_error(self, kind, pipeline, tmp_path,
                                                                capsys):
        path = unwritable(kind, tmp_path)
        assert main(["expand", "--topic", str(pipeline["topic_ckpt"]),
                     "--data", str(pipeline["data"]), "--out", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and path in err[0]

    def test_missing_train_path_is_user_error(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "m.ckpt")]) == 2

    @pytest.mark.parametrize("text", ["", "1 your persona: i like music.\n"],
                             ids=["empty", "persona_only"])
    def test_train_file_without_examples_is_user_error(self, text, tmp_path, capsys):
        data = tmp_path / "dialogues.txt"
        data.write_text(text, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"train": str(data)}}), encoding="utf-8")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")]) == 2
        err = capsys.readouterr().err
        assert f"error: {data}: no training examples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "1 your persona: i like music.\n"],
                             ids=["empty", "persona_only"])
    def test_valid_file_without_examples_is_user_error(self, text, pipeline, tmp_path, capsys):
        valid = tmp_path / "valid.txt"
        valid.write_text(text, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "paths": {"train": str(pipeline["data"]), "valid": str(valid)},
            "model": {"hidden": 4, "emb_dim": 3, "vocab_size": 64, "epochs": 1},
        }), encoding="utf-8")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")]) == 2
        err = capsys.readouterr().err
        assert f"error: {valid}: no validation examples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "1 your persona: i like music.\n"],
                             ids=["empty", "persona_only"])
    def test_eval_file_without_examples_is_user_error(self, text, pipeline, tmp_path, capsys):
        data = tmp_path / "dialogues.txt"
        data.write_text(text, encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(pipeline["model_ckpt"]), "--data", str(data),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {data}: no evaluation examples" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_corrupt_checkpoint_is_user_error(self, pipeline, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert main(["generate", "--checkpoint", str(bad),
                     "--data", str(pipeline["data"])]) == 2


VALID_EXPANSION_LINE = '{"conversation": 0, "words": [["guitar", 0.5]]}'

MALFORMED_EXPANSION_LINES = {
    "not_json": '{"conversation": 1, "words": []',
    "not_object": '[1, []]',
    "missing_conversation": '{"words": [["music", 0.4]]}',
    "string_conversation": '{"conversation": "1", "words": []}',
    "float_conversation": '{"conversation": 1.5, "words": []}',
    "missing_words": '{"conversation": 1}',
    "word_not_pair": '{"conversation": 1, "words": ["music"]}',
    "word_score_not_number": '{"conversation": 1, "words": [["music", "high"]]}',
    "repeated_conversation": '{"conversation": 0, "words": [["music", 0.4]]}',
}


class TestMalformedExpansions:
    def test_no_path_reads_as_no_records(self):
        assert load_expansion_records(None) is None

    @pytest.mark.parametrize("command", ["train", "generate", "eval"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_EXPANSION_LINES))
    def test_rejected_with_exit_2(self, case, command, pipeline, tmp_path, capsys):
        records = tmp_path / "expansions.jsonl"
        records.write_text(f"{VALID_EXPANSION_LINE}\n{MALFORMED_EXPANSION_LINES[case]}\n",
                           encoding="utf-8")
        if command == "train":
            argv = ["train", "--config", str(pipeline["config"])]
        else:
            argv = [command, "--checkpoint", str(pipeline["model_ckpt"]),
                    "--data", str(pipeline["data"])]
        argv += ["--expansions", str(records), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{records}:2" in err
        assert "Traceback" not in err


def small_train_config(tmp_path, pipeline, valid: bool):
    paths = {"train": str(pipeline["data"])}
    if valid:
        paths["valid"] = str(pipeline["data"])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "paths": paths,
        "model": {"hidden": 8, "emb_dim": 6, "vocab_size": 120, "batch_size": 16,
                  "lr": 0.01, "hops": 1, "max_len": 6, "epochs": 2},
    }), encoding="utf-8")
    return config_path


@pytest.fixture
def train_calls(monkeypatch):
    """The (model, train examples, valid examples, result, final parameters)
    of each train_dialogue_model call that cmd_train makes."""
    calls = []
    train = cli.train_dialogue_model

    def spy(model, train_examples, valid_examples, *args, **kwargs):
        result = train(model, train_examples, valid_examples, *args, **kwargs)
        final = {name: t.data.copy() for name, t in model.named_params()}
        calls.append((model, train_examples, valid_examples, result, final))
        return result

    monkeypatch.setattr(cli, "train_dialogue_model", spy)
    return calls


class TestTrainCheckpoint:
    @pytest.mark.parametrize("valid", [False, True], ids=["no_valid", "valid"])
    def test_saves_the_kept_snapshot_or_the_final_parameters(self, valid, pipeline, tmp_path,
                                                            train_calls):
        out = tmp_path / "m.ckpt"
        config_path = small_train_config(tmp_path, pipeline, valid)
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        (model, _, _, result, final), = train_calls
        assert (result.best_valid is not None) == valid
        saved, _ = load_like(out, "dialogue", model)
        assert [name for name, _ in saved.named_params()] == list(final)
        for name, tensor in saved.named_params():
            assert tensor.data.tobytes() == final[name].tobytes(), name


class TestValidExpansions:
    def test_validation_is_bound_with_its_records(self, pipeline, tmp_path, train_calls,
                                                  capsys):
        # the validation file is the training file here, so both bindings
        # must carry the same expansion tokens
        config_path = small_train_config(tmp_path, pipeline, valid=True)
        records = str(pipeline["expansions"])
        assert main(["train", "--config", str(config_path), "--expansions", records,
                     "--valid-expansions", records, "--out", str(tmp_path / "m.ckpt")]) == 0
        (_, train_examples, valid_examples, _, _), = train_calls
        assert any(b.expansion_tokens for b in valid_examples)
        assert ([b.expansion_tokens for b in valid_examples]
                == [b.expansion_tokens for b in train_examples])
        assert "warning" not in capsys.readouterr().err

    def test_warns_once_when_validation_has_no_records(self, pipeline, tmp_path, capsys):
        config_path = small_train_config(tmp_path, pipeline, valid=True)
        assert main(["train", "--config", str(config_path), "--expansions",
                     str(pipeline["expansions"]), "--out", str(tmp_path / "m.ckpt")]) == 0
        assert capsys.readouterr().err.count("--valid-expansions") == 1

    def test_records_without_a_validation_file_exit_2(self, pipeline, tmp_path, capsys):
        # they were read and then ignored: training ran with no validation
        config_path = small_train_config(tmp_path, pipeline, valid=False)
        out = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config_path), "--valid-expansions",
                     str(pipeline["expansions"]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--valid-expansions" in err and "paths.valid" in err
        assert not out.exists()

    def test_no_warning_without_a_validation_file(self, pipeline, tmp_path, capsys):
        config_path = small_train_config(tmp_path, pipeline, valid=False)
        assert main(["train", "--config", str(config_path), "--expansions",
                     str(pipeline["expansions"]), "--out", str(tmp_path / "m.ckpt")]) == 0
        assert "--valid-expansions" not in capsys.readouterr().err

    def test_missing_validation_record_warns(self, pipeline, tmp_path, capsys):
        partial = tmp_path / "partial.jsonl"
        with open(pipeline["expansions"], encoding="utf-8") as handle:
            partial.write_text(handle.readline(), encoding="utf-8")
        assert len(load_expansion_records(pipeline["expansions"])) > 1
        config_path = small_train_config(tmp_path, pipeline, valid=True)
        assert main(["train", "--config", str(config_path), "--expansions",
                     str(pipeline["expansions"]), "--valid-expansions", str(partial),
                     "--out", str(tmp_path / "m.ckpt")]) == 0
        assert "no expansion record for conversation 1" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_EXPANSION_LINES))
    def test_malformed_records_exit_2_naming_path_and_line(self, case, pipeline, tmp_path,
                                                           capsys):
        records = tmp_path / "valid_expansions.jsonl"
        records.write_text(f"{VALID_EXPANSION_LINE}\n{MALFORMED_EXPANSION_LINES[case]}\n",
                           encoding="utf-8")
        config_path = small_train_config(tmp_path, pipeline, valid=True)
        assert main(["train", "--config", str(config_path), "--valid-expansions", str(records),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        err = capsys.readouterr().err
        assert f"{records}:2" in err
        assert "Traceback" not in err


TOY_LINES = toy_dialogue_text().splitlines(keepends=True)

# file bytes, and the line at fault
BAD_INPUT_FILES = {
    "corpus_not_utf8": ("".join(TOY_LINES[:2]).encode("utf-8")
                        + "3 your persona: i drink café.\n".encode("latin-1")
                        + "".join(TOY_LINES[3:]).encode("utf-8"), 3),
    "corpus_malformed": ((TOY_LINES[0] + "two your persona: i drink tea.\n"
                          + "".join(TOY_LINES[2:])).encode("utf-8"), 2),
    "corpus_superscript_index": ((TOY_LINES[0] + "² your persona: i drink tea.\n"
                                  + "".join(TOY_LINES[2:])).encode("utf-8"), 2),
    "corpus_arabic_indic_index": ((TOY_LINES[0] + "١ your persona: i drink tea.\n"
                                   + "".join(TOY_LINES[2:])).encode("utf-8"), 2),
    "embeddings_not_utf8": ("guitar 0.1 0.2 0.3\ncafé 0.4 0.5 0.6\n".encode("latin-1"), 2),
    "embeddings_ragged": (b"guitar 0.1 0.2 0.3\nlove 0.4 0.5\n", 2),
    "embeddings_not_numbers": (b"guitar 0.1 0.2 0.3\nlove 0.4 high 0.6\n", 2),
    "embeddings_nan": (b"guitar 0.1 0.2 0.3\nlove 0.4 nan 0.6\n", 2),
    "embeddings_infinite": (b"guitar 0.1 -inf 0.3\nlove 0.4 0.5 0.6\n", 1),
    "expansions_not_utf8": ((VALID_EXPANSION_LINE + '\n{"conversation": 1, "words": '
                             '[["café", 0.5]]}\n').encode("latin-1"), 2),
    "persona_not_utf8": ("i love guitar .\ni drink café .\n".encode("latin-1"), 2),
}

BAD_INPUT_COMMANDS = [
    ("corpus_not_utf8", "pretrain-topic"), ("corpus_not_utf8", "expand"),
    ("corpus_not_utf8", "train"), ("corpus_not_utf8", "generate"),
    ("corpus_malformed", "pretrain-topic"), ("corpus_malformed", "eval"),
    ("corpus_superscript_index", "pretrain-topic"), ("corpus_arabic_indic_index", "train"),
    ("embeddings_not_utf8", "train"), ("embeddings_not_utf8", "eval"),
    ("embeddings_ragged", "train"), ("embeddings_not_numbers", "eval"),
    ("embeddings_nan", "train"), ("embeddings_infinite", "eval"),
    ("expansions_not_utf8", "train"), ("expansions_not_utf8", "generate"),
    ("persona_not_utf8", "chat"),
]


def bad_input_argv(kind, command, bad, pipeline, tmp_path):
    """``command``'s arguments, reading the bad file as its ``kind`` input."""
    out = str(tmp_path / "out")
    data = bad if kind == "corpus" else str(pipeline["data"])
    if command == "pretrain-topic":
        return [command, "--corpus", bad, "--out", out]
    if command == "expand":
        return [command, "--topic", str(pipeline["topic_ckpt"]), "--data", bad, "--out", out]
    if command == "chat":
        return [command, "--checkpoint", str(pipeline["model_ckpt"]), "--persona", bad]
    config = tmp_path / "config.json"
    paths = {"train": data, "embeddings": bad if kind == "embeddings" else None}
    config.write_text(json.dumps({
        "paths": paths,
        "model": {"hidden": 8, "emb_dim": 6, "vocab_size": 120, "batch_size": 16,
                  "lr": 0.01, "hops": 1, "max_len": 6, "epochs": 1},
    }), encoding="utf-8")
    argv = [command, "--config", str(config), "--out", out]
    if command != "train":
        argv += ["--checkpoint", str(pipeline["model_ckpt"]), "--data", data]
    if kind == "expansions":
        argv += ["--expansions", bad]
    return argv


class TestBadInputFiles:
    @pytest.mark.parametrize("case,command", BAD_INPUT_COMMANDS)
    def test_exit_2_naming_path_and_line(self, case, command, pipeline, tmp_path, capsys,
                                         monkeypatch):
        content, line = BAD_INPUT_FILES[case]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        monkeypatch.setattr("sys.stdin", io.StringIO("hello .\n"))
        kind = case.split("_")[0]
        assert main(bad_input_argv(kind, command, str(bad), pipeline, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{bad}:{line}:" in err
        assert "Traceback" not in err

    def test_empty_embeddings_file_names_path(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "empty.txt"
        bad.write_text("\n", encoding="utf-8")
        assert main(bad_input_argv("embeddings", "train", str(bad), pipeline, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{bad}: embedding file is empty" in err
