import io
import json

import numpy as np
import pytest

from conftest import toy_dialogue_text
from personagen.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from personagen.cli import main
from personagen.config import Config
from personagen.corpus import RESERVED_TOKENS, Vocabulary


BAD_CONFIG_FILES = {
    "malformed_json": '{"model": {"beam": 2,}}',
    "unknown_section": '{"optimizer": {}}',
    "unknown_key": '{"model": {"hidde": 8}}',
    "section_not_object": '{"model": 8}',
    "beam_zero": '{"model": {"beam": 0}}',
}


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

    def test_zero_expansion_words_allowed(self):
        assert Config.from_dict({"expansion": {"max_words": 0}}).expansion.max_words == 0

    def test_bad_expansion_config_fails_expand_with_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"expansion": {"neighbors": -3}}', encoding="utf-8")
        code = main(["expand", "--config", str(path), "--topic", str(tmp_path / "t.ckpt"),
                     "--data", str(tmp_path / "d.txt"), "--out", str(tmp_path / "e.jsonl")])
        assert code == 2
        assert "expansion.neighbors" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_CONFIG_FILES))
    def test_bad_config_file_is_user_error(self, case, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(BAD_CONFIG_FILES[case], encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "m.ckpt")]) == 2
        assert f"error: {path}" in capsys.readouterr().err


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = [("layer.w", rng.normal(size=(7, 3))),
                  ("layer.b", rng.normal(size=(3,))),
                  ("scalarish", np.array(rng.normal()))]
        vocab = Vocabulary.from_tokens(["alpha", "beta"])
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "dialogue", params, vocab, {"seed": 3}, {"note": 1})
        loaded = load_checkpoint(path)
        assert loaded.kind == "dialogue"
        assert loaded.config == {"seed": 3}
        assert loaded.extra == {"note": 1}
        assert loaded.vocab.index_to_token == vocab.index_to_token
        for name, array in params:
            assert loaded.params[name].tobytes() == np.asarray(array).tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "topic", [("w", np.zeros((4, 4)))],
                        Vocabulary.from_tokens(["x"]), {}, {})
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


def raw_checkpoint(header, payload: bytes = b"", header_len: int | None = None) -> bytes:
    encoded = json.dumps(header).encode("utf-8")
    length = len(encoded) if header_len is None else header_len
    return MAGIC + length.to_bytes(8, "little") + encoded + payload


VALID_HEADER = {"format_version": 1, "kind": "dialogue", "config": {},
                "vocab": list(RESERVED_TOKENS) + ["x"],
                "params": [{"name": "w", "shape": [2]}], "extra": {}}
VALID_PAYLOAD = np.zeros(2).tobytes()


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
}


class TestMalformedCheckpoint:
    def test_valid_raw_checkpoint_loads(self, tmp_path):
        path = tmp_path / "ok.ckpt"
        path.write_bytes(raw_checkpoint(VALID_HEADER, VALID_PAYLOAD))
        assert load_checkpoint(path).params["w"].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_rejected_with_exit_2(self, case, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MALFORMED_CHECKPOINTS[case])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        data = tmp_path / "dialogues.txt"
        data.write_text(toy_dialogue_text(), encoding="utf-8")
        assert main(["generate", "--checkpoint", str(path), "--data", str(data),
                     "--out", str(tmp_path / "out.jsonl")]) == 2


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
        loaded = load_checkpoint(pipeline["topic_ckpt"])
        assert loaded.kind == "topic"
        assert loaded.extra["topics"] == 2
        trace = [json.loads(line) for line in
                 open(f"{pipeline['topic_ckpt']}.trace.jsonl", encoding="utf-8")]
        assert [r["epoch"] for r in trace] == [1, 2, 3]
        assert all(np.isfinite(r["loss"]) for r in trace)

    def test_default_topic_count_recorded(self, pipeline, tmp_path):
        # without a config override the checkpoint metadata records 50 topics
        loaded = load_checkpoint(pipeline["topic_ckpt"])
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
        loaded = load_checkpoint(pipeline["model_ckpt"])
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
        assert report.bleu1 == pytest.approx(100.0)
        assert report.f1 == pytest.approx(1.0)

    def test_chat_session(self, pipeline, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n\nwhat do you like?\n"))
        persona = pipeline["root"] / "persona.txt"
        persona.write_text("i love guitar.\ni work at the corner store.\n", encoding="utf-8")
        assert main(["chat", "--checkpoint", str(pipeline["model_ckpt"]),
                     "--persona", str(persona), "--mode", "greedy"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2  # empty line re-prompts, no decode

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
        loaded = load_checkpoint(out)
        # table dim (3) wins over the configured emb_dim
        assert loaded.params["embedding"].shape[1] == 3
        guitar = loaded.vocab.index("guitar")
        assert np.isfinite(loaded.params["embedding"][guitar]).all()

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

    def test_wrong_checkpoint_kind_is_user_error(self, pipeline, tmp_path):
        assert main(["expand", "--topic", str(pipeline["model_ckpt"]),
                     "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "x.jsonl")]) == 2

    def test_generate_on_topic_checkpoint_is_user_error(self, pipeline, tmp_path):
        assert main(["generate", "--checkpoint", str(pipeline["topic_ckpt"]),
                     "--data", str(pipeline["data"])]) == 2

    def test_missing_train_path_is_user_error(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "m.ckpt")]) == 2

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
}


class TestMalformedExpansions:
    @pytest.mark.parametrize("command", ["train", "generate"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_EXPANSION_LINES))
    def test_rejected_with_exit_2(self, case, command, pipeline, tmp_path, capsys):
        records = tmp_path / "expansions.jsonl"
        records.write_text(f"{VALID_EXPANSION_LINE}\n{MALFORMED_EXPANSION_LINES[case]}\n",
                           encoding="utf-8")
        if command == "train":
            argv = ["train", "--config", str(pipeline["config"])]
        else:
            argv = ["generate", "--checkpoint", str(pipeline["model_ckpt"]),
                    "--data", str(pipeline["data"])]
        argv += ["--expansions", str(records), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
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
    "embeddings_not_utf8": ("guitar 0.1 0.2 0.3\ncafé 0.4 0.5 0.6\n".encode("latin-1"), 2),
    "embeddings_ragged": (b"guitar 0.1 0.2 0.3\nlove 0.4 0.5\n", 2),
    "embeddings_not_numbers": (b"guitar 0.1 0.2 0.3\nlove 0.4 high 0.6\n", 2),
    "expansions_not_utf8": ((VALID_EXPANSION_LINE + '\n{"conversation": 1, "words": '
                             '[["café", 0.5]]}\n').encode("latin-1"), 2),
    "persona_not_utf8": ("i love guitar .\ni drink café .\n".encode("latin-1"), 2),
}

BAD_INPUT_COMMANDS = [
    ("corpus_not_utf8", "pretrain-topic"), ("corpus_not_utf8", "expand"),
    ("corpus_not_utf8", "train"), ("corpus_not_utf8", "generate"),
    ("corpus_malformed", "pretrain-topic"), ("corpus_malformed", "eval"),
    ("embeddings_not_utf8", "train"), ("embeddings_not_utf8", "eval"),
    ("embeddings_ragged", "train"), ("embeddings_not_numbers", "eval"),
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
