"""The benchmark reaches into personagen by name; every name must exist.

A traced benchmark run (``perfbench/run.py --trace 1``) replaces each site in
``SPAN_SITES`` and ``COUNT_SITES`` of ``perfbench/tracing.py``, and every run's
gradient probe (``probe_coordinates`` in ``perfbench/checks.py``) reads
parameters by their ``named_params`` names. Renaming or deleting one of those
would only surface in a benchmark run, so these tests load both files
(without installing anything) and look every name up, and run the
benchmark's own toy-size smoke tests.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from personagen import expansion, net, numkit, topic, trainer
from personagen.corpus import DialogueExample, TfIdfDoc, Vocabulary
from personagen.net import DialogueModel, LossSettings, bind_example

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")
SITES = tracing.SPAN_SITES + tracing.COUNT_SITES


@pytest.mark.parametrize("owner,attr,name", SITES, ids=[f"{o}.{a}" for o, a, _ in SITES])
def test_traced_site_exists(owner, attr, name):
    assert callable(tracing._resolve(owner).__dict__.get(attr)), f"{owner}.{attr} ({name})"


def toy_model_and_example():
    vocab = Vocabulary.from_tokens(["i", "love", "guitar", "music", "what", "do", "you", "?"])
    model = DialogueModel(vocab, emb_dim=3, hidden=4, hops=2, rng=np.random.default_rng(0))
    bound = bind_example(DialogueExample(
        persona_sentences=[["i", "love", "guitar"]],
        history=[["what", "do", "you", "love", "?"]],
        response=["i", "love", "music"],
    ), vocab, ["music"])
    return model, bound


def test_example_loss_tape_records_are_pinned():
    # tape records per example are a design metric that the benchmark
    # reports (numkit.tape_records_per_example); a change that adds or
    # removes records on the toy example shows here first
    model, bound = toy_model_and_example()
    with numkit.Tape() as tape:
        model.example_loss(bound, LossSettings())
    assert len(tape) == 107


def test_decoder_reaches_the_traced_sites(monkeypatch):
    # the benchmark times the decoder's parts by wrapping these module
    # attributes of personagen.net (memory.multihop_s, and the children that
    # net.decode_step_self_s subtracts); a decoder that reached them some
    # other way would make those spans read 0 silently
    calls = {name: 0 for name in ("attend_history", "multihop", "gru_cell")}
    for name in calls:
        original = getattr(net, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(net, name, counting)
    model, bound = toy_model_and_example()
    model.example_loss(bound, LossSettings())
    assert calls["attend_history"] > 0 and calls["multihop"] > 0
    calls.update(dict.fromkeys(calls, 0))
    model.generate(bound, mode="beam", beam_width=2, max_len=3)
    assert all(count > 0 for count in calls.values()), calls


def test_expand_reaches_the_counted_cosine(monkeypatch):
    # the benchmark counts expansion.cosine_calls by wrapping this module
    # attribute; an expand that scored some other way would make the count
    # read 0 silently
    calls = []
    original = expansion.cosine

    def counting(u1, u2, norms2=None):
        calls.append(norms2)
        return original(u1, u2, norms2)

    monkeypatch.setattr(expansion, "cosine", counting)
    vocab = Vocabulary.from_tokens(["guitar", "music", "love", "song", "tea"])
    space = topic.word_topic_vectors(topic.TopicModel(vocab, 3, 4, np.random.default_rng(0)))
    for persona in (["i", "love", "guitar"], ["music", "and", "tea"]):
        expansion.expand(DialogueExample([persona], [["hi"]], ["ok"]), space, 2, 3)
    assert len(calls) == 2 and all(norms2 is space.norms for norms2 in calls)


@pytest.mark.parametrize("module", [topic, trainer], ids=["topic", "trainer"])
def test_training_loops_call_backward_through_the_traced_site(module, monkeypatch):
    # the benchmark times backward by wrapping these module attributes and
    # counts tape records from the second positional argument; a loop that
    # reached backward some other way would make numkit.backward_s,
    # topic.backward_s and numkit.tape_records_per_example read 0 silently
    calls = []
    original = module.backward

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "backward", counting)
    train_two_batches(module)
    assert len(calls) == 2
    assert all(len(args) >= 2 and isinstance(args[1], numkit.Tape) and len(args[1]) > 0
               for args in calls)


@pytest.mark.parametrize("attr", ["adam_step", "clip_global_norm"])
@pytest.mark.parametrize("module", [topic, trainer], ids=["topic", "trainer"])
def test_training_loops_step_through_the_traced_sites(module, attr, monkeypatch):
    # the benchmark times clipping and Adam by wrapping these module
    # attributes; a loop that reached them some other way would make
    # numkit.adam_step_s or numkit.clip_global_norm_s read 0 silently
    calls = []
    original = getattr(module, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    train_two_batches(module)
    assert len(calls) == 2


def train_two_batches(module):
    """One epoch of the topic model or the dialogue model over three toy
    documents or examples, in batches of two."""
    if module is topic:
        docs = [TfIdfDoc({4: 1.0, 5: 2.0}), TfIdfDoc({6: 1.0}), TfIdfDoc({7: 3.0})]
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(6)])
        topic.train_topic_model(docs, vocab, topic.TopicTrainConfig(
            topics=2, hidden=4, epochs=1, batch_size=2, seed=1))
    else:
        model, bound = toy_model_and_example()
        trainer.train_dialogue_model(model, [bound] * 3, None, LossSettings(),
                                     trainer.TrainSettings(epochs=1, batch_size=2),
                                     np.random.default_rng(0))


def test_probed_parameters_exist():
    checks = load_perfbench("checks")
    model, bound = toy_model_and_example()
    with numkit.Tape() as tape:
        loss = model.example_loss(bound, LossSettings()).joint
    grads = numkit.backward(loss, tape)
    params = dict(model.named_params())
    coordinates = checks.probe_coordinates(model, bound, grads, np.random.default_rng(0))
    assert len(coordinates) == 4
    for name, index in coordinates:
        assert name in params
        assert len(index) == params[name].ndim


def test_benchmark_smoke_passes():
    # the workloads call more of the API than the sites above: len() of a
    # TopicSpace, expand(..., source=), evaluate_loss(...)[0]
    run = subprocess.run([sys.executable, str(PERFBENCH / "smoke.py")],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
