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
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_matmul_rule, densified, relative_error, traced_peak_bytes
from personagen import expansion, net, numkit, topic, trainer
from personagen.corpus import DialogueExample, TfIdfDoc, Vocabulary
from personagen.net import DialogueModel, LossSettings, bind_example
from personagen.numkit import tensor as tensor_module

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
    assert len(tape) == 74


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


def test_committed_bench_records_are_correct_runs():
    # each BENCH_*.json at the repository root is the run record of one
    # benchmark run, committed as a point on the performance trajectory
    records = sorted(PERFBENCH.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record["env"], dict) and record["workload"], path.name
        assert record["result"]["correct"] is True, path.name


# ---------------------------------------------------------------------------
# the weight-gradient form at the benchmark's shapes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def refvocab(tmp_path_factory):
    """The train_refvocab workload and 16 of its seed-1 examples, built by
    the workload's own set-up code."""
    sys.path.insert(0, str(PERFBENCH))  # workloads imports checks and synth
    try:
        workloads = load_perfbench("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    workload = workloads.TrainRefVocab()
    vocab, bound = workloads.dialogue_inputs(
        1, workload.inputs(1), workload.shape.vocab, 16, workload.shape.expansions,
        tmp_path_factory.mktemp("refvocab"))
    return workload, vocab, bound


def handed_gradients(monkeypatch):
    """The gradient lists the trainer hands clip_global_norm and adam_step,
    one per batch."""
    seen = {"clip_global_norm": [], "adam_step": []}
    for attr, position in (("clip_global_norm", 0), ("adam_step", 1)):
        def spy(*args, _attr=attr, _position=position, _original=getattr(trainer, attr)):
            seen[_attr].append(args[_position])
            return _original(*args)

        monkeypatch.setattr(trainer, attr, spy)
    return seen


def output_index(model) -> int:
    return [name for name, _ in model.named_params()].index("decoder.out.w")


def test_refvocab_batch_of_one_keeps_the_output_gradient_factored(refvocab, monkeypatch):
    # T rows of 14 against K = 512, N = 20000: T^2 (K + N) <= K N, so clipping
    # and Adam get the factors and no (4H, V) gradient is built
    workload, vocab, bound = refvocab
    model = workload.model(vocab, 1)
    seen = handed_gradients(monkeypatch)
    trainer.train_dialogue_model(model, bound[:1], None, workload.losses, workload.settings,
                                 np.random.default_rng(1))
    (clipped,), (stepped,) = seen["clip_global_norm"], seen["adam_step"]
    assert clipped is stepped
    grad = clipped[output_index(model)]
    rows = len(bound[0].response_ids) + 1
    assert isinstance(grad, numkit.Factors)
    assert grad.a.shape == (rows, 4 * workload.shape.hidden)
    assert grad.g.shape == (rows, len(vocab))


def test_refvocab_batch_of_16_forms_the_output_gradient_in_one_product(refvocab, monkeypatch):
    # 16 examples stack to about 200 rows: the leaf gets one dense GEMM over
    # all of them, and no per-example product of the output layer is formed
    workload, vocab, bound = refvocab
    model = workload.model(vocab, 1)
    seen = handed_gradients(monkeypatch)
    stacked, per_part = [], []
    stack_factors, dense = tensor_module._stack_factors, numkit.Factors.dense

    def stack_spy(parts):
        result = stack_factors(parts)
        stacked.append((len(parts), result))
        return result

    def dense_spy(factors):
        per_part.append(factors.g.shape[-1])
        return dense(factors)

    monkeypatch.setattr(tensor_module, "_stack_factors", stack_spy)
    monkeypatch.setattr(numkit.Factors, "dense", dense_spy)
    trainer.train_dialogue_model(model, bound, None, workload.losses,
                                 trainer.TrainSettings(epochs=1, batch_size=16),
                                 np.random.default_rng(1))
    (clipped,) = seen["clip_global_norm"]
    grad = clipped[output_index(model)]
    assert type(grad) is np.ndarray
    assert grad.shape == (4 * workload.shape.hidden, len(vocab))
    assert [count for count, result in stacked if result is grad] == [16]
    assert len(vocab) not in per_part


def test_topic_model_gradients_stay_dense(monkeypatch):
    # the topic_expand shape: 32 rows against K <= 256 never pass the rule
    vocab = Vocabulary.from_tokens([f"w{i}" for i in range(9996)])
    rng = np.random.default_rng(3)
    docs = [TfIdfDoc({int(i): float(rng.uniform(0.1, 2.0))
                      for i in rng.choice(np.arange(4, len(vocab)), 30, replace=False)})
            for _ in range(32)]
    seen = []
    clip = topic.clip_global_norm

    def spy(grads, max_norm):
        seen.append(grads)
        return clip(grads, max_norm)

    monkeypatch.setattr(topic, "clip_global_norm", spy)
    model, _ = topic.train_topic_model(docs, vocab, topic.TopicTrainConfig(
        topics=50, hidden=256, epochs=1, batch_size=32, seed=1))
    (grads,) = seen
    for (name, _), grad in zip(model.named_params(), grads):
        # the input layer is read by lookup only, so it keeps its rows
        want = numkit.RowGrad if name == "enc_hidden.w" else np.ndarray
        assert type(grad) is want, name


def test_refvocab_gradients_match_the_dict_form_and_the_dense_rule(refvocab, monkeypatch):
    workload, vocab, bound = refvocab
    model = workload.model(vocab, 1)
    params = model.params()
    with numkit.Tape() as tape:
        loss = model.example_loss(bound[0], workload.losses).joint
    grads = numkit.backward(loss, tape, params)
    assert isinstance(grads[output_index(model)], numkit.Factors)
    by_tensor = numkit.backward(loss, tape)
    for p, grad in zip(params, grads):
        assert densified(grad, p).tobytes() == by_tensor[p].tobytes()
    del by_tensor
    monkeypatch.setattr(tensor_module, "_matmul_grad_b", dense_matmul_rule)
    want = numkit.backward(loss, tape, params)
    for p, grad, dense in zip(params, grads, want):
        assert relative_error(densified(grad, p), densified(dense, p)) < 1e-10


def test_refvocab_backward_and_clip_peak_below_one_output_gradient(refvocab):
    workload, vocab, bound = refvocab
    model = workload.model(vocab, 1)
    params = model.params()
    limit = 4 * workload.shape.hidden * len(vocab) * 8  # one float64 (4H, V) array
    # numpy's buffers are counted: one such array alone reaches the limit
    assert traced_peak_bytes(lambda: np.ones(limit // 8)) >= limit
    with numkit.Tape() as tape:
        loss = model.example_loss(bound[0], workload.losses).joint
    peak = traced_peak_bytes(lambda: numkit.clip_global_norm(
        numkit.backward(loss, tape, params), workload.settings.grad_clip))
    assert peak < limit
