"""The benchmark reaches into personagen by name; every name must exist.

A traced benchmark run (``perfbench/run.py --trace 1``) replaces each site in
``SPAN_SITES`` and ``COUNT_SITES`` of ``perfbench/tracing.py``, and every run's
gradient probe (``probe_coordinates`` in ``perfbench/checks.py``) reads
parameters by their ``named_params`` names. Renaming or deleting one of those
would only surface in a benchmark run, so these tests load both files
(without installing anything) and look every name up.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from personagen import numkit
from personagen.corpus import DialogueExample, Vocabulary
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


def test_probed_parameters_exist():
    checks = load_perfbench("checks")
    vocab = Vocabulary.from_tokens(["i", "love", "guitar", "music", "what", "do", "you", "?"])
    model = DialogueModel(vocab, emb_dim=3, hidden=4, hops=2, rng=np.random.default_rng(0))
    bound = bind_example(DialogueExample(
        persona_sentences=[["i", "love", "guitar"]],
        history=[["what", "do", "you", "love", "?"]],
        response=["i", "love", "music"],
    ), vocab, ["music"])
    with numkit.Tape() as tape:
        loss = model.example_loss(bound, LossSettings()).joint
    grads = numkit.backward(loss, tape)
    params = dict(model.named_params())
    coordinates = checks.probe_coordinates(model, bound, grads, np.random.default_rng(0))
    assert len(coordinates) == 4
    for name, index in coordinates:
        assert name in params
        assert len(index) == params[name].ndim
