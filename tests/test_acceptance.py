"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Tolerances are pinned here, not configurable."""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from conftest import grad_check, np_retrieve, top_topic_words, toy_dialogue_text, toy_expansions
from personagen import numkit as nk
from personagen.numkit.tensor import tanh
from personagen.cli import main
from personagen.corpus import (
    DialogueExample,
    Vocabulary,
    build_vocab,
    conversation_document,
    load_personachat,
)
from personagen.expansion import expand, nearest_words
from personagen.losses import (
    jaccard,
    joint_loss,
    nll_loss,
    p_bows_targets,
    p_match_loss,
    p_match_targets,
)
from personagen.memory import KeyValueMemory, multihop, retrieve_with_weights
from personagen.metrics import evaluate_corpus, persona_use_ratio
from personagen.net import DialogueModel, LossSettings, bind_example
from personagen.stopwords import STOPWORDS
from personagen.topic import TopicSpace, word_topic_vectors
from personagen.trainer import TrainSettings, train_dialogue_model


def report(number: int, name: str, started: float, budget: float | None = None) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# ---------------------------------------------------------------------------
# shared toy-overfit training runs (criteria 7 and 8)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def overfit_runs(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "dialogues.txt"
    path.write_text(toy_dialogue_text(), encoding="utf-8")
    conversations = load_personachat(path)
    documents = [conversation_document(c) for c in conversations]
    vocab = build_vocab(documents, size_limit=200)
    assert len(vocab) <= 200
    expansions = toy_expansions()
    examples = []
    for i, conv in enumerate(conversations):
        for example in conv.examples:
            examples.append(bind_example(example, vocab, expansions[i]))

    def run(settings: LossSettings):
        started = time.time()
        model = DialogueModel(vocab, emb_dim=16, hidden=32, hops=3,
                              rng=np.random.default_rng(42))
        result = train_dialogue_model(
            model, examples, None, settings,
            TrainSettings(epochs=60, batch_size=16, lr=0.02),
            np.random.default_rng(42))
        return model, result, time.time() - started

    default_model, default_result, default_seconds = run(LossSettings())
    plain_model, plain_result, _ = run(LossSettings(gamma_match=0.0, gamma_bows=0.0))
    return {
        "examples": examples,
        "default": (default_model, default_result, default_seconds),
        "plain": (plain_model, plain_result),
    }


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    started = time.time()
    rng = np.random.default_rng(0)

    def row_of_op_output(a):
        # a one-row lookup of an op output that a dense op reads too: the
        # Bi-GRU final state's row gather
        h = tanh(a)
        return nk.add(nk.sum_(nk.mul(h, h)), nk.sum_(tanh(nk.lookup(h, [2]))))

    # every primitive, randomized inputs
    below_floor = np.array([0.0, -40.0, 0.0, 0.0, 0.0])
    thirty_below = np.array([0.0, 0.0, 0.0, -30.0, 0.0])
    primitive_cases = [
        (lambda a, b: nk.sum_(nk.matmul(a, b)), [(3, 4), (4, 1)]),
        (lambda a, b: nk.sum_(nk.matmul(a, b)), [(1, 3), (3, 2)]),
        (lambda a, b: nk.sum_(nk.matmul(a, b)), [(2, 3), (3, 2)]),
        (lambda a, b: nk.matmul(a, b), [(1, 4), (4, 1)]),
        (lambda a, b: nk.sum_(nk.mul(nk.add(a, b), nk.add(a, b))), [(3, 2), (2,)]),
        (lambda a, b: nk.sum_(nk.mul(nk.sub(a, b), nk.sub(a, b))), [(4,), (4,)]),
        (lambda a, b: nk.sum_(nk.mul(a, b)), [(2, 3), (2, 3)]),
        (lambda a: nk.sum_(nk.scale(a, -2.5)), [(5,)]),
        (lambda a, b: nk.sum_(tanh(nk.concat([a, b]))), [(2, 3), (2, 2)]),
        (row_of_op_output, [(4, 3)]),
        (lambda a: nk.sum_(tanh(nk.sum_(a, axis=0))), [(3, 2)]),
        (lambda a, b, c: nk.exp(nk.mean([nk.sum_(tanh(a)), nk.sum_(nk.mul(b, b)), c])),
         [(3,), (2, 2), ()]),
        (lambda a: nk.sum_(tanh(nk.scale(nk.sum_(a, axis=1), 1.0 / 3.0))), [(2, 3)]),
        (lambda a: nk.sum_(tanh(a)), [(4,)]),
        (lambda a: nk.sum_(nk.softplus(a)), [(4,)]),
        (lambda a: nk.sum_(nk.exp(a)), [(4,)]),
        (lambda a: nk.sum_(tanh(nk.lookup(a, [0, 2, 2]))), [(4, 3)]),
        (lambda q, k: nk.cross_entropy(nk.dot_attention_weights(q, k), [[2]]),
         [(1, 3), (4, 3)]),
        # weighted picks of one row of logits, with entry 1 40 nats below,
        # and of each row of a batch, with a third row's entry 3 30 below
        (lambda a: nk.softmax_cross_entropy(nk.add(a, below_floor), [[0, 1, 3]],
                                            [[0.5, 2.0, 1.5]]), [(1, 5)]),
        (lambda a: nk.softmax_cross_entropy(
            nk.add(a, np.stack([below_floor, below_floor, thirty_below])),
            [[0, 1, 4], [1, 2, 3], [0, 3, 4]],
            [[1.0, 0.5, 0.0], [2.0, 1.0, 0.25], [0.5, 1.5, 1.0]]), [(3, 5)]),
        # targets 0, 1 and 1 + lambda, and one clamped sigmoid
        (lambda a: nk.sigmoid_cross_entropy(nk.add(a, [0.0, 0.0, 0.0, 40.0]),
                                            [0.0, 1.0, 1.5, 1.0]), [(4,)]),
    ]
    for build, shapes in primitive_cases:
        params = [nk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        err = grad_check(lambda: build(*params), params, eps=1e-4)
        assert err < 1e-4, f"primitive check failed at {err:.2e}"

    # full joint loss: encoders, PIR over 2 history utterances, 3-hop
    # retrieval, 5-step teacher-forced decode (4 response tokens + EOS)
    tokens = ["i", "love", "guitar", "music", "play", "songs", "what", "do",
              "you", "like", "sure", ".", "?"]
    vocab = Vocabulary.from_tokens(tokens)
    example = DialogueExample(
        persona_sentences=[["i", "love", "guitar", "."], ["i", "play", "songs", "."]],
        history=[["what", "do", "you", "like", "?"], ["sure", "."]],
        response=["i", "love", "guitar", "."],
    )
    model = DialogueModel(vocab, emb_dim=3, hidden=4, hops=3, rng=np.random.default_rng(14))
    # evaluate at a well-conditioned point: the default tiny init leaves some
    # weights with ~1e-11 influence, below central-difference resolution
    point = np.random.default_rng(1014)
    for _, p in model.named_params():
        p.data[:] = point.uniform(-0.8, 0.8, size=p.data.shape)
    bound = bind_example(example, vocab, ["music"])
    settings = LossSettings()
    assert len(bound.response_ids) + 1 == 5
    err = grad_check(lambda: model.example_loss(bound, settings).joint,
                     model.params(), eps=1e-4)
    assert err < 1e-4, f"full joint loss check failed at {err:.2e}"
    report(1, "gradient fidelity", started, budget=120)


# ---------------------------------------------------------------------------
# 2. topic learning
# ---------------------------------------------------------------------------


def test_criterion_2_topic_learning(cluster_topic_model):
    # count the (possibly fixture-cached) training run against the budget
    started = time.time() - cluster_topic_model["train_seconds"]
    losses = [loss for _, loss in cluster_topic_model["trace"]]
    smoothed = [float(np.mean(losses[max(0, i - 2):i + 1])) for i in range(len(losses))]
    for i in range(3, len(smoothed) - 1):
        assert smoothed[i + 1] <= smoothed[i], f"smoothed loss rose at epoch {i + 2}"

    for words in top_topic_words(cluster_topic_model["model"], 5):
        reds = sum(w.startswith("red") for w in words)
        purity = max(reds, 5 - reds) / 5
        assert purity >= 0.8, f"topic purity {purity} below 0.8: {words}"
    report(2, "topic learning", started, budget=60)


# ---------------------------------------------------------------------------
# 3. expansion soundness
# ---------------------------------------------------------------------------


def test_criterion_3_expansion_soundness(cluster_topic_model):
    started = time.time()
    vectors = word_topic_vectors(cluster_topic_model["model"])
    result = nearest_words("red07", vectors, 10)
    in_cluster = sum(token.startswith("red") for token, _ in result)
    assert in_cluster / len(result) >= 0.8

    # constructed duplicate case: exact dedup-by-max and budget assertions
    crafted = TopicSpace(["p1", "p2", "shared", "near1", "near2"],
                         np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0], [0.9, 0.1], [0.1, 0.9]]))
    example = DialogueExample([["p1", "p2"]], [["hi"]], ["ok"])
    full = expand(example, crafted, m=3, n_w=10)
    scores = dict(full.words)
    from_p1 = float(np.array([2.0, 1.0]) @ np.array([1.0, 0.0]) / np.linalg.norm([2.0, 1.0]))
    from_p2 = float(np.array([2.0, 1.0]) @ np.array([0.0, 1.0]) / np.linalg.norm([2.0, 1.0]))
    full_tokens = [token for token, _ in full.words]
    assert full_tokens.count("shared") == 1
    assert scores["shared"] == pytest.approx(max(from_p1, from_p2), abs=1e-12)
    assert set(full_tokens) == {"shared", "near1", "near2"}

    truncated = expand(example, crafted, m=3, n_w=2)
    assert len(truncated.words) == 2
    assert [token for token, _ in truncated.words] == full_tokens[:2]
    assert expand(example, crafted, m=3, n_w=0).words == []
    report(3, "expansion soundness", started, budget=10)


# ---------------------------------------------------------------------------
# 4. retrieval suite
# ---------------------------------------------------------------------------


def test_criterion_4_retrieval_suite():
    started = time.time()
    rng = np.random.default_rng(4)

    def mem(keys, values):
        keys = np.asarray(keys, dtype=float)
        values = np.asarray(values, dtype=float)
        return KeyValueMemory(nk.Tensor(keys), nk.Tensor(values))

    # weights sum to one
    memory = mem(rng.normal(size=(5, 3)), rng.normal(size=(5, 2)))
    for _ in range(5):
        _, weights = retrieve_with_weights(nk.Tensor(rng.normal(size=(1, 3))), memory)
        assert abs(weights.data.sum() - 1.0) < 1e-9

    # single-slot identity
    single = mem([[0.3, -0.2]], [[7.0, 8.0]])
    out, weights = retrieve_with_weights(nk.Tensor([[1.0, 1.0]]), single)
    assert np.allclose(out.data, [[7.0, 8.0]]) and np.allclose(weights.data, [[1.0]])

    # identical keys average the values
    same = mem([[1.0, 2.0]] * 4, [[0.0], [2.0], [4.0], [6.0]])
    out, _ = retrieve_with_weights(nk.Tensor([[0.5, -1.0]]), same)
    assert np.allclose(out.data, [[3.0]])

    # key scaling: argmax preserved, alpha=100 sharpens past 0.99
    keys = np.array([[2.0, 0.1], [0.3, 1.0], [-0.5, 0.4]])
    values = rng.normal(size=(3, 2))
    query = nk.Tensor([[1.0, 0.2]])
    _, base = retrieve_with_weights(query, mem(keys, values))
    argmax = int(np.argmax(base.data))
    for alpha in (0.5, 3.0, 100.0):
        _, scaled = retrieve_with_weights(query, mem(alpha * keys, values))
        assert int(np.argmax(scaled.data)) == argmax
    _, sharp = retrieve_with_weights(query, mem(100.0 * keys, values))
    assert sharp.data[0, argmax] > 0.99

    # zero-value memories make every hop's weights the one-hop weights, bit
    # for bit, hops 1..5
    zero_w = mem(rng.normal(size=(3, 2)), np.zeros((3, 2)))
    zero_e = mem(rng.normal(size=(2, 2)), np.zeros((2, 2)))
    q0 = rng.normal(size=(1, 2))
    one = multihop(nk.Tensor(q0), zero_w, zero_e, 1)
    for hops in range(1, 6):
        result = multihop(nk.Tensor(q0), zero_w, zero_e, hops)
        assert result.w_weights.data.tobytes() == one.w_weights.data.tobytes()
        assert result.e_weights.data.tobytes() == one.e_weights.data.tobytes()

    # hop-3 output matches the unrolled oracle within 1e-10
    kw, vw = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    ke, ve = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    q = rng.normal(size=2)
    q_oracle = q.copy()
    for _ in range(3):
        o_w, _ = np_retrieve(q_oracle, kw, vw)
        o_e, _ = np_retrieve(q_oracle, ke, ve)
        q_oracle = q_oracle + o_w + o_e
    result = multihop(nk.Tensor([q]), mem(kw, vw), mem(ke, ve), hops=3)
    assert np.allclose(result.o_w.data, [o_w], atol=1e-10)
    assert np.allclose(result.o_e.data, [o_e], atol=1e-10)
    report(4, "retrieval suite", started, budget=10)


# ---------------------------------------------------------------------------
# 5. loss oracles
# ---------------------------------------------------------------------------


def test_criterion_5_loss_oracles(sample_chat_file):
    started = time.time()
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3, abs=1e-9)
    assert jaccard({"x"}, {"x"}) == 1.0
    assert jaccard(set(), set()) == 0.0

    loss = p_match_loss(nk.Tensor([[0.5, 0.5]]), np.array([1.0, 0.0]))
    assert loss.item() == pytest.approx(math.log(2), abs=1e-9)

    uniform = nk.Tensor(np.zeros((3, 10)))
    assert nll_loss(uniform, [0, 5, 9]).item() == pytest.approx(math.log(10), abs=1e-9)

    vocab = Vocabulary.from_tokens(["cat"])
    target = p_bows_targets(["cat", "runs"], {"cat"}, vocab, lam=1.0)
    expected = np.zeros(5)
    expected[4] = 2.0
    assert np.array_equal(target, expected)

    assert joint_loss(2.0, 0.5, 1.0, 0.1, 0.1).item() == pytest.approx(2.15, abs=1e-9)

    # the "i am a vegan" persona sentence labels 1 against the final response
    example = load_personachat(sample_chat_file)[0].examples[-1]
    vegan_index = next(i for i, s in enumerate(example.persona_sentences) if "vegan" in s)

    def oracle_jaccard(left_tokens, right_tokens):
        left = {t for t in left_tokens if t not in STOPWORDS and t.isalnum()}
        right = {t for t in right_tokens if t not in STOPWORDS and t.isalnum()}
        return len(left & right) / len(left | right)

    assert oracle_jaccard(example.persona_sentences[vegan_index], example.response) >= 0.03
    labels = p_match_targets(example.persona_sentences, example.response, 0.03)
    assert labels[vegan_index] == 1.0
    report(5, "loss oracles", started)


# ---------------------------------------------------------------------------
# 6. metric oracles
# ---------------------------------------------------------------------------


def test_criterion_6_metric_oracles():
    started = time.time()

    def oracle_bleu(cands, refs, max_order):
        precisions = []
        for order in range(1, max_order + 1):
            clipped = total = 0
            for cand, ref in zip(cands, refs):
                grams = [tuple(cand[i:i + order]) for i in range(len(cand) - order + 1)]
                ref_counts = Counter(tuple(ref[i:i + order])
                                     for i in range(len(ref) - order + 1))
                used = Counter()
                for gram in grams:
                    total += 1
                    if used[gram] < ref_counts.get(gram, 0):
                        clipped += 1
                        used[gram] += 1
            if total == 0 or clipped == 0:
                return 0.0
            precisions.append(clipped / total)
        geo = math.prod(p ** (1.0 / max_order) for p in precisions)
        c = sum(len(x) for x in cands)
        r = sum(len(x) for x in refs)
        bp = 1.0 if c > r else math.exp(1.0 - r / c)
        return 100.0 * bp * geo

    rng = np.random.default_rng(66)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(20):
        cand = [str(w) for w in rng.choice(vocab, size=rng.integers(1, 9))]
        ref = [str(w) for w in rng.choice(vocab, size=rng.integers(1, 9))]
        scores = evaluate_corpus([cand], [ref], None, []).to_record()
        for order in (1, 2, 3, 4):
            assert scores[f"BLEU{order}"] == pytest.approx(
                oracle_bleu([cand], [ref], order), abs=1e-9)
        overlap = sum(min(cand.count(t), ref.count(t)) for t in set(cand))
        if overlap == 0:
            expected_f1 = 0.0
        else:
            p = overlap / len(cand)
            r = overlap / len(ref)
            expected_f1 = 2 * p * r / (p + r)
        assert scores["F1"] == pytest.approx(expected_f1, abs=1e-9)

    score = evaluate_corpus([["the", "cat"]], [["the", "cat", "sat"]], None, []).BLEU1
    assert score == pytest.approx(100 * math.exp(-0.5), abs=1e-9)
    assert round(score, 2) == 60.65

    personas = [["music"], ["guitar"], ["vegan"]]
    responses = [["i", "am", "vegan"], ["vegan", "food", "rocks"]]
    assert persona_use_ratio(personas, responses) == pytest.approx(1 / 3)
    assert persona_use_ratio(personas, [["nothing", "relevant"]]) == 0.0
    assert persona_use_ratio(personas, [["music", "guitar", "vegan"]]) == 1.0
    report(6, "metric oracles", started)


# ---------------------------------------------------------------------------
# 7. end-to-end overfit
# ---------------------------------------------------------------------------


def test_criterion_7_end_to_end_overfit(overfit_runs):
    model, result, train_seconds = overfit_runs["default"]
    # count the fixture's training run against the 5-minute budget
    started = time.time() - train_seconds
    assert result.trace[-1].train_nll < 0.5, \
        f"per-token NLL {result.trace[-1].train_nll:.3f} did not reach 0.5"

    total = matched = 0
    for bound in overfit_runs["examples"]:
        out = model.generate(bound, mode="greedy", beam_width=2, max_len=12)
        for i, token in enumerate(bound.example.response):
            total += 1
            if i < len(out) and out[i] == token:
                matched += 1
    assert matched / total >= 0.9, f"only {matched}/{total} target tokens reproduced"
    report(7, "end-to-end overfit", started, budget=300)


# ---------------------------------------------------------------------------
# 8. ablation direction
# ---------------------------------------------------------------------------


def test_criterion_8_ablation_direction(overfit_runs):
    started = time.time()

    def labeled_mass(model):
        masses = []
        for bound in overfit_runs["examples"]:
            parts = model.example_loss(bound, LossSettings())
            labels = p_match_targets(bound.example.persona_sentences, bound.example.response,
                                     LossSettings().match_threshold)
            if labels.any():
                masses.append(float((parts.match_weights.data * labels).sum()))
        assert masses, "toy set must contain Jaccard-labeled sentences"
        return float(np.mean(masses))

    default_model, _, _ = overfit_runs["default"]
    plain_model, _ = overfit_runs["plain"]
    with_losses = labeled_mass(default_model)
    without = labeled_mass(plain_model)
    assert with_losses > without, \
        f"persona-oriented losses did not raise match mass ({with_losses:.3f} vs {without:.3f})"
    report(8, "ablation direction", started)


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    started = time.time()
    data = tmp_path / "dialogues.txt"
    data.write_text(toy_dialogue_text(), encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "paths": {"train": str(data), "valid": str(data)},
        "topic": {"topics": 2, "hidden": 8, "epochs": 2, "vocab_size": 64, "batch_size": 8},
        "expansion": {"neighbors": 3, "max_words": 5},
        "model": {"hidden": 8, "emb_dim": 6, "vocab_size": 120, "batch_size": 8,
                  "lr": 0.01, "hops": 2, "beam": 2, "max_len": 8, "epochs": 1},
    }), encoding="utf-8")

    def run(tag: str) -> dict[str, str]:
        topic_ckpt = tmp_path / f"topic_{tag}.ckpt"
        expansions = tmp_path / f"expansions_{tag}.jsonl"
        model_ckpt = tmp_path / f"model_{tag}.ckpt"
        responses = tmp_path / f"responses_{tag}.jsonl"
        assert main(["pretrain-topic", "--config", str(config_path), "--seed", "11",
                     "--out", str(topic_ckpt)]) == 0
        assert main(["expand", "--config", str(config_path), "--topic", str(topic_ckpt),
                     "--data", str(data), "--out", str(expansions)]) == 0
        assert main(["train", "--config", str(config_path), "--seed", "11",
                     "--expansions", str(expansions), "--out", str(model_ckpt)]) == 0
        assert main(["generate", "--checkpoint", str(model_ckpt), "--data", str(data),
                     "--expansions", str(expansions), "--out", str(responses)]) == 0
        return {
            "topic_trace": (tmp_path / f"topic_{tag}.ckpt.trace.jsonl").read_text(),
            "expansions": expansions.read_text(),
            "train_trace": (tmp_path / f"model_{tag}.ckpt.trace.jsonl").read_text(),
            "responses": responses.read_text(),
            "model_bytes": model_ckpt.read_bytes(),
        }

    first = run("a")
    second = run("b")
    for key in ("topic_trace", "expansions", "train_trace", "responses", "model_bytes"):
        assert first[key] == second[key], f"{key} differs between seeded runs"
    report(9, "determinism", started)
