import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import np_log_softmax, np_sigmoid, relative_error
from personagen import numkit as nk
from personagen.corpus import TfIdfDoc, Vocabulary, load_personachat
from personagen.losses import (
    jaccard,
    joint_loss,
    nll_loss,
    p_bows_loss,
    p_bows_targets,
    p_match_loss,
    p_match_targets,
)
from personagen.numkit.tensor import PROB_FLOOR as FLOOR
from personagen.stopwords import STOPWORDS, is_stopword
from personagen.topic import _bag


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_hand_value(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard(set(), set()) == 0.0


class TestPMatchTargets:
    def test_zero_threshold_labels_everything(self):
        sentences = [["i", "like", "cats"], ["we", "ski", "alot"]]
        target = p_match_targets(sentences, ["dogs", "bark"], threshold=0.0)
        assert target.tolist() == [1.0, 1.0]

    def test_sample_vegan_sentence_labels_one(self, sample_chat_file):
        example = load_personachat(sample_chat_file)[0].examples[-1]
        target = p_match_targets(example.persona_sentences, example.response, threshold=0.03)

        # independent oracle: recompute the jaccard with local set code
        def oracle_jaccard(sentence, response):
            left = {t for t in sentence if t not in STOPWORDS and t.isalnum()}
            right = {t for t in response if t not in STOPWORDS and t.isalnum()}
            return len(left & right) / len(left | right)

        vegan_index = next(i for i, s in enumerate(example.persona_sentences) if "vegan" in s)
        assert oracle_jaccard(example.persona_sentences[vegan_index], example.response) >= 0.03
        assert target[vegan_index] == 1.0

    def test_stopwords_do_not_create_overlap(self):
        sentences = [["i", "am", "the", "one"]]
        target = p_match_targets(sentences, ["i", "am", "a", "tree"], threshold=0.01)
        assert target.tolist() == [0.0]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            p_match_targets([["x"]], ["y"], threshold=-0.1)


class TestPMatchLoss:
    def test_no_labels_gives_zero(self):
        loss = p_match_loss(nk.Tensor([[0.3, 0.7]]), np.zeros(2))
        assert loss.item() == 0.0

    def test_certain_match_gives_zero(self):
        loss = p_match_loss(nk.Tensor([[1.0, 0.0]]), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_log_two(self):
        loss = p_match_loss(nk.Tensor([[0.5, 0.5]]), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)
        assert loss.item() == pytest.approx(0.6931, abs=1e-4)

    def test_zero_probability_clamped(self):
        loss = p_match_loss(nk.Tensor([[0.0, 1.0]]), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(-math.log(1e-12))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            p_match_loss(nk.Tensor([[1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match=r"\(2,\)"):   # PIR's weights are one row
            p_match_loss(nk.Tensor([0.5, 0.5]), np.array([1.0, 0.0]))


def tiny_vocab():
    return Vocabulary.from_tokens(["apple"])  # indices: 4 specials + apple@4


class TestPBowsTargets:
    def test_hand_construction(self):
        vocab = Vocabulary.from_tokens(["cat"])  # size 5: specials + cat at index 4
        target = p_bows_targets(["cat", "runs"], {"cat"}, vocab, lam=1.0)
        # "runs" is out of vocabulary, so only cat's slot is set, at 1 + lam
        expected = np.zeros(5)
        expected[4] = 2.0
        assert np.array_equal(target, expected)

    def test_plain_response_word_gets_one(self):
        vocab = Vocabulary.from_tokens(["cat", "dog"])
        target = p_bows_targets(["dog"], {"cat"}, vocab, lam=0.5)
        assert target[vocab.token_to_index["dog"]] == 1.0
        assert target[vocab.token_to_index["cat"]] == 0.0

    def test_stopword_only_response_is_all_zero(self):
        vocab = Vocabulary.from_tokens(["the", "a", "cat"])
        target = p_bows_targets(["the", "a", "."], {"cat"}, vocab, lam=1.0)
        assert not target.any()

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            p_bows_targets(["cat"], set(), tiny_vocab(), lam=0.0)


class TestPBowsLoss:
    def test_saturated_correct_rejection_vanishes(self):
        target = np.zeros(4)
        activations = nk.Tensor([[-50.0] * 4])
        assert p_bows_loss(activations, target).item() == pytest.approx(0.0, abs=1e-12)

    def test_single_uncertain_slot_contributes_log2_over_v(self):
        size = 8
        weights = np.zeros(size)
        weights[3] = 1.0
        acts = np.full(size, -50.0)
        acts[3] = 0.0  # sigmoid -> 0.5 exactly where the target is 1
        loss = p_bows_loss(nk.Tensor([acts]), weights)
        assert loss.item() == pytest.approx(math.log(2) / size, abs=1e-9)

    def test_upweighted_slot_pushes_harder(self):
        # gradient on the activation is stronger for b = 2 than b = 1 at p = 0.5
        def grad_at(b_value):
            weights = np.zeros(1)
            weights[0] = b_value
            act = nk.Tensor([[0.0]], requires_grad=True)
            with nk.Tape() as tape:
                loss = p_bows_loss(act, weights)
            return nk.backward(loss, tape)[act][0, 0]

        assert grad_at(2.0) < grad_at(1.0) < 0.0

    def test_finite_even_with_overweighted_targets(self):
        rng = np.random.default_rng(0)
        weights = rng.choice([0.0, 1.0, 2.0], size=6)
        acts = nk.Tensor(rng.normal(size=(3, 6)) * 30)
        loss = p_bows_loss(acts, weights)
        assert math.isfinite(loss.item())

    def test_sums_activations_over_steps(self):
        weights = np.zeros(2)
        weights[0] = 1.0
        split = nk.Tensor([[1.0, -2.0], [2.0, 1.0]])
        merged = nk.Tensor([[3.0, -1.0]])
        a = p_bows_loss(split, weights).item()
        b = p_bows_loss(merged, weights).item()
        assert a == pytest.approx(b, abs=1e-12)


class TestNll:
    # nll_loss takes the output logits: the softmax of each row is a step's
    # token distribution

    def test_perfect_prediction_is_zero(self):
        logits = nk.Tensor([[0.0, 50.0, 0.0], [0.0, 0.0, 50.0]])
        assert nll_loss(logits, [1, 2]).item() == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_is_log_vocab(self):
        logits = nk.Tensor(np.zeros((4, 10)))
        loss = nll_loss(logits, [0, 3, 7, 9]).item()
        assert loss == pytest.approx(math.log(10), abs=1e-12)
        assert loss == pytest.approx(2.3026, abs=1e-4)

    def test_single_token(self):
        logits = nk.Tensor(np.log([[0.25, 0.5, 0.25]]))
        assert nll_loss(logits, [1]).item() == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            nll_loss(nk.Tensor([[1.0]]), [0, 1])


class TestJointLoss:
    def test_zero_weights_reduce_to_nll(self):
        loss = joint_loss(nk.Tensor(2.5), nk.Tensor(9.0), nk.Tensor(4.0), 0.0, 0.0)
        assert loss.item() == pytest.approx(2.5)

    def test_hand_value(self):
        loss = joint_loss(2.0, 0.5, 1.0, 0.1, 0.1)
        assert loss.item() == pytest.approx(2.15, abs=1e-12)

    def test_linear_in_each_component(self):
        base = joint_loss(1.0, 1.0, 1.0, 0.3, 0.7).item()
        assert joint_loss(2.0, 1.0, 1.0, 0.3, 0.7).item() == pytest.approx(base + 1.0)
        assert joint_loss(1.0, 3.0, 1.0, 0.3, 0.7).item() == pytest.approx(base + 0.6)
        assert joint_loss(1.0, 1.0, 2.0, 0.3, 0.7).item() == pytest.approx(base + 0.7)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            joint_loss(1.0, 1.0, 1.0, -0.1, 0.0)


def test_stopword_list_covers_common_function_words():
    for word in ("the", "a", "i", "of", "most", "some", "as", "is"):
        assert is_stopword(word)
    for word in ("vegan", "candy", "dairy", "music", "form"):
        assert not is_stopword(word)
    assert is_stopword(".") and is_stopword("?") and is_stopword("'")


def punctuation_only(token):
    """The stop-token rule for tokens off the list, character by character."""
    return bool(token) and all(ch in string.punctuation for ch in token)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.sampled_from(list(string.punctuation + string.ascii_letters
                                             + string.digits + " éß’…—¿中")),
               max_size=6)
       | st.text(max_size=6))
def test_stopword_rule_equals_per_character_definition(token):
    # is_stopword strips the punctuation in C; ASCII punctuation only, so
    # non-ASCII marks such as "…" or "’" keep a token
    assert is_stopword(token) == (token in STOPWORDS or punctuation_only(token))


def test_stopword_rule_edge_cases():
    for token in ("", "a1", "1", "é", "…", "’", " ", "!?.", "-x-", "x!"):
        assert is_stopword(token) == (token in STOPWORDS or punctuation_only(token)), token
    assert not is_stopword("") and is_stopword("!?.") and not is_stopword("…")


# ---------------------------------------------------------------------------
# numpy oracles of the loss terms: for P-Match and P-BoWs the record chains
# they were once built from (take_columns, clip, log, sigmoid, mul, sub and
# scale), each gradient by the chain rule through those records; for NLL and
# the topic reconstruction, weighted picks of an unfloored numpy log-softmax
# ---------------------------------------------------------------------------


def log_softmax_picks(logits, index, weights):
    # -sum(weights * take_along_axis(log_softmax(logits), index)), and its
    # gradient softmax(logits) * sum(weights) less the weights at the picks
    log_p = np_log_softmax(logits)
    value = -(weights * np.take_along_axis(log_p, index, axis=1)).sum()
    grad = np.exp(log_p) * weights.sum(axis=1, keepdims=True)
    for row, (cols, w) in enumerate(zip(index, weights)):
        grad[row, cols] -= w
    return value, grad


def chain_p_match(a_s, labels):
    # -(labels @ log(clip(a_s, floor, 1)))
    clipped = np.clip(a_s, FLOOR, 1.0)
    inside = (a_s >= FLOOR) & (a_s <= 1.0)
    return -(labels @ np.log(clipped)), -labels / clipped * inside


def chain_p_bows(activations, target):
    # -mean(t log q + (1 - t) log(1 - q)), q = clip(sigmoid(sum over steps))
    s = np_sigmoid(activations.sum(axis=0))
    q = np.clip(s, FLOOR, 1.0 - FLOOR)
    inside = (s >= FLOOR) & (s <= 1.0 - FLOOR)
    value = -np.mean(target * np.log(q) + (1.0 - target) * np.log(1.0 - q))
    c = -1.0 / target.size
    g_q = c * target / q - c * (1.0 - target) / (1.0 - q)
    g_summed = g_q * inside * s * (1.0 - s)
    return value, np.broadcast_to(g_summed, activations.shape)


def value_and_grad(build, *leaves):
    with nk.Tape() as tape:
        loss = build()
    return loss.item(), nk.backward(loss, tape, list(leaves)), len(tape)


def far_logits(rng, rows, size):
    # each row's entry 1 40 nats below the rest, where a floored softmax
    # probability would give it no gradient
    logits = rng.normal(size=(rows, size))
    logits[:, 1] -= 40.0
    return logits


class TestLossTermOracles:
    # each term matches its oracle within 1e-12, in value and in grad_check's
    # entry-wise measure, and adds at most two tape records: one likelihood
    # record and at most one reduction

    def test_nll(self):
        rng = np.random.default_rng(31)
        logits = nk.Tensor(far_logits(rng, 4, 7), requires_grad=True)
        targets = [0, 1, 6, 3]
        value, (grad,), records = value_and_grad(lambda: nll_loss(logits, targets), logits)
        want, want_grad = log_softmax_picks(logits.data, np.array(targets)[:, None],
                                            np.full((4, 1), 1 / 4))
        assert value == pytest.approx(want, rel=1e-12)
        assert relative_error(grad, want_grad) < 1e-12
        assert records == 1  # the weighted picks need no mean of their own

    @pytest.mark.parametrize("labels", [[1.0, 0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]])
    def test_p_match(self, labels):
        labels = np.array(labels)
        a_s = nk.Tensor([[0.3, 1e-14, 0.2, 0.45, 0.05]], requires_grad=True)
        value, (grad,), records = value_and_grad(lambda: p_match_loss(a_s, labels), a_s)
        want, want_grad = chain_p_match(a_s.data[0], labels)
        assert grad.shape == (1, 5)
        assert value == pytest.approx(want, rel=1e-12)
        assert relative_error(grad, want_grad) < 1e-12
        assert records <= 2

    def test_p_bows(self):
        rng = np.random.default_rng(32)
        activations = rng.normal(size=(3, 8))
        activations[:, 2] = 15.0  # summed to 45: the sigmoid is clamped
        activations = nk.Tensor(activations, requires_grad=True)
        target = np.array([0.0, 1.0, 1.0, 0.0, 1.5, 0.0, 1.0, 1.5])
        value, (grad,), records = value_and_grad(
            lambda: p_bows_loss(activations, target), activations)
        want, want_grad = chain_p_bows(activations.data, target)
        assert value == pytest.approx(want, rel=1e-12)
        assert relative_error(grad, want_grad) < 1e-12
        assert records <= 2

    def test_elbo_reconstruction(self):
        # the topic model's term: tf-idf weights of a batch's bag of words
        # against the logits of each document's reconstruction distribution
        rng = np.random.default_rng(33)
        weights, cols = _bag([TfIdfDoc({1: 0.5, 4: 1.25}), TfIdfDoc({}),
                              TfIdfDoc({4: 2.0, 6: 0.75, 2: 0.1})])
        logits = nk.Tensor(far_logits(rng, 3, 8), requires_grad=True)
        index = np.broadcast_to(cols, weights.shape)
        value, (grad,), records = value_and_grad(
            lambda: nk.softmax_cross_entropy(logits, index, weights), logits)
        want, want_grad = log_softmax_picks(logits.data, index, weights)
        assert value == pytest.approx(want, rel=1e-12)
        assert relative_error(grad, want_grad) < 1e-12
        assert records <= 2
