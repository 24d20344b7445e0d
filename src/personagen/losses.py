"""Training objectives: response likelihood, persona sentence matching, and
the persona bag-of-words objective, plus their target constructors.

Each objective adds one likelihood record to the tape (NLL an unfloored
``softmax_cross_entropy`` over the output logits, P-Match a ``cross_entropy``
and P-BoWs a ``sigmoid_cross_entropy``, both floored); only P-BoWs adds a
reduction before it, the sum of its activations over steps."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import Vocabulary
from .numkit import (
    Tensor,
    as_tensor,
    cross_entropy,
    scale,
    sigmoid_cross_entropy,
    softmax_cross_entropy,
    sum_,
)
from .stopwords import content_words, is_stopword


def jaccard(set1: set, set2: set) -> float:
    """|intersection| / |union|; 0 when both sets are empty."""
    if not set1 and not set2:
        return 0.0
    return len(set1 & set2) / len(set1 | set2)


def p_match_targets(persona_sentences: list[list[str]], response: list[str],
                    threshold: float) -> np.ndarray:
    """0-1 labels over persona sentences: sentence i gets 1 iff the Jaccard
    index between its non-stop-word token set and the response's reaches
    ``threshold``."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    response_set = content_words([response])
    labels = np.zeros(len(persona_sentences))
    for i, sentence in enumerate(persona_sentences):
        sentence_set = content_words([sentence])
        if jaccard(sentence_set, response_set) >= threshold:
            labels[i] = 1.0
    return labels


def p_match_loss(a_s: Tensor, labels: np.ndarray) -> Tensor:
    """-sum_i a_i log a_s_i over the 0-1 labels a_i of the (1, n) weights
    ``a_s``, that is the sum of -log a_s_i over the labeled sentences
    (probabilities floored at ``PROB_FLOOR``, with no gradient below the
    floor): one ``cross_entropy`` record however many sentences are labeled.
    Zero, and no record, when no sentence is labeled."""
    a_s = as_tensor(a_s)
    if a_s.shape != (1,) + labels.shape:
        raise ValueError(f"weights have shape {a_s.shape}, labels {labels.shape}")
    if not labels.any():
        return Tensor(0.0)
    return cross_entropy(a_s, np.flatnonzero(labels)[None])


def p_bows_targets(response: list[str], persona_word_set: set[str],
                   vocab: Vocabulary, lam: float) -> np.ndarray:
    """Per-vocabulary-entry weights in {0, 1, 1 + lambda}: 1 for each non-stop
    response token's vocabulary slot, raised to 1 + lambda when the token is
    persona-based information (a predefined or expanded persona word).
    Out-of-vocabulary tokens set nothing."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    weights = np.zeros(len(vocab))
    for token in response:
        if is_stopword(token):
            continue
        index = vocab.token_to_index.get(token)
        if index is None:
            continue
        weights[index] = 1.0 + lam if token in persona_word_set else 1.0
    return weights


def p_bows_loss(output_activations: Tensor, target: np.ndarray) -> Tensor:
    """Bag-of-words cross entropy on the sigmoid of summed output activations.

    ``output_activations`` stacks the raw output-layer activations of the T
    decode steps as a (T, V) matrix; they are summed over steps (one record)
    and scored by one ``sigmoid_cross_entropy`` record. The stated formula is
    applied literally, including slots whose target is 1 + lambda, so
    individual terms can be negative; probabilities are clamped to
    [PROB_FLOOR, 1 - PROB_FLOOR].
    """
    activations = as_tensor(output_activations)
    if activations.ndim != 2 or activations.shape[0] == 0:
        raise ValueError("p_bows_loss needs a (steps, vocab) matrix with at least one step")
    summed = sum_(activations, axis=0)
    if summed.shape != target.shape:
        raise ValueError(f"activations cover {summed.shape}, target {target.shape}")
    return sigmoid_cross_entropy(summed, target)


def nll_loss(step_logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log probability of the target token at each step.

    ``step_logits`` is the (T, V) matrix of the T steps' output activations,
    one row per target, whose softmax is each step's token distribution; all
    T targets are picked, each weighted 1/T, in one ``softmax_cross_entropy``
    record.
    """
    logits = as_tensor(step_logits)
    if logits.ndim != 2 or logits.shape[0] != len(targets):
        raise ValueError("one target per decode step required")
    if not targets:
        raise ValueError("nll_loss needs at least one step")
    steps = len(targets)
    return softmax_cross_entropy(logits, np.asarray(targets)[:, None],
                                 np.full((steps, 1), 1 / steps))


def joint_loss(nll, p_match, p_bows, gamma1: float, gamma2: float) -> Tensor:
    """nll + gamma1 * p_match + gamma2 * p_bows."""
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("loss weights must be non-negative")
    return as_tensor(nll) + scale(as_tensor(p_match), gamma1) + scale(as_tensor(p_bows), gamma2)
