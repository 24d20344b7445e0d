"""Output checks run outside the timed region; a failed check marks the
operation it covers as failed."""

from __future__ import annotations

import numpy as np

from personagen import numkit
from personagen.corpus import RESERVED_TOKENS
from personagen.net import BoundExample, DialogueModel, LossSettings
from personagen.stopwords import is_stopword

GRAD_RTOL = 1e-4     # the whole-model grad_check tests use the same tolerance
GRAD_EPS = 1e-4
SCORE_ATOL = 1e-12


def probe_coordinates(model: DialogueModel, bound: BoundExample, grads: dict,
                      rng: np.random.Generator) -> list[tuple[str, tuple[int, ...]]]:
    """One coordinate in each of: the embedding row of a used token, the output
    weight column of a target token, a decoder GRU weight and a memory-MLP
    weight.

    Within each slice the coordinate is drawn from the eight largest gradient
    entries, and the slices sit on paths with gradients far above the ~1e-11
    that central differences resolve at this step size: the first response
    token is both a decoder input and a target, and the value network of the
    word memory feeds the output layer directly (its key network, at
    initialisation, mostly does not).
    """
    params = dict(model.named_params())
    token = bound.response_ids[0]
    slices = [
        ("embedding", (token, slice(None))),
        ("decoder.out.w", (slice(None), token)),
        ("decoder.cell.w_n", (slice(None), slice(None))),
        ("persona.word_value.w", (slice(None), slice(None))),
    ]
    coordinates = []
    for name, key in slices:
        grad = grads[params[name]]
        window = np.zeros(grad.shape, dtype=bool)
        window[key] = True
        candidates = np.flatnonzero(window)
        magnitudes = np.abs(grad.reshape(-1)[candidates])
        top = candidates[np.argsort(-magnitudes, kind="stable")[:8]]
        flat = int(rng.choice(top))
        coordinates.append((name, np.unravel_index(flat, grad.shape)))
    return coordinates


def gradient_probe(model: DialogueModel, bound: BoundExample, settings: LossSettings,
                   rng: np.random.Generator) -> list[str]:
    """Compare reverse-mode gradients with central differences at a few sampled
    coordinates; returns one message per coordinate out of tolerance."""
    with numkit.Tape() as tape:
        loss = model.example_loss(bound, settings).joint
    grads = numkit.backward(loss, tape)
    params = dict(model.named_params())
    problems = []
    for name, index in probe_coordinates(model, bound, grads, rng):
        data = params[name].data
        original = data[index]
        data[index] = original + GRAD_EPS
        plus = model.example_loss(bound, settings).joint.item()
        data[index] = original - GRAD_EPS
        minus = model.example_loss(bound, settings).joint.item()
        data[index] = original
        numeric = (plus - minus) / (2.0 * GRAD_EPS)
        analytic = float(grads[params[name]][index])
        rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
        if not rel < GRAD_RTOL:
            problems.append(f"{name}{tuple(int(i) for i in index)}: analytic {analytic!r} "
                            f"numeric {numeric!r} relative error {rel:.2e}")
    return problems


def expansion_oracle(weight: np.ndarray, tokens: list[str], persona_sentences: list[list[str]],
                     neighbors: int, max_words: int) -> list[tuple[str, float]]:
    """Expansion from the (topics, vocab) decoder weight by one row-normalised
    matrix product; ``tokens`` names the weight's columns.

    Ranking is score descending, then token ascending, per seed word and for
    the merged list; a token reached from several seeds keeps its best score.
    """
    column = {token: i for i, token in enumerate(tokens)}
    seeds = sorted({t for s in persona_sentences for t in s if not is_stopword(t) and t in column})
    if not seeds:
        return []
    vectors = weight.T
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    unit = np.divide(vectors, norms, out=np.zeros_like(vectors), where=norms > 0)
    scores = unit[[column[s] for s in seeds]] @ unit.T          # (seeds, vocab)
    allowed = np.ones(len(tokens), dtype=bool)
    allowed[[column[s] for s in seeds]] = False
    names = np.array(tokens)
    best: dict[str, float] = {}
    for row in scores:
        candidates = np.flatnonzero(allowed)
        order = np.lexsort((names[candidates], -row[candidates]))[:neighbors]
        for i in candidates[order]:
            token, score = tokens[i], float(row[i])
            if token not in best or score > best[token]:
                best[token] = score
    return sorted(best.items(), key=lambda item: (-item[1], item[0]))[:max_words]


def compare_expansion(got: list[tuple[str, float]], want: list[tuple[str, float]]) -> str | None:
    if [t for t, _ in got] != [t for t, _ in want]:
        return f"expansion tokens differ from the oracle: {got[:3]} vs {want[:3]}"
    worst = max((abs(a - b) for (_, a), (_, b) in zip(got, want)), default=0.0)
    if not worst <= SCORE_ATOL:
        return f"expansion scores differ from the oracle by {worst:.3e}"
    return None


def topic_columns(model) -> tuple[np.ndarray, list[str]]:
    """The columns of the topic decoder weight that expansion may return, and
    their tokens (reserved tokens excluded)."""
    start = len(RESERVED_TOKENS)
    tokens = [model.vocab.token(i) for i in range(start, len(model.vocab))]
    return model.dec_out.w.data[:, start:], tokens


def check_response(tokens: list[str], vocab, max_len: int) -> str | None:
    if len(tokens) > max_len:
        return f"response has {len(tokens)} tokens, max_len is {max_len}"
    if "<eos>" in tokens:
        return "response contains EOS"
    missing = [t for t in tokens if t not in vocab]
    if missing:
        return f"response has out-of-vocabulary tokens {missing[:3]}"
    return None
