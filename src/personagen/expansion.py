"""Persona word expansion: extend a dialogue's persona vocabulary with
topically related external words via cosine similarity in topic space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DialogueExample
from .stopwords import content_words
from .topic import TopicSpace, row_norms


@dataclass
class ExpansionResult:
    """Scored external words for one dialogue, best first."""

    words: list[tuple[str, float]]
    source: int | None = None


def persona_vocab(example: DialogueExample, space: TopicSpace) -> set[str]:
    """Persona content words that have a vector in ``space``."""
    return {t for t in content_words(example.persona_sentences) if t in space.rows}


def cosine(u1: np.ndarray, u2: np.ndarray, norms2: np.ndarray | None = None) -> np.ndarray:
    """The (r1, r2) cosine similarities of every row pair of an (r1, d) and
    an (r2, d) matrix, each ``dot / (norm1 * norm2)``; +0.0 where that norm
    product is zero, even by underflow. ``norms2``, when given, must be
    ``row_norms(u2)``."""
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if u1.ndim != 2 or u2.ndim != 2 or u1.shape[1] != u2.shape[1]:
        raise ValueError(f"cosine needs two matrices of equal row length, "
                         f"got {u1.shape} vs {u2.shape}")
    if norms2 is None:
        norms2 = row_norms(u2)
    norms = np.outer(row_norms(u1), norms2)
    scores = u1 @ u2.T
    with np.errstate(divide="ignore", invalid="ignore"):
        scores /= norms
    scores[norms == 0.0] = 0.0
    return scores


def _check_m(m: int) -> None:
    if m < 0:
        raise ValueError(f"neighbour count m must be at least 0, got {m}")


def _nearest(space: TopicSpace, rows: list[int], excluded: list[int],
             m: int) -> list[list[tuple[str, float]]]:
    """For each of ``rows``, the m best words outside the distinct row
    indices ``excluded``, by cosine score descending then token ascending.

    One cosine product scores the rows against the whole space, and one
    ``np.partition`` finds every row's m-th best score. Only the words
    scoring at least that are sorted, so the order equals a full sort's.
    """
    m = min(m, len(space) - len(excluded))
    if m == 0:
        return [[] for _ in rows]
    scores = cosine(space.matrix[rows], space.matrix, space.norms)
    scores[:, excluded] = -np.inf
    cuts = np.partition(scores, -m, axis=1)[:, -m]
    result = []
    for row, cut in zip(scores, cuts):
        picked = np.flatnonzero(row >= cut)
        ranked = sorted(zip(row[picked].tolist(), picked.tolist()),
                        key=lambda item: (-item[0], space.tokens[item[1]]))
        result.append([(space.tokens[i], score) for score, i in ranked[:m]])
    return result


def nearest_words(word: str, space: TopicSpace, m: int,
                  exclude: set[str] = frozenset()) -> list[tuple[str, float]]:
    """Top-m tokens by cosine similarity to ``word`` in topic space.

    The word itself and everything in ``exclude`` are never returned. Ties
    break by score descending then token ascending.
    """
    _check_m(m)
    if word not in space.rows:
        raise KeyError(f"{word!r} is not in the topic vocabulary")
    row = space.rows[word]
    excluded = {row} | {space.rows[token] for token in exclude if token in space.rows}
    return _nearest(space, [row], sorted(excluded), m)[0]


def expand(example: DialogueExample, space: TopicSpace,
           m: int, n_w: int, source: int | None = None) -> ExpansionResult:
    """Union of each persona word's m nearest external words, deduplicated by
    keeping the highest score, sorted by score, truncated to n_w.

    One cosine product scores every persona word against the whole topic
    vocabulary; each persona word then takes its m best non-persona words,
    with the tie-break of ``nearest_words``.
    """
    _check_m(m)
    seeds = sorted(persona_vocab(example, space))
    best: dict[str, float] = {}
    if seeds:
        rows = [space.rows[seed] for seed in seeds]
        for words in _nearest(space, rows, rows, m):
            for token, score in words:
                if token not in best or score > best[token]:
                    best[token] = score
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return ExpansionResult(words=ranked[:max(0, n_w)], source=source)
