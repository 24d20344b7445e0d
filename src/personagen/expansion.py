"""Persona word expansion: extend a dialogue's persona vocabulary with
topically related external words via cosine similarity in topic space."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import DialogueExample
from .stopwords import is_stopword
from .topic import TopicSpace, TopicWordVector


@dataclass
class ExpansionResult:
    """Scored external words for one dialogue, best first."""

    words: list[tuple[str, float]]
    source: int | None = None

    def tokens(self) -> list[str]:
        return [token for token, _ in self.words]


def persona_vocab(example: DialogueExample, topic_vocab) -> set[str]:
    """Non-stop-word persona tokens that also occur in the topic vocabulary.

    ``topic_vocab`` may be anything supporting ``in`` over tokens (a
    Vocabulary, a word-vector mapping, or a plain set).
    """
    result = set()
    for sentence in example.persona_sentences:
        for token in sentence:
            if not is_stopword(token) and token in topic_vocab:
                result.add(token)
    return result


def cosine(u1: np.ndarray, u2: np.ndarray) -> float | np.ndarray:
    """Standard cosine similarity; defined as 0 when either vector is zero.

    Two 1-D vectors give a float. Two (rows, dim) matrices give the
    (rows1, rows2) matrix of cosines of every row pair, each computed as
    ``dot / (norm1 * norm2)`` like the vector case.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if u1.ndim != u2.ndim or u1.ndim not in (1, 2) or u1.shape[-1:] != u2.shape[-1:]:
        raise ValueError(f"cosine needs two vectors or two matrices of equal dims, "
                         f"got {u1.shape} vs {u2.shape}")
    if u1.ndim == 1:
        n1 = float(np.linalg.norm(u1))
        n2 = float(np.linalg.norm(u2))
        if n1 == 0.0 or n2 == 0.0:
            return 0.0
        return float(np.dot(u1, u2) / (n1 * n2))
    norms = np.outer(np.sqrt(np.einsum("ij,ij->i", u1, u1)),
                     np.sqrt(np.einsum("ij,ij->i", u2, u2)))
    # the cosines overwrite the norms; a zero norm product is +0.0, which
    # np.divide leaves in place
    return np.divide(u1 @ u2.T, norms, out=norms, where=norms != 0.0)


def _space(vectors: Mapping[str, TopicWordVector]) -> TopicSpace:
    """``vectors`` itself, or a plain token -> vector mapping stacked into one matrix."""
    if isinstance(vectors, TopicSpace):
        return vectors
    tokens = list(vectors)
    rows = [entry.vector if isinstance(entry, TopicWordVector) else entry
            for entry in vectors.values()]
    return TopicSpace(tokens, np.array(rows, dtype=np.float64))


def _check_m(m: int) -> None:
    if m < 0:
        raise ValueError(f"neighbour count m must be at least 0, got {m}")


def _nearest(space: TopicSpace, rows: list[int], allowed: np.ndarray,
             m: int) -> list[list[tuple[str, float]]]:
    """For each of ``rows``, the m best ``allowed`` words by cosine score
    descending then token ascending.

    One cosine product scores the rows against the whole space, in place.
    Only the words scoring at least a row's m-th best allowed score (found
    with ``np.partition``) are sorted, so the order equals a full sort's.
    """
    m = min(m, int(np.count_nonzero(allowed)))
    if m == 0:
        return [[] for _ in rows]
    scores = cosine(space.matrix[rows], space.matrix)
    scores[:, ~allowed] = -np.inf
    result = []
    for row in scores:
        picked = np.flatnonzero(row >= np.partition(row, -m)[-m])
        ranked = sorted(zip(row[picked].tolist(), picked.tolist()),
                        key=lambda item: (-item[0], space.tokens[item[1]]))
        result.append([(space.tokens[i], score) for score, i in ranked[:m]])
    return result


def nearest_words(word: str, vectors: Mapping[str, TopicWordVector], m: int,
                  exclude: set[str] = frozenset()) -> list[tuple[str, float]]:
    """Top-m tokens by cosine similarity to ``word`` in topic space.

    The word itself and everything in ``exclude`` are never returned. Ties
    break by score descending then token ascending.
    """
    _check_m(m)
    if word not in vectors:
        raise KeyError(f"{word!r} is not in the topic vocabulary")
    space = _space(vectors)
    row = space.rows[word]
    allowed = np.ones(len(space), dtype=bool)
    allowed[[row] + [space.rows[token] for token in exclude if token in space.rows]] = False
    return _nearest(space, [row], allowed, m)[0]


def expand(example: DialogueExample, vectors: Mapping[str, TopicWordVector],
           m: int, n_w: int, source: int | None = None) -> ExpansionResult:
    """Union of each persona word's m nearest external words, deduplicated by
    keeping the highest score, sorted by score, truncated to n_w.

    One cosine product scores every persona word against the whole topic
    vocabulary; each persona word then takes its m best non-persona words,
    with the tie-break of ``nearest_words``.
    """
    _check_m(m)
    seeds = sorted(persona_vocab(example, vectors))
    best: dict[str, float] = {}
    if seeds:
        space = _space(vectors)
        rows = [space.rows[seed] for seed in seeds]
        allowed = np.ones(len(space), dtype=bool)
        allowed[rows] = False
        for words in _nearest(space, rows, allowed, m):
            for token, score in words:
                if token not in best or score > best[token]:
                    best[token] = score
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return ExpansionResult(words=ranked[:max(0, n_w)], source=source)
