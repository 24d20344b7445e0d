"""Persona word expansion: extend a dialogue's persona vocabulary with
topically related external words via cosine similarity in topic space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DialogueExample
from .stopwords import is_stopword
from .topic import TopicSpace


@dataclass
class ExpansionResult:
    """Scored external words for one dialogue, best first."""

    words: list[tuple[str, float]]
    source: int | None = None

    def tokens(self) -> list[str]:
        return [token for token, _ in self.words]


def persona_vocab(example: DialogueExample, space: TopicSpace) -> set[str]:
    """Non-stop-word persona tokens that have a vector in ``space``."""
    result = set()
    for sentence in example.persona_sentences:
        for token in sentence:
            if not is_stopword(token) and token in space.rows:
                result.add(token)
    return result


def cosine(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The (r1, r2) cosine similarities of every row pair of an (r1, d) and
    an (r2, d) matrix, each ``dot / (norm1 * norm2)``; 0 where either row is
    zero."""
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if u1.ndim != 2 or u2.ndim != 2 or u1.shape[1] != u2.shape[1]:
        raise ValueError(f"cosine needs two matrices of equal row length, "
                         f"got {u1.shape} vs {u2.shape}")
    norms = np.outer(np.sqrt(np.einsum("ij,ij->i", u1, u1)),
                     np.sqrt(np.einsum("ij,ij->i", u2, u2)))
    # the cosines overwrite the norms; a zero norm product is +0.0, which
    # np.divide leaves in place
    return np.divide(u1 @ u2.T, norms, out=norms, where=norms != 0.0)


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
    allowed = np.ones(len(space), dtype=bool)
    allowed[[row] + [space.rows[token] for token in exclude if token in space.rows]] = False
    return _nearest(space, [row], allowed, m)[0]


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
        allowed = np.ones(len(space), dtype=bool)
        allowed[rows] = False
        for words in _nearest(space, rows, allowed, m):
            for token, score in words:
                if token not in best or score > best[token]:
                    best[token] = score
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return ExpansionResult(words=ranked[:max(0, n_w)], source=source)
