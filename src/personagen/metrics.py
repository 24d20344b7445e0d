"""Automatic evaluation: corpus BLEU, token F1, embedding-based similarity,
and the persona use ratio."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import EmbeddingTable
from .expansion import cosine
from .stopwords import content_words


def clipped_matches(candidate: list[str], reference: list[str]) -> list[int]:
    """The pair's clipped (modified) n-gram matches for n = 1..4: each
    candidate n-gram counts at most as often as it occurs in the reference."""
    matched = []
    for n in range(1, 5):
        counts = Counter(tuple(candidate[i:i + n]) for i in range(len(candidate) - n + 1))
        ref_counts = Counter(tuple(reference[i:i + n]) for i in range(len(reference) - n + 1))
        matched.append(sum(min(c, ref_counts[g]) for g, c in counts.items()))
    return matched


def corpus_bleu(matched: list[int], total: list[int], cand_len: int, ref_len: int) -> list[float]:
    """Corpus-level BLEU-1..4, as percentages, from the clipped matches and
    candidate n-gram counts of orders 1..4 pooled over the whole corpus.

    BLEU-n is the uniform geometric mean of the first n pooled precisions
    times the brevity penalty computed from total candidate and reference
    lengths. Any zero pooled precision among the first n, or no candidate
    tokens, gives 0.
    """
    if cand_len == 0:
        return [0.0] * 4
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    scores = []
    for n in range(1, 5):
        if 0 in matched[:n]:
            scores.append(0.0)
            continue
        log_sum = 0.0
        for order in range(n):
            log_sum += math.log(matched[order] / total[order]) / n
        scores.append(100.0 * brevity * math.exp(log_sum))
    return scores


def token_f1(overlap: int, cand_len: int, ref_len: int) -> float:
    """Harmonic mean of multiset precision and recall over tokens, from the
    pair's clipped unigram matches; 0 when none match."""
    if overlap == 0:
        return 0.0
    precision = overlap / cand_len
    recall = overlap / ref_len
    return 2.0 * precision * recall / (precision + recall)


def emb_average(cand: np.ndarray, ref: np.ndarray) -> float:
    """Cosine of the mean word vectors of two (words, d) matrices."""
    return float(cosine(cand.mean(axis=0, keepdims=True), ref.mean(axis=0, keepdims=True))[0, 0])


def _extrema_vector(vectors: np.ndarray) -> np.ndarray:
    picks = np.abs(vectors).argmax(axis=0)
    return vectors[picks, np.arange(vectors.shape[1])]


def emb_extrema(cand: np.ndarray, ref: np.ndarray) -> float:
    """Cosine of the per-dimension extrema (largest absolute value) vectors."""
    return float(cosine(_extrema_vector(cand)[None], _extrema_vector(ref)[None])[0, 0])


def emb_greedy(cand: np.ndarray, ref: np.ndarray) -> float:
    """Greedy matching score, averaged over both directions."""
    return 0.5 * (float(np.mean(cosine(cand, ref).max(axis=1)))
                  + float(np.mean(cosine(ref, cand).max(axis=1))))


def persona_use_ratio(persona_sentences: list[list[str]],
                      responses: list[list[str]]) -> float:
    """Fraction of distinct non-stop persona tokens used anywhere in the
    conversation's generated responses. Distinctness means repeating the same
    persona word never raises the score. Empty persona token set gives 0."""
    persona_tokens = content_words(persona_sentences)
    if not persona_tokens:
        return 0.0
    used_tokens = {t for r in responses for t in r}
    return len(persona_tokens & used_tokens) / len(persona_tokens)


@dataclass
class EvalReport:
    """Corpus-level automatic scores, named as in the eval record."""

    BLEU1: float
    BLEU2: float
    BLEU3: float
    BLEU4: float
    F1: float
    Average: float
    Extrema: float
    Greedy: float
    PersonaUseRatio: float

    def to_record(self) -> dict[str, float]:
        return asdict(self)


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def evaluate_corpus(candidates: list[list[str]], references: list[list[str]],
                    table: EmbeddingTable | None,
                    conversations: list[tuple[list[list[str]], list[list[str]]]],
                    ) -> EvalReport:
    """Aggregate all metrics over a generated corpus, reading each
    (candidate, reference) pair once.

    ``conversations`` pairs each conversation's persona sentences with its
    generated responses, for the persona use ratio. A pair's embedding scores
    are 0 when either side has no token in the table, and all are 0 when no
    table is available.
    """
    if len(candidates) != len(references):
        raise ValueError("candidates and references must pair up")
    matched, total = [0] * 4, [0] * 4
    f1 = []
    embedding = {emb_average: [], emb_extrema: [], emb_greedy: []}
    for cand, ref in zip(candidates, references):
        pair = clipped_matches(cand, ref)
        for order in range(4):
            matched[order] += pair[order]
            total[order] += max(len(cand) - order, 0)
        f1.append(token_f1(pair[0], len(cand), len(ref)))
        if table is not None:
            sides = [[table.vectors[t] for t in side if t in table.vectors] for side in (cand, ref)]
            stacked = [np.stack(side) for side in sides] if all(sides) else None
            for metric, scores in embedding.items():
                scores.append(metric(*stacked) if stacked else 0.0)
    bleu = corpus_bleu(matched, total, sum(map(len, candidates)), sum(map(len, references)))
    use_ratios = [persona_use_ratio(p, r) for p, r in conversations]
    return EvalReport(*bleu, _mean(f1), *map(_mean, embedding.values()), _mean(use_ratios))
