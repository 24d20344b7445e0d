"""Automatic evaluation: corpus BLEU, token F1, embedding-based similarity,
and the persona use ratio."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingTable
from .expansion import cosine
from .stopwords import is_stopword


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(candidates: list[list[str]], references: list[list[str]], n: int) -> float:
    """Corpus-level BLEU over n-gram orders 1..n, as a percentage.

    Modified n-gram precisions are pooled over the whole corpus, combined by a
    uniform geometric mean, and multiplied by the brevity penalty computed
    from total candidate and reference lengths. Any zero pooled precision
    gives 0.
    """
    if len(candidates) != len(references):
        raise ValueError("candidates and references must pair up")
    if not 1 <= n <= 4:
        raise ValueError("n must be between 1 and 4")
    if not candidates:
        return 0.0
    matched = [0] * n
    total = [0] * n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for order in range(1, n + 1):
            counts = _ngram_counts(cand, order)
            ref_counts = _ngram_counts(ref, order)
            matched[order - 1] += sum(min(c, ref_counts[g]) for g, c in counts.items())
            total[order - 1] += sum(counts.values())
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for order in range(n):
        if total[order] == 0 or matched[order] == 0:
            return 0.0
        log_sum += math.log(matched[order] / total[order]) / n
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum)


def f1_tokens(candidate: list[str], reference: list[str]) -> float:
    """Harmonic mean of multiset precision and recall over tokens."""
    if not candidate or not reference:
        return 0.0
    overlap = sum((Counter(candidate) & Counter(reference)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(candidate)
    recall = overlap / len(reference)
    return 2.0 * precision * recall / (precision + recall)


def _embedded(tokens: list[str], table: EmbeddingTable) -> list[np.ndarray]:
    return [table.vectors[t] for t in tokens if t in table.vectors]


def emb_average(candidate: list[str], reference: list[str], table: EmbeddingTable) -> float:
    """Cosine of the mean word vectors; 0 if either side has no embedded tokens."""
    cand = _embedded(candidate, table)
    ref = _embedded(reference, table)
    if not cand or not ref:
        return 0.0
    return float(cosine(np.mean(cand, axis=0, keepdims=True),
                        np.mean(ref, axis=0, keepdims=True))[0, 0])


def _extrema_vector(vectors: list[np.ndarray]) -> np.ndarray:
    arr = np.stack(vectors)
    picks = np.abs(arr).argmax(axis=0)
    return arr[picks, np.arange(arr.shape[1])]


def emb_extrema(candidate: list[str], reference: list[str], table: EmbeddingTable) -> float:
    """Cosine of the per-dimension extrema (largest absolute value) vectors."""
    cand = _embedded(candidate, table)
    ref = _embedded(reference, table)
    if not cand or not ref:
        return 0.0
    return float(cosine(_extrema_vector(cand)[None], _extrema_vector(ref)[None])[0, 0])


def emb_greedy(candidate: list[str], reference: list[str], table: EmbeddingTable) -> float:
    """Greedy matching score, averaged over both directions."""
    cand = _embedded(candidate, table)
    ref = _embedded(reference, table)
    if not cand or not ref:
        return 0.0

    def directed(src: list[np.ndarray], dst: list[np.ndarray]) -> float:
        return float(np.mean(cosine(np.stack(src), np.stack(dst)).max(axis=1)))

    return 0.5 * (directed(cand, ref) + directed(ref, cand))


def persona_use_ratio(persona_sentences: list[list[str]],
                      responses: list[list[str]]) -> float:
    """Fraction of distinct non-stop persona tokens used anywhere in the
    conversation's generated responses. Distinctness means repeating the same
    persona word never raises the score. Empty persona token set gives 0."""
    persona_tokens = {t for s in persona_sentences for t in s if not is_stopword(t)}
    if not persona_tokens:
        return 0.0
    used_tokens = {t for r in responses for t in r}
    return len(persona_tokens & used_tokens) / len(persona_tokens)


@dataclass
class EvalReport:
    """Corpus-level automatic scores."""

    bleu1: float
    bleu2: float
    bleu3: float
    bleu4: float
    f1: float
    emb_average: float
    emb_extrema: float
    emb_greedy: float
    persona_use_ratio: float

    def to_record(self) -> dict[str, float]:
        return {
            "BLEU1": self.bleu1,
            "BLEU2": self.bleu2,
            "BLEU3": self.bleu3,
            "BLEU4": self.bleu4,
            "F1": self.f1,
            "Average": self.emb_average,
            "Extrema": self.emb_extrema,
            "Greedy": self.emb_greedy,
            "PersonaUseRatio": self.persona_use_ratio,
        }


def evaluate_corpus(candidates: list[list[str]], references: list[list[str]],
                    table: EmbeddingTable | None,
                    conversations: list[tuple[list[list[str]], list[list[str]]]],
                    ) -> EvalReport:
    """Aggregate all metrics over a generated corpus.

    ``conversations`` pairs each conversation's persona sentences with its
    generated responses, for the persona use ratio. Embedding metrics are 0
    when no table is available.
    """
    if len(candidates) != len(references):
        raise ValueError("candidates and references must pair up")

    def mean_over_pairs(metric) -> float:
        if not candidates or table is None:
            return 0.0
        return float(np.mean([metric(c, r, table) for c, r in zip(candidates, references)]))

    use_ratios = [persona_use_ratio(p, r) for p, r in conversations]
    return EvalReport(
        bleu1=bleu_n(candidates, references, 1),
        bleu2=bleu_n(candidates, references, 2),
        bleu3=bleu_n(candidates, references, 3),
        bleu4=bleu_n(candidates, references, 4),
        f1=float(np.mean([f1_tokens(c, r) for c, r in zip(candidates, references)])) if candidates else 0.0,
        emb_average=mean_over_pairs(emb_average),
        emb_extrema=mean_over_pairs(emb_extrema),
        emb_greedy=mean_over_pairs(emb_greedy),
        persona_use_ratio=float(np.mean(use_ratios)) if use_ratios else 0.0,
    )
