import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from personagen.corpus import EmbeddingTable
from personagen.metrics import EvalReport, evaluate_corpus, persona_use_ratio
from personagen.stopwords import STOPWORDS


def record(candidates, references, table=None, conversations=()):
    return evaluate_corpus(candidates, references, table, list(conversations)).to_record()


# each score as the record of a corpus of the given pairs reports it
def bleu_n(candidates, references, n):
    return record(candidates, references)[f"BLEU{n}"]


def f1_tokens(candidate, reference):
    return record([candidate], [reference])["F1"]


def emb_average(candidate, reference, table):
    return record([candidate], [reference], table)["Average"]


def emb_extrema(candidate, reference, table):
    return record([candidate], [reference], table)["Extrema"]


def emb_greedy(candidate, reference, table):
    return record([candidate], [reference], table)["Greedy"]


def oracle_bleu(candidates, references, max_order):
    """Brute-force corpus BLEU: explicit n-gram enumeration, log-free products."""
    precisions = []
    for order in range(1, max_order + 1):
        clipped = 0
        total = 0
        for cand, ref in zip(candidates, references):
            cand_ngrams = [tuple(cand[i:i + order]) for i in range(len(cand) - order + 1)]
            ref_ngrams = [tuple(ref[i:i + order]) for i in range(len(ref) - order + 1)]
            ref_counts = Counter(ref_ngrams)
            used = Counter()
            for gram in cand_ngrams:
                total += 1
                if used[gram] < ref_counts.get(gram, 0):
                    clipped += 1
                    used[gram] += 1
        if total == 0 or clipped == 0:
            return 0.0
        precisions.append(clipped / total)
    geo = 1.0
    for p in precisions:
        geo *= p ** (1.0 / max_order)
    c = sum(len(x) for x in candidates)
    r = sum(len(x) for x in references)
    if c == 0:
        return 0.0
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * bp * geo


def oracle_f1(cand, ref):
    overlap = sum(min(cand.count(t), ref.count(t)) for t in set(cand))
    if overlap == 0:
        return 0.0
    p = overlap / len(cand)
    r = overlap / len(ref)
    return 2 * p * r / (p + r)


class TestBleu:
    def test_identical_full_marks(self):
        sents = [["the", "cat", "sat", "down"], ["hello", "there"]]
        for n in range(1, 5):
            assert bleu_n(sents, sents, n) == pytest.approx(100.0)

    def test_no_overlap_is_zero(self):
        assert bleu_n([["aa", "bb"]], [["cc", "dd"]], 1) == 0.0

    def test_brevity_penalty_hand_case(self):
        score = bleu_n([["the", "cat"]], [["the", "cat", "sat"]], 1)
        assert score == pytest.approx(100 * math.exp(1 - 3 / 2), abs=1e-9)
        assert score == pytest.approx(60.6530659713, abs=1e-4)

    def test_empty_candidate_counts_as_zero_match(self):
        assert bleu_n([[]], [["the"]], 1) == 0.0
        # an empty candidate alongside a real one only hurts the average
        score = bleu_n([["the"], []], [["the"], ["cat"]], 1)
        assert 0 < score < 100

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(123)
        vocab = ["a", "b", "c", "d", "e"]
        for trial in range(20):
            cand = [str(w) for w in rng.choice(vocab, size=rng.integers(1, 9))]
            ref = [str(w) for w in rng.choice(vocab, size=rng.integers(1, 9))]
            for n in (1, 2, 3, 4):
                ours = bleu_n([cand], [ref], n)
                expected = oracle_bleu([cand], [ref], n)
                assert ours == pytest.approx(expected, abs=1e-9), (cand, ref, n)

    def test_corpus_pooling_matches_oracle(self):
        rng = np.random.default_rng(5)
        vocab = ["x", "y", "z", "w"]
        cands = [[str(w) for w in rng.choice(vocab, size=rng.integers(1, 7))] for _ in range(6)]
        refs = [[str(w) for w in rng.choice(vocab, size=rng.integers(1, 7))] for _ in range(6)]
        for n in (1, 2, 3):
            assert bleu_n(cands, refs, n) == pytest.approx(oracle_bleu(cands, refs, n), abs=1e-9)


class TestF1:
    def test_identical(self):
        assert f1_tokens(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert f1_tokens(["a"], ["b"]) == 0.0

    def test_hand_value(self):
        assert f1_tokens(["a", "b"], ["b", "c"]) == pytest.approx(0.5)

    def test_multiset_counting(self):
        # candidate has two "a" but reference only one: overlap 1, P=1/2, R=1/2
        assert f1_tokens(["a", "a"], ["a", "b"]) == pytest.approx(0.5)

    def test_empty_sides(self):
        assert f1_tokens([], ["a"]) == 0.0
        assert f1_tokens(["a"], []) == 0.0

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(321)
        vocab = ["a", "b", "c"]
        for _ in range(20):
            cand = [str(w) for w in rng.choice(vocab, size=rng.integers(1, 7))]
            ref = [str(w) for w in rng.choice(vocab, size=rng.integers(1, 7))]
            assert f1_tokens(cand, ref) == pytest.approx(oracle_f1(cand, ref), abs=1e-9)


@pytest.fixture
def table():
    return EmbeddingTable(2, {
        "sun": np.array([1.0, 0.0]),
        "moon": np.array([0.0, 1.0]),
        "star": np.array([1.0, 1.0]),
        "rock": np.array([-1.0, 0.5]),
    })


class TestEmbeddingMetrics:
    def test_identical_sentences_score_one(self, table):
        sent = ["sun", "moon", "star"]
        assert emb_average(sent, sent, table) == pytest.approx(1.0)
        assert emb_extrema(sent, sent, table) == pytest.approx(1.0)
        assert emb_greedy(sent, sent, table) == pytest.approx(1.0)

    def test_fully_oov_side_scores_zero(self, table):
        assert emb_average(["zzz"], ["sun"], table) == 0.0
        assert emb_extrema(["zzz"], ["sun"], table) == 0.0
        assert emb_greedy(["zzz"], ["sun"], table) == 0.0

    def test_oov_tokens_skipped(self, table):
        with_oov = emb_average(["sun", "zzz"], ["sun"], table)
        without = emb_average(["sun"], ["sun"], table)
        assert with_oov == pytest.approx(without)

    def test_hand_arithmetic_two_words(self, table):
        cand = ["sun", "moon"]   # mean = (0.5, 0.5)
        ref = ["star"]           # mean = (1, 1)
        assert emb_average(cand, ref, table) == pytest.approx(1.0)

        # extrema of cand: dims pick |1|, |1| -> (1, 1); ref extrema (1, 1)
        assert emb_extrema(cand, ref, table) == pytest.approx(1.0)

        # greedy: each cand word's best match in ref is cos to (1,1) = 1/sqrt(2);
        # reverse direction: star's best = 1/sqrt(2); average the directions
        assert emb_greedy(cand, ref, table) == pytest.approx(1 / math.sqrt(2))

    def test_extrema_keeps_sign_of_largest_magnitude(self, table):
        from personagen.metrics import _extrema_vector

        # dim0 values 1 and -1: first max by magnitude wins; dim1: 0 vs 0.5
        out = _extrema_vector(np.stack([table.vectors["sun"], table.vectors["rock"]]))
        assert np.array_equal(out, np.array([1.0, 0.5]))

    def test_average_is_symmetric(self, table):
        cand = ["sun", "star"]
        ref = ["moon", "star"]
        assert emb_average(cand, ref, table) == pytest.approx(emb_average(ref, cand, table))


class TestPersonaUseRatio:
    def test_none_used(self):
        personas = [["i", "love", "guitar"]]
        assert persona_use_ratio(personas, [["hello", "there"]]) == 0.0

    def test_all_used(self):
        personas = [["i", "love", "guitar"]]
        responses = [["love", "it"], ["my", "guitar"]]
        assert persona_use_ratio(personas, responses) == 1.0

    def test_repetition_not_double_counted(self):
        personas = [["music"], ["guitar"], ["vegan"]]
        responses = [["vegan", "food"], ["i", "am", "vegan"]]
        assert persona_use_ratio(personas, responses) == pytest.approx(1 / 3)

    def test_empty_persona_set_is_zero(self):
        assert persona_use_ratio([["the", "a"]], [["anything"]]) == 0.0


class TestEvalReport:
    def test_record_field_names(self):
        report = EvalReport(1, 2, 3, 4, 0.5, 0.6, 0.7, 0.8, 0.9)
        record = report.to_record()
        assert list(record) == ["BLEU1", "BLEU2", "BLEU3", "BLEU4", "F1",
                                "Average", "Extrema", "Greedy", "PersonaUseRatio"]

    def test_identity_corpus_scores(self, table):
        sents = [["sun", "moon"], ["star", "rock", "sun"]]
        conversations = [([["sun"]], sents)]
        report = evaluate_corpus(sents, sents, table, conversations)
        assert report.BLEU1 == pytest.approx(100.0)
        assert report.F1 == pytest.approx(1.0)
        assert report.Average == pytest.approx(1.0)
        assert report.PersonaUseRatio == pytest.approx(1.0)

    def test_vocabulary_reindexing_invariance(self):
        # renaming tokens consistently must not change any score
        cands = [["a", "b", "b"], ["c"]]
        refs = [["a", "b"], ["c", "a"]]
        mapping = {"a": "t9", "b": "t5", "c": "t1"}
        cands2 = [[mapping[t] for t in s] for s in cands]
        refs2 = [[mapping[t] for t in s] for s in refs]
        for n in (1, 2):
            assert bleu_n(cands, refs, n) == pytest.approx(bleu_n(cands2, refs2, n))
        assert f1_tokens(cands[0], refs[0]) == pytest.approx(f1_tokens(cands2[0], refs2[0]))

    def test_unpaired_corpus_rejected(self):
        with pytest.raises(ValueError, match="pair up"):
            evaluate_corpus([["a"]], [], None, [])


# a small vocabulary, two of its words stop words, so pairs often share n-grams
WORDS = ["sun", "moon", "star", "rock", "the", "i"]
sentences = st.lists(st.sampled_from(WORDS), max_size=6)


def oracle_cosine(u, v):
    norms = np.linalg.norm(u) * np.linalg.norm(v)
    return 0.0 if norms == 0.0 else float(u @ v) / norms


def oracle_embedding_scores(cand, ref, vectors):
    """Per-pair (Average, Extrema, Greedy), one word vector at a time."""
    cand = [vectors[t] for t in cand if t in vectors]
    ref = [vectors[t] for t in ref if t in vectors]
    if not cand or not ref:
        return 0.0, 0.0, 0.0

    def extrema(side):
        out = []
        for dim in range(len(side[0])):
            best = side[0][dim]
            for v in side[1:]:
                if abs(v[dim]) > abs(best):
                    best = v[dim]
            out.append(best)
        return np.array(out)

    def directed(src, dst):
        return sum(max(oracle_cosine(s, d) for d in dst) for s in src) / len(src)

    return (oracle_cosine(sum(cand) / len(cand), sum(ref) / len(ref)),
            oracle_cosine(extrema(cand), extrema(ref)),
            0.5 * (directed(cand, ref) + directed(ref, cand)))


@st.composite
def corpora(draw):
    pairs = draw(st.lists(st.tuples(sentences, sentences), max_size=5))
    in_table = draw(st.one_of(st.none(), st.lists(st.sampled_from(WORDS), unique=True)))
    components = st.integers(-2, 2).map(float)
    table = None if in_table is None else EmbeddingTable(3, {
        t: np.array(draw(st.lists(components, min_size=3, max_size=3))) for t in in_table})
    conversations = draw(st.lists(st.tuples(st.lists(sentences, max_size=3),
                                            st.lists(sentences, max_size=3)), max_size=3))
    return [c for c, _ in pairs], [r for _, r in pairs], table, conversations


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_corpus_scores_match_per_pair_oracles(corpus):
    # BLEU pools over the corpus; F1, the embedding scores and the use ratio
    # are means of per-pair (per-conversation) scores, 0 for an empty corpus
    candidates, references, table, conversations = corpus
    got = record(candidates, references, table, conversations)
    want = {f"BLEU{n}": oracle_bleu(candidates, references, n) for n in range(1, 5)}
    pairs = list(zip(candidates, references))
    want["F1"] = sum(oracle_f1(c, r) for c, r in pairs) / len(pairs) if pairs else 0.0
    per_pair = [oracle_embedding_scores(c, r, table.vectors if table else {}) for c, r in pairs]
    for i, name in enumerate(["Average", "Extrema", "Greedy"]):
        want[name] = sum(s[i] for s in per_pair) / len(pairs) if pairs else 0.0
    ratios = []
    for persona, responses in conversations:
        content = {t for s in persona for t in s if t not in STOPWORDS}
        used = {t for r in responses for t in r}
        ratios.append(len(content & used) / len(content) if content else 0.0)
    want["PersonaUseRatio"] = sum(ratios) / len(ratios) if ratios else 0.0
    assert list(got) == list(want)
    for name in want:
        assert got[name] == pytest.approx(want[name], abs=1e-9), name
