import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import np_cosine
from personagen.corpus import DialogueExample, Vocabulary, load_personachat
from personagen.expansion import cosine, expand, nearest_words, persona_vocab
from personagen.topic import TopicModel, TopicSpace, row_norms, word_topic_vectors


def make_vectors(entries: dict[str, list[float]]) -> TopicSpace:
    return TopicSpace(list(entries), np.array(list(entries.values()), dtype=float))


def token_space(tokens) -> TopicSpace:
    """A space holding ``tokens``, each with the same one-dimensional vector."""
    return make_vectors({token: [1.0] for token in tokens})


def rows(*vectors) -> np.ndarray:
    return np.array(vectors, dtype=float)


def example_with_personas(sentences: list[list[str]]) -> DialogueExample:
    return DialogueExample(sentences, [["hi"]], ["ok"])


class TestPersonaVocab:
    def test_sample_personas(self, sample_chat_file):
        example = load_personachat(sample_chat_file)[0].examples[0]
        topic_vocab = token_space(["music", "skateboard", "guitar", "vegan", "candy", "dairy"])
        assert {"music", "skateboard", "guitar", "vegan"} <= persona_vocab(example, topic_vocab)

    def test_stopword_only_persona_is_empty(self):
        example = example_with_personas([["i", "am", "the", "most"]])
        assert persona_vocab(example, token_space(["i", "am", "the", "most"])) == set()

    def test_token_absent_from_topic_vocab_excluded(self):
        example = example_with_personas([["i", "like", "zebras"]])
        assert persona_vocab(example, token_space(["like"])) == {"like"}


class TestCosine:
    def test_identical_vectors(self):
        assert cosine(rows([1.0, 2.0]), rows([1.0, 2.0]))[0, 0] == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine(rows([1.0, 0.0]), rows([0.0, 2.0]))[0, 0] == pytest.approx(0.0)

    def test_hand_value(self):
        assert cosine(rows([1.0, 0.0]), rows([1.0, 1.0]))[0, 0] == pytest.approx(1 / math.sqrt(2))
        assert cosine(rows([1.0, 0.0]), rows([1.0, 1.0]))[0, 0] == pytest.approx(0.7071, abs=1e-4)

    def test_zero_vector_defined_as_zero(self):
        assert cosine(np.zeros((1, 2)), rows([1.0, 0.0]))[0, 0] == 0.0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros((1, 2)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            cosine(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.zeros(2))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matrices_give_every_row_pair(self, data):
        # small integers: exact dot products, zero rows and parallel rows occur
        dim = data.draw(st.integers(1, 4))
        rows = st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                        min_size=1, max_size=6)
        a = np.array(data.draw(rows), dtype=float)
        b = np.array(data.draw(rows), dtype=float)
        got = cosine(a, b)
        assert got.shape == (len(a), len(b))
        for i in range(len(a)):
            for j in range(len(b)):
                assert got[i, j] == np_cosine(a[i], b[j])

    def test_real_matrices_match_pairwise(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 50)), rng.normal(size=(40, 50))
        b[3] = 0.0
        got = cosine(a, b)
        want = np.array([[np_cosine(u, v) for v in b] for u in a])
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.all(got[:, 3] == 0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-200])
    def test_given_norms_match_computed_norms(self, scale):
        # rows scaled by 1e-200 make the norm product underflow to 0 while
        # the dot product underflows too: the cosine is +0.0, never NaN
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(6, 30)), rng.normal(size=(50, 30))
        a[1] = 0.0
        b[4] = 0.0
        a[2:4] *= scale
        b[5:9] *= scale
        got = cosine(a, b, row_norms(b))
        assert np.all(got == cosine(a, b))
        assert not np.isnan(got).any()
        zero = np.outer(row_norms(a), row_norms(b)) == 0.0
        assert zero[1].all() and zero[:, 4].all()
        assert (scale == 1.0) == (not zero[2:4, 5:9].any())
        assert np.all(got[zero] == 0.0) and not np.signbit(got[zero]).any()


class TestTopicSpaceNorms:
    def test_norms_equal_row_norms_of_gathered_rows(self, cluster_topic_model):
        for space in (word_topic_vectors(cluster_topic_model["model"]),
                      word_topic_vectors(random_topic_model()),
                      make_vectors({"a": [3.0, 4.0], "b": [0.0, 0.0], "c": [1e-200, 0.0]})):
            rows = list(range(0, len(space), 2))
            assert space.norms[rows].tobytes() == row_norms(space.matrix[rows]).tobytes()
            with pytest.raises(ValueError):
                space.norms[0] = 1.0

    @pytest.mark.parametrize("model_name", ["cluster", "benchmark_shape"])
    def test_expand_matches_a_row_major_copy(self, model_name, cluster_topic_model):
        # the snapshot's transposed layout changes the rounding of the dot
        # products only where BLAS takes its one- and two-row path; at the
        # cluster model's shape and the benchmark's (9,996 words, 50 topics)
        # three or more rows take the same GEMM kernel in either layout
        model = (cluster_topic_model["model"] if model_name == "cluster"
                 else random_topic_model(9996))
        space = word_topic_vectors(model)
        copy = TopicSpace(space.tokens, np.ascontiguousarray(space.matrix))
        rng = np.random.default_rng(3)
        for count in (1, 2, 3, 5, 8):
            for _ in range(4):
                seeds = rng.choice(space.tokens, count, replace=False).tolist()
                example = example_with_personas([seeds])
                got = expand(example, space, 6, 25).words
                want = expand(example, copy, 6, 25).words
                if count >= 3:
                    assert got == want
                else:
                    assert [t for t, _ in got] == [t for t, _ in want]
                    assert all(abs(a - b) <= 1e-15 for (_, a), (_, b) in zip(got, want))


def random_topic_model(words: int = 400) -> TopicModel:
    vocab = Vocabulary.from_tokens([f"w{i:04d}" for i in range(words)])
    return TopicModel(vocab, 50, 2, np.random.default_rng(5))


class TestNearestWords:
    def test_single_best(self):
        vectors = make_vectors({"a": [1, 0], "b": [0.9, 0.1], "c": [0, 1]})
        assert nearest_words("a", vectors, 1)[0][0] == "b"

    def test_m_larger_than_pool_returns_all_sorted(self):
        vectors = make_vectors({"a": [1, 0], "b": [0.9, 0.1], "c": [0, 1]})
        result = nearest_words("a", vectors, 10)
        assert [t for t, _ in result] == ["b", "c"]
        scores = [s for _, s in result]
        assert scores == sorted(scores, reverse=True)

    def test_negative_count_rejected(self):
        vectors = make_vectors({"a": [1, 0], "b": [0.9, 0.1], "c": [0, 1]})
        with pytest.raises(ValueError):
            nearest_words("a", vectors, -1)

    def test_unknown_word_rejected(self):
        with pytest.raises(KeyError):
            nearest_words("zzz", make_vectors({"a": [1, 0]}), 1)

    def test_tie_breaks_lexicographically(self):
        vectors = make_vectors({"seed": [1, 0], "b": [2, 0], "a": [3, 0], "z": [0, 1]})
        result = nearest_words("seed", vectors, 2)
        assert [t for t, _ in result] == ["a", "b"]

    def test_cluster_seed_stays_in_cluster(self, cluster_topic_model):
        vectors = word_topic_vectors(cluster_topic_model["model"])
        result = nearest_words("red00", vectors, 10)
        in_cluster = sum(token.startswith("red") for token, _ in result)
        assert in_cluster >= 8


class TestExpand:
    def test_dedup_keeps_max_score(self):
        # both persona words rank "shared" as a neighbor but at different scores
        vectors = make_vectors({
            "p1": [1.0, 0.0],
            "p2": [0.0, 1.0],
            "shared": [0.9, 0.05],
            "other": [0.05, 0.9],
        })
        example = example_with_personas([["p1", "p2"]])
        result = expand(example, vectors, m=2, n_w=10)
        scores = dict(result.words)
        assert scores["shared"] == pytest.approx(
            max(np_cosine(np.array([1.0, 0.0]), np.array([0.9, 0.05])),
                np_cosine(np.array([0.0, 1.0]), np.array([0.9, 0.05]))))
        assert [token for token, _ in result.words].count("shared") == 1

    def test_zero_budget_gives_empty(self):
        vectors = make_vectors({"p1": [1, 0], "x": [0.5, 0.5]})
        example = example_with_personas([["p1"]])
        assert expand(example, vectors, m=2, n_w=0).words == []

    def test_empty_persona_vocab_gives_empty_result(self):
        vectors = make_vectors({"x": [1, 0]})
        example = example_with_personas([["the", "a"]])
        result = expand(example, vectors, m=3, n_w=5)
        assert result.words == []

    def test_no_output_token_in_persona_vocab(self, cluster_topic_model):
        vectors = word_topic_vectors(cluster_topic_model["model"])
        example = example_with_personas([["red00", "red01", "blue00"]])
        result = expand(example, vectors, m=5, n_w=30)
        assert not {"red00", "red01", "blue00"} & {token for token, _ in result.words}

    def test_size_bound(self, cluster_topic_model):
        vectors = word_topic_vectors(cluster_topic_model["model"])
        example = example_with_personas([["red00", "blue00"]])
        for n_w in (0, 3, 10, 200):
            result = expand(example, vectors, m=8, n_w=n_w)
            assert len(result.words) <= min(n_w, len(vectors) - 2)

    def test_monotone_in_budget(self, cluster_topic_model):
        vectors = word_topic_vectors(cluster_topic_model["model"])
        example = example_with_personas([["red00", "red05"]])
        previous: list[str] = []
        for n_w in (1, 3, 6, 12):
            tokens = [token for token, _ in expand(example, vectors, m=6, n_w=n_w).words]
            assert tokens[:len(previous)] == previous
            previous = tokens

    def test_invariant_to_sentence_order(self, cluster_topic_model):
        vectors = word_topic_vectors(cluster_topic_model["model"])
        forward = expand(example_with_personas([["red00"], ["blue00"]]), vectors, 5, 10)
        backward = expand(example_with_personas([["blue00"], ["red00"]]), vectors, 5, 10)
        assert forward.words == backward.words

    def test_scores_non_increasing(self, cluster_topic_model):
        vectors = word_topic_vectors(cluster_topic_model["model"])
        example = example_with_personas([["red00", "blue03"]])
        scores = [s for _, s in expand(example, vectors, 10, 20).words]
        assert scores == sorted(scores, reverse=True)

    def test_negative_count_rejected(self):
        vectors = make_vectors({"p1": [1, 0], "x": [0.5, 0.5]})
        with pytest.raises(ValueError):
            expand(example_with_personas([["p1"]]), vectors, m=-1, n_w=5)

    def test_source_recorded(self):
        vectors = make_vectors({"p1": [1, 0], "x": [0.5, 0.5]})
        example = example_with_personas([["p1"]])
        assert expand(example, vectors, 1, 1, source=7).source == 7


# ---------------------------------------------------------------------------
# the batched path against the pairwise definition
# ---------------------------------------------------------------------------


def pairwise_nearest_words(word, space, m, exclude=frozenset()):
    seed = space.matrix[space.rows[word]]
    scored = [(token, np_cosine(seed, vector)) for token, vector in zip(space.tokens, space.matrix)
              if token != word and token not in exclude]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:m]


def pairwise_expand(example, space, m, n_w):
    seeds = persona_vocab(example, space)
    best = {}
    for seed in sorted(seeds):
        for token, score in pairwise_nearest_words(seed, space, m, exclude=seeds):
            if token not in best or score > best[token]:
                best[token] = score
    return sorted(best.items(), key=lambda item: (-item[1], item[0]))[:max(0, n_w)]


def assert_same_words(got, want):
    assert [t for t, _ in got] == [t for t, _ in want]
    assert all(abs(a - b) <= 1e-12 for (_, a), (_, b) in zip(got, want))


WORDS = ["kiwi", "fig", "plum", "pear", "lime", "date", "apple", "mango", "grape",
         "melon", "lemon", "peach", "guava", "olive"]


@st.composite
def topic_spaces(draw):
    """Shuffled words with small integer vectors: ties and zero rows are common."""
    words = draw(st.lists(st.sampled_from(WORDS), min_size=2, max_size=len(WORDS), unique=True))
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                         min_size=len(words), max_size=len(words)))
    return make_vectors(dict(zip(words, rows)))


class TestBatchedEqualsPairwise:
    @settings(max_examples=150, deadline=None)
    @given(topic_spaces(), st.data())
    def test_nearest_words(self, vectors, data):
        words = vectors.tokens
        word = data.draw(st.sampled_from(words))
        exclude = set(data.draw(st.lists(st.sampled_from(words + ["absent"]), max_size=4)))
        m = data.draw(st.integers(0, len(words) + 2))
        want = pairwise_nearest_words(word, vectors, m, exclude)
        assert_same_words(nearest_words(word, vectors, m, exclude), want)

    @settings(max_examples=150, deadline=None)
    @given(topic_spaces(), st.data())
    def test_expand(self, vectors, data):
        words = vectors.tokens
        persona = data.draw(st.lists(st.lists(st.sampled_from(words + ["the", "absent"]),
                                              max_size=4), min_size=1, max_size=3))
        m = data.draw(st.integers(0, len(words) + 2))
        n_w = data.draw(st.integers(0, len(words) + 2))
        example = example_with_personas(persona)
        want = pairwise_expand(example, vectors, m, n_w)
        assert_same_words(expand(example, vectors, m, n_w).words, want)

    def test_trained_topic_space(self, cluster_topic_model):
        vectors = word_topic_vectors(cluster_topic_model["model"])
        example = example_with_personas([["red00", "red03", "blue01"], ["blue04"]])
        assert_same_words(expand(example, vectors, 7, 20).words,
                          pairwise_expand(example, vectors, 7, 20))
        assert_same_words(nearest_words("blue02", vectors, 12),
                          pairwise_nearest_words("blue02", vectors, 12))
