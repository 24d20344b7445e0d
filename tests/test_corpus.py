import math
import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import to_dense
from personagen import corpus
from personagen.corpus import (
    RESERVED_TOKENS,
    InputFormatError,
    Vocabulary,
    build_vocab,
    compute_tfidf,
    detokenize,
    load_embeddings,
    load_personachat,
    tokenize,
)
from personagen.stopwords import is_stopword


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("I like music.") == ["i", "like", "music", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_question_mark(self):
        assert tokenize("Wanna come over?") == ["wanna", "come", "over", "?"]

    def test_apostrophe_becomes_token(self):
        assert tokenize("don't") == ["don", "'", "t"]

    def test_equal_tokens_are_one_string(self):
        # a corpus holds one string per distinct token
        first, second = tokenize("Vegan music, VEGAN!"), tokenize("vegan")
        assert first[0] is first[3] is second[0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["hello", "cat", ".", "?", "'", "42", "you"]),
                    min_size=0, max_size=10))
    def test_round_trip_fixed_point(self, tokens):
        assert tokenize(detokenize(tokens)) == tokens

    @staticmethod
    def char_loop_tokenize(text):
        # reference: pad each punctuation character with spaces, then split
        pieces = []
        for ch in text.lower():
            pieces.append(f" {ch} " if ch in string.punctuation else ch)
        return "".join(pieces).split()

    # whitespace that str.split() splits on, letters with special lowercasing
    # (İ grows to two characters, a final Σ), and punctuation outside ASCII,
    # which stays inside tokens
    TRICKY = list("aZ9 .,'?!-_[]^\\()") + [
        "\t", "\n", "\x0b", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
        "é", "İ", "ß", "Σ", "¿", "—", "…", "字"]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text(alphabet=st.sampled_from(TRICKY))))
    def test_matches_char_loop_reference(self, text):
        assert tokenize(text) == self.char_loop_tokenize(text)


class TestLoadPersonaChat:
    def test_equal_tokens_are_one_string(self, sample_chat_file):
        conversation, = load_personachat(sample_chat_file)
        persona = conversation.persona_sentences[1]   # i like to skateboard .
        reply = conversation.utterances[1]            # i do not have a car , i have a skateboard .
        assert persona[3] == reply[-2] == "skateboard"
        assert persona[3] is reply[-2] is tokenize("skateboard")[0]

    def test_expansion_counts_and_history_lengths(self, sample_chat_file):
        conversations = load_personachat(sample_chat_file)
        assert len(conversations) == 1
        examples = conversations[0].examples
        assert len(examples) == 3
        assert [len(e.history) for e in examples] == [1, 3, 5]
        # history length is always turn index - 1 in utterances
        for e in examples:
            assert len(e.history) % 2 == 1

    def test_final_example_is_last_turn(self, sample_chat_file):
        examples = load_personachat(sample_chat_file)[0].examples
        last = examples[-1]
        assert last.history[0][:2] == ["wanna", "come"]
        assert len(last.history) == 5
        assert last.response[:3] == ["most", "candy", "has"]
        assert "dairy" in last.response
        assert [s[-2] for s in last.persona_sentences] == ["music", "skateboard", "guitar", "vegan"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        assert load_personachat(path) == []

    def test_two_conversations_split_on_index_one(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text(
            "1 your persona: i ski.\n"
            "2 hello\thi there\n"
            "1 your persona: i cook.\n"
            "2 yo\they friend\n",
            encoding="utf-8",
        )
        conversations = load_personachat(path)
        assert len(conversations) == 2
        assert conversations[0].persona_sentences == [["i", "ski", "."]]
        assert conversations[1].examples[0].response == ["hey", "friend"]

    def test_partner_persona_lines_skipped(self, tmp_path):
        path = tmp_path / "partner.txt"
        path.write_text(
            "1 your persona: i ski.\n"
            "2 partner's persona: i swim.\n"
            "3 hello\thi\n",
            encoding="utf-8",
        )
        conv = load_personachat(path)[0]
        assert conv.persona_sentences == [["i", "ski", "."]]
        assert len(conv.examples) == 1

    def test_extra_tab_fields_ignored(self, tmp_path):
        path = tmp_path / "cands.txt"
        path.write_text("1 your persona: i ski.\n2 hello\thi\tcand1|cand2\n", encoding="utf-8")
        assert load_personachat(path)[0].examples[0].response == ["hi"]

    def test_malformed_line_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 your persona: i ski.\nxx hello\thi\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="line 2"):
            load_personachat(path)

    @pytest.mark.parametrize("head", ["²", "١", "１", "1²"],
                             ids=["superscript", "arabic_indic_one", "fullwidth_one", "trailing"])
    def test_non_ascii_digit_index_reports_line(self, head, tmp_path):
        # str.isdigit accepts these; int() rejects the superscript and reads
        # the others as 1, which would start a new conversation
        path = tmp_path / "digits.txt"
        path.write_text(f"1 your persona: i ski.\n{head} hello\thi\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="line 2: malformed line index"):
            load_personachat(path)

    def test_missing_tab_reports_line(self, tmp_path):
        path = tmp_path / "notab.txt"
        path.write_text("1 your persona: i ski.\n2 hello there\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="line 2"):
            load_personachat(path)

    # a field holds the tokenizer's tricky characters and every ASCII
    # punctuation character, but no newline; only persona fields hold tabs
    FIELD_CHARS = [c for c in TestTokenize.TRICKY if c not in "\t\n"] + list(string.punctuation)
    FIELD = st.text(alphabet=st.sampled_from(FIELD_CHARS), max_size=12)
    LINE = st.one_of(
        st.tuples(st.just("your persona: "),
                  st.text(alphabet=st.sampled_from(FIELD_CHARS + ["\t"]), max_size=12)),
        st.tuples(st.just("partner's persona: "), FIELD),
        # an exchange, sometimes with a third (candidates) field
        st.lists(FIELD, min_size=2, max_size=3))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(LINE, min_size=1, max_size=6), max_size=4))
    def test_tokens_are_tokenize_of_each_field(self, tmp_path_factory, conversations):
        # each field's tokens are tokenize()'s, and equal tokens are one string
        lines, want, error_line = [], [], None
        for conversation in conversations:
            start = len(lines) + 1
            personas, utterances = [], []
            for index, line in enumerate(conversation, 1):
                if isinstance(line, tuple):
                    lines.append(f"{index} {line[0]}{line[1]}")
                    if line[0] == "your persona: " and tokenize(line[1]):
                        personas.append(tokenize(line[1]))
                else:
                    lines.append(f"{index} " + "\t".join(line))
                    utterances += [tokenize(line[0]), tokenize(line[1])]
            if utterances and not personas and error_line is None:
                error_line = start
            want.append((personas, utterances))
        path = tmp_path_factory.getbasetemp() / "fields.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        if error_line is not None:
            with pytest.raises(InputFormatError, match=f"^line {error_line}: conversation has "
                                                      "utterances but no persona lines$"):
                load_personachat(path)
            return
        loaded = load_personachat(path)
        assert [(c.persona_sentences, c.utterances) for c in loaded] == want
        got = [t for c in loaded for seq in c.persona_sentences + c.utterances for t in seq]
        expected = [t for personas, utterances in want for seq in personas + utterances for t in seq]
        assert all(a is b for a, b in zip(got, expected))
        for conv in loaded:
            assert [(e.history, e.response) for e in conv.examples] == [
                (conv.utterances[:t], conv.utterances[t])
                for t in range(1, len(conv.utterances), 2)]

    def test_conversation_document_covers_everything(self, sample_chat_file):
        conv = load_personachat(sample_chat_file)[0]
        doc = corpus.conversation_document(conv)
        assert "vegan" in doc and "godfather" in doc and "dairy" in doc


class TestBuildVocab:
    def test_frequency_order(self):
        docs = [["a"] * 5 + ["b"] * 3 + ["c"]]
        vocab = build_vocab(docs, size_limit=6)
        assert "a" in vocab and "b" in vocab and "c" not in vocab

    def test_stopword_removal(self):
        docs = [["the"] * 10 + ["vegan"] * 2]
        vocab = build_vocab(docs, size_limit=10, remove_stopwords=True)
        assert "vegan" in vocab and "the" not in vocab

    def test_tie_breaks_lexicographically(self):
        docs = [["b", "b", "a", "a"]]
        vocab = build_vocab(docs, size_limit=5)
        assert "a" in vocab and "b" not in vocab

    # words, stop-words and punctuation, whose counts of 1-3 tie often
    TOKENS = ["the", "a", "i", "you", "s", ".", ",", "'", "?!", "cat", "dog", "music", "vegan",
              "b", "aa", "ab", "ba", "é", "字", "x1", "1x"]

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(TOKENS), st.integers(1, 3), min_size=1),
           st.booleans(), st.randoms(use_true_random=False), st.data())
    def test_matches_the_tuple_key_reference(self, counts, remove_stopwords, rng, data):
        tokens = [token for token, count in counts.items() for _ in range(count)]
        rng.shuffle(tokens)
        cuts = sorted(rng.randint(0, len(tokens)) for _ in range(rng.randint(0, 3)))
        documents = [tokens[a:b] for a, b in zip([0] + cuts, cuts + [len(tokens)])]
        capacity = data.draw(st.integers(1, len(counts) + 1), label="capacity")
        vocab = build_vocab(documents, len(RESERVED_TOKENS) + capacity, remove_stopwords)
        kept = Counter(t for doc in documents for t in doc)
        if remove_stopwords:
            kept = Counter({t: c for t, c in kept.items() if not is_stopword(t)})
        reference = sorted(kept.items(), key=lambda kv: (-kv[1], kv[0]))[:capacity]
        assert vocab.index_to_token == list(RESERVED_TOKENS) + [t for t, _ in reference]

    def test_reserved_tokens_first(self):
        vocab = build_vocab([["word"]], size_limit=5)
        assert vocab.index_to_token[:4] == ["<pad>", "<unk>", "<sos>", "<eos>"]
        assert vocab.token_to_index["word"] == 4
        assert vocab.encode(["word", "missing"]) == [4, corpus.UNK]

    def test_limit_must_exceed_reserved(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], size_limit=4)


class TestTfIdf:
    def test_everywhere_word_clamped_to_zero(self):
        vocab = build_vocab([["common"]], size_limit=8)
        docs = compute_tfidf([["common"], ["common"]], vocab)
        assert docs[0].weights == {} and docs[1].weights == {}

    def test_hand_arithmetic(self):
        vocab = build_vocab([["word", "other"]], size_limit=8)
        # word twice in one of two docs: idf = log(2/2) = 0
        two_docs = compute_tfidf([["word", "word"], ["other"]], vocab)
        assert two_docs[0].weights == {}
        # with three docs, df=1: weight = 2 * log(3/2)
        three_docs = compute_tfidf([["word", "word"], ["other"], ["other"]], vocab)
        index = vocab.token_to_index["word"]
        assert three_docs[0].weights[index] == pytest.approx(2 * math.log(3 / 2))
        assert three_docs[0].weights[index] == pytest.approx(0.8109, abs=1e-4)

    def test_empty_document(self):
        vocab = build_vocab([["word"]], size_limit=8)
        docs = compute_tfidf([[], ["word"]], vocab)
        assert docs[0].weights == {}

    def test_permutation_equivariance(self):
        vocab = build_vocab([["a", "b", "c"]], size_limit=10)
        docs = [["a", "a", "b"], ["b", "c"], ["c", "c", "c"]]
        forward = compute_tfidf(docs, vocab)
        backward = compute_tfidf(docs[::-1], vocab)
        for doc_f, doc_b in zip(forward, backward[::-1]):
            assert doc_f.weights == doc_b.weights

    def test_weights_equal_the_per_entry_formula_bitwise(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(30)]
        documents = [[str(w) for w in rng.choice(words, size=int(rng.integers(0, 25)))]
                     for _ in range(40)]
        vocab = build_vocab(documents, size_limit=28)
        df = {}
        for tokens in documents:
            for index in {vocab.token_to_index[t] for t in tokens if t in vocab.token_to_index}:
                df[index] = df.get(index, 0) + 1
        docs = compute_tfidf(documents, vocab)
        assert sum(len(doc.weights) for doc in docs) > 100
        for tokens, doc in zip(documents, docs):
            want = {}
            for t in tokens:
                if t in vocab.token_to_index:
                    index = vocab.token_to_index[t]
                    want[index] = want.get(index, 0) + 1
            want = {index: float(count * np.log(len(documents) / (1.0 + df[index])))
                    for index, count in want.items()}
            want = {index: weight for index, weight in want.items() if weight > 0.0}
            assert doc.weights.keys() == want.keys()
            for index, weight in want.items():
                assert np.float64(doc.weights[index]).tobytes() == np.float64(weight).tobytes()

    def test_weights_follow_first_occurrence_order(self):
        # a document's weights are keyed in the order its in-vocabulary
        # tokens first occur, out-of-vocabulary tokens skipped
        documents = [["d", "zz", "b", "d", "a", "yy", "b"], ["c"], ["c"], ["c"]]
        vocab = build_vocab([["a", "b", "c", "d"]], size_limit=8)
        weights = compute_tfidf(documents, vocab)[0].weights
        assert list(weights) == [vocab.token_to_index[t] for t in ("d", "b", "a")]

    def test_dense_round_trip(self):
        vocab = build_vocab([["a", "b"]], size_limit=8)
        docs = compute_tfidf([["a", "a"], ["b"], ["b"]], vocab)
        dense = to_dense(docs[0], len(vocab))
        assert dense.shape == (len(vocab),)
        assert dense[vocab.token_to_index["a"]] > 0


class TestEmbeddings:
    def test_loads_dim_and_entries(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.dim == 3
        assert len(table.vectors) == 2
        assert np.array_equal(table.vectors["dog"], [4.0, 5.0, 6.0])

    def test_restricts_to_vocab(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 4.0\n", encoding="utf-8")
        vocab = Vocabulary.from_tokens(["cat"])
        table = load_embeddings(path, vocab)
        assert list(table.vectors) == ["cat"]

    def test_wrong_arity_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="line 2"):
            load_embeddings(path)

    @pytest.mark.parametrize("line", ["zzz 1.0 high", "yyy nan 1.0", "xxx 1.0 -inf"])
    def test_out_of_vocabulary_line_is_still_checked(self, tmp_path, line):
        # a line is parsed whether or not its token is kept, so a malformed
        # or non-finite vector names its line even when the vocabulary drops it
        path = tmp_path / "emb.txt"
        path.write_text(f"cat 1.0 2.0\n{line}\ndog 3.0 4.0\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="line 2"):
            load_embeddings(path, Vocabulary.from_tokens(["cat"]))

    def test_components_parse_as_float_does(self, tmp_path):
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40),
                                 [5e-324, -0.0, 1.7976931348623157e308]])
        texts = [repr(float(v)) for v in values] + [f"{v:.6f}" for v in values[:10]] + ["1_000"]
        path = tmp_path / "emb.txt"
        path.write_text("cat " + " ".join(texts) + "\n", encoding="utf-8")
        got = load_embeddings(path).vectors["cat"]
        assert got.tobytes() == np.array([float(t) for t in texts]).tobytes()

    @pytest.mark.parametrize("component", ["nan", "inf", "-Infinity"])
    def test_non_finite_component_names_line(self, tmp_path, component):
        path = tmp_path / "emb.txt"
        path.write_text(f"cat 1.0 2.0\ndog 3.0 {component}\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="line 2: non-finite"):
            load_embeddings(path)
