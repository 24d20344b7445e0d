import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import np_bigru, np_gru_step, np_retrieve, np_softmax, np_tanh_mlp
from personagen import numkit as nk
from personagen.corpus import EOS, SOS, DialogueExample, Vocabulary
from personagen.memory import KeyValueMemory
from personagen.losses import (
    joint_loss,
    p_bows_loss,
    p_bows_targets,
    p_match_loss,
    p_match_targets,
)
from personagen.net import (
    DecoderState,
    DialogueModel,
    LossSettings,
    _top_k,
    attend_history,
    bind_example,
    decode_step,
    encode_history,
    encode_persona,
    init_state,
)
from personagen.trainer import TrainSettings, train_dialogue_model


def tiny_vocab():
    tokens = ["i", "love", "guitar", "music", "play", "songs", "what", "do",
              "you", "like", ".", "?"]
    return Vocabulary.from_tokens(tokens)


def tiny_model(hidden=4, emb=3, hops=3, seed=0):
    return DialogueModel(tiny_vocab(), emb_dim=emb, hidden=hidden, hops=hops,
                         rng=np.random.default_rng(seed))


def tiny_example(vocab):
    example = DialogueExample(
        persona_sentences=[["i", "love", "guitar", "."], ["i", "play", "songs", "."]],
        history=[["what", "do", "you", "like", "?"]],
        response=["i", "love", "guitar", "."],
    )
    return bind_example(example, vocab, ["music"])


class TestEncodePersona:
    def test_slot_counts(self):
        model = tiny_model()
        sentences = [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9], [10, 11, 0, 1]]
        mem_s, mem_w = encode_persona(sentences, model.persona, model.embedding)
        assert mem_s.slots == 4
        assert mem_w.slots == 14

    def test_single_one_word_sentence(self):
        model = tiny_model()
        mem_s, mem_w = encode_persona([[5]], model.persona, model.embedding)
        assert mem_s.slots == 1 and mem_w.slots == 1

    def test_empty_persona_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            encode_persona([], model.persona, model.embedding)

    def test_matches_composition_oracle(self):
        model = tiny_model(seed=3)
        sentences = [[1, 2], [4, 5, 6]]
        mem_s, mem_w = encode_persona(sentences, model.persona, model.embedding)

        slot = 0
        for sentence in sentences:
            raw = [model.embedding.data[t] for t in sentence]
            steps, final = np_bigru(raw, model.persona.fwd, model.persona.bwd)
            sent_index = sentences.index(sentence)
            assert np.allclose(mem_s.keys.data[sent_index],
                               np_tanh_mlp(final, model.persona.sent_key), atol=1e-12)
            assert np.allclose(mem_s.values.data[sent_index],
                               np_tanh_mlp(final, model.persona.sent_value), atol=1e-12)
            for step in steps:
                assert np.allclose(mem_w.keys.data[slot],
                                   np_tanh_mlp(step, model.persona.word_key), atol=1e-12)
                slot += 1


class TestEncodeHistory:
    def test_single_utterance_base_case(self):
        model = tiny_model(seed=4)
        e_x, sentence_vectors, word_states = encode_history(
            [[0, 1, 2]], model.history, model.embedding)
        assert len(sentence_vectors) == 1
        # e_X is the utterance-level encoding of the single C_1
        raw = [model.embedding.data[t] for t in [0, 1, 2]]
        _, c1 = np_bigru(raw, model.history.word_fwd, model.history.word_bwd)
        _, expected = np_bigru([c1], model.history.utt_fwd, model.history.utt_bwd)
        assert np.allclose(e_x.data, expected, atol=1e-12)

    def test_word_state_count(self):
        model = tiny_model()
        history = [[0, 1, 2, 3, 4], [5, 6, 7], [8, 9, 10, 11]]
        _, _, word_states = encode_history(history, model.history, model.embedding)
        assert word_states.shape == (12, model.hidden)

    def test_matches_composition_oracle(self):
        model = tiny_model(seed=5)
        history = [[0, 1], [2, 3, 4]]
        e_x, sentence_vectors, word_states = encode_history(
            history, model.history, model.embedding)
        oracle_cs = []
        oracle_words = []
        for utterance in history:
            raw = [model.embedding.data[t] for t in utterance]
            steps, final = np_bigru(raw, model.history.word_fwd, model.history.word_bwd)
            oracle_cs.append(final)
            oracle_words.extend(steps)
        _, oracle_ex = np_bigru(oracle_cs, model.history.utt_fwd, model.history.utt_bwd)
        assert np.allclose(e_x.data, oracle_ex, atol=1e-12)
        assert word_states.shape == (len(oracle_words), model.hidden)
        for ours, expected in zip(word_states.data, oracle_words):
            assert np.allclose(ours, expected, atol=1e-12)
        for ours, expected in zip(sentence_vectors, oracle_cs):
            assert np.allclose(ours.data, expected, atol=1e-12)

    def test_empty_history_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            encode_history([], model.history, model.embedding)


class TestInitState:
    def test_identity_projection_concatenates(self):
        proj = nk.Affine(4, 4, np.random.default_rng(0))
        proj.w.data[:] = np.eye(4)
        proj.b.data[:] = 0.0
        state = init_state(nk.Tensor([1.0, 2.0]), nk.Tensor([3.0, 4.0]), proj)
        assert np.allclose(state.hidden.data, [1.0, 2.0, 3.0, 4.0])
        assert state.step == 0

    def test_zero_retrieval_depends_only_on_history(self):
        rng = np.random.default_rng(1)
        proj = nk.Affine(5, 3, rng)
        e_x = nk.Tensor(rng.normal(size=3))
        a = init_state(e_x, nk.zeros(2), proj).hidden.data
        b = init_state(e_x, nk.zeros(2), proj).hidden.data
        assert np.array_equal(a, b)
        w_ex, w_ok = proj.w.data[:3], proj.w.data[3:]
        expected = e_x.data @ w_ex + proj.b.data
        assert np.allclose(a, expected, atol=1e-12)

    def test_matches_affine_oracle(self):
        rng = np.random.default_rng(2)
        proj = nk.Affine(5, 4, rng)
        e_x = rng.normal(size=3)
        o_k = rng.normal(size=2)
        state = init_state(nk.Tensor(e_x), nk.Tensor(o_k), proj)
        expected = np.concatenate([e_x, o_k]) @ proj.w.data + proj.b.data
        assert np.allclose(state.hidden.data, expected, atol=1e-12)


class TestAttendHistory:
    def test_identical_states_return_that_state(self):
        model = tiny_model(seed=6)
        state_row = np.random.default_rng(0).normal(size=model.hidden)
        word_states = nk.Tensor(np.tile(state_row, (5, 1)))
        s_t = nk.Tensor(np.random.default_rng(1).normal(size=model.hidden))
        u, weights = attend_history(s_t, word_states, model.decoder)
        assert np.allclose(u.data, state_row, atol=1e-12)
        assert np.allclose(weights.data, 0.2)

    def test_zero_score_vector_gives_uniform(self):
        model = tiny_model(seed=7)
        model.decoder.attn_v.data[:] = 0.0
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(4, model.hidden))
        u, weights = attend_history(nk.Tensor(rng.normal(size=model.hidden)),
                                    nk.Tensor(rows), model.decoder)
        assert np.allclose(weights.data, 0.25)
        assert np.allclose(u.data, rows.mean(axis=0), atol=1e-12)

    def test_two_state_hand_oracle(self):
        model = tiny_model(seed=8)
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(2, model.hidden))
        s_t = rng.normal(size=model.hidden)
        d = model.decoder
        scores = [float(np.tanh(s_t @ d.attn_ws.data + row @ d.attn_wt.data + d.attn_b.data)
                        @ d.attn_v.data) for row in rows]
        expected_weights = np_softmax(scores)
        expected_u = expected_weights @ rows
        u, weights = attend_history(nk.Tensor(s_t), nk.Tensor(rows), d)
        assert np.allclose(weights.data, expected_weights, atol=1e-12)
        assert np.allclose(u.data, expected_u, atol=1e-12)


class TestDecodeStep:
    def build_memories(self, model, rng):
        mem_w = KeyValueMemory(nk.Tensor(rng.normal(size=(3, model.hidden))),
                               nk.Tensor(rng.normal(size=(3, model.hidden))),
                               model.hidden, model.hidden)
        mem_e = KeyValueMemory(nk.Tensor(rng.normal(size=(2, model.hidden))),
                               nk.Tensor(rng.normal(size=(2, model.hidden))),
                               model.hidden, model.hidden)
        return mem_w, mem_e

    def test_emits_distribution_and_diagnostics(self):
        model = tiny_model(seed=9)
        rng = np.random.default_rng(4)
        mem_w, mem_e = self.build_memories(model, rng)
        word_states = nk.Tensor(rng.normal(size=(6, model.hidden)))
        state = DecoderState(nk.Tensor(rng.normal(size=model.hidden)))
        probs, s_tilde, new_state, diag = decode_step(
            SOS, state, mem_w, mem_e, word_states, model.decoder, 3, model.embedding)
        assert probs.data.shape == (len(model.vocab),)
        assert abs(probs.data.sum() - 1.0) < 1e-9
        assert (probs.data > 0).all()
        assert new_state.step == 1
        assert abs(diag.attention.data.sum() - 1.0) < 1e-9
        assert abs(diag.hop_w_weights[-1].data.sum() - 1.0) < 1e-9

    def test_empty_external_memory_still_decodes(self):
        model = tiny_model(seed=10)
        rng = np.random.default_rng(5)
        mem_w, _ = self.build_memories(model, rng)
        mem_e = KeyValueMemory.empty(model.hidden, model.hidden)
        word_states = nk.Tensor(rng.normal(size=(4, model.hidden)))
        state = DecoderState(nk.Tensor(rng.normal(size=model.hidden)))
        probs, _, _, diag = decode_step(
            1, state, mem_w, mem_e, word_states, model.decoder, 2, model.embedding)
        assert abs(probs.data.sum() - 1.0) < 1e-9
        assert diag.hop_e_weights[-1] is None

    def test_out_of_range_token_rejected(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        mem_w, mem_e = self.build_memories(model, rng)
        word_states = nk.Tensor(rng.normal(size=(2, model.hidden)))
        state = DecoderState(nk.Tensor(rng.normal(size=model.hidden)))
        with pytest.raises(IndexError):
            decode_step(len(model.vocab) + 5, state, mem_w, mem_e, word_states,
                        model.decoder, 2, model.embedding)

    def test_matches_composition_oracle(self):
        model = tiny_model(seed=11)
        rng = np.random.default_rng(7)
        mem_w, mem_e = self.build_memories(model, rng)
        word_rows = rng.normal(size=(3, model.hidden))
        state_vec = rng.normal(size=model.hidden)
        token = 5

        # straight-line oracle
        x = model.embedding.data[token]
        s_t = np_gru_step(x, state_vec, model.decoder.cell)
        d = model.decoder
        scores = [float(np.tanh(s_t @ d.attn_ws.data + row @ d.attn_wt.data + d.attn_b.data)
                        @ d.attn_v.data) for row in word_rows]
        weights = np_softmax(scores)
        u_x = weights @ word_rows
        q = s_t.copy()
        for _ in range(3):
            o_w, _ = np_retrieve(q, mem_w.keys.data, mem_w.values.data)
            o_e, _ = np_retrieve(q, mem_e.keys.data, mem_e.values.data)
            q = q + o_w + o_e
        features = np.concatenate([s_t, u_x, o_w, o_e])
        logits = features @ d.out.w.data + d.out.b.data
        expected = np_softmax(logits)

        probs, s_tilde, _, _ = decode_step(
            token, DecoderState(nk.Tensor(state_vec)), mem_w, mem_e,
            nk.Tensor(word_rows), d, 3, model.embedding)
        assert np.allclose(s_tilde.data, logits, atol=1e-10)
        assert np.allclose(probs.data, expected, atol=1e-10)


class TestJointLossAndGradients:
    def test_joint_loss_components_finite(self):
        model = tiny_model(seed=12)
        bound = tiny_example(model.vocab)
        parts = model.example_loss(bound, LossSettings())
        for value in (parts.joint, parts.nll, parts.p_match, parts.p_bows):
            assert np.isfinite(value.item())
        assert abs(parts.match_weights.data.sum() - 1.0) < 1e-9

    def test_zero_gammas_reduce_to_nll(self):
        model = tiny_model(seed=13)
        bound = tiny_example(model.vocab)
        parts = model.example_loss(bound, LossSettings(gamma_match=0.0, gamma_bows=0.0))
        assert parts.joint.item() == pytest.approx(parts.nll.item(), abs=1e-12)

    def test_tape_length_independent_of_expansion_count(self):
        # the external memory is built from one lookup and one call of each
        # memory network, however many expansion words there are
        model = tiny_model(seed=15)
        bound = tiny_example(model.vocab)
        lengths = []
        for count in (1, 20):
            bound.expansion_ids = [i % len(model.vocab) for i in range(count)]
            with nk.Tape() as tape:
                model.example_loss(bound, LossSettings())
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    def test_tape_length_independent_of_sentence_lengths(self):
        # each Bi-GRU direction is one record, however many tokens it reads
        model = tiny_model(seed=16)
        bound = tiny_example(model.vocab)
        lengths = []
        for count in (1, 9):
            bound.persona_ids = [[4 + (s + i) % 12 for i in range(count)] for s in range(2)]
            bound.history_ids = [[6 + (s + i) % 10 for i in range(count)] for s in range(3)]
            with nk.Tape() as tape:
                model.example_loss(bound, LossSettings())
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    def test_full_joint_loss_gradients_verify(self):
        model = tiny_model(hidden=4, emb=3, seed=14)
        # check at a well-conditioned point: with the default tiny init some
        # weights have ~1e-11 influence, below what central differences can
        # resolve at eps=1e-4
        rng = np.random.default_rng(1014)
        for _, p in model.named_params():
            p.data[:] = rng.uniform(-0.8, 0.8, size=p.data.shape)
        bound = tiny_example(model.vocab)
        settings = LossSettings()
        params = model.params()
        err = nk.grad_check(lambda: model.example_loss(bound, settings).joint, params)
        assert err < 1e-4

    def test_two_example_batch_gradients_verify(self):
        model = tiny_model(hidden=4, emb=3, seed=21)
        rng = np.random.default_rng(2021)
        for _, p in model.named_params():
            p.data[:] = rng.uniform(-0.8, 0.8, size=p.data.shape)
        first = tiny_example(model.vocab)
        second = bind_example(DialogueExample(
            persona_sentences=[["i", "play", "music", "."]],
            history=[["you", "like", "songs", "?"]],
            response=["i", "do", "."],
        ), model.vocab, [])
        settings = LossSettings()

        def batch_loss():
            parts = [model.example_loss(b, settings).joint for b in (first, second)]
            return nk.mean(nk.stack(parts))

        assert nk.grad_check(batch_loss, model.params()) < 1e-4


def per_step_loss(model, bound, settings):
    """Oracle for ``example_loss``: the output layer, softmax and cross
    entropy run once per decode step, through ``decode_step``."""
    _, mem_w, mem_e, word_states, state, trace = model._encode(bound)
    inputs = [SOS] + bound.response_ids
    targets = bound.response_ids + [EOS]
    step_losses = []
    step_activations = []
    for prev, target in zip(inputs, targets):
        probs, s_tilde, state, _ = decode_step(
            prev, state, mem_w, mem_e, word_states, model.decoder, model.hops, model.embedding)
        step_losses.append(nk.cross_entropy(probs, target))
        step_activations.append(s_tilde)
    nll = nk.mean(nk.stack(step_losses))
    match = p_match_loss(trace.last_weights, p_match_targets(
        bound.example.persona_sentences, bound.example.response, settings.match_threshold))
    bows = p_bows_loss(nk.stack(step_activations), p_bows_targets(
        bound.example.response, model.persona_word_set(bound), model.vocab,
        settings.bows_extra_weight))
    return joint_loss(nll, match, bows, settings.gamma_match, settings.gamma_bows), nll, bows


def random_example(vocab, rng, with_expansion):
    words = vocab.index_to_token[4:]

    def sentence(lo, hi):
        return [str(w) for w in rng.choice(words, size=int(rng.integers(lo, hi)))]

    example = DialogueExample(
        persona_sentences=[sentence(2, 6) for _ in range(int(rng.integers(1, 4)))],
        history=[sentence(1, 6) for _ in range(int(rng.integers(1, 4)))],
        response=sentence(1, 7),
    )
    expansion = sentence(1, 4) if with_expansion else []
    return bind_example(example, vocab, expansion)


class TestBatchedOutputLayer:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_step_oracle(self, seed):
        model = tiny_model(hidden=4 + 2 * (seed % 2), emb=3, hops=1 + seed % 3, seed=300 + seed)
        rng = np.random.default_rng(seed)
        for p in model.params():
            p.data[:] = rng.uniform(-0.8, 0.8, size=p.data.shape)
        bound = random_example(model.vocab, rng, with_expansion=seed % 2 == 0)
        assert bool(bound.expansion_ids) == (seed % 2 == 0)
        settings = LossSettings()

        with nk.Tape() as tape:
            parts = model.example_loss(bound, settings)
        got = nk.backward(parts.joint, tape)
        with nk.Tape() as tape:
            joint, nll, bows = per_step_loss(model, bound, settings)
        want = nk.backward(joint, tape)

        for a, b in ((parts.joint, joint), (parts.nll, nll), (parts.p_bows, bows)):
            assert a.item() == pytest.approx(b.item(), rel=1e-10, abs=0.0)
        assert set(got) == set(want)
        for name, p in model.named_params():
            if p not in want:  # the expansion memory's networks, when it is empty
                continue
            scale = np.abs(want[p]).max()
            np.testing.assert_allclose(got[p], want[p], rtol=1e-10, atol=1e-10 * scale,
                                       err_msg=name)


class TestPretrainedEmbeddings:
    def test_rows_copied_for_known_tokens(self):
        from personagen.corpus import EmbeddingTable

        vocab = tiny_vocab()
        table = EmbeddingTable(3, {"guitar": np.array([9.0, 8.0, 7.0]),
                                   "unseen": np.array([1.0, 1.0, 1.0])})
        model = DialogueModel(vocab, emb_dim=3, hidden=4, hops=1,
                              rng=np.random.default_rng(0), pretrained=table)
        assert np.array_equal(model.embedding.data[vocab.index("guitar")], [9.0, 8.0, 7.0])
        # tokens without pretrained vectors keep their random init
        assert np.abs(model.embedding.data[vocab.index("music")]).max() <= 0.1

    def test_dimension_mismatch_rejected(self):
        from personagen.corpus import EmbeddingTable

        table = EmbeddingTable(5, {"guitar": np.zeros(5)})
        with pytest.raises(ValueError):
            DialogueModel(tiny_vocab(), emb_dim=3, hidden=4, hops=1,
                          rng=np.random.default_rng(0), pretrained=table)


def greedy_oracle(model, bound, max_len):
    """Argmax decoding straight over decode_step: the tokens, and the history
    and last-hop memory attention of every step (the EOS step included)."""
    _, mem_w, mem_e, word_states, state, _ = model._encode(bound)
    ids, steps = [], []
    prev = SOS
    for _ in range(max_len):
        probs, _, state, diag = decode_step(
            prev, state, mem_w, mem_e, word_states, model.decoder, model.hops, model.embedding)
        token = int(np.argmax(probs.data))
        entry = {"attention": [float(x) for x in diag.attention.data]}
        if diag.hop_w_weights[-1] is not None:
            entry["word_memory"] = [float(x) for x in diag.hop_w_weights[-1].data]
        if diag.hop_e_weights[-1] is not None:
            entry["external_memory"] = [float(x) for x in diag.hop_e_weights[-1].data]
        steps.append(entry)
        if token == EOS:
            break
        ids.append(token)
        prev = token
    return [model.vocab.token(i) for i in ids], steps


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=40),
       st.integers(min_value=1, max_value=3))
def test_top_k_equals_stable_argsort(values, k):
    x = np.array(values, dtype=np.float64)
    assert np.array_equal(_top_k(x, k), np.argsort(-x, kind="stable")[:k])


class TestGenerate:
    @pytest.mark.parametrize("seed", range(20))
    def test_greedy_matches_argmax_oracle(self, seed):
        model = tiny_model(hidden=4 + 2 * (seed % 3), hops=1 + seed % 3, seed=100 + seed)
        rng = np.random.default_rng(seed)
        for p in model.params():
            p.data[:] = rng.uniform(-0.8, 0.8, size=p.data.shape)
        # a raised EOS bias on some seeds mixes early stops into the max-length runs
        model.decoder.out.b.data[EOS] += 0.5 * (seed % 4)
        bound = tiny_example(model.vocab)
        tokens, diag = model.generate(bound, mode="greedy", max_len=8, collect_diagnostics=True)
        assert (tokens, diag["steps"]) == greedy_oracle(model, bound, 8)

    def test_max_len_one_gives_at_most_one_token(self):
        model = tiny_model(seed=16)
        bound = tiny_example(model.vocab)
        out = model.generate(bound, mode="greedy", max_len=1)
        assert len(out) <= 1

    def test_deterministic(self):
        model = tiny_model(seed=17)
        bound = tiny_example(model.vocab)
        a = model.generate(bound, mode="beam", beam_width=2, max_len=10)
        b = model.generate(bound, mode="beam", beam_width=2, max_len=10)
        assert a == b

    def test_rejects_bad_arguments(self):
        model = tiny_model()
        bound = tiny_example(model.vocab)
        with pytest.raises(ValueError):
            model.generate(bound, mode="greedy", max_len=0)
        with pytest.raises(ValueError):
            model.generate(bound, mode="sampled")
        with pytest.raises(ValueError, match="beam_width"):
            model.generate(bound, mode="beam", beam_width=0)

    def test_overfit_model_reproduces_response(self):
        model = tiny_model(hidden=8, emb=6, seed=18)
        bound = tiny_example(model.vocab)
        settings = LossSettings()
        result = train_dialogue_model(
            model, [bound], None, settings,
            TrainSettings(epochs=150, batch_size=1, lr=0.02), np.random.default_rng(0))
        assert result.trace[-1].train_nll < 0.2
        out = model.generate(bound, mode="greedy", max_len=10)
        assert out == bound.example.response
        assert out == greedy_oracle(model, bound, 10)[0]

    def test_diagnostics_payload(self):
        model = tiny_model(seed=19)
        bound = tiny_example(model.vocab)
        for mode in ("greedy", "beam"):
            tokens, diag = model.generate(bound, mode=mode, max_len=3,
                                          collect_diagnostics=True)
            assert tokens == model.generate(bound, mode=mode, max_len=3)
            assert len(diag["match_weights"]) == 2
            assert abs(sum(diag["match_weights"]) - 1.0) < 1e-9
            assert diag["steps"], "per-step attention should be recorded"
            # one entry per decoded token, plus the EOS step when one was taken
            assert len(diag["steps"]) in (len(tokens), len(tokens) + 1)
            assert "attention" in diag["steps"][0]
            assert "word_memory" in diag["steps"][-1]
