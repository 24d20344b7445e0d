import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dead_records,
    dense_matmul_rule,
    densified,
    grad_check,
    np_bigru,
    np_gru_step,
    np_log_softmax,
    np_retrieve,
    np_softmax,
    np_tanh_mlp,
    relative_error,
    vstack,
)
from personagen import net
from personagen import numkit as nk
from personagen.numkit import tensor as tensor_module
from personagen.numkit.tensor import tanh
from personagen.corpus import EOS, PAD, SOS, DialogueExample, Vocabulary
from personagen.memory import KeyValueMemory, build_memory, persona_information_retrieval
from personagen.losses import (
    joint_loss,
    nll_loss,
    p_bows_loss,
    p_bows_targets,
    p_match_loss,
    p_match_targets,
)
from personagen.net import (
    DialogueModel,
    LossSettings,
    _top_k,
    attend_history,
    bind_example,
    decode_step,
    decoder_output,
    encode_history,
    encode_persona,
    history_memory,
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


def gru_names(prefix):
    return [f"{prefix}.{gate}" for gate in
            ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_n", "u_n", "b_n")]


# checkpoint names and the order of clipping sums and Adam state: the
# order decides the bits of a training run
DIALOGUE_PARAM_NAMES = (
    ["embedding"]
    + gru_names("persona.fwd") + gru_names("persona.bwd")
    + ["persona.sent_key.w", "persona.sent_key.b", "persona.sent_value.w", "persona.sent_value.b",
       "persona.word_key.w", "persona.word_key.b", "persona.word_value.w", "persona.word_value.b"]
    + gru_names("history.word_fwd") + gru_names("history.word_bwd")
    + gru_names("history.utt_fwd") + gru_names("history.utt_bwd")
    + ["c_proj.w", "c_proj.b", "e_key.w", "e_key.b", "e_value.w", "e_value.b"]
    + gru_names("decoder.cell")
    + ["decoder.attn_ws", "decoder.attn_wt", "decoder.attn_b", "decoder.attn_v",
       "decoder.out.w", "decoder.out.b", "decoder.init_proj.w", "decoder.init_proj.b"]
)


class TestParameters:
    def test_names_and_order_are_pinned(self):
        named = tiny_model().named_params()
        assert len(named) == 86
        assert [name for name, _ in named] == DIALOGUE_PARAM_NAMES

    def test_every_leaf_on_the_tape_is_a_parameter(self):
        model = tiny_model()
        with nk.Tape() as tape:
            loss = model.example_loss(tiny_example(model.vocab), LossSettings()).joint
        leaves = set(nk.backward(loss, tape))
        params = model.params()
        assert len({id(p) for p in params}) == len(params)
        assert leaves == set(params)


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
        assert sentence_vectors.shape == (1, model.hidden)
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
        assert sentence_vectors.shape == (len(history), model.hidden)
        for ours, expected in zip(sentence_vectors.data, oracle_cs):
            assert np.allclose(ours, expected, atol=1e-12)

    def test_empty_history_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            encode_history([], model.history, model.embedding)


class TestInitState:
    def test_identity_projection_concatenates(self):
        proj = nk.Affine(4, 4, np.random.default_rng(0))
        proj.w.data[:] = np.eye(4)
        proj.b.data[:] = 0.0
        state = init_state(nk.Tensor([[1.0, 2.0]]), nk.Tensor([[3.0, 4.0]]), proj)
        assert np.allclose(state.data, [[1.0, 2.0, 3.0, 4.0]])
        assert state.shape == (1, 4)

    def test_zero_retrieval_depends_only_on_history(self):
        rng = np.random.default_rng(1)
        proj = nk.Affine(5, 3, rng)
        e_x = nk.Tensor(rng.normal(size=(1, 3)))
        a = init_state(e_x, nk.zeros((1, 2)), proj).data
        b = init_state(e_x, nk.zeros((1, 2)), proj).data
        assert np.array_equal(a, b)
        w_ex, w_ok = proj.w.data[:3], proj.w.data[3:]
        expected = e_x.data @ w_ex + proj.b.data
        assert np.allclose(a, expected, atol=1e-12)

    def test_matches_affine_oracle(self):
        rng = np.random.default_rng(2)
        proj = nk.Affine(5, 4, rng)
        e_x = rng.normal(size=(1, 3))
        o_k = rng.normal(size=(1, 2))
        state = init_state(nk.Tensor(e_x), nk.Tensor(o_k), proj)
        expected = np.concatenate([e_x, o_k], axis=1) @ proj.w.data + proj.b.data
        assert np.allclose(state.data, expected, atol=1e-12)


class TestAttendHistory:
    def test_identical_states_return_that_state(self):
        model = tiny_model(seed=6)
        state_row = np.random.default_rng(0).normal(size=model.hidden)
        word_states = nk.Tensor(np.tile(state_row, (5, 1)))
        s_t = nk.Tensor(np.random.default_rng(1).normal(size=(1, model.hidden)))
        u, weights = attend_history(s_t, history_memory(word_states, model.decoder),
                                    model.decoder)
        assert np.allclose(u.data, [state_row], atol=1e-12)
        assert np.allclose(weights.data, 0.2)

    def test_zero_score_vector_gives_uniform(self):
        model = tiny_model(seed=7)
        model.decoder.attn_v.data[:] = 0.0
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(4, model.hidden))
        u, weights = attend_history(nk.Tensor(rng.normal(size=(1, model.hidden))),
                                    history_memory(nk.Tensor(rows), model.decoder),
                                    model.decoder)
        assert np.allclose(weights.data, 0.25)
        assert np.allclose(u.data, [rows.mean(axis=0)], atol=1e-12)

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
        u, weights = attend_history(nk.Tensor([s_t]), history_memory(nk.Tensor(rows), d), d)
        assert np.allclose(weights.data, [expected_weights], atol=1e-12)
        assert np.allclose(u.data, [expected_u], atol=1e-12)


    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_equal_stacked_states(self, k):
        model = tiny_model(seed=9 + k)
        rng = np.random.default_rng(30 + k)
        rows = nk.Tensor(rng.normal(size=(5, model.hidden)))
        mem_h = history_memory(rows, model.decoder)
        states = rng.normal(size=(k, model.hidden))
        u, weights = attend_history(nk.Tensor(states), mem_h, model.decoder)
        assert u.shape == (k, model.hidden) and weights.shape == (k, 5)
        for i in range(k):
            want_u, want_weights = attend_history(nk.Tensor(states[i:i + 1]), mem_h,
                                                  model.decoder)
            np.testing.assert_allclose(u.data[i:i + 1], want_u.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights.data[i:i + 1], want_weights.data,
                                       rtol=0, atol=1e-12)

    def test_rows_gradients(self):
        model = tiny_model(seed=13)
        rng = np.random.default_rng(33)
        d = model.decoder
        # a well-conditioned point, as in the whole-model checks below: at the
        # tiny init the attention is near uniform and some entries' gradients
        # fall to where central differences lose digits
        attention = [d.attn_ws, d.attn_wt, d.attn_b, d.attn_v]
        for p in attention:
            p.data[:] = rng.uniform(-0.8, 0.8, size=p.data.shape)
        rows = nk.Tensor(rng.normal(size=(4, model.hidden)), requires_grad=True)
        states = nk.Tensor(rng.normal(size=(3, model.hidden)), requires_grad=True)

        def loss(s_t):
            u, weights = attend_history(s_t, history_memory(rows, d), d)
            return nk.sum_(tanh(u)) + nk.sum_(nk.mul(weights, weights))

        assert grad_check(lambda: loss(states), [rows, states] + attention) < 1e-6
        # and they are the sums of the one-row calls' gradients
        with nk.Tape() as tape:
            got = nk.backward(loss(states), tape)
        singles = [nk.Tensor(states.data[i:i + 1], requires_grad=True) for i in range(3)]
        with nk.Tape() as tape:
            want = nk.backward(functools.reduce(nk.add, [loss(s) for s in singles]), tape)
        for p in [rows] + attention:
            np.testing.assert_allclose(got[p], want[p], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[states], np.concatenate([want[s] for s in singles]),
                                   rtol=0, atol=1e-12)


class TestDecodeStep:
    def build_memories(self, model, rng):
        mem_w = KeyValueMemory(nk.Tensor(rng.normal(size=(3, model.hidden))),
                               nk.Tensor(rng.normal(size=(3, model.hidden))))
        mem_e = KeyValueMemory(nk.Tensor(rng.normal(size=(2, model.hidden))),
                               nk.Tensor(rng.normal(size=(2, model.hidden))))
        return mem_w, mem_e

    def test_emits_distribution_and_diagnostics(self):
        # the distribution as its logits, the output activations
        model = tiny_model(seed=9)
        rng = np.random.default_rng(4)
        mem_w, mem_e = self.build_memories(model, rng)
        word_states = nk.Tensor(rng.normal(size=(6, model.hidden)))
        state = nk.Tensor(rng.normal(size=(1, model.hidden)))
        activations, new_state, diag = decode_step(
            [SOS], state, history_memory(word_states, model.decoder), mem_w, mem_e,
            model.decoder, 3, model.embedding)
        assert activations.data.shape == (1, len(model.vocab))
        probs = np_softmax(activations.data[0])
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs > 0).all()
        assert new_state.shape == (1, model.hidden)
        assert abs(diag["attention"].data.sum() - 1.0) < 1e-9
        assert abs(diag["word_memory"].data.sum() - 1.0) < 1e-9

    def test_empty_external_memory_still_decodes(self):
        model = tiny_model(seed=10)
        rng = np.random.default_rng(5)
        mem_w, _ = self.build_memories(model, rng)
        mem_e = KeyValueMemory.empty(model.hidden, model.hidden)
        word_states = nk.Tensor(rng.normal(size=(4, model.hidden)))
        state = nk.Tensor(rng.normal(size=(1, model.hidden)))
        activations, _, diag = decode_step(
            [1], state, history_memory(word_states, model.decoder), mem_w, mem_e,
            model.decoder, 2, model.embedding)
        assert abs(np_softmax(activations.data[0]).sum() - 1.0) < 1e-9
        assert diag["external_memory"] is None

    @pytest.mark.parametrize("empty_external", [False, True])
    def test_rows_equal_stacked_steps(self, empty_external):
        model = tiny_model(seed=12)
        rng = np.random.default_rng(8)
        mem_w, mem_e = self.build_memories(model, rng)
        if empty_external:
            mem_e = KeyValueMemory.empty(model.hidden, model.hidden)
        word_states = nk.Tensor(rng.normal(size=(4, model.hidden)))
        mem_h = history_memory(word_states, model.decoder)
        tokens, states = [SOS, 5, 5], rng.normal(size=(3, model.hidden))
        activations, new_rows, diag = decode_step(
            tokens, nk.Tensor(states), mem_h, mem_w, mem_e, model.decoder, 2, model.embedding)
        assert activations.shape == (3, len(model.vocab)) and new_rows.shape == (3, model.hidden)
        for i, token in enumerate(tokens):
            one = decode_step([token], nk.Tensor(states[i:i + 1]), mem_h, mem_w, mem_e,
                              model.decoder, 2, model.embedding)
            for got, want in zip((activations, new_rows), one[:2]):
                np.testing.assert_allclose(got.data[i:i + 1], want.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(diag["attention"].data[i:i + 1],
                                       one[2]["attention"].data, rtol=0, atol=1e-12)

    def test_out_of_range_token_rejected(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        mem_w, mem_e = self.build_memories(model, rng)
        word_states = nk.Tensor(rng.normal(size=(2, model.hidden)))
        state = nk.Tensor(rng.normal(size=(1, model.hidden)))
        with pytest.raises(IndexError):
            decode_step([len(model.vocab) + 5], state,
                        history_memory(word_states, model.decoder), mem_w, mem_e,
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

        activations, _, _ = decode_step(
            [token], nk.Tensor([state_vec]), history_memory(nk.Tensor(word_rows), d),
            mem_w, mem_e, d, 3, model.embedding)
        assert np.allclose(activations.data, [logits], atol=1e-10)
        assert np.allclose(np_softmax(activations.data[0]), np_softmax(logits), atol=1e-10)


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

    def test_records_before_the_losses_output_matrices(self, monkeypatch):
        # one activation layout: every record that the encoders, memories and
        # decoder add, everything before NLL's record, outputs (rows, d)
        starts = []

        def spy(*args):
            starts.append(len(tape))
            return nll_loss(*args)

        monkeypatch.setattr(net, "nll_loss", spy)
        model = tiny_model(seed=14)
        with nk.Tape() as tape:
            model.example_loss(tiny_example(model.vocab), LossSettings())
        (start,) = starts
        shapes = [rec.output.shape for rec in tape.records[:start]]
        assert len(shapes) > 50 and [s for s in shapes if len(s) != 2] == []

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

    def test_tape_length_independent_of_response_length(self):
        # the decoder GRU is one record and the reads run once over its states
        model = tiny_model(seed=17)
        bound = tiny_example(model.vocab)
        lengths = []
        for count in (3, 12):
            bound.response_ids = [4 + i % 12 for i in range(count)]
            with nk.Tape() as tape:
                model.example_loss(bound, LossSettings())
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    def test_tape_length_independent_of_persona_sentence_count(self):
        # all persona sentences are rows of one record per direction, and
        # P-Match is one term over the label vector (2 of 2 sentences are
        # labeled, then 4 of 5)
        model = tiny_model(seed=18)
        words = ["guitar", "music", "play", "songs", "."]
        lengths = []
        for count, labeled in ((2, 2), (5, 4)):
            bound = bind_example(DialogueExample(
                persona_sentences=[[words[(s + i) % 5] for i in range(2 + s % 3)]
                                   for s in range(count)],
                history=[["what", "do", "you", "like", "?"]],
                response=["i", "play", "music", "."],
            ), model.vocab, ["music"])
            assert p_match_targets(bound.example.persona_sentences,
                                   bound.example.response, 0.03).sum() == labeled
            with nk.Tape() as tape:
                model.example_loss(bound, LossSettings())
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    def test_tape_length_independent_of_p_match_label_count(self):
        # the same three persona sentences, of which the response labels two,
        # then all three
        model = tiny_model(seed=20)
        persona = [["i", "love", "guitar", "."], ["i", "play", "songs", "."], ["music", "?"]]
        lengths = []
        for response, labeled in ((["love", "songs"], 2), (["love", "songs", "music"], 3)):
            bound = bind_example(DialogueExample(
                persona_sentences=persona, history=[["what", "do", "you", "like", "?"]],
                response=response,
            ), model.vocab, ["music"])
            assert p_match_targets(persona, response, 0.03).sum() == labeled
            with nk.Tape() as tape:
                model.example_loss(bound, LossSettings())
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    @pytest.mark.parametrize("utterances", [1, 3])
    def test_every_record_reaches_the_joint_loss(self, utterances):
        # a record whose output never reaches the loss is work for nothing
        model = tiny_model(seed=21)
        bound = tiny_example(model.vocab)
        if utterances == 3:
            bound = bind_example(DialogueExample(
                persona_sentences=bound.example.persona_sentences,
                history=[["what", "do", "you", "like", "?"], ["music", "."],
                         ["you", "play", "songs", "?"]],
                response=bound.example.response,
            ), model.vocab, ["music"])
        with nk.Tape() as tape:
            loss = model.example_loss(bound, LossSettings()).joint
        assert dead_records(loss, tape) == []

    def test_nll_gradient_reaches_a_target_ruled_out_by_30_nats(self):
        # with the output weights zeroed every step's logits are the output
        # bias, and the bias puts the first target 30 nats below the other
        # tokens: a floored probability (below 1e-12 from 27.6 nats on) would
        # give it no gradient, where the log-softmax gives about -w, the
        # target's weight 1/T in the mean over the T steps
        model = tiny_model(seed=22)
        bound = tiny_example(model.vocab)
        target = bound.response_ids[0]
        steps = len(bound.response_ids) + 1
        assert (bound.response_ids + [EOS]).count(target) == 1
        model.decoder.out.w.data[:] = 0.0
        model.decoder.out.b.data[:] = 0.0
        model.decoder.out.b.data[target] = -30.0
        bias = model.decoder.out.b.data
        eps = 1e-4

        def nll_at(value):
            bias[target] = value
            return model.example_loss(bound, LossSettings()).nll.item()

        numeric = (nll_at(-30.0 + eps) - nll_at(-30.0 - eps)) / (2 * eps)
        assert numeric == pytest.approx(-1.0 / steps, rel=1e-6)

    def test_pad_row_reaches_no_output_and_gets_no_gradient(self):
        # sentences of different lengths share one record; its padding must
        # not reach a loss or a gradient, whatever the PAD embedding holds
        model = tiny_model(seed=19)
        bound = bind_example(DialogueExample(
            persona_sentences=[["i", "love"], ["i", "play", "songs", "do", "guitar"], ["."]],
            history=[["what", "do", "you", "like"], ["?"], ["you", "play", "songs"]],
            response=["i", "love", "guitar", "."],
        ), model.vocab, ["music"])
        runs = []
        for pad_row in (np.zeros(3), np.full(3, 1e3)):
            model.embedding.data[PAD] = pad_row
            with nk.Tape() as tape:
                parts = model.example_loss(bound, LossSettings())
            grads = nk.backward(parts.joint, tape)
            runs.append(([parts.joint.item(), parts.nll.item(), parts.p_match.item(),
                          parts.p_bows.item()], grads))
        (losses_a, grads_a), (losses_b, grads_b) = runs
        assert losses_a == losses_b
        for _, p in model.named_params():
            if p is not model.embedding:
                assert grads_a[p].tobytes() == grads_b[p].tobytes()
        for grads in (grads_a, grads_b):
            assert not grads[model.embedding][PAD].any()
        assert np.array_equal(np.delete(grads_a[model.embedding], PAD, axis=0),
                              np.delete(grads_b[model.embedding], PAD, axis=0))

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
        err = grad_check(lambda: model.example_loss(bound, settings).joint, params)
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
            return nk.mean(parts)

        assert grad_check(batch_loss, model.params()) < 1e-4

    def test_three_example_batch_stacked_gradients_verify(self):
        # a matrix that only matmul reaches gets its per-example factors
        # stacked into one product; central differences check exactly those
        model = tiny_model(hidden=4, emb=3, seed=23)
        rng = np.random.default_rng(2023)
        for _, p in model.named_params():
            p.data[:] = rng.uniform(-0.8, 0.8, size=p.data.shape)
        batch = three_examples(model.vocab)
        settings = LossSettings()

        def batch_loss():
            return nk.mean([model.example_loss(b, settings).joint for b in batch])

        with nk.Tape() as tape:
            loss = batch_loss()
        arrivals = {}  # each leaf's gradients in the order the sweep meets them
        for rec in tape.records:
            def rule(g_out, rec=rec, inner=rec.backward_fn):
                grads = inner(g_out)
                for tensor, g in zip(rec.inputs, grads):
                    if g is not None and tensor.requires_grad:
                        arrivals.setdefault(id(tensor), []).append(g)
                return grads
            rec.backward_fn = rule
        params = model.params()
        grads = nk.backward(loss, tape, params)
        stacked = []
        for p, grad in zip(params, grads):
            parts = arrivals.get(id(p), [])
            if len(parts) < 2 or not all(isinstance(g, nk.Factors) for g in parts):
                continue
            stacked.append(p)
            a, g = np.concatenate([f.a for f in parts]), np.concatenate([f.g for f in parts])
            if isinstance(grad, nk.Factors):
                assert grad.a.tobytes() == a.tobytes() and grad.g.tobytes() == g.tobytes()
            else:
                assert grad.tobytes() == (a.T @ g).tobytes()
        names = {id(p): name for name, p in model.named_params()}
        assert {"decoder.out.w", "persona.sent_key.w", "c_proj.w"} <= {
            names[id(p)] for p in stacked}
        assert grad_check(batch_loss, stacked) < 1e-4


def three_examples(vocab):
    """The tiny example and two more of other sizes, one with no expansions."""
    return [tiny_example(vocab)] + [bind_example(DialogueExample(
        persona_sentences=persona, history=history, response=response), vocab, expansions)
        for persona, history, response, expansions in (
            ([["i", "play", "music", "."]], [["you", "like", "songs", "?"]],
             ["i", "do", "."], []),
            ([["i", "like", "songs"], ["you", "play", "guitar", "."], ["i", "love", "music"]],
             [["what", "do", "you", "play", "?"], ["songs", "."]],
             ["i", "play", "guitar", "songs", "."], ["music", "love"]))]


class TestFactoredWeightGradients:
    @pytest.mark.parametrize("size", [1, 3])
    def test_list_form_equals_dict_form_and_the_dense_rule(self, size, monkeypatch):
        # every parameter: the per-parameter form, factors densified, equals
        # the dict form bit for bit, and the dense rule (one product per
        # contribution, added in arrival order) within grad_check's measure
        model = tiny_model(hidden=4, emb=3, seed=5)
        batch = three_examples(model.vocab)[:size]
        params = model.params()

        def sweep():
            with nk.Tape() as tape:
                loss = nk.mean([model.example_loss(b, LossSettings()).joint for b in batch])
            return nk.backward(loss, tape, params), nk.backward(loss, tape)

        grads, by_tensor = sweep()
        monkeypatch.setattr(tensor_module, "_matmul_grad_b", dense_matmul_rule)
        want, _ = sweep()
        assert any(isinstance(g, nk.Factors) for g in grads) == (size == 1)
        for p, grad, dense in zip(params, grads, want):
            got = densified(grad, p)
            assert got.tobytes() == by_tensor[p].tobytes()
            assert relative_error(got, densified(dense, p)) < 1e-10


def per_step_loss(model, bound, settings):
    """Oracle for ``example_loss``: the output layer and the softmax cross
    entropy run once per decode step, through ``decode_step``."""
    mem_h, mem_w, mem_e, state, match_weights = model._encode(bound)
    inputs = [SOS] + bound.response_ids
    targets = bound.response_ids + [EOS]
    step_losses = []
    step_activations = []
    for prev, target in zip(inputs, targets):
        activations, state, _ = decode_step(
            [prev], state, mem_h, mem_w, mem_e, model.decoder, model.hops, model.embedding)
        step_losses.append(nk.softmax_cross_entropy(activations, [[target]], [[1.0]]))
        step_activations.append(activations)
    nll = nk.mean(step_losses)
    match = p_match_loss(match_weights, p_match_targets(
        bound.example.persona_sentences, bound.example.response, settings.match_threshold))
    bows = p_bows_loss(vstack(step_activations), p_bows_targets(
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


def step_by_step_loss(model, bound, settings):
    """Oracle for ``example_loss`` as one record per sentence and per step:
    a Bi-GRU per persona sentence and per utterance, ``c_proj`` per
    utterance, and ``gru_cell`` and ``decoder_output`` once per decode step."""
    embedding, persona, history = model.embedding, model.persona, model.history

    def encode(sentences, fwd, bwd):
        encoded = [nk.bigru_encode(nk.lookup(embedding, s), fwd, bwd, [len(s)])
                   for s in sentences]
        return ([final for _, _, final in encoded],
                vstack([nk.concat([ahead, behind]) for ahead, behind, _ in encoded]))

    sentence_reps, word_reps = encode(bound.persona_ids, persona.fwd, persona.bwd)
    mem_s = build_memory(vstack(sentence_reps), persona.sent_key, persona.sent_value)
    mem_w = build_memory(word_reps, persona.word_key, persona.word_value)
    vectors, word_states = encode(bound.history_ids, history.word_fwd, history.word_bwd)
    _, _, e_x = nk.bigru_encode(vstack(vectors), history.utt_fwd, history.utt_bwd,
                                [len(vectors)])
    o_k, match_weights = persona_information_retrieval(
        vstack([model.c_proj(c) for c in vectors]), mem_s)
    state = init_state(e_x, o_k, model.decoder.init_proj)
    mem_e = model.external_memory(bound.expansion_ids)
    mem_h = history_memory(word_states, model.decoder)
    step_activations = []
    for prev in [SOS] + bound.response_ids:
        state = nk.gru_cell(nk.lookup(embedding, [prev]), state, model.decoder.cell)
        step, _ = decoder_output(state, mem_h, mem_w, mem_e, model.decoder, model.hops)
        step_activations.append(step)
    activations = vstack(step_activations)
    nll = nll_loss(activations, bound.response_ids + [EOS])
    match = p_match_loss(match_weights, p_match_targets(
        bound.example.persona_sentences, bound.example.response, settings.match_threshold))
    bows = p_bows_loss(activations, p_bows_targets(
        bound.example.response, model.persona_word_set(bound), model.vocab,
        settings.bows_extra_weight))
    return joint_loss(nll, match, bows, settings.gamma_match, settings.gamma_bows), nll, bows


class TestTeacherForcing:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_step_by_step_oracle(self, seed):
        # example_loss runs each encoder level and the decoder GRU as one
        # record per direction and the decoder reads once over all steps;
        # the oracle is the per-sentence, per-step computation
        model = tiny_model(hidden=4 + 2 * (seed % 2), emb=3, hops=1 + seed % 3, seed=400 + seed)
        rng = np.random.default_rng(500 + seed)
        for p in model.params():
            p.data[:] = rng.uniform(-0.8, 0.8, size=p.data.shape)
        bound = random_example(model.vocab, rng, with_expansion=seed % 2 == 0)
        settings = LossSettings()
        with nk.Tape() as tape:
            parts = model.example_loss(bound, settings)
        got = nk.backward(parts.joint, tape)
        with nk.Tape() as tape:
            joint, nll, bows = step_by_step_loss(model, bound, settings)
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
        assert np.array_equal(model.embedding.data[vocab.token_to_index["guitar"]], [9.0, 8.0, 7.0])
        # tokens without pretrained vectors keep their random init
        assert np.abs(model.embedding.data[vocab.token_to_index["music"]]).max() <= 0.1

    def test_dimension_mismatch_rejected(self):
        from personagen.corpus import EmbeddingTable

        table = EmbeddingTable(5, {"guitar": np.zeros(5)})
        with pytest.raises(ValueError):
            DialogueModel(tiny_vocab(), emb_dim=3, hidden=4, hops=1,
                          rng=np.random.default_rng(0), pretrained=table)


def oracle_step_entry(diag):
    """The ``--diagnostics`` record of one one-row decode step."""
    entry = {"attention": [float(x) for x in diag["attention"].data[0]]}
    if diag["word_memory"] is not None:
        entry["word_memory"] = [float(x) for x in diag["word_memory"].data[0]]
    if diag["external_memory"] is not None:
        entry["external_memory"] = [float(x) for x in diag["external_memory"].data[0]]
    return entry


def greedy_oracle(model, bound, max_len):
    """Argmax decoding straight over decode_step: the tokens, and the history
    and last-hop memory attention of every step (the EOS step included)."""
    mem_h, mem_w, mem_e, state, _ = model._encode(bound)
    ids, steps = [], []
    prev = SOS
    for _ in range(max_len):
        activations, state, diag = decode_step(
            [prev], state, mem_h, mem_w, mem_e, model.decoder, model.hops, model.embedding)
        token = int(np.argmax(np_softmax(activations.data[0])))
        steps.append(oracle_step_entry(diag))
        if token == EOS:
            break
        ids.append(token)
        prev = token
    return [model.vocab.token(i) for i in ids], steps


def per_hypothesis_beam(model, bound, beam_width, max_len):
    """Beam search with one one-row ``decode_step`` per live hypothesis,
    each carrying its own state: the tokens and the best hypothesis' step
    records. Same ranking as ``generate``: summed log probability, then the
    token tuple; EOS-terminated hypotheses retire and compete by score."""
    mem_h, mem_w, mem_e, state, _ = model._encode(bound)
    live = [(0.0, (), state, ())]
    finished = []
    for _ in range(max_len):
        candidates = []
        for score, tokens, hyp_state, steps in live:
            prev = tokens[-1] if tokens else SOS
            activations, new_state, diag = decode_step(
                [prev], hyp_state, mem_h, mem_w, mem_e, model.decoder, model.hops,
                model.embedding)
            steps = steps + (oracle_step_entry(diag),)
            log_probs = np_log_softmax(activations.data[0])
            for token in np.argsort(-log_probs, kind="stable")[:beam_width]:
                candidates.append((score + float(log_probs[token]),
                                   tokens + (int(token),), new_state, steps))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for candidate in candidates:
            if candidate[1][-1] == EOS:
                finished.append(candidate)
            else:
                live.append(candidate)
            if len(live) >= beam_width:
                break
        if not live:
            break
    _, best, _, steps = min(finished + live, key=lambda c: (-c[0], c[1]))
    return [model.vocab.token(i) for i in best if i != EOS], list(steps)


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
        tokens, diag = model.generate(bound, mode="greedy", beam_width=2, max_len=8,
                                      collect_diagnostics=True)
        want_tokens, want_steps = greedy_oracle(model, bound, 8)
        assert (tokens, diag["memory_attention"]) == (want_tokens, want_steps[-1])

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("seed", range(24))
    def test_beam_matches_per_hypothesis_oracle(self, seed, width):
        model = tiny_model(hidden=4 + 2 * (seed % 3), hops=1 + seed % 3, seed=200 + seed)
        rng = np.random.default_rng(seed)
        for p in model.params():
            p.data[:] = rng.uniform(-0.8, 0.8, size=p.data.shape)
        # a raised EOS bias on some seeds mixes early stops into the max-length runs
        model.decoder.out.b.data[EOS] += 0.5 * (seed % 4)
        bound = random_example(model.vocab, rng, with_expansion=seed % 2 == 0)
        tokens, diag = model.generate(bound, mode="beam", beam_width=width, max_len=8,
                                      collect_diagnostics=True)
        want_tokens, want_steps = per_hypothesis_beam(model, bound, width, 8)
        assert tokens == want_tokens
        got, want = diag["memory_attention"], want_steps[-1]
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12)

    def test_max_len_one_gives_at_most_one_token(self):
        model = tiny_model(seed=16)
        bound = tiny_example(model.vocab)
        out = model.generate(bound, mode="greedy", beam_width=2, max_len=1)
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
            model.generate(bound, mode="greedy", beam_width=2, max_len=0)
        with pytest.raises(ValueError):
            model.generate(bound, mode="sampled", beam_width=2, max_len=30)
        with pytest.raises(ValueError, match="beam_width"):
            model.generate(bound, mode="beam", beam_width=0, max_len=30)

    def test_overfit_model_reproduces_response(self):
        model = tiny_model(hidden=8, emb=6, seed=18)
        bound = tiny_example(model.vocab)
        settings = LossSettings()
        result = train_dialogue_model(
            model, [bound], None, settings,
            TrainSettings(epochs=150, batch_size=1, lr=0.02), np.random.default_rng(0))
        assert result.trace[-1].train_nll < 0.2
        out = model.generate(bound, mode="greedy", beam_width=2, max_len=10)
        assert out == bound.example.response
        assert out == greedy_oracle(model, bound, 10)[0]

    def test_diagnostics_payload(self):
        model = tiny_model(seed=19)
        bound = tiny_example(model.vocab)
        for mode in ("greedy", "beam"):
            tokens, diag = model.generate(bound, mode=mode, beam_width=2, max_len=3,
                                          collect_diagnostics=True)
            assert tokens == model.generate(bound, mode=mode, beam_width=2, max_len=3)
            assert len(diag["match_weights"]) == 2
            assert abs(sum(diag["match_weights"]) - 1.0) < 1e-9
            # the step that chose the last token: its history attention and
            # the last hop's weights over both persona word memories
            assert diag.keys() == {"match_weights", "memory_attention"}
            attention = diag["memory_attention"]
            assert attention.keys() == {"attention", "word_memory", "external_memory"}
            for weights in attention.values():
                assert abs(sum(weights) - 1.0) < 1e-9
