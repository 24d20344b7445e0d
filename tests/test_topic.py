import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dead_records, grad_check, gradient_array_refs, make_cluster_corpus, np_cosine, np_log_softmax, np_softmax, to_dense, top_topic_words
from personagen import numkit as nk
from personagen import topic
from personagen.corpus import TfIdfDoc, Vocabulary, build_vocab, compute_tfidf
from personagen.topic import (
    GRAD_CLIP,
    TopicModel,
    TopicTrainConfig,
    _bag,
    _encode,
    decode,
    elbo_loss,
    reparameterize,
    train_topic_model,
    word_topic_vectors,
)


def small_vocab(n=6):
    return Vocabulary.from_tokens([f"w{i}" for i in range(n)])


def test_param_names_and_order_are_pinned():
    # checkpoint names and the order of clipping sums and Adam state
    model = TopicModel(small_vocab(), 2, 3, np.random.default_rng(0))
    assert [name for name, _ in model.named_params()] == [
        "enc_hidden.w", "enc_hidden.b", "enc_mu.w", "enc_mu.b", "enc_logvar.w", "enc_logvar.b",
        "dec_hidden.w", "dec_hidden.b", "dec_out.w", "dec_out.b"]
    assert [t for _, t in model.named_params()] == model.params()


def zeroed(model):
    for _, t in model.named_params():
        t.data[:] = 0.0
    return model


def np_forward(model, dense):
    """Straight-line numpy re-implementation of encode/decode."""
    softplus = lambda v: np.logaddexp(0.0, v)
    h = softplus(dense @ model.enc_hidden.w.data + model.enc_hidden.b.data)
    mu = h @ model.enc_mu.w.data + model.enc_mu.b.data
    logvar = h @ model.enc_logvar.w.data + model.enc_logvar.b.data
    return h, mu, logvar


def np_elbo(model, dense, eps):
    """Mean negative ELBO of the (batch, vocab) tf-idf rows ``dense``, in
    numpy over every vocabulary column."""
    _, mu, logvar = np_forward(model, dense)
    z = mu + np.exp(0.5 * logvar) * eps
    softplus = lambda v: np.logaddexp(0.0, v)
    hid = softplus(z @ model.dec_hidden.w.data + model.dec_hidden.b.data)
    log_probs = np_log_softmax(hid @ model.dec_out.w.data + model.dec_out.b.data)
    recon = -(dense * log_probs).sum()
    kl = 0.5 * (mu * mu + np.exp(logvar) - logvar - 1.0).sum()
    return float((recon + kl) / dense.shape[0])


class TestEncode:
    def test_zeroed_model_gives_zero_moments(self):
        model = zeroed(TopicModel(small_vocab(), 2, 4, np.random.default_rng(0)))
        mu, logvar, _ = _encode(*_bag([TfIdfDoc({})]), model)
        assert np.array_equal(mu.data, np.zeros((1, 2)))
        assert np.array_equal(logvar.data, np.zeros((1, 2)))

    def test_matches_forward_oracle(self):
        rng = np.random.default_rng(11)
        model = TopicModel(small_vocab(), 2, 5, rng)
        for _, t in model.named_params():
            t.data[:] = rng.normal(size=t.data.shape)
        doc = TfIdfDoc({4: 1.5, 6: 0.75})
        mu, logvar, h = _encode(*_bag([doc]), model)
        oh, omu, ologvar = np_forward(model, to_dense(doc, len(model.vocab))[None])
        assert np.allclose(h.data, oh, atol=1e-12)
        assert np.allclose(mu.data, omu, atol=1e-12)
        assert np.allclose(logvar.data, ologvar, atol=1e-12)

    def test_list_gives_one_row_per_document(self):
        rng = np.random.default_rng(12)
        model = TopicModel(small_vocab(), 2, 5, rng)
        for _, t in model.named_params():
            t.data[:] = rng.normal(size=t.data.shape)
        docs = [TfIdfDoc({4: 1.5, 6: 0.75}), TfIdfDoc({}), TfIdfDoc({6: 2.0, 9: 1.0})]
        batched = _encode(*_bag(docs), model)
        for row, doc in enumerate(docs):
            for whole, single in zip(batched, _encode(*_bag([doc]), model)):
                assert whole.shape == (len(docs),) + single.shape[1:]
                assert np.allclose(whole.data[row], single.data[0], rtol=0, atol=1e-12)

    def test_doubling_doc_doubles_preactivation(self):
        rng = np.random.default_rng(2)
        model = TopicModel(small_vocab(), 2, 4, rng)  # bias starts zero
        doc = TfIdfDoc({4: 1.0, 5: 2.0})
        single = model.enc_hidden(nk.Tensor(to_dense(doc, len(model.vocab))[None]))
        double = model.enc_hidden(nk.Tensor(2 * to_dense(doc, len(model.vocab))[None]))
        assert np.allclose(double.data, 2 * single.data, atol=1e-12)


class TestReparameterize:
    def test_zero_epsilon_returns_mean(self):
        mu = nk.Tensor([1.0, -2.0])
        z = reparameterize(mu, nk.Tensor([0.3, -0.7]), nk.zeros(2))
        assert np.array_equal(z.data, mu.data)

    def test_collapsed_variance_returns_mean(self):
        z = reparameterize(nk.Tensor([1.0, 2.0]), nk.Tensor([-50.0, -50.0]), nk.Tensor(np.ones(2)))
        assert np.allclose(z.data, [1.0, 2.0], atol=1e-10)

    def test_arithmetic_identity(self):
        z = reparameterize(nk.Tensor([1.0]), nk.Tensor([0.0]), nk.Tensor([2.0]))
        assert z.item() == pytest.approx(3.0)


class TestDecode:
    # decode gives the output layer's logits; their softmax is the
    # reconstruction distribution

    def test_zero_weights_give_uniform(self):
        model = zeroed(TopicModel(small_vocab(), 2, 4, np.random.default_rng(0)))
        probs = np_softmax(decode(nk.Tensor([[0.4, -0.2]]), model).data[0])
        assert np.allclose(probs, np.full(len(model.vocab), 1.0 / len(model.vocab)))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=2))
    def test_always_a_distribution(self, z):
        model = TopicModel(small_vocab(), 2, 4, np.random.default_rng(4))
        logits = decode(nk.Tensor([z]), model).data
        assert logits.shape == (1, len(model.vocab))
        probs = np_softmax(logits[0])
        assert ((probs > 0) & (probs < 1)).all()
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_matches_forward_oracle(self):
        rng = np.random.default_rng(13)
        model = TopicModel(small_vocab(), 2, 4, rng)
        for _, t in model.named_params():
            t.data[:] = rng.normal(size=t.data.shape) * 0.5
        z = rng.normal(size=2)
        softplus = lambda v: np.logaddexp(0.0, v)
        h = softplus(z @ model.dec_hidden.w.data + model.dec_hidden.b.data)
        expected = h @ model.dec_out.w.data + model.dec_out.b.data
        assert np.allclose(decode(nk.Tensor([z]), model).data, [expected], atol=1e-12)


class TestElbo:
    def test_standard_posterior_has_zero_kl(self):
        model = zeroed(TopicModel(small_vocab(), 2, 4, np.random.default_rng(0)))
        # zeroed model: mu = 0, logvar = 0; empty doc: reconstruction term 0
        loss = elbo_loss([TfIdfDoc({})], model, nk.zeros((1, 2)))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_kl_is_nonnegative(self):
        rng = np.random.default_rng(21)
        model = TopicModel(small_vocab(), 2, 4, rng)
        for _, t in model.named_params():
            t.data[:] = rng.normal(size=t.data.shape)
        # empty doc isolates the KL term
        for _ in range(10):
            loss = elbo_loss([TfIdfDoc({})], model, nk.Tensor(rng.normal(size=(1, 2))))
            assert loss.item() >= 0.0

    def test_matches_hand_computed_oracle(self):
        rng = np.random.default_rng(5)
        model = TopicModel(small_vocab(), 2, 4, rng)
        for _, t in model.named_params():
            t.data[:] = rng.normal(size=t.data.shape) * 0.3
        doc = TfIdfDoc({4: 2.0, 7: 1.0})
        eps = rng.normal(size=2)

        dense = to_dense(doc, len(model.vocab))
        softplus = lambda v: np.logaddexp(0.0, v)
        h = softplus(dense @ model.enc_hidden.w.data + model.enc_hidden.b.data)
        mu = h @ model.enc_mu.w.data + model.enc_mu.b.data
        logvar = h @ model.enc_logvar.w.data + model.enc_logvar.b.data
        z = mu + np.exp(0.5 * logvar) * eps
        hid = softplus(z @ model.dec_hidden.w.data + model.dec_hidden.b.data)
        probs = np_softmax(hid @ model.dec_out.w.data + model.dec_out.b.data)
        recon = -float((dense * np.log(probs)).sum())
        kl = 0.5 * float((mu * mu + np.exp(logvar) - logvar - 1.0).sum())

        loss = elbo_loss([doc], model, nk.Tensor(eps[None]))
        assert loss.item() == pytest.approx(recon + kl, abs=1e-10)

    def test_gradients_verify(self):
        rng = np.random.default_rng(6)
        model = TopicModel(small_vocab(4), 2, 3, rng)
        doc = TfIdfDoc({4: 1.0, 6: 2.0})
        eps = nk.Tensor(rng.normal(size=(1, 2)))
        params = [t for _, t in model.named_params()]
        err = grad_check(lambda: elbo_loss([doc], model, eps), params)
        assert err < 1e-4

    def test_reconstruction_is_one_record(self, monkeypatch):
        # one weighted softmax_cross_entropy record, which sums its terms: no
        # record after it reads only the term's own outputs
        starts = []

        def spy(*args):
            starts.append(len(tape))
            return nk.softmax_cross_entropy(*args)

        monkeypatch.setattr(topic, "softmax_cross_entropy", spy)
        rng = np.random.default_rng(9)
        model = TopicModel(small_vocab(), 2, 4, rng)
        docs = [TfIdfDoc({4: 2.0, 7: 1.0}), TfIdfDoc({5: 0.5})]
        with nk.Tape() as tape:
            elbo_loss(docs, model, rng.normal(size=(2, 2)))
        (first,) = starts
        term = [tape.records[first]]
        for rec in tape.records[first + 1:]:
            tracked = [id(t) for t in rec.inputs if t._tracked]
            if tracked and set(tracked) <= {id(r.output) for r in term}:
                term.append(rec)
        assert len(term) == 1

    def test_every_record_reaches_the_loss(self):
        # a record whose output never reaches the loss is work for nothing
        rng = np.random.default_rng(9)
        model = TopicModel(small_vocab(), 2, 4, rng)
        docs = [TfIdfDoc({4: 2.0, 7: 1.0}), TfIdfDoc({5: 0.5}), TfIdfDoc({})]
        with nk.Tape() as tape:
            loss = elbo_loss(docs, model, rng.normal(size=(3, 2)))
        assert len(tape) > 20 and dead_records(loss, tape) == []

    def test_batch_records_are_pinned(self):
        # encoder 8, reparameterisation 4, decoder 5, reconstruction 1, KL 7,
        # and the add and scale of the mean; 28 while the decoder ended in a
        # softmax record, 29 while the reconstruction took a sum of its own
        rng = np.random.default_rng(9)
        model = TopicModel(small_vocab(), 2, 4, rng)
        docs = [TfIdfDoc({4: 2.0, 7: 1.0}), TfIdfDoc({5: 0.5})]
        with nk.Tape() as tape:
            elbo_loss(docs, model, rng.normal(size=(2, 2)))
        assert len(tape) == 27

    def test_batch_is_mean_of_rows(self):
        rng = np.random.default_rng(7)
        model = TopicModel(small_vocab(), 2, 4, rng)
        for _, t in model.named_params():
            t.data[:] = rng.normal(size=t.data.shape) * 0.3
        docs = [TfIdfDoc({4: 2.0, 7: 1.0}), TfIdfDoc({5: 0.5}), TfIdfDoc({})]
        eps = rng.normal(size=(3, 2))
        rows = [elbo_loss([d], model, e[None]).item() for d, e in zip(docs, eps)]
        assert elbo_loss(docs, model, eps).item() == pytest.approx(np.mean(rows), rel=1e-12)
        params = [t for _, t in model.named_params()]
        assert grad_check(lambda: elbo_loss(docs, model, eps), params) < 1e-4

    @pytest.mark.parametrize("docs", [
        [TfIdfDoc({4: 2.0, 7: 1.0}), TfIdfDoc({7: 0.5, 5: 1.5}), TfIdfDoc({4: 1.0, 9: 3.0})],
        [TfIdfDoc({6: 1.0}), TfIdfDoc({}), TfIdfDoc({6: 2.0, 8: 0.25})],
        [TfIdfDoc({}), TfIdfDoc({})],
    ], ids=["shared_words", "with_empty_doc", "all_empty"])
    def test_batch_matches_dense_oracle(self, docs):
        rng = np.random.default_rng(8)
        model = TopicModel(small_vocab(), 2, 4, rng)
        for _, t in model.named_params():
            t.data[:] = rng.normal(size=t.data.shape) * 0.3
        eps = rng.normal(size=(len(docs), 2))
        dense = np.stack([to_dense(d, len(model.vocab)) for d in docs])
        expected = np_elbo(model, dense, eps)
        assert elbo_loss(docs, model, eps).item() == pytest.approx(expected, rel=1e-12, abs=1e-12)
        params = [t for _, t in model.named_params()]
        assert grad_check(lambda: elbo_loss(docs, model, eps), params) < 1e-4


class TestTraining:
    def test_zero_epochs_returns_initial_model(self):
        vocab = small_vocab()
        doc = TfIdfDoc({4: 1.0})
        config = TopicTrainConfig(topics=2, hidden=4, epochs=0, seed=9)
        model, trace = train_topic_model([doc], vocab, config)
        fresh = TopicModel(vocab, 2, 4, np.random.default_rng(9))
        for (_, trained), (_, init) in zip(model.named_params(), fresh.named_params()):
            assert np.array_equal(trained.data, init.data)
        assert trace == []

    def test_deterministic_given_seed(self):
        vocab = small_vocab()
        docs = [TfIdfDoc({4: 1.0, 5: 2.0}), TfIdfDoc({6: 1.0}), TfIdfDoc({7: 3.0})]
        config = TopicTrainConfig(topics=2, hidden=4, epochs=5, batch_size=2, seed=17)
        _, trace_a = train_topic_model(docs, vocab, config)
        _, trace_b = train_topic_model(docs, vocab, config)
        assert trace_a == trace_b

    def test_builds_no_dense_document_matrix(self, monkeypatch):
        # the encoder gets each batch's weights over the words it holds only
        encode_bag = topic._encode
        widths = []

        def refuse_dense(weights, cols, model):
            widths.append(weights.shape[1])
            if weights.shape[1] >= len(model.vocab):
                raise AssertionError("training densified a document")
            return encode_bag(weights, cols, model)

        monkeypatch.setattr(topic, "_encode", refuse_dense)
        docs = [TfIdfDoc({4: 1.0, 5: 2.0}), TfIdfDoc({6: 1.0}), TfIdfDoc({}), TfIdfDoc({7: 3.0})]
        config = TopicTrainConfig(topics=2, hidden=4, epochs=2, batch_size=3, seed=5)
        _, trace = train_topic_model(docs, small_vocab(), config)
        assert [epoch for epoch, _ in trace] == [1, 2]
        assert len(widths) == 4  # two batches per epoch

    def test_a_batch_is_freed_before_the_next_forward(self, monkeypatch):
        # one batch in memory: no array of a batch's gradients is alive when
        # the next batch's ELBO starts
        backward, loss = topic.backward, topic.elbo_loss
        refs, alive = [], []

        def keeping(*args):
            grads = backward(*args)
            refs.extend(gradient_array_refs(grads))
            return grads

        def checking(*args):
            if refs:
                alive.append(sum(ref() is not None for ref in refs))
            return loss(*args)

        monkeypatch.setattr(topic, "backward", keeping)
        monkeypatch.setattr(topic, "elbo_loss", checking)
        docs = [TfIdfDoc({4: 1.0, 5: 2.0}), TfIdfDoc({6: 1.0}), TfIdfDoc({7: 3.0}),
                TfIdfDoc({4: 2.0, 7: 1.0})]
        config = TopicTrainConfig(topics=2, hidden=4, epochs=2, batch_size=2, seed=3)
        train_topic_model(docs, small_vocab(), config)
        assert alive == [0, 0, 0]  # the four batches' forwards after the first

    def test_overflowing_gradient_norm_aborts_with_batch_id(self, monkeypatch):
        # a mean of 1e152 keeps the KL term finite, but with encoder hidden
        # units near 1e3 the squares of the mean layer's weight gradient
        # overflow: the step must abort, naming the norm and not a loss
        class Overflowing(TopicModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.enc_hidden.b.data[:] = 1e3
                self.enc_mu.b.data[:] = 1e152

        monkeypatch.setattr(topic, "TopicModel", Overflowing)
        docs = [TfIdfDoc({4: 1.0, 5: 2.0}), TfIdfDoc({6: 1.0})]
        config = TopicTrainConfig(topics=2, hidden=4, epochs=1, batch_size=2, seed=1)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError) as err:
            train_topic_model(docs, small_vocab(), config)
        assert str(err.value).endswith(
            "epoch 1, batch 0: global gradient norm is inf")
        assert "loss" not in str(err.value)

    def test_a_failing_later_batch_is_named_by_its_id(self, monkeypatch):
        # the second batch of two documents starts at document 2 and is batch 1
        backward = topic.backward
        calls = []

        def failing_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise FloatingPointError("injected")
            return backward(*args)

        monkeypatch.setattr(topic, "backward", failing_second)
        docs = [TfIdfDoc({4: 1.0}), TfIdfDoc({5: 1.0}), TfIdfDoc({6: 1.0}), TfIdfDoc({7: 1.0})]
        config = TopicTrainConfig(topics=2, hidden=4, epochs=1, batch_size=2, seed=1)
        with pytest.raises(RuntimeError, match="^topic training stopped at epoch 1, "
                                               "batch 1: injected$"):
            train_topic_model(docs, small_vocab(), config)

    def test_matches_a_dense_oracle_loop_bitwise(self):
        # the oracle fills every gradient densely (the dict form of backward,
        # zeros for the rest) and applies Adam in Kingma & Ba's efficient
        # form. Each batch reads under half of the words, so the rows of the
        # others must decay their moments and move exactly as with a zero
        # gradient: an Adam that skips them (a lazy one) fails here
        docs_tokens, _, _ = make_cluster_corpus(seed=3, n_docs=40, words_per_doc=6)
        vocab = build_vocab(docs_tokens, size_limit=54, remove_stopwords=True)
        docs = compute_tfidf(docs_tokens, vocab)
        config = TopicTrainConfig(topics=3, hidden=8, epochs=2, batch_size=4, lr=1e-2, seed=11)
        model, trace = train_topic_model(docs, vocab, config)

        rng = np.random.default_rng(config.seed)
        oracle = TopicModel(vocab, config.topics, config.hidden, rng)
        params = oracle.params()
        m = [np.zeros_like(p.data) for p in params]
        v = [np.zeros_like(p.data) for p in params]
        b1, b2, eps = 0.9, 0.999, 1e-8
        want, t = [], 0
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(len(docs))
            total = 0.0
            for start in range(0, len(docs), config.batch_size):
                batch = order[start:start + config.batch_size]
                noise = rng.standard_normal((len(batch), config.topics))
                with nk.Tape() as tape:
                    loss = elbo_loss([docs[i] for i in batch], oracle, noise)
                by_tensor = nk.backward(loss, tape)
                grads = [by_tensor[p] if p in by_tensor else np.zeros_like(p.data)
                         for p in params]
                norm = float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads)))
                if norm > GRAD_CLIP:
                    grads = [g * (GRAD_CLIP / norm) for g in grads]
                t += 1
                for i, (p, g) in enumerate(zip(params, grads)):
                    m[i] = b1 * m[i] + (1.0 - b1) * g
                    v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                    alpha = config.lr * math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
                    eps_hat = eps * math.sqrt(1.0 - b2 ** t)
                    p.data = p.data - m[i] / (np.sqrt(v[i]) + eps_hat) * alpha
                total += loss.item() * len(batch)
            want.append((epoch, total / len(docs)))
        assert trace == want
        for (name, got), (_, expected) in zip(model.named_params(), oracle.named_params()):
            assert got.data.tobytes() == expected.data.tobytes(), name

    def test_empty_docs_rejected(self):
        with pytest.raises(ValueError):
            train_topic_model([], small_vocab(), TopicTrainConfig())

    def test_repeated_document_overfits_to_profile(self):
        vocab = small_vocab()
        doc = TfIdfDoc({4: 3.0, 5: 2.0, 6: 1.0})
        config = TopicTrainConfig(topics=2, hidden=16, epochs=200, batch_size=16, lr=1e-2, seed=3)
        model, _ = train_topic_model([doc] * 16, vocab, config)
        target = to_dense(doc, len(vocab))
        target /= target.sum()
        mu, _, _ = _encode(*_bag([doc]), model)
        recon = np_softmax(decode(mu, model).data[0])
        assert np.abs(recon - target).sum() < 0.1

    def test_cluster_corpus_loss_descends(self, cluster_topic_model):
        losses = [loss for _, loss in cluster_topic_model["trace"]]
        smoothed = [float(np.mean(losses[max(0, i - 2):i + 1])) for i in range(len(losses))]
        for i in range(3, len(smoothed) - 1):
            assert smoothed[i + 1] <= smoothed[i]


class TestWordTopicVectors:
    def test_shapes_and_count(self):
        model = TopicModel(small_vocab(6), 2, 4, np.random.default_rng(0))
        vectors = word_topic_vectors(model)
        assert len(vectors) == 6
        assert vectors.matrix.shape == (6, 2)

    def test_reads_decoder_output_columns(self):
        model = TopicModel(small_vocab(6), 2, 4, np.random.default_rng(1))
        vectors = word_topic_vectors(model)
        for token, vector in zip(vectors.tokens, vectors.matrix):
            column = model.vocab.token_to_index[token]
            assert np.array_equal(vector, model.dec_out.w.data[:, column])

    def test_is_a_read_only_snapshot(self):
        model = TopicModel(small_vocab(6), 3, 4, np.random.default_rng(2))
        vectors = word_topic_vectors(model)
        before = vectors.matrix.copy()
        model.dec_out.w.data *= 2.0
        model.dec_out.w.data[:, 5] = 7.0
        assert np.array_equal(vectors.matrix, before)
        with pytest.raises(ValueError):
            vectors.matrix[vectors.rows["w0"], 0] = 1.0

    def test_rows_cover_the_non_reserved_tokens(self):
        model = TopicModel(small_vocab(3), 2, 4, np.random.default_rng(3))
        vectors = word_topic_vectors(model)
        assert vectors.tokens == ["w0", "w1", "w2"]
        assert vectors.rows == {"w0": 0, "w1": 1, "w2": 2}

    def test_cluster_separation(self, cluster_topic_model):
        vectors = word_topic_vectors(cluster_topic_model["model"])
        a = [vectors.matrix[vectors.rows[w]] for w in cluster_topic_model["cluster_a"]
             if w in vectors.rows]
        b = [vectors.matrix[vectors.rows[w]] for w in cluster_topic_model["cluster_b"]
             if w in vectors.rows]
        within = np.mean([np_cosine(u, v) for u in a[:10] for v in a[10:20]]
                         + [np_cosine(u, v) for u in b[:10] for v in b[10:20]])
        between = np.mean([np_cosine(u, v) for u in a[:10] for v in b[:10]])
        assert within > between

    def test_topic_top_words_are_pure(self, cluster_topic_model):
        tops = top_topic_words(cluster_topic_model["model"], 5)
        for words in tops:
            reds = sum(w.startswith("red") for w in words)
            assert max(reds, 5 - reds) / 5 >= 0.8
