"""Variational topic model over tf-idf conversation vectors.

A diagonal-Gaussian encoder compresses a document, read as a sparse bag of
tf-idf weights, into a latent of the same dimension as the topic count; the
decoder reconstructs a distribution over the topic vocabulary as the softmax
of its output layer's logits. After training, the output layer's weight
matrix (topics x vocabulary) is read column-wise as a topic-space
representation for every vocabulary word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TopicConfig
from .corpus import RESERVED_TOKENS, TfIdfDoc, Vocabulary
from .numkit import (
    AdamState,
    Affine,
    Module,
    Tape,
    Tensor,
    adam_step,
    add,
    backward,
    clip_global_norm,
    exp,
    lookup,
    matmul,
    mul,
    scale,
    softmax_cross_entropy,
    softplus,
    sub,
    sum_,
)


# every layer's initial weight range, and the global gradient norm bound
INIT_SCALE = 0.05
GRAD_CLIP = 5.0


class TopicModel(Module):
    def __init__(self, vocab: Vocabulary, topics: int, hidden: int, rng: np.random.Generator):
        self.vocab = vocab
        self.topics = topics
        self.enc_hidden = Affine(len(vocab), hidden, rng, INIT_SCALE)
        self.enc_mu = Affine(hidden, topics, rng, INIT_SCALE)
        self.enc_logvar = Affine(hidden, topics, rng, INIT_SCALE)
        self.dec_hidden = Affine(topics, topics, rng, INIT_SCALE)
        self.dec_out = Affine(topics, len(vocab), rng, INIT_SCALE)


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row of a (rows, d) matrix."""
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix))


class TopicSpace:
    """Topic-space vectors of a token list: ``matrix[rows[token]]`` is
    ``token``'s vector and ``norms[rows[token]]`` its norm, both read-only.

    The norms are computed once, from a C-contiguous copy of ``matrix``, so
    they equal ``row_norms`` of any rows gathered from it bit for bit,
    whatever the layout of ``matrix``.
    """

    def __init__(self, tokens: list[str], matrix: np.ndarray):
        if matrix.shape[0] != len(tokens):
            raise ValueError(f"{len(tokens)} tokens for a matrix of {matrix.shape[0]} rows")
        self.tokens = tokens
        self.rows = {token: row for row, token in enumerate(tokens)}
        self.matrix = matrix.view()
        self.matrix.flags.writeable = False
        self.norms = row_norms(np.ascontiguousarray(matrix))
        self.norms.flags.writeable = False

    def __len__(self) -> int:
        return len(self.tokens)


def _bag(docs: list[TfIdfDoc]) -> tuple[np.ndarray, np.ndarray]:
    """(weights, cols) of a list of documents: ``cols`` is the sorted union
    of their word ids and ``weights[b, k]`` document b's tf-idf weight of
    word ``cols[k]``."""
    cols = np.unique(np.fromiter((i for doc in docs for i in doc.weights), dtype=np.intp))
    weights = np.zeros((len(docs), cols.size))
    for row, doc in enumerate(docs):
        weights[row, np.searchsorted(cols, list(doc.weights))] = list(doc.weights.values())
    return weights, cols


def _encode(weights: np.ndarray, cols: np.ndarray, model: TopicModel
            ) -> tuple[Tensor, Tensor, Tensor]:
    """A ``_bag`` of documents -> (mu, log variance, encoder hidden), one row
    per document; the input layer reads only the rows of the words present."""
    layer = model.enc_hidden
    h_v = softplus(add(matmul(weights, lookup(layer.w, cols)), layer.b))
    return model.enc_mu(h_v), model.enc_logvar(h_v), h_v


def reparameterize(mu: Tensor, logvar: Tensor, eps) -> Tensor:
    """z = mu + exp(logvar / 2) * eps, elementwise."""
    sigma = exp(scale(logvar, 0.5))
    return mu + mul(sigma, eps)


def decode(z, model: TopicModel) -> Tensor:
    """Latent rows -> the output layer's logits over the topic vocabulary,
    one row each; their softmax is the reconstruction distribution."""
    h = softplus(model.dec_hidden(z))
    return model.dec_out(h)


def elbo_loss(docs: list[TfIdfDoc], model: TopicModel, eps) -> Tensor:
    """Mean negative ELBO over documents: reconstruction cross-entropy (tf-idf
    weights as soft counts) plus the closed-form Gaussian KL to N(0, I).

    ``eps`` has shape (len(docs), topics). The reconstruction term is one
    weighted ``softmax_cross_entropy`` record over the batch's words, the
    union of its documents' words; a word absent from a document weighs 0 in
    its row.
    """
    weights, cols = _bag(docs)
    mu, logvar, _ = _encode(weights, cols, model)
    z = reparameterize(mu, logvar, eps)
    recon = softmax_cross_entropy(decode(z, model), np.broadcast_to(cols, weights.shape),
                                  weights)
    kl = scale(sum_(sub(mul(mu, mu) + exp(logvar), logvar) - 1.0), 0.5)
    return scale(recon + kl, 1.0 / len(docs))


@dataclass
class TopicTrainConfig(TopicConfig):
    """The topic section and the run's seed."""

    seed: int = 0


def train_topic_model(docs: list[TfIdfDoc], vocab: Vocabulary,
                      config: TopicTrainConfig) -> tuple[TopicModel, list[tuple[int, float]]]:
    """Minimize mean negative ELBO with Adam over shuffled mini-batches.

    Returns the trained model and a per-epoch (epoch, mean loss) trace. All
    randomness (init, shuffling, latent noise) flows from the config seed, so
    two runs with the same seed produce identical traces.
    """
    if not docs:
        raise ValueError("train_topic_model needs at least one document")
    rng = np.random.default_rng(config.seed)
    model = TopicModel(vocab, config.topics, config.hidden, rng)
    params = model.params()
    state = AdamState(params, lr=config.lr)

    trace: list[tuple[int, float]] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(docs))
        total = 0.0
        for batch_id, start in enumerate(range(0, len(docs), config.batch_size)):
            batch = order[start:start + config.batch_size]
            eps = rng.standard_normal((len(batch), model.topics))
            try:
                with Tape() as tape:
                    loss = elbo_loss([docs[i] for i in batch], model, eps)
                grads = backward(loss, tape, params)
                clip_global_norm(grads, GRAD_CLIP)
            except FloatingPointError as err:
                raise RuntimeError(f"topic training stopped at epoch {epoch}, "
                                   f"batch {batch_id}: {err}") from err
            adam_step(params, grads, state)
            total += loss.item() * len(batch)
            # freed before the next batch's forward: one batch is alive at a time
            del tape, loss, grads
        trace.append((epoch, total / len(docs)))
    return model, trace


def word_topic_vectors(model: TopicModel) -> TopicSpace:
    """Column of the decoder output weights for every non-reserved token, as
    rows of one matrix copied from the weights (later training leaves it be).

    The copy is one contiguous (topics, words) array and the space's
    ``matrix`` its transpose, so scoring against the whole space multiplies
    by a row-major operand.
    """
    start = len(RESERVED_TOKENS)
    tokens = [model.vocab.token(index) for index in range(start, len(model.vocab))]
    return TopicSpace(tokens, model.dec_out.w.data[:, start:].copy().T)
