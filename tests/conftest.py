"""Shared fixtures: a small Persona-Chat-format file, toy embeddings,
central-difference gradient checking, a model of named arrays for the
checkpoint tests, and plain-numpy oracle implementations used to
cross-check the tensor code."""

from __future__ import annotations

import math
import tracemalloc
import weakref
from typing import Callable

import numpy as np
import pytest

from personagen.checkpoint import Checkpoint, load_model
from personagen.numkit import Module, Tape, Tensor, backward

SAMPLE_CHAT = """\
1 your persona: i like music.
2 your persona: i like to skateboard.
3 your persona: i like the guitar.
4 your persona: i am a vegan.
5 wanna come over and watch the godfather?\ti do not have a car, i have a skateboard.
6 you can skateboard over. i do not live too far. i have candy and soda to share.\tno thanks, i do not eat any animal products.
7 i promise there are no animal products in my candy and soda.\tmost candy has some form of dairy. as a vegan i can not have that.
"""


@pytest.fixture
def sample_chat_file(tmp_path):
    path = tmp_path / "sample_chat.txt"
    path.write_text(SAMPLE_CHAT, encoding="utf-8")
    return path


def make_cluster_corpus(seed: int = 1234, n_docs: int = 200, cluster_size: int = 25,
                        words_per_doc: int = 20):
    """Two disjoint word clusters; even docs draw from red*, odd from blue*."""
    rng = np.random.default_rng(seed)
    cluster_a = [f"red{i:02d}" for i in range(cluster_size)]
    cluster_b = [f"blue{i:02d}" for i in range(cluster_size)]
    docs = []
    for i in range(n_docs):
        words = cluster_a if i % 2 == 0 else cluster_b
        docs.append([str(w) for w in rng.choice(words, size=words_per_doc)])
    return docs, cluster_a, cluster_b


@pytest.fixture(scope="session")
def cluster_topic_model():
    """Topic model trained on the synthetic 2-cluster corpus (shared: the
    training run is deterministic and takes well under a second)."""
    import time

    from personagen.corpus import build_vocab, compute_tfidf
    from personagen.topic import TopicTrainConfig, train_topic_model

    started = time.time()
    docs_tokens, cluster_a, cluster_b = make_cluster_corpus()
    vocab = build_vocab(docs_tokens, size_limit=54, remove_stopwords=True)
    docs = compute_tfidf(docs_tokens, vocab)
    config = TopicTrainConfig(topics=2, hidden=32, epochs=40, batch_size=50, lr=1e-2, seed=7)
    model, trace = train_topic_model(docs, vocab, config)
    return {
        "model": model,
        "trace": trace,
        "vocab": vocab,
        "docs": docs,
        "cluster_a": cluster_a,
        "cluster_b": cluster_b,
        "train_seconds": time.time() - started,
    }


TOY_THEMES = [
    ("guitar", "drums"),
    ("salad", "tofu"),
    ("skating", "ramps"),
    ("novels", "poems"),
    ("roses", "tulips"),
    ("soccer", "goals"),
    ("painting", "brushes"),
    ("espresso", "beans"),
]


def toy_dialogue_text() -> str:
    """Eight two-exchange dialogues whose responses reuse persona words, in
    the line-numbered dialogue file format."""
    lines = []
    for theme, side in TOY_THEMES:
        lines.append(f"1 your persona: i love {theme}.")
        lines.append(f"2 your persona: my buddy makes {side} all day.")
        lines.append("3 your persona: i work at the corner store.")
        lines.append(f"4 what do you like?\ti love {theme}.")
        lines.append(f"5 tell me more.\tmy {theme} makes me happy.")
    return "\n".join(lines) + "\n"


def toy_expansions() -> dict[int, list[str]]:
    """Hand-built expansion records: the dialogue's side word plus the next
    theme's word (all guaranteed in-vocabulary)."""
    records = {}
    for i, (_, side) in enumerate(TOY_THEMES):
        records[i] = [side, TOY_THEMES[(i + 1) % len(TOY_THEMES)][0]]
    return records


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("toy") / "dialogues.txt"
    path.write_text(toy_dialogue_text(), encoding="utf-8")
    return path


@pytest.fixture
def tiny_embeddings_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text(
        "music 1.0 0.0 0.5\n"
        "guitar 0.9 0.1 0.4\n"
        "vegan 0.0 1.0 0.2\n"
        "candy 0.1 0.9 0.1\n",
        encoding="utf-8",
    )
    return path


def traced_peak_bytes(fn) -> int:
    """The most bytes that ``fn()`` held allocated at once above what was
    allocated when it started, as tracemalloc counts them. numpy reports its
    array buffers to tracemalloc, so this counts the arrays ``fn`` makes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def gradient_array_refs(grads) -> list[weakref.ref]:
    """Weak references to every array that list-form gradients hold: dense
    arrays, a ``RowGrad``'s rows and both factors of ``Factors``."""
    from personagen.numkit import Factors, RowGrad

    arrays = []
    for grad in grads:
        if isinstance(grad, RowGrad):
            arrays.append(grad.rows)
        elif isinstance(grad, Factors):
            arrays.extend(grad)
        else:
            arrays.append(grad)
    return [weakref.ref(array) for array in arrays]


class ArrayModule(Module):
    """A model for the checkpoint tests: a vocabulary and one parameter per
    entry of ``arrays``, in order, each named by its key."""

    def __init__(self, vocab, arrays: dict[str, np.ndarray]):
        self.vocab = vocab
        for name, array in arrays.items():
            setattr(self, name, Tensor(array, requires_grad=True))


def load_like(path, kind: str, model) -> tuple[ArrayModule, Checkpoint]:
    """``load_model``'s ``(model, checkpoint)`` of the ``kind`` checkpoint at
    ``path``, read into an ``ArrayModule`` with the parameter names and
    shapes of ``model``."""
    return load_model(path, kind, lambda loaded: ArrayModule(
        loaded.vocab, {name: np.empty_like(t.data) for name, t in model.named_params()}))


# ---------------------------------------------------------------------------
# central-difference gradient verification
# ---------------------------------------------------------------------------


def grad_check(fn: Callable[[], Tensor], params: list[Tensor], eps: float = 1e-4) -> float:
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` must be a deterministic closure over ``params`` returning a scalar
    tensor. Every entry of every listed parameter is perturbed by +/- eps.
    Returns max over entries of |analytic - numeric| / max(1e-8, |analytic|
    + |numeric|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    with Tape() as tape:
        loss = fn()
    if loss.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    grad_map = backward(loss, tape)

    worst = 0.0
    for pi, p in enumerate(params):
        analytic = grad_map.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        analytic_flat = np.asarray(analytic).reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + eps
            plus = _evaluate(fn, pi, j, "+")
            flat[j] = original - eps
            minus = _evaluate(fn, pi, j, "-")
            flat[j] = original
            numeric = (plus - minus) / (2.0 * eps)
            denom = max(1e-8, abs(analytic_flat[j]) + abs(numeric))
            worst = max(worst, abs(analytic_flat[j] - numeric) / denom)
    return worst


def _evaluate(fn: Callable[[], Tensor], param_index: int, entry_index: int, direction: str) -> float:
    try:
        value = fn().item()
    except FloatingPointError as err:
        raise FloatingPointError(
            f"non-finite value while perturbing param {param_index} entry {entry_index} ({direction}eps)"
        ) from err
    if not math.isfinite(value):
        raise FloatingPointError(
            f"non-finite value while perturbing param {param_index} entry {entry_index} ({direction}eps)"
        )
    return value


# ---------------------------------------------------------------------------
# straight-line numpy oracles (independent of the tensor code paths)
# ---------------------------------------------------------------------------


def dense_matmul_rule(g, adata, bdata):
    """matmul's gradient rule for its second operand before factored
    gradients: the dense product. Patched over
    ``personagen.numkit.tensor._matmul_grad_b`` it gives the dense sweep."""
    return adata.T @ g


def densified(grad, param):
    """A per-parameter gradient (array, RowGrad or Factors) as a dense array
    of the parameter's shape."""
    from personagen.numkit import Factors, RowGrad

    if isinstance(grad, Factors):
        return grad.dense()
    if isinstance(grad, RowGrad):
        dense = np.zeros_like(param.data)
        dense[grad.indices] = grad.rows
        return dense
    return grad


def vstack(parts):
    """The rows of the matrices ``parts``, one after another, as one record:
    the oracles' join, since the model joins matrices only side by side."""
    from personagen.numkit.tensor import _finish

    datas = [p.data for p in parts]
    ends = np.cumsum([len(d) for d in datas])[:-1]
    return _finish(np.concatenate(datas), tuple(parts),
                   lambda g: [part.copy() for part in np.split(g, ends)])


def dead_records(loss, tape):
    """(index, primitive, output shape) of each record of ``tape`` whose
    output never reaches ``loss``."""
    reached = {id(loss)}
    for rec in reversed(tape.records):
        if id(rec.output) in reached:
            reached.update(id(t) for t in rec.inputs)
    # each primitive's closure is named <primitive>.<locals>.backward_fn
    return [(i, rec.backward_fn.__qualname__.split(".")[0], rec.output.shape)
            for i, rec in enumerate(tape.records) if id(rec.output) not in reached]


def relative_error(got, want) -> float:
    """grad_check's entry-wise measure, |got - want| / max(1e-8, |got| +
    |want|), maximised."""
    return float((np.abs(got - want) / np.maximum(1e-8, np.abs(got) + np.abs(want))).max())


def np_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=np.float64)))


def np_softmax(v):
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(v - v.max())
    return e / e.sum()


def np_log_softmax(v):
    """log-softmax over the last axis."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def np_gru_step(x, h, p):
    x = np.asarray(x)
    h = np.asarray(h)
    z = np_sigmoid(x @ p.w_z.data + h @ p.u_z.data + p.b_z.data)
    r = np_sigmoid(x @ p.w_r.data + h @ p.u_r.data + p.b_r.data)
    n = np.tanh(x @ p.w_n.data + (r * h) @ p.u_n.data + p.b_n.data)
    return (1.0 - z) * h + z * n


def np_bigru(seq, fwd, bwd):
    seq = [np.asarray(x) for x in seq]
    h = np.zeros(fwd.hidden_dim)
    fwd_states = []
    for x in seq:
        h = np_gru_step(x, h, fwd)
        fwd_states.append(h)
    h = np.zeros(bwd.hidden_dim)
    bwd_states = [None] * len(seq)
    for t in reversed(range(len(seq))):
        h = np_gru_step(seq[t], h, bwd)
        bwd_states[t] = h
    steps = [np.concatenate([f, b]) for f, b in zip(fwd_states, bwd_states)]
    final = np.concatenate([fwd_states[-1], bwd_states[0]])
    return steps, final


def np_affine(x, layer):
    return np.asarray(x) @ layer.w.data + layer.b.data


def np_tanh_mlp(x, mlp):
    return np.tanh(np_affine(x, mlp))


def np_retrieve(q, keys, values):
    scores = np.asarray(keys) @ np.asarray(q)
    weights = np_softmax(scores)
    return weights @ np.asarray(values), weights


def np_cosine(u1, u2):
    """Cosine of two vectors, 0 when either is zero."""
    n1 = float(np.linalg.norm(u1))
    n2 = float(np.linalg.norm(u2))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return float(np.dot(u1, u2) / (n1 * n2))


def to_dense(doc, size: int) -> np.ndarray:
    """A TfIdfDoc's weights as a dense vector of ``size`` entries."""
    dense = np.zeros(size)
    for index, weight in doc.weights.items():
        dense[index] = weight
    return dense


def top_topic_words(model, count: int) -> list[list[str]]:
    """Highest-weight vocabulary words per topic of a TopicModel's decoder
    output layer (reserved slots excluded)."""
    from personagen.corpus import RESERVED_TOKENS

    weight = model.dec_out.w.data
    start = len(RESERVED_TOKENS)
    result = []
    for k in range(model.topics):
        order = np.argsort(-weight[k, start:])[:count]
        result.append([model.vocab.token(start + int(i)) for i in order])
    return result
