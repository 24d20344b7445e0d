"""Multi-source sequence encoders, the persona-oriented decoder, and
beam-search generation (greedy decoding is beam width 1).

Only the decoder GRU is recurrent: everything after it (history attention,
the multi-hop persona read and the output layer, ``decoder_output``) takes
the new state alone. So teacher forcing runs the GRU once over the whole
response and ``decoder_output`` once over the (T, H) state matrix, while
generation runs one decoder step at a time on a (k, H) matrix of states, one
row per beam hypothesis, so beam search reads the output weights once per
step. The decoder hands out the output layer's activations, the logits of
the token distribution: NLL scores them in one ``softmax_cross_entropy``
record and beam search ranks tokens by their log-softmax. The encoders run
every sentence of a level as one row of one GRU record per direction.

Dimension conventions: word embeddings are E-dimensional; each Bi-GRU
direction uses hidden size H/2 so concatenated sequence states are
H-dimensional, where H is the shared model hidden size; memory keys, memory
values and the decoder state are all H-dimensional so additive query updates
type-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LossSettings
from .corpus import EOS, SOS, UNK, DialogueExample, EmbeddingTable, Vocabulary
from .losses import (
    joint_loss,
    nll_loss,
    p_bows_loss,
    p_bows_targets,
    p_match_loss,
    p_match_targets,
)
from .memory import (
    KeyValueMemory,
    build_memory,
    multihop,
    persona_information_retrieval,
)
from .numkit import (
    Affine,
    GruParams,
    Module,
    TanhMlp,
    Tensor,
    additive_attention_weights,
    bigru_encode,
    concat,
    gru_cell,
    gru_sequence,
    lookup,
    matmul,
    uniform_param,
    zero_param,
)
from .stopwords import content_words


class PersonaEncoderParams(Module):
    """Shared Bi-GRU over persona tokens plus the two key/value network pairs."""

    def __init__(self, emb_dim: int, hidden: int, rng: np.random.Generator):
        self.fwd = GruParams(emb_dim, hidden // 2, rng)
        self.bwd = GruParams(emb_dim, hidden // 2, rng)
        self.sent_key = TanhMlp(hidden, hidden, rng)
        self.sent_value = TanhMlp(hidden, hidden, rng)
        self.word_key = TanhMlp(hidden, hidden, rng)
        self.word_value = TanhMlp(hidden, hidden, rng)


class HistoryEncoderParams(Module):
    """Word-level Bi-GRU per utterance, utterance-level Bi-GRU over those."""

    def __init__(self, emb_dim: int, hidden: int, rng: np.random.Generator):
        self.word_fwd = GruParams(emb_dim, hidden // 2, rng)
        self.word_bwd = GruParams(emb_dim, hidden // 2, rng)
        self.utt_fwd = GruParams(hidden, hidden // 2, rng)
        self.utt_bwd = GruParams(hidden, hidden // 2, rng)


class DecoderParams(Module):
    """GRU cell, history attention, output layer, and state initializer."""

    def __init__(self, emb_dim: int, hidden: int, vocab_size: int, rng: np.random.Generator):
        self.cell = GruParams(emb_dim, hidden, rng)
        self.attn_ws = uniform_param(rng, (hidden, hidden))
        self.attn_wt = uniform_param(rng, (hidden, hidden))
        self.attn_b = zero_param((hidden,))
        self.attn_v = uniform_param(rng, (hidden,))
        self.out = Affine(4 * hidden, vocab_size, rng)
        self.init_proj = Affine(2 * hidden, hidden, rng)


def _encode_sentences(sentences: list[list[int]], fwd: GruParams, bwd: GruParams,
                      embedding: Tensor) -> tuple[Tensor, Tensor]:
    """Bi-GRU over each sentence, all sentences as rows of one record per
    direction: the (n, 2H) matrix of final states, and the per-token states
    of all sentences, in sentence order, as one (tokens, 2H) matrix."""
    tokens = lookup(embedding, [token for sentence in sentences for token in sentence])
    ahead, behind, finals = bigru_encode(
        tokens, fwd, bwd, [len(sentence) for sentence in sentences])
    return finals, concat([ahead, behind])


def encode_persona(persona_sentences: list[list[int]], params: PersonaEncoderParams,
                   embedding: Tensor) -> tuple[KeyValueMemory, KeyValueMemory]:
    """Build the sentence-granularity and word-granularity persona memories.

    Every sentence contributes one sentence slot (its Bi-GRU final state) and
    one word slot per token (the per-step states).
    """
    if not persona_sentences:
        raise ValueError("encode_persona needs at least one persona sentence")
    sentence_reps, word_reps = _encode_sentences(
        persona_sentences, params.fwd, params.bwd, embedding)
    mem_s = build_memory(sentence_reps, params.sent_key, params.sent_value)
    mem_w = build_memory(word_reps, params.word_key, params.word_value)
    return mem_s, mem_w


def encode_history(history: list[list[int]], params: HistoryEncoderParams,
                   embedding: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Hierarchical encoding of the dialogue history.

    The word level encodes each utterance into a sentence vector C_i, row i
    of the (k, H) matrix returned second, and exposes every per-token state,
    as one (tokens, H) matrix, for decoder attention; the utterance level
    consumes C_1..C_k in turn order and its final state summarizes the whole
    history.
    """
    if not history:
        raise ValueError("encode_history needs at least one utterance")
    sentence_vectors, word_states = _encode_sentences(
        history, params.word_fwd, params.word_bwd, embedding)
    _, _, e_x = bigru_encode(sentence_vectors, params.utt_fwd, params.utt_bwd, [len(history)])
    return e_x, sentence_vectors, word_states


def init_state(e_x: Tensor, o_k: Tensor, init_proj: Affine) -> Tensor:
    """Project the concatenated history summary and final retrieval output,
    one row each, to the decoder hidden size: the (1, H) initial decoder
    state."""
    return init_proj(concat([e_x, o_k]))


def history_memory(word_states: Tensor, params: DecoderParams) -> KeyValueMemory:
    """The history words as a memory, built once per example: slot i's key is
    row i of ``word_states @ attn_wt + attn_b``, the step-independent half of
    the additive attention's pre-activation, and its value word state i."""
    return KeyValueMemory(matmul(word_states, params.attn_wt) + params.attn_b, word_states)


def attend_history(s_t: Tensor, mem_h: KeyValueMemory,
                   params: DecoderParams) -> tuple[Tensor, Tensor]:
    """Additive attention over the ``history_memory`` ``mem_h``.

    For the (k, H) states ``s_t``, returns the (k, word_dim) contexts and the
    (k, n) attention distributions (one ``additive_attention_weights``
    record), one row per state row.
    """
    query = matmul(s_t, params.attn_ws)                       # (k, attn)
    weights = additive_attention_weights(query, mem_h.keys, params.attn_v)
    return matmul(weights, mem_h.values), weights


def decoder_output(s_t: Tensor, mem_h: KeyValueMemory, mem_w: KeyValueMemory,
                   mem_e: KeyValueMemory, params: DecoderParams, hops: int,
                   ) -> tuple[Tensor, dict[str, Tensor | None]]:
    """Everything of a decoder step after the GRU.

    Attends over the history memory, runs the multi-hop read over both
    persona word memories, and maps [state; history context; word read;
    external read] through the output layer. Returns the output activations,
    the logits of the token distribution, and each read's weights by its
    ``--diagnostics`` name (None for an empty memory), one row per row of
    the (k, H) states ``s_t``, each read on its own: the hypotheses of a
    beam step, or every step of a teacher-forced response; the output layer
    is one (k, 4H) GEMM.
    """
    u_x, attn_weights = attend_history(s_t, mem_h, params)
    hop = multihop(s_t, mem_w, mem_e, hops)
    activations = params.out(concat([s_t, u_x, hop.o_w, hop.o_e]))
    return activations, {
        "attention": attn_weights, "word_memory": hop.w_weights,
        "external_memory": hop.e_weights}


def decode_step(prev: list[int], state: Tensor, mem_h: KeyValueMemory,
                mem_w: KeyValueMemory, mem_e: KeyValueMemory, params: DecoderParams,
                hops: int, embedding: Tensor,
                ) -> tuple[Tensor, Tensor, dict[str, Tensor | None]]:
    """One decoder step: the GRU on the previous token's embedding, then
    ``decoder_output``.

    Returns the output activations (the token logits), the new state, and
    the reads' weights. ``prev`` is a list of k token ids with a (k, H)
    ``state``: k independent steps whose results are rows.
    """
    s_t = gru_cell(lookup(embedding, prev), state, params.cell)
    activations, diag = decoder_output(s_t, mem_h, mem_w, mem_e, params, hops)
    return activations, s_t, diag


@dataclass
class BoundExample:
    """A DialogueExample resolved against the model vocabulary, with the
    conversation's expansion tokens attached."""

    example: DialogueExample
    persona_ids: list[list[int]]
    history_ids: list[list[int]]
    response_ids: list[int]
    expansion_tokens: list[str]
    expansion_ids: list[int]


def bind_example(example: DialogueExample, vocab: Vocabulary,
                 expansion_tokens: list[str] | None = None) -> BoundExample:
    expansion_tokens = list(expansion_tokens or [])
    expansion_ids = [vocab.token_to_index[t] for t in expansion_tokens if t in vocab.token_to_index]
    return BoundExample(
        example=example,
        persona_ids=[vocab.encode(s) if s else [UNK] for s in example.persona_sentences],
        history_ids=[vocab.encode(u) if u else [UNK] for u in example.history],
        response_ids=vocab.encode(example.response),
        expansion_tokens=expansion_tokens,
        expansion_ids=expansion_ids,
    )


@dataclass
class LossBreakdown:
    joint: Tensor
    nll: Tensor
    p_match: Tensor
    p_bows: Tensor
    match_weights: Tensor


class DialogueModel(Module):
    """The full persona-grounded encoder/retriever/decoder stack."""

    def __init__(self, vocab: Vocabulary, emb_dim: int, hidden: int, hops: int,
                 rng: np.random.Generator, pretrained: EmbeddingTable | None = None):
        if hidden % 2 != 0 or hidden < 2:
            raise ValueError("hidden size must be even and at least 2")
        self.vocab = vocab
        self.emb_dim = emb_dim
        self.hidden = hidden
        self.hops = hops

        self.embedding = uniform_param(rng, (len(vocab), emb_dim))
        if pretrained is not None:
            if pretrained.dim != emb_dim:
                raise ValueError(f"pretrained dim {pretrained.dim} != emb_dim {emb_dim}")
            for token, vector in pretrained.vectors.items():
                index = vocab.token_to_index.get(token)
                if index is not None:
                    self.embedding.data[index] = vector

        self.persona = PersonaEncoderParams(emb_dim, hidden, rng)
        self.history = HistoryEncoderParams(emb_dim, hidden, rng)
        self.c_proj = Affine(hidden, hidden, rng)
        self.e_key = TanhMlp(emb_dim, hidden, rng)
        self.e_value = TanhMlp(emb_dim, hidden, rng)
        self.decoder = DecoderParams(emb_dim, hidden, len(vocab), rng)

    def external_memory(self, expansion_ids: list[int]) -> KeyValueMemory:
        if not expansion_ids:
            return KeyValueMemory.empty(self.hidden, self.hidden)
        return build_memory(lookup(self.embedding, expansion_ids), self.e_key, self.e_value)

    def _encode(self, bound: BoundExample):
        """Everything the decoder reads, and the last PIR step's weights."""
        mem_s, mem_w = encode_persona(bound.persona_ids, self.persona, self.embedding)
        e_x, sentence_vectors, word_states = encode_history(
            bound.history_ids, self.history, self.embedding)
        queries = self.c_proj(sentence_vectors)
        o_k, match_weights = persona_information_retrieval(queries, mem_s)
        state = init_state(e_x, o_k, self.decoder.init_proj)
        mem_e = self.external_memory(bound.expansion_ids)
        mem_h = history_memory(word_states, self.decoder)
        return mem_h, mem_w, mem_e, state, match_weights

    def example_loss(self, bound: BoundExample, settings: LossSettings) -> LossBreakdown:
        """Teacher-forced joint loss of one example.

        The decoder GRU runs once over [SOS] + response, one record; then
        ``decoder_output`` runs once over its (T, H) states.
        """
        mem_h, mem_w, mem_e, state, match_weights = self._encode(bound)
        inputs = [SOS] + bound.response_ids
        targets = bound.response_ids + [EOS]
        states = gru_sequence(lookup(self.embedding, inputs), state, self.decoder.cell,
                              [len(inputs)])
        activations, _ = decoder_output(states, mem_h, mem_w, mem_e, self.decoder, self.hops)
        nll = nll_loss(activations, targets)
        match = p_match_loss(match_weights, p_match_targets(
            bound.example.persona_sentences, bound.example.response, settings.match_threshold))
        persona_words = self.persona_word_set(bound)
        bows_target = p_bows_targets(
            bound.example.response, persona_words, self.vocab, settings.bows_extra_weight)
        bows = p_bows_loss(activations, bows_target)
        total = joint_loss(nll, match, bows, settings.gamma_match, settings.gamma_bows)
        return LossBreakdown(total, nll, match, bows, match_weights)

    def persona_word_set(self, bound: BoundExample) -> set[str]:
        """Predefined persona content words plus the expansion tokens."""
        words = content_words(bound.example.persona_sentences)
        words.update(bound.expansion_tokens)
        return words

    def generate(self, bound: BoundExample, mode: str, beam_width: int, max_len: int,
                 collect_diagnostics: bool = False):
        """Generate a response token list (EOS excluded).

        Beam search ranks hypotheses by summed log probability with no length
        normalization, retiring EOS-terminated hypotheses and comparing them
        by the same score. Greedy is beam search of width 1, so it picks the
        argmax token each step. Ties break toward lower token indices.

        With ``collect_diagnostics``, also returns the persona match weights
        and the ``memory_attention`` of the step that chose the response's
        last token (the EOS step when one ended it).
        """
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        if beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if mode not in ("greedy", "beam"):
            raise ValueError(f"unknown generation mode {mode!r}")
        mem_h, mem_w, mem_e, state, match_weights = self._encode(bound)
        width = 1 if mode == "greedy" else beam_width
        ids, (diag, row) = self._beam(state, mem_h, mem_w, mem_e, width, max_len)
        tokens = [self.vocab.token(i) for i in ids]
        if collect_diagnostics:
            return tokens, {
                "match_weights": match_weights.data[0].tolist(),
                "memory_attention": _step_record(diag, row),
            }
        return tokens

    def _beam(self, rows, mem_h, mem_w, mem_e, beam_width, max_len):
        """The best hypothesis' token ids, and the (diagnostics, row) of the
        decode step that chose its last token, from the (1, H) start state
        ``rows``."""
        # hypotheses: (summed log prob, token tuple, (diagnostics, row) of the
        # step that chose the last token); row i of `rows` is live hypothesis
        # i's decoder state
        live = [(0.0, (), None)]
        finished = []
        for _ in range(max_len):
            prev = [tokens[-1] if tokens else SOS for _, tokens, _ in live]
            activations, rows, diag = decode_step(
                prev, rows, mem_h, mem_w, mem_e, self.decoder, self.hops, self.embedding)
            shifted = activations.data - activations.data.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            candidates = [(score + float(log_probs[i, token]), tokens + (int(token),), (diag, i))
                          for i, (score, tokens, _) in enumerate(live)
                          for token in _top_k(log_probs[i], beam_width)]
            candidates.sort(key=lambda c: (-c[0], c[1]))
            live = []
            for candidate in candidates:
                (finished if candidate[1][-1] == EOS else live).append(candidate)
                if len(live) >= beam_width:
                    break
            if not live:
                break
            rows = lookup(rows, [row for _, _, (_, row) in live])
        _, best, chosen = min(finished + live, key=lambda c: (-c[0], c[1]))
        return [i for i in best if i != EOS], chosen


def _step_record(diag: dict[str, Tensor | None], row: int) -> dict[str, list[float]]:
    """Each read's weights in one step's ``row``, leaving out an empty
    memory's."""
    return {name: weights.data[row].tolist() for name, weights in diag.items()
            if weights is not None}


def _top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, largest first, ties toward lower
    indices: ``np.argsort(-values, kind="stable")[:k]`` in O(V) rather than
    O(V log V). Only the entries at or above the k-th largest value are sorted.
    """
    pivot = max(values.size - k, 0)
    kth = np.partition(values, pivot)[pivot]
    candidates = np.flatnonzero(values >= kth)
    return candidates[np.argsort(-values[candidates], kind="stable")[:k]]
