"""Multi-source sequence encoders, the persona-oriented decoder, and
beam-search generation (greedy decoding is beam width 1).

Dimension conventions: word embeddings are E-dimensional; each Bi-GRU
direction uses hidden size H/2 so concatenated sequence states are
H-dimensional, where H is the shared model hidden size; memory keys, memory
values and the decoder state are all H-dimensional so additive query updates
type-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import EOS, SOS, UNK, DialogueExample, EmbeddingTable, Vocabulary
from .losses import (
    PMatchTarget,
    joint_loss,
    nll_loss,
    p_bows_loss,
    p_bows_targets,
    p_match_loss,
    p_match_targets,
)
from .memory import (
    KeyValueMemory,
    MultihopResult,
    build_memory,
    multihop,
    persona_information_retrieval,
)
from .numkit import (
    PROB_FLOOR,
    Affine,
    GruParams,
    TanhMlp,
    Tensor,
    bigru_encode,
    concat,
    gru_cell,
    lookup,
    matmul,
    softmax,
    stack,
    tanh,
    uniform_param,
    zero_param,
)
from .stopwords import is_stopword


@dataclass
class PersonaEncoderParams:
    """Shared Bi-GRU over persona tokens plus the two key/value network pairs."""

    fwd: GruParams
    bwd: GruParams
    sent_key: TanhMlp
    sent_value: TanhMlp
    word_key: TanhMlp
    word_value: TanhMlp

    @classmethod
    def create(cls, emb_dim: int, direction_hidden: int, memory_dim: int,
               rng: np.random.Generator) -> "PersonaEncoderParams":
        rep_dim = 2 * direction_hidden
        return cls(
            fwd=GruParams.create(emb_dim, direction_hidden, rng),
            bwd=GruParams.create(emb_dim, direction_hidden, rng),
            sent_key=TanhMlp(rep_dim, memory_dim, rng),
            sent_value=TanhMlp(rep_dim, memory_dim, rng),
            word_key=TanhMlp(rep_dim, memory_dim, rng),
            word_value=TanhMlp(rep_dim, memory_dim, rng),
        )

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        params = self.fwd.named_params(f"{prefix}.fwd") + self.bwd.named_params(f"{prefix}.bwd")
        for name, mlp in (("sent_key", self.sent_key), ("sent_value", self.sent_value),
                          ("word_key", self.word_key), ("word_value", self.word_value)):
            params.extend(mlp.named_params(f"{prefix}.{name}"))
        return params


@dataclass
class HistoryEncoderParams:
    """Word-level Bi-GRU per utterance, utterance-level Bi-GRU over those."""

    word_fwd: GruParams
    word_bwd: GruParams
    utt_fwd: GruParams
    utt_bwd: GruParams

    @classmethod
    def create(cls, emb_dim: int, direction_hidden: int, rng: np.random.Generator) -> "HistoryEncoderParams":
        rep_dim = 2 * direction_hidden
        return cls(
            word_fwd=GruParams.create(emb_dim, direction_hidden, rng),
            word_bwd=GruParams.create(emb_dim, direction_hidden, rng),
            utt_fwd=GruParams.create(rep_dim, direction_hidden, rng),
            utt_bwd=GruParams.create(rep_dim, direction_hidden, rng),
        )

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return (self.word_fwd.named_params(f"{prefix}.word_fwd")
                + self.word_bwd.named_params(f"{prefix}.word_bwd")
                + self.utt_fwd.named_params(f"{prefix}.utt_fwd")
                + self.utt_bwd.named_params(f"{prefix}.utt_bwd"))


@dataclass
class DecoderParams:
    """GRU cell, history attention, output layer, and state initializer."""

    cell: GruParams
    attn_ws: Tensor
    attn_wt: Tensor
    attn_b: Tensor
    attn_v: Tensor
    out: Affine
    init_proj: Affine

    @classmethod
    def create(cls, emb_dim: int, hidden: int, word_state_dim: int, vocab_size: int,
               rng: np.random.Generator) -> "DecoderParams":
        attn_dim = hidden
        return cls(
            cell=GruParams.create(emb_dim, hidden, rng),
            attn_ws=uniform_param(rng, (hidden, attn_dim)),
            attn_wt=uniform_param(rng, (word_state_dim, attn_dim)),
            attn_b=zero_param((attn_dim,)),
            attn_v=uniform_param(rng, (attn_dim,)),
            out=Affine(hidden + word_state_dim + 2 * hidden, vocab_size, rng),
            init_proj=Affine(word_state_dim + hidden, hidden, rng),
        )

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        params = self.cell.named_params(f"{prefix}.cell")
        params += [(f"{prefix}.attn_ws", self.attn_ws), (f"{prefix}.attn_wt", self.attn_wt),
                   (f"{prefix}.attn_b", self.attn_b), (f"{prefix}.attn_v", self.attn_v)]
        params += self.out.named_params(f"{prefix}.out")
        params += self.init_proj.named_params(f"{prefix}.init_proj")
        return params


@dataclass
class DecoderState:
    hidden: Tensor
    step: int = 0


def _encode_sentences(sentences: list[list[int]], fwd: GruParams, bwd: GruParams,
                      embedding: Tensor) -> tuple[list[Tensor], Tensor]:
    """Bi-GRU over each sentence: every sentence's final state, and the
    per-token states of all sentences as one (tokens, 2H) matrix."""
    encoded = [bigru_encode(lookup(embedding, sentence), fwd, bwd) for sentence in sentences]
    return [final for _, final in encoded], concat([steps for steps, _ in encoded])


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
    mem_s = build_memory(stack(sentence_reps), params.sent_key, params.sent_value)
    mem_w = build_memory(word_reps, params.word_key, params.word_value)
    return mem_s, mem_w


def encode_history(history: list[list[int]], params: HistoryEncoderParams,
                   embedding: Tensor) -> tuple[Tensor, list[Tensor], Tensor]:
    """Hierarchical encoding of the dialogue history.

    The word level encodes each utterance into a sentence vector C_i and
    exposes every per-token state, as one (tokens, H) matrix, for decoder
    attention; the utterance level consumes C_1..C_k in turn order and its
    final state summarizes the whole history.
    """
    if not history:
        raise ValueError("encode_history needs at least one utterance")
    sentence_vectors, word_states = _encode_sentences(
        history, params.word_fwd, params.word_bwd, embedding)
    _, e_x = bigru_encode(stack(sentence_vectors), params.utt_fwd, params.utt_bwd)
    return e_x, sentence_vectors, word_states


def init_state(e_x: Tensor, o_k: Tensor, init_proj: Affine) -> DecoderState:
    """Project the concatenated history summary and final retrieval output to
    the decoder hidden size."""
    return DecoderState(hidden=init_proj(concat([e_x, o_k])), step=0)


def attend_history(s_t: Tensor, word_states: Tensor, params: DecoderParams) -> tuple[Tensor, Tensor]:
    """Additive attention over history word states.

    ``word_states`` is the stacked (n, word_dim) matrix. Returns the context
    vector and the attention distribution.
    """
    # (n, attn) = broadcast of (attn,) + (n, attn) + (attn,)
    pre = tanh(matmul(s_t, params.attn_ws) + matmul(word_states, params.attn_wt) + params.attn_b)
    scores = matmul(pre, params.attn_v)       # (n,)
    weights = softmax(scores, axis=-1)
    return matmul(weights, word_states), weights


@dataclass
class StepDiagnostics:
    attention: Tensor
    hop_w_weights: list[Tensor | None] = field(default_factory=list)
    hop_e_weights: list[Tensor | None] = field(default_factory=list)


def decoder_features(prev_token: int, state: DecoderState, mem_w: KeyValueMemory,
                     mem_e: KeyValueMemory, word_states: Tensor, params: DecoderParams,
                     hops: int, embedding: Tensor,
                     ) -> tuple[Tensor, DecoderState, StepDiagnostics]:
    """Everything of a decoder step before the output layer.

    Advances the GRU on the previous token's embedding, attends over history
    words and runs the multi-hop read over both persona word memories.
    Returns the concatenation [state; history context; word read; external
    read], the new state, and attention diagnostics.
    """
    x = lookup(embedding, int(prev_token))
    s_t = gru_cell(x, state.hidden, params.cell)
    u_x, attn_weights = attend_history(s_t, word_states, params)
    hop: MultihopResult = multihop(s_t, mem_w, mem_e, hops)
    features = concat([s_t, u_x, hop.o_w, hop.o_e])
    diag = StepDiagnostics(attn_weights, hop.w_weights, hop.e_weights)
    return features, DecoderState(s_t, state.step + 1), diag


def decode_step(prev_token: int, state: DecoderState, mem_w: KeyValueMemory,
                mem_e: KeyValueMemory, word_states: Tensor, params: DecoderParams,
                hops: int, embedding: Tensor,
                ) -> tuple[Tensor, Tensor, DecoderState, StepDiagnostics]:
    """One decoder step: ``decoder_features`` mapped through the output layer.

    Returns the token distribution, the raw output activations, the new
    state, and attention diagnostics.
    """
    features, new_state, diag = decoder_features(
        prev_token, state, mem_w, mem_e, word_states, params, hops, embedding)
    s_tilde = params.out(features)
    probs = softmax(s_tilde, axis=-1)
    return probs, s_tilde, new_state, diag


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
    match_target: PMatchTarget


@dataclass
class LossSettings:
    gamma_match: float = 0.1
    gamma_bows: float = 0.1
    bows_extra_weight: float = 1.0
    match_threshold: float = 0.03


class DialogueModel:
    """The full persona-grounded encoder/retriever/decoder stack."""

    def __init__(self, vocab: Vocabulary, emb_dim: int, hidden: int, hops: int,
                 rng: np.random.Generator, pretrained: EmbeddingTable | None = None):
        if hidden % 2 != 0 or hidden < 2:
            raise ValueError("hidden size must be even and at least 2")
        self.vocab = vocab
        self.emb_dim = emb_dim
        self.hidden = hidden
        self.hops = hops
        direction_hidden = hidden // 2
        word_state_dim = hidden

        self.embedding = uniform_param(rng, (len(vocab), emb_dim))
        if pretrained is not None:
            if pretrained.dim != emb_dim:
                raise ValueError(f"pretrained dim {pretrained.dim} != emb_dim {emb_dim}")
            for token, vector in pretrained.vectors.items():
                index = vocab.token_to_index.get(token)
                if index is not None:
                    self.embedding.data[index] = vector

        self.persona = PersonaEncoderParams.create(emb_dim, direction_hidden, hidden, rng)
        self.history = HistoryEncoderParams.create(emb_dim, direction_hidden, rng)
        self.c_proj = Affine(word_state_dim, hidden, rng)
        self.e_key = TanhMlp(emb_dim, hidden, rng)
        self.e_value = TanhMlp(emb_dim, hidden, rng)
        self.decoder = DecoderParams.create(emb_dim, hidden, word_state_dim, len(vocab), rng)

    def named_params(self) -> list[tuple[str, Tensor]]:
        params: list[tuple[str, Tensor]] = [("embedding", self.embedding)]
        params += self.persona.named_params("persona")
        params += self.history.named_params("history")
        params += self.c_proj.named_params("c_proj")
        params += self.e_key.named_params("e_key")
        params += self.e_value.named_params("e_value")
        params += self.decoder.named_params("decoder")
        return params

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def external_memory(self, expansion_ids: list[int]) -> KeyValueMemory:
        if not expansion_ids:
            return KeyValueMemory.empty(self.hidden, self.hidden)
        return build_memory(lookup(self.embedding, expansion_ids), self.e_key, self.e_value)

    def _encode(self, bound: BoundExample):
        mem_s, mem_w = encode_persona(bound.persona_ids, self.persona, self.embedding)
        e_x, sentence_vectors, word_states = encode_history(
            bound.history_ids, self.history, self.embedding)
        queries = [self.c_proj(c) for c in sentence_vectors]
        o_k, trace = persona_information_retrieval(queries, mem_s)
        state = init_state(e_x, o_k, self.decoder.init_proj)
        mem_e = self.external_memory(bound.expansion_ids)
        return mem_s, mem_w, mem_e, word_states, state, trace

    def example_loss(self, bound: BoundExample, settings: LossSettings) -> LossBreakdown:
        """Teacher-forced joint loss of one example.

        The decoder runs step by step up to the output layer; the output
        layer and softmax then run once over the stacked (T, 4H) features.
        """
        _, mem_w, mem_e, word_states, state, trace = self._encode(bound)
        inputs = [SOS] + bound.response_ids
        targets = bound.response_ids + [EOS]
        step_features = []
        for prev in inputs:
            features, state, _ = decoder_features(
                prev, state, mem_w, mem_e, word_states, self.decoder, self.hops, self.embedding)
            step_features.append(features)
        activations = self.decoder.out(stack(step_features))
        nll = nll_loss(softmax(activations, axis=-1), targets)
        match_target = p_match_targets(
            bound.example.persona_sentences, bound.example.response, settings.match_threshold)
        match = p_match_loss(trace.last_weights, match_target)
        persona_words = self.persona_word_set(bound)
        bows_target = p_bows_targets(
            bound.example.response, persona_words, self.vocab, settings.bows_extra_weight)
        bows = p_bows_loss(activations, bows_target)
        total = joint_loss(nll, match, bows, settings.gamma_match, settings.gamma_bows)
        return LossBreakdown(total, nll, match, bows, trace.last_weights, match_target)

    def persona_word_set(self, bound: BoundExample) -> set[str]:
        """Predefined persona content words plus the expansion tokens."""
        words = {t for s in bound.example.persona_sentences for t in s if not is_stopword(t)}
        words.update(bound.expansion_tokens)
        return words

    def generate(self, bound: BoundExample, mode: str = "beam", beam_width: int = 2,
                 max_len: int = 30, collect_diagnostics: bool = False):
        """Generate a response token list (EOS excluded).

        Beam search ranks hypotheses by summed log probability with no length
        normalization, retiring EOS-terminated hypotheses and comparing them
        by the same score. Greedy is beam search of width 1, so it picks the
        argmax token each step. Ties break toward lower token indices.
        """
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        if beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if mode not in ("greedy", "beam"):
            raise ValueError(f"unknown generation mode {mode!r}")
        _, mem_w, mem_e, word_states, state, trace = self._encode(bound)
        width = 1 if mode == "greedy" else beam_width
        ids, steps = self._beam(state, mem_w, mem_e, word_states, width, max_len,
                                collect_diagnostics)
        tokens = [self.vocab.token(i) for i in ids]
        if collect_diagnostics:
            diagnostics = {
                "match_weights": [float(x) for x in trace.last_weights.data],
                "steps": steps,
            }
            return tokens, diagnostics
        return tokens

    def _beam(self, state, mem_w, mem_e, word_states, beam_width, max_len, collect):
        # hypotheses: (summed log prob, token tuple, decoder state, step diagnostics)
        live = [(0.0, (), state, ())]
        finished = []
        for _ in range(max_len):
            candidates = []
            for score, tokens, hyp_state, steps in live:
                prev = tokens[-1] if tokens else SOS
                probs, _, new_state, diag = decode_step(
                    prev, hyp_state, mem_w, mem_e, word_states, self.decoder, self.hops,
                    self.embedding)
                if collect:
                    steps = steps + (_step_record(diag),)
                log_probs = np.log(np.maximum(probs.data, PROB_FLOOR))
                for token in _top_k(log_probs, beam_width):
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
        return [i for i in best if i != EOS], list(steps)


def _step_record(diag: StepDiagnostics) -> dict[str, list[float]]:
    """History attention and the last hop's memory attention of one step."""
    record = {"attention": [float(x) for x in diag.attention.data]}
    if diag.hop_w_weights[-1] is not None:
        record["word_memory"] = [float(x) for x in diag.hop_w_weights[-1].data]
    if diag.hop_e_weights[-1] is not None:
        record["external_memory"] = [float(x) for x in diag.hop_e_weights[-1].data]
    return record


def _top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, largest first, ties toward lower
    indices: ``np.argsort(-values, kind="stable")[:k]`` in O(V) rather than
    O(V log V). Only the entries at or above the k-th largest value are sorted.
    """
    pivot = max(values.size - k, 0)
    kth = np.partition(values, pivot)[pivot]
    candidates = np.flatnonzero(values >= kth)
    return candidates[np.argsort(-values[candidates], kind="stable")[:k]]
