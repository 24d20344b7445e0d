"""Key-value memories and every retrieval procedure used by the model:
plain attention reads, history-chained persona sentence retrieval, and
mutual-reinforcement multi-hop reads over the two persona word memories."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .numkit import Tensor, dot_attention_weights, matmul, zeros


@dataclass
class KeyValueMemory:
    """Parallel key and value matrices; rows are slots.

    ``keys`` is (n, key_dim) and ``values`` is (n, value_dim); both are None
    for an empty memory, which still carries its dimensions so reads can
    return a zero vector of the right size.
    """

    keys: Tensor | None
    values: Tensor | None
    key_dim: int
    value_dim: int

    @classmethod
    def empty(cls, key_dim: int, value_dim: int) -> "KeyValueMemory":
        return cls(None, None, key_dim, value_dim)

    @property
    def slots(self) -> int:
        return 0 if self.keys is None else self.keys.shape[0]


def build_memory(representations: Tensor,
                 key_mlp: Callable[[Tensor], Tensor],
                 value_mlp: Callable[[Tensor], Tensor]) -> KeyValueMemory:
    """Map the (n, d) matrix of slot representations through the key and
    value networks, one call each; row i of both becomes slot i."""
    if representations.ndim != 2:
        raise ValueError(f"build_memory needs an (n, d) matrix, got shape {representations.shape}")
    keys = key_mlp(representations)
    values = value_mlp(representations)
    return KeyValueMemory(keys, values, keys.shape[1], values.shape[1])


def retrieve_with_weights(query: Tensor, mem: KeyValueMemory) -> tuple[Tensor, Tensor | None]:
    """Attention read: the values weighted by ``dot_attention_weights`` (one
    record), and those weights. An empty memory reads as a zero vector
    (weights None) so downstream additive updates are unaffected.

    ``query`` is one (key_dim,) query or a (k, key_dim) batch of rows; row i
    of the read and of the (k, n) weights belongs to query row i.
    """
    if query.ndim not in (1, 2) or query.shape[-1] != mem.key_dim:
        raise ValueError(f"query has shape {query.shape}, memory keys have dim {mem.key_dim}")
    if mem.slots == 0:
        return zeros(query.shape[:-1] + (mem.value_dim,)), None
    weights = dot_attention_weights(query, mem.keys)    # (n,) or (k, n)
    return matmul(weights, mem.values), weights


def persona_information_retrieval(history_vectors: Sequence[Tensor],
                                  mem_s: KeyValueMemory) -> tuple[Tensor, Tensor]:
    """Chained retrieval over the persona sentence memory.

    Step i queries with the i-th history vector plus the previous step's
    output (the first step uses the history vector alone); returns the final
    output and the last step's weights, which feed the sentence matching
    loss.
    """
    if not history_vectors:
        raise ValueError("persona_information_retrieval needs at least one history vector")
    if mem_s.slots == 0:
        raise ValueError("persona sentence memory is empty")
    output: Tensor | None = None
    for i, c in enumerate(history_vectors):
        output, weights = retrieve_with_weights(c if i == 0 else c + output, mem_s)
    return output, weights


@dataclass
class MultihopResult:
    """Final-hop reads, query and memory weights of the mutual-reinforcement
    retrieval; a weight is None for an empty memory."""

    o_w: Tensor
    o_e: Tensor
    query: Tensor
    w_weights: Tensor | None
    e_weights: Tensor | None


def multihop(q0: Tensor, mem_w: KeyValueMemory, mem_e: KeyValueMemory,
             hops: int) -> MultihopResult:
    """Alternating reads from the two persona word memories.

    Each hop reads both memories with the shared query, then adds both
    outputs back into the query so the two retrievals influence each other on
    the next hop. Requires at least one hop. ``q0`` is one query or a (k, d)
    batch of rows, each read on its own.
    """
    if hops < 1:
        raise ValueError("multihop needs at least one hop")
    if mem_w.key_dim != mem_e.key_dim or mem_w.value_dim != mem_e.value_dim:
        raise ValueError("both memories must share key/value dimensions")
    query = q0
    for _ in range(hops):
        o_w, w_weights = retrieve_with_weights(query, mem_w)
        o_e, e_weights = retrieve_with_weights(query, mem_e)
        query = query + o_w + o_e
    return MultihopResult(o_w, o_e, query, w_weights, e_weights)
