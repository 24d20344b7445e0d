"""Key-value memories and every retrieval procedure used by the model:
plain attention reads, history-chained persona sentence retrieval, and
mutual-reinforcement multi-hop reads over the two persona word memories.
Queries are (k, key_dim) matrices; row i of a read and of its (k, n) weights
belongs to query row i alone."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .numkit import Tensor, dot_attention_weights, lookup, matmul, zeros


@dataclass
class KeyValueMemory:
    """Parallel key and value matrices; rows are slots.

    ``keys`` is (n, key_dim) and ``values`` is (n, value_dim). An empty
    memory has n = 0, so its matrices still carry the widths that reads
    return zero rows of.
    """

    keys: Tensor
    values: Tensor

    @classmethod
    def empty(cls, key_dim: int, value_dim: int) -> "KeyValueMemory":
        return cls(zeros((0, key_dim)), zeros((0, value_dim)))

    @property
    def slots(self) -> int:
        return self.keys.shape[0]


def build_memory(representations: Tensor,
                 key_mlp: Callable[[Tensor], Tensor],
                 value_mlp: Callable[[Tensor], Tensor]) -> KeyValueMemory:
    """Map the (n, d) matrix of slot representations through the key and
    value networks, one call each; row i of both becomes slot i."""
    if representations.ndim != 2:
        raise ValueError(f"build_memory needs an (n, d) matrix, got shape {representations.shape}")
    return KeyValueMemory(key_mlp(representations), value_mlp(representations))


def retrieve_with_weights(query: Tensor, mem: KeyValueMemory) -> tuple[Tensor, Tensor | None]:
    """Attention read: the values weighted by ``dot_attention_weights`` (one
    record), and those weights. An empty memory reads as zero rows (weights
    None) so downstream additive updates are unaffected.
    """
    key_dim = mem.keys.shape[1]
    if query.ndim != 2 or query.shape[1] != key_dim:
        raise ValueError(f"query has shape {query.shape}, memory keys have dim {key_dim}")
    if mem.slots == 0:
        return zeros((query.shape[0], mem.values.shape[1])), None
    weights = dot_attention_weights(query, mem.keys)
    return matmul(weights, mem.values), weights


def persona_information_retrieval(queries: Tensor,
                                  mem_s: KeyValueMemory) -> tuple[Tensor, Tensor]:
    """Chained retrieval over the persona sentence memory.

    Step i queries with row i of the (k, key_dim) ``queries``, one per
    history utterance, plus the previous step's output (the first step uses
    row 0 alone); returns the last step's (1, value_dim) output and its
    (1, n) weights, which feed the sentence matching loss.
    """
    if queries.ndim != 2 or queries.shape[0] == 0:
        raise ValueError(f"persona_information_retrieval needs a (k, d) matrix of at least "
                         f"one query row, got shape {queries.shape}")
    if mem_s.slots == 0:
        raise ValueError("persona sentence memory is empty")
    output: Tensor | None = None
    for i in range(queries.shape[0]):
        row = lookup(queries, [i])
        output, weights = retrieve_with_weights(row if output is None else row + output, mem_s)
    return output, weights


@dataclass
class MultihopResult:
    """The last hop's reads and memory weights of the mutual-reinforcement
    retrieval; a weight is None for an empty memory."""

    o_w: Tensor
    o_e: Tensor
    w_weights: Tensor | None
    e_weights: Tensor | None


def multihop(q0: Tensor, mem_w: KeyValueMemory, mem_e: KeyValueMemory,
             hops: int) -> MultihopResult:
    """Alternating reads from the two persona word memories.

    Each hop reads both memories with the shared query; between hops both
    outputs are added back into the query so the two retrievals influence
    each other on the next hop. Requires at least one hop.
    """
    if hops < 1:
        raise ValueError("multihop needs at least one hop")
    if (mem_w.keys.shape[1], mem_w.values.shape[1]) != (mem_e.keys.shape[1], mem_e.values.shape[1]):
        raise ValueError("both memories must share key/value dimensions")
    query = q0
    for hop in range(hops):
        if hop:
            query = query + o_w + o_e
        o_w, w_weights = retrieve_with_weights(query, mem_w)
        o_e, e_weights = retrieve_with_weights(query, mem_e)
    return MultihopResult(o_w, o_e, w_weights, e_weights)
