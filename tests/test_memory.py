import math

import numpy as np
import pytest

from conftest import grad_check, np_retrieve
from personagen import numkit as nk
from personagen.numkit.tensor import tanh
from personagen.memory import (
    KeyValueMemory,
    build_memory,
    multihop,
    persona_information_retrieval,
    retrieve_with_weights,
)


def memory_from_arrays(keys, values) -> KeyValueMemory:
    keys = np.asarray(keys, dtype=float)
    values = np.asarray(values, dtype=float)
    return KeyValueMemory(nk.Tensor(keys), nk.Tensor(values))


class TestBuildMemory:
    def test_identity_mlps(self):
        reps = nk.Tensor([[1.0, 2.0], [3.0, 4.0]])
        mem = build_memory(reps, lambda x: x, lambda x: x)
        assert np.array_equal(mem.keys.data, [[1, 2], [3, 4]])
        assert np.array_equal(mem.values.data, [[1, 2], [3, 4]])
        assert mem.slots == 2

    def test_matches_mlp_oracle(self):
        from conftest import np_tanh_mlp

        rng = np.random.default_rng(8)
        key_mlp = nk.TanhMlp(2, 3, rng)
        value_mlp = nk.TanhMlp(2, 3, rng)
        raw = [rng.normal(size=2) for _ in range(2)]
        mem = build_memory(nk.Tensor(np.stack(raw)), key_mlp, value_mlp)
        for i, r in enumerate(raw):
            assert np.allclose(mem.keys.data[i], np_tanh_mlp(r, key_mlp), atol=1e-12)
            assert np.allclose(mem.values.data[i], np_tanh_mlp(r, value_mlp), atol=1e-12)

    def test_dim_mismatch_surfaces(self):
        rng = np.random.default_rng(0)
        key_mlp = nk.TanhMlp(3, 2, rng)
        with pytest.raises(ValueError):
            build_memory(nk.Tensor([[1.0, 2.0]]), key_mlp, key_mlp)
        with pytest.raises(ValueError, match="matrix"):
            build_memory(nk.Tensor([1.0, 2.0, 3.0]), key_mlp, key_mlp)


class TestRetrieve:
    def test_single_slot_returns_its_value(self):
        mem = memory_from_arrays([[0.2, 0.8]], [[5.0, 6.0, 7.0]])
        out, weights = retrieve_with_weights(nk.Tensor([[1.0, -1.0]]), mem)
        assert np.allclose(out.data, [[5.0, 6.0, 7.0]])
        assert np.allclose(weights.data, [[1.0]])

    def test_identical_keys_average_values(self):
        mem = memory_from_arrays([[1.0, 0.0]] * 3, [[0.0, 0.0], [3.0, 6.0], [6.0, 0.0]])
        out = retrieve_with_weights(nk.Tensor([[2.0, 5.0]]), mem)[0]
        assert np.allclose(out.data, [[3.0, 2.0]])

    def test_hand_softmax_arithmetic(self):
        mem = memory_from_arrays([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        out, weights = retrieve_with_weights(nk.Tensor([[1.0, 0.0]]), mem)
        top = math.e / (math.e + 1.0)
        assert np.allclose(weights.data, [[top, 1.0 - top]], atol=1e-12)
        assert np.allclose(out.data, [[top, 1.0 - top]], atol=1e-12)
        assert weights.data[0, 0] == pytest.approx(0.7311, abs=1e-4)

    def test_empty_memory_reads_zero(self):
        mem = KeyValueMemory.empty(2, 3)
        out = retrieve_with_weights(nk.Tensor([[1.0, 2.0]]), mem)[0]
        assert np.array_equal(out.data, np.zeros((1, 3)))

    def test_empty_memory_is_zero_slots_that_read_as_zero_rows(self):
        mem = KeyValueMemory.empty(2, 3)
        assert isinstance(mem.keys, nk.Tensor) and isinstance(mem.values, nk.Tensor)
        assert (mem.keys.shape, mem.values.shape, mem.slots) == ((0, 2), (0, 3), 0)
        out, weights = retrieve_with_weights(nk.Tensor(np.ones((4, 2))), mem)
        assert weights is None
        assert out.shape == (4, 3) and np.array_equal(out.data, np.zeros((4, 3)))

    def test_query_dim_checked(self):
        mem = memory_from_arrays([[1.0, 0.0]], [[1.0]])
        with pytest.raises(ValueError):
            retrieve_with_weights(nk.Tensor([[1.0, 2.0, 3.0]]), mem)

    def test_weights_are_distribution(self):
        rng = np.random.default_rng(3)
        mem = memory_from_arrays(rng.normal(size=(5, 4)), rng.normal(size=(5, 2)))
        for _ in range(10):
            _, weights = retrieve_with_weights(nk.Tensor(rng.normal(size=(1, 4))), mem)
            assert (weights.data > 0).all()
            assert abs(weights.data.sum() - 1.0) < 1e-9

    def test_output_in_convex_hull_of_values(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(6, 3))
        mem = memory_from_arrays(rng.normal(size=(6, 2)), values)
        out = retrieve_with_weights(nk.Tensor(rng.normal(size=(1, 2))), mem)[0].data
        assert (out <= values.max(axis=0) + 1e-12).all()
        assert (out >= values.min(axis=0) - 1e-12).all()

    def test_key_scaling_sharpens_but_keeps_argmax(self):
        rng = np.random.default_rng(5)
        keys = np.array([[2.0, 0.1], [0.3, 1.0], [-0.5, 0.4]])
        values = rng.normal(size=(3, 2))
        q = nk.Tensor([[1.0, 0.2]])
        _, base = retrieve_with_weights(q, memory_from_arrays(keys, values))
        argmax = int(np.argmax(base.data))
        for alpha in (2.0, 10.0, 100.0):
            _, scaled = retrieve_with_weights(q, memory_from_arrays(alpha * keys, values))
            assert int(np.argmax(scaled.data)) == argmax
        _, sharp = retrieve_with_weights(q, memory_from_arrays(100.0 * keys, values))
        assert sharp.data[0, argmax] > 0.99


class TestPersonaInformationRetrieval:
    def test_single_step_equals_plain_retrieve(self):
        rng = np.random.default_rng(6)
        mem = memory_from_arrays(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        c1 = nk.Tensor(rng.normal(size=(1, 2)))
        out, weights = persona_information_retrieval(c1, mem)
        want_out, want_weights = retrieve_with_weights(c1, mem)
        assert np.allclose(out.data, want_out.data)
        assert np.allclose(weights.data, want_weights.data)

    def test_zero_values_keep_queries_equal_to_history(self):
        rng = np.random.default_rng(7)
        mem = memory_from_arrays(rng.normal(size=(3, 2)), np.zeros((3, 2)))
        history = rng.normal(size=(4, 2))
        # zero outputs add nothing, so step i queries with history row i and
        # reads as a plain retrieval of it
        for i in range(1, len(history) + 1):
            out, weights = persona_information_retrieval(nk.Tensor(history[:i]), mem)
            assert np.allclose(out.data, 0.0)
            want = retrieve_with_weights(nk.Tensor(history[i - 1:i]), mem)[1]
            assert np.allclose(weights.data, want.data)

    def test_two_step_unrolled_oracle(self):
        keys = np.array([[1.0, 0.0], [0.0, 1.0]])
        values = np.array([[0.5, -0.5], [1.5, 2.0]])
        c = [np.array([0.2, -0.1]), np.array([1.0, 0.4])]
        o1, _ = np_retrieve(c[0], keys, values)
        q2 = c[1] + o1
        o2, w2 = np_retrieve(q2, keys, values)

        mem = memory_from_arrays(keys, values)
        out, weights = persona_information_retrieval(nk.Tensor(np.stack(c)), mem)
        assert out.shape == (1, 2) and weights.shape == (1, 2)
        assert np.allclose(out.data, [o2], atol=1e-12)
        assert np.allclose(weights.data, [w2], atol=1e-12)

    def test_single_slot_memory_always_certain(self):
        rng = np.random.default_rng(8)
        mem = memory_from_arrays(rng.normal(size=(1, 2)), rng.normal(size=(1, 2)))
        _, weights = persona_information_retrieval(nk.Tensor(rng.normal(size=(3, 2))), mem)
        assert np.allclose(weights.data, [[1.0]])

    def test_empty_history_rejected(self):
        mem = memory_from_arrays([[1.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            persona_information_retrieval(nk.Tensor(np.empty((0, 2))), mem)
        with pytest.raises(ValueError, match=r"\(2,\)"):
            persona_information_retrieval(nk.Tensor([1.0, 0.0]), mem)

    def test_weights_sum_to_one_each_step(self):
        rng = np.random.default_rng(9)
        mem = memory_from_arrays(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        history = rng.normal(size=(3, 3))
        for i in range(1, len(history) + 1):   # the chain's first i steps
            _, w = persona_information_retrieval(nk.Tensor(history[:i]), mem)
            assert abs(w.data.sum() - 1.0) < 1e-9
            assert ((w.data > 0) & (w.data < 1)).all()


class TestMultihop:
    def test_single_hop_is_independent_retrievals(self):
        rng = np.random.default_rng(10)
        mem_w = memory_from_arrays(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        mem_e = memory_from_arrays(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        q0 = nk.Tensor(rng.normal(size=(1, 2)))
        result = multihop(q0, mem_w, mem_e, hops=1)
        assert np.allclose(result.o_w.data, retrieve_with_weights(q0, mem_w)[0].data)
        assert np.allclose(result.o_e.data, retrieve_with_weights(q0, mem_e)[0].data)
        # the second hop reads with the query plus both first-hop reads
        query = nk.Tensor(q0.data + result.o_w.data + result.o_e.data)
        second = multihop(q0, mem_w, mem_e, hops=2)
        assert np.allclose(second.o_w.data, retrieve_with_weights(query, mem_w)[0].data)
        assert np.allclose(second.o_e.data, retrieve_with_weights(query, mem_e)[0].data)

    def test_zero_values_are_a_fixed_point(self):
        rng = np.random.default_rng(11)
        mem_w = memory_from_arrays(rng.normal(size=(3, 2)), np.zeros((3, 2)))
        mem_e = memory_from_arrays(rng.normal(size=(2, 2)), np.zeros((2, 2)))
        q0 = nk.Tensor(rng.normal(size=(1, 2)))
        one = multihop(q0, mem_w, mem_e, hops=1)
        for hops in range(1, 6):
            result = multihop(q0, mem_w, mem_e, hops=hops)
            assert result.w_weights.data.tobytes() == one.w_weights.data.tobytes()
            assert result.e_weights.data.tobytes() == one.e_weights.data.tobytes()
            assert np.allclose(result.o_w.data, 0.0)
            assert np.allclose(result.o_e.data, 0.0)

    def test_three_hop_unrolled_oracle(self):
        rng = np.random.default_rng(12)
        kw, vw = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        ke, ve = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        q = rng.normal(size=2)
        q_oracle = q.copy()
        for _ in range(3):
            ow, _ = np_retrieve(q_oracle, kw, vw)
            oe, _ = np_retrieve(q_oracle, ke, ve)
            q_oracle = q_oracle + ow + oe

        result = multihop(nk.Tensor([q]), memory_from_arrays(kw, vw),
                          memory_from_arrays(ke, ve), hops=3)
        assert np.allclose(result.o_w.data, [ow], atol=1e-10)
        assert np.allclose(result.o_e.data, [oe], atol=1e-10)

    def test_zero_hops_rejected(self):
        mem = memory_from_arrays([[1.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            multihop(nk.Tensor([[1.0, 0.0]]), mem, mem, hops=0)

    def test_empty_external_memory_supported(self):
        rng = np.random.default_rng(13)
        mem_w = memory_from_arrays(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        mem_e = KeyValueMemory.empty(2, 2)
        result = multihop(nk.Tensor(rng.normal(size=(1, 2))), mem_w, mem_e, hops=3)
        assert np.allclose(result.o_e.data, 0.0)
        assert result.e_weights is None

    def test_differentiable_through_three_hops(self):
        rng = np.random.default_rng(14)
        keys_w = nk.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        values_w = nk.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        keys_e = nk.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        values_e = nk.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        q0 = nk.Tensor(rng.normal(size=(1, 3)), requires_grad=True)

        def fn():
            mem_w = KeyValueMemory(keys_w, values_w)
            mem_e = KeyValueMemory(keys_e, values_e)
            result = multihop(q0, mem_w, mem_e, hops=3)
            return nk.sum_(tanh(nk.concat([result.o_w, result.o_e])))

        err = grad_check(fn, [keys_w, values_w, keys_e, values_e, q0])
        assert err < 1e-6


class TestRowForms:
    """A (k, d) batch of queries reads like k one-row calls."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_retrieve_rows_equal_stacked_queries(self, k):
        rng = np.random.default_rng(20 + k)
        mem = memory_from_arrays(rng.normal(size=(4, 3)), rng.normal(size=(4, 2)))
        queries = rng.normal(size=(k, 3))
        out, weights = retrieve_with_weights(nk.Tensor(queries), mem)
        assert out.shape == (k, 2) and weights.shape == (k, 4)
        for i in range(k):
            want_out, want_weights = retrieve_with_weights(nk.Tensor(queries[i:i + 1]), mem)
            np.testing.assert_allclose(out.data[i:i + 1], want_out.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights.data[i:i + 1], want_weights.data,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_retrieve_rows_from_empty_memory(self, k):
        out, weights = retrieve_with_weights(nk.Tensor(np.ones((k, 3))), KeyValueMemory.empty(3, 2))
        assert weights is None
        assert np.array_equal(out.data, np.zeros((k, 2)))

    @pytest.mark.parametrize("empty_external", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_multihop_rows_equal_stacked_queries(self, k, empty_external):
        rng = np.random.default_rng(30 + k)
        mem_w = memory_from_arrays(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        mem_e = (KeyValueMemory.empty(2, 2) if empty_external
                 else memory_from_arrays(rng.normal(size=(2, 2)), rng.normal(size=(2, 2))))
        queries = rng.normal(size=(k, 2))
        rows = multihop(nk.Tensor(queries), mem_w, mem_e, hops=3)
        for i in range(k):
            one = multihop(nk.Tensor(queries[i:i + 1]), mem_w, mem_e, hops=3)
            for got, want in ((rows.o_w, one.o_w), (rows.o_e, one.o_e)):
                assert got.shape == (k, 2)
                np.testing.assert_allclose(got.data[i:i + 1], want.data, rtol=0, atol=1e-12)
            for got, want in ((rows.w_weights, one.w_weights), (rows.e_weights, one.e_weights)):
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_allclose(got.data[i:i + 1], want.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("empty_external", [False, True])
    def test_multihop_rows_gradients(self, empty_external):
        rng = np.random.default_rng(40)
        keys_w = nk.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        values_w = nk.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        keys_e = nk.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        values_e = nk.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        q0 = nk.Tensor(rng.normal(size=(3, 3)), requires_grad=True)

        def fn():
            mem_w = KeyValueMemory(keys_w, values_w)
            mem_e = (KeyValueMemory.empty(3, 3) if empty_external
                     else KeyValueMemory(keys_e, values_e))
            result = multihop(q0, mem_w, mem_e, hops=3)
            return nk.sum_(tanh(nk.concat([result.o_w, result.o_e])))

        params = [keys_w, values_w, q0] + ([] if empty_external else [keys_e, values_e])
        assert grad_check(fn, params) < 1e-6

    @pytest.mark.parametrize("shape", [(2, 4), (4,), (2, 2, 3)])
    def test_query_width_mismatch_names_both(self, shape):
        mem = memory_from_arrays(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError) as err:
            retrieve_with_weights(nk.Tensor(np.ones(shape)), mem)
        assert str(shape) in str(err.value) and "dim 3" in str(err.value)

    @pytest.mark.parametrize("empty", [False, True])
    def test_vector_query_rejected_naming_its_shape(self, empty):
        keys, values = np.ones((2, 3)), np.ones((2, 2))
        mem = KeyValueMemory.empty(3, 2) if empty else memory_from_arrays(keys, values)
        with pytest.raises(ValueError, match=r"\(3,\)"):
            retrieve_with_weights(nk.Tensor(np.ones(3)), mem)
