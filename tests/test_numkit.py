import ast
import collections
import functools
import itertools
import re
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_matmul_rule, grad_check, np_bigru, np_gru_step
from personagen import numkit as nk
from personagen.numkit import gru as gru_module
from personagen.numkit import tensor as tensor_module
from personagen.numkit.tensor import Factors, RowGrad, tanh


def finite_difference(fn, tensor, eps=1e-6):
    """Independent central-difference gradient of a scalar-returning fn."""
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        plus = fn()
        flat[j] = orig - eps
        minus = fn()
        flat[j] = orig
        grad[j] = (plus - minus) / (2 * eps)
    return grad.reshape(tensor.data.shape)


class TestBackward:
    def test_product_rule(self):
        x = nk.Tensor([2.0], requires_grad=True)
        y = nk.Tensor([3.0], requires_grad=True)
        with nk.Tape() as tape:
            loss = nk.sum_(nk.mul(x, y))
        grads = nk.backward(loss, tape)
        assert np.allclose(grads[x], [3.0])
        assert np.allclose(grads[y], [2.0])

    def test_sum_gradient_is_ones(self):
        x = nk.Tensor([1.0, -2.0, 5.0], requires_grad=True)
        with nk.Tape() as tape:
            loss = nk.sum_(x)
        grads = nk.backward(loss, tape)
        assert np.array_equal(grads[x], np.ones(3))

    def test_softmax_cross_entropy_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = nk.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        with nk.Tape() as tape:
            loss = nk.softmax_cross_entropy(logits, [[1]], [[1.0]])
        grads = nk.backward(loss, tape)
        numeric = finite_difference(
            lambda: nk.softmax_cross_entropy(logits, [[1]], [[1.0]]).item(), logits)
        rel = np.abs(grads[logits] - numeric) / np.maximum(1e-8, np.abs(numeric))
        assert rel.max() < 1e-6

    def test_non_scalar_loss_rejected(self):
        x = nk.Tensor([1.0, 2.0], requires_grad=True)
        with nk.Tape() as tape:
            out = nk.scale(x, 2.0)
        with pytest.raises(ValueError):
            nk.backward(out, tape)

    def test_unreachable_tensor_gets_zero_gradient(self):
        x = nk.Tensor([1.0, 2.0], requires_grad=True)
        y = nk.Tensor([3.0, 4.0], requires_grad=True)
        with nk.Tape() as tape:
            _ = nk.mul(x, y)  # recorded but not part of the loss
            loss = nk.sum_(x)
        grads = nk.backward(loss, tape)
        assert np.array_equal(grads[y], np.zeros(2))

    def test_backward_is_linear_over_loss_sum(self):
        rng = np.random.default_rng(3)
        x = nk.Tensor(rng.normal(size=5), requires_grad=True)

        with nk.Tape() as tape:
            loss_a = nk.sum_(tanh(x))
        ga = nk.backward(loss_a, tape)[x]
        with nk.Tape() as tape:
            loss_b = nk.sum_(nk.mul(x, x))
        gb = nk.backward(loss_b, tape)[x]
        with nk.Tape() as tape:
            total = nk.sum_(tanh(x)) + nk.sum_(nk.mul(x, x))
        gt = nk.backward(total, tape)[x]
        assert np.allclose(gt, ga + gb, atol=1e-12)

    def test_repeated_input_accumulates(self):
        x = nk.Tensor([3.0], requires_grad=True)
        with nk.Tape() as tape:
            loss = nk.sum_(nk.mul(x, x))
        grads = nk.backward(loss, tape)
        assert np.allclose(grads[x], [6.0])

    def test_nothing_recorded_without_tape(self):
        x = nk.Tensor([1.0], requires_grad=True)
        out = nk.scale(x, 2.0)
        assert not out._tracked


class TestConstantInputs:
    # a constant is an input that neither requires a gradient nor is the
    # output of a recorded op: nothing reads a gradient for it. vec_mat,
    # mat_vec and dot take a one-row or one-column matrix for the vector.

    @pytest.mark.parametrize("op,shapes", [
        (nk.matmul, [(3, 4), (4, 2)]),
        (nk.matmul, [(1, 4), (4, 2)]),
        (nk.matmul, [(3, 4), (4, 1)]),
        (nk.matmul, [(1, 4), (4, 1)]),
        (nk.mul, [(3, 2), (3, 2)]),
        (nk.mul, [(3, 2), (2,)]),
    ], ids=["mat_mat", "vec_mat", "mat_vec", "dot", "mul", "mul_broadcast"])
    @pytest.mark.parametrize("constant", [0, 1])
    def test_rule_returns_none_for_a_constant_operand(self, op, shapes, constant):
        rng = np.random.default_rng(2)
        operands = [nk.Tensor(rng.normal(size=s), requires_grad=i != constant)
                    for i, s in enumerate(shapes)]
        with nk.Tape() as tape:
            out = op(*operands)
        (record,) = tape.records
        g_out = np.ones(out.shape)
        grads = record.backward_fn(g_out)
        assert grads[constant] is None
        grad = grads[1 - constant]
        if isinstance(grad, Factors):
            # matmul(a, W)'s rule keeps W's gradient as its factors: the
            # forward input and the upstream gradient, both only read
            assert grad.a is operands[0].data and grad.g is g_out
            assert np.array_equal(grad.dense(), operands[0].data.T @ g_out)
            grad = grad.dense()
        assert grad.shape == shapes[1 - constant]

    def test_backward_keeps_no_gradient_for_a_constant(self):
        rng = np.random.default_rng(3)
        bags, weights, bias = rng.normal(size=(4, 30)), rng.normal(size=(30, 5)), rng.normal(size=5)
        scales, shift = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))

        def leaf_grads(constants_are_leaves):
            w, b = nk.Tensor(weights, requires_grad=True), nk.Tensor(bias, requires_grad=True)
            constants = [nk.Tensor(a, requires_grad=constants_are_leaves)
                         for a in (bags, scales, shift)]
            c, d, e = constants
            with nk.Tape() as tape:
                h = tanh(nk.add(nk.matmul(c, w), b))
                loss = nk.sum_(nk.add(nk.mul(d, h), e))
            by_tensor = nk.backward(loss, tape)
            gw, gb, *of_constants = nk.backward(loss, tape, [w, b] + constants)
            assert gw.tobytes() == by_tensor[w].tobytes()
            assert gb.tobytes() == by_tensor[b].tobytes()
            return gw, gb, set(by_tensor) - {w, b}, of_constants

        gw, gb, others, of_constants = leaf_grads(False)
        # nothing reached the constants: no dict entry, and an empty RowGrad
        # each when they are asked for by name
        assert not others
        assert all(isinstance(g, RowGrad) and g.indices.size == 0 for g in of_constants)
        # the same sweep with the constants as leaves: the weights' gradients
        # are the same arrays bit for bit
        gw_leaves, gb_leaves, _, _ = leaf_grads(True)
        assert gw.tobytes() == gw_leaves.tobytes() and gb.tobytes() == gb_leaves.tobytes()
        g_pre = scales * (1.0 - np.tanh(bags @ weights + bias) ** 2)
        assert np.allclose(gw, bags.T @ g_pre, rtol=0, atol=1e-12)
        assert np.allclose(gb, g_pre.sum(axis=0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("indices", [[0, 2, 5, 7], [4], [], [7, 2, 5, 0], [2, 5, 2, 7, 2]],
                         ids=["sorted_unique", "single", "empty", "unsorted_unique", "repeated"])
@pytest.mark.parametrize("start", ["empty", "owned"])
def test_row_grad_scatter_matches_add_at(indices, start):
    # unique indices take a fancy-index +=, others np.add.at; both must add
    # each row exactly as np.add.at does
    rng = np.random.default_rng(4)
    table = nk.Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    idx = np.asarray(indices, dtype=np.intp)
    rows = rng.normal(size=(idx.size, 3))
    flowing = {}
    expected = np.zeros((8, 3))
    if start == "owned":
        prior = rng.normal(size=(8, 3))
        expected = prior.copy()
        tensor_module._accumulate(flowing, table, prior)
    np.add.at(expected, idx, rows)
    tensor_module._accumulate(flowing, table, RowGrad(idx, rows))
    assert flowing[id(table)].tobytes() == expected.tobytes()


# primitives whose backward hands on the upstream gradient itself, or (scale)
# a constant multiple of it
PASS_THROUGH_CASES = {
    "add": (lambda a, b: nk.add(a, b), [(3, 2), (3, 2)]),
    "add_broadcast": (lambda a, b: nk.add(a, b), [(3, 2), (2,)]),
    "add_chain": (lambda a, b: nk.add(nk.add(a, b), a), [(4,), (4,)]),
    "scale": (lambda a, b: nk.add(nk.scale(a, 1.0), nk.scale(b, 1.0)), [(4,), (4,)]),
    "sub": (lambda a, b: nk.sub(a, b), [(3, 2), (3, 2)]),
}


def row_case(name):
    """(params, loss, tape) of a small graph over two tables, a row and a
    parameter off the tape; ``name`` picks how the first table is reached."""
    rng = np.random.default_rng(6)
    table = nk.Tensor(rng.normal(size=(9, 4)), requires_grad=True)
    other = nk.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    x = nk.Tensor(rng.normal(size=(1, 9)), requires_grad=True)
    off_tape = nk.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    weights = rng.normal(size=(3, 4))
    with nk.Tape() as tape:
        if name == "unique_lookup":
            out = nk.sum_(nk.lookup(table, [1, 4, 8]))
        elif name == "single_id":
            out = nk.sum_(nk.mul(nk.lookup(table, [3]), weights[:1]))
        elif name == "repeated_lookups":
            # the embedding case: ids repeat within and across lookups
            parts = [nk.mul(nk.lookup(table, [2, 5, 2]), weights),
                     tanh(nk.lookup(table, [7, 0, 2])), nk.lookup(table, [5, 5, 8])]
            out = nk.add(nk.sum_(nk.add(nk.add(parts[0], parts[1]), parts[2])),
                         nk.sum_(nk.lookup(table, [5])))
        else:  # lookup and a dense matmul of one table, in either order
            def sparse():
                return nk.sum_(tanh(nk.lookup(table, [1, 3, 1])), axis=0)

            def dense():
                return nk.matmul(x, table)

            if name == "lookup_then_matmul":
                s, d = sparse(), dense()
            else:
                d, s = dense(), sparse()
            out = nk.sum_(nk.mul(s, tanh(d)))
        tanh(nk.lookup(other, [0, 2]))  # on the tape, but unreached
        loss = nk.add(out, nk.sum_(nk.mul(x, x)))
    return [table, other, x, off_tape], loss, tape


ROW_CASES = ["unique_lookup", "single_id", "repeated_lookups", "lookup_then_matmul",
             "matmul_then_lookup"]


def densify(grad, param):
    if not isinstance(grad, RowGrad):
        return grad
    assert (grad.indices[1:] > grad.indices[:-1]).all()
    dense = np.zeros_like(param.data)
    dense[grad.indices] = grad.rows
    return dense


@pytest.mark.parametrize("case", ROW_CASES)
def test_per_parameter_backward_densifies_to_the_dict_bitwise(case):
    params, loss, tape = row_case(case)
    table, other, x, off_tape = params
    by_tensor = nk.backward(loss, tape)
    grads = nk.backward(loss, tape, params)
    assert isinstance(grads[0], RowGrad) == ("matmul" not in case)
    assert not isinstance(grads[2], RowGrad)
    # nothing reached `other` or `off_tape`: an empty RowGrad each
    for unreached in grads[1], grads[3]:
        assert isinstance(unreached, RowGrad) and unreached.indices.size == 0
    for param, grad in zip(params, grads):
        want = by_tensor.get(param, np.zeros_like(param.data))
        assert densify(grad, param).tobytes() == want.tobytes()


class TestGradientOwnership:
    def test_clipping_two_leaves_of_one_sum(self):
        # add's upstream gradient reaches both operands; if both leaves kept
        # that one array, clipping would scale it twice
        rng = np.random.default_rng(0)
        a = nk.Tensor(rng.normal(size=3), requires_grad=True)
        b = nk.Tensor(rng.normal(size=3), requires_grad=True)
        with nk.Tape() as tape:
            loss = nk.sum_(nk.scale(nk.add(a, b), 10.0))
        grads = nk.backward(loss, tape)
        ga, gb = grads[a], grads[b]
        nk.clip_global_norm([ga, gb], 1.0)
        assert abs(np.sqrt((ga * ga).sum() + (gb * gb).sum()) - 1.0) < 1e-12

    @pytest.mark.parametrize("name", sorted(PASS_THROUGH_CASES))
    def test_leaf_gradients_share_no_memory(self, name):
        build, shapes = PASS_THROUGH_CASES[name]
        rng = np.random.default_rng(1)
        leaves = [nk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        with nk.Tape() as tape:
            loss = nk.sum_(build(*leaves))
        grads = nk.backward(loss, tape)
        arrays = [grads[t] for t in leaves]
        for i in range(len(arrays)):
            for j in range(i + 1, len(arrays)):
                assert not np.shares_memory(arrays[i], arrays[j])

    @pytest.mark.parametrize("lookup_first", [True, False])
    def test_sparse_and_dense_gradients_of_one_table(self, lookup_first):
        # lookup's row-sparse gradient and matmul's dense one meet in one
        # buffer, in either arrival order
        rng = np.random.default_rng(5)
        table = nk.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        x = nk.Tensor(rng.normal(size=(1, 5)), requires_grad=True)

        def fn():
            def sparse():
                return nk.sum_(tanh(nk.lookup(table, [1, 3, 1])), axis=0) + nk.lookup(table, [1])

            def dense():
                return nk.matmul(x, table)

            if lookup_first:
                s, d = sparse(), dense()
            else:
                d, s = dense(), sparse()
            return nk.sum_(nk.mul(s, tanh(d)))

        assert grad_check(fn, [table, x]) < 1e-6

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_row_gradients_share_no_memory(self, case):
        # lookup's RowGrad rows may be its g_out itself; the per-parameter
        # form hands out rows that nothing else holds, since clipping scales
        # them in place
        params, loss, tape = row_case(case)
        seen = []
        for rec in tape.records:
            def spy(g, rule=rec.backward_fn):
                results = rule(g)
                seen.append(g)
                for r in results:
                    if isinstance(r, (RowGrad, Factors)):
                        seen.extend(r)          # its arrays
                    elif r is not None:
                        seen.append(r)
                return results
            rec.backward_fn = spy
        grads = nk.backward(loss, tape, params)
        arrays = [g.rows if isinstance(g, RowGrad) else g for g in grads]
        for i, grad in enumerate(grads):
            if not isinstance(grad, RowGrad):
                continue
            others = arrays[:i] + arrays[i + 1:] + [p.data for p in params] + seen
            assert not any(np.shares_memory(grad.rows, other) for other in others)


def gru_shapes(input_dim, hidden_dim):
    """Shapes of GruParams' nine tensors, in declaration order."""
    w, u, b = (input_dim, hidden_dim), (hidden_dim, hidden_dim), (hidden_dim,)
    return [w, u, b] * 3


def gru_params(weights):
    """A GruParams(2, 3) holding the nine given tensors, in declaration order."""
    params = nk.GruParams(2, 3, np.random.default_rng(0))
    for (name, _), t in zip(params.named_params(), weights, strict=True):
        setattr(params, name, t)
    return params


def gru_cell_case(x, h, *weights):
    return nk.sum_(tanh(nk.gru_cell(x, h, gru_params(weights))))


def bigru_loss(ahead, behind, final):
    return nk.add(nk.add(nk.sum_(tanh(ahead)), nk.sum_(tanh(behind))),
                  nk.sum_(nk.mul(final, final)))


def bigru_case(x, *weights):
    return bigru_loss(*nk.bigru_encode(x, gru_params(weights[:9]), gru_params(weights[9:]),
                                       [x.shape[0]]))


def ragged_bigru_case(x, *weights):
    # three sequences of lengths 3, 1 and 2 as rows of one record per direction
    return bigru_loss(*nk.bigru_encode(x, gru_params(weights[:9]), gru_params(weights[9:]),
                                       [3, 1, 2]))


def held_start_case(x, h0, *weights):
    # reverse rows of lengths 1, 3 and 2 from a start state: rows 0 and 2
    # hold their last state through the steps after their last input
    return nk.sum_(tanh(gru_module._gru(x, h0, gru_params(weights), True, [1, 3, 2])))


def gru_sequence_case(x, h0, *weights):
    return nk.sum_(tanh(nk.gru_sequence(x, h0, gru_params(weights), [x.shape[0]])))


def ragged_gru_sequence_case(x, h0, *weights):
    # three sequences of lengths 1, 3 and 2, each from its own start row
    return nk.sum_(tanh(nk.gru_sequence(x, h0, gru_params(weights), [1, 3, 2])))


def lookup_op_output_case(a):
    # a one-row gather of an op output that a dense op reads too, as the
    # Bi-GRU's final state gathers rows of the per-step states
    h = tanh(a)
    return nk.add(nk.sum_(nk.mul(h, h)), nk.sum_(tanh(nk.lookup(h, [2]))))


# added to logits, puts entry 1 of a row 40 nats below the others, where its
# softmax probability lies below PROB_FLOOR
BELOW_FLOOR = np.array([0.0, -40.0, 0.0, 0.0, 0.0])
# row 2 of ROW_PICKS_OFFSETS puts entry 3 FAR_NATS below the row's maximum,
# past the 27.6 nats where a floored probability stops taking a gradient
FAR_NATS = 30.0
ROW_PICKS_OFFSETS = np.stack([BELOW_FLOOR, BELOW_FLOOR, [0.0, 0.0, 0.0, -FAR_NATS, 0.0]])
ROW_PICKS = [[0, 1, 4], [1, 2, 3], [0, 3, 4]]
ROW_PICK_WEIGHTS = [[1.0, 0.5, 0.0], [2.0, 1.0, 0.25], [0.5, 1.5, 1.0]]


def cross_entropy_picks_case(a):
    # weighted picks of one row of logits; entry 1 lies 40 nats below
    return nk.softmax_cross_entropy(nk.add(a, BELOW_FLOOR), [[0, 1, 3]], [[0.5, 2.0, 1.5]])


def cross_entropy_row_picks_case(a):
    # weighted picks per row, as NLL and the topic model's reconstruction
    # term; column 1 lies 40 nats below in rows 0 and 1, column 3 30 in row 2
    return nk.softmax_cross_entropy(nk.add(a, ROW_PICKS_OFFSETS), ROW_PICKS, ROW_PICK_WEIGHTS)


def sigmoid_cross_entropy_case(a):
    # targets 0, 1 and 1 + lambda, and a last entry whose sigmoid is clamped
    return nk.sigmoid_cross_entropy(nk.add(a, [0.0, 0.0, 0.0, 40.0]), [0.0, 1.0, 1.5, 1.0])


CONSTANT_KEYS = np.array([[0.3, -1.2, 0.5], [1.1, 0.4, -0.7], [-0.2, 0.9, 0.6], [0.8, -0.5, -1.0]])
CONSTANT_V = np.array([0.7, -1.3, 0.4])
CONSTANT_VALUES = np.array([[0.5, -1.0], [1.5, 0.3], [-0.8, 0.9], [0.2, -1.4]])


def read(weights):
    # as the model uses attention weights: a read of four value rows
    return nk.sum_(tanh(nk.matmul(weights, CONSTANT_VALUES)))


# matmul_mat_vec, matmul_vec_mat and matmul_dot take a one-row or one-column
# matrix for the vector
PRIMITIVE_CASES = {
    "matmul_mat_vec": (lambda a, b: nk.sum_(nk.matmul(a, b)), [(3, 4), (4, 1)]),
    "matmul_vec_mat": (lambda a, b: nk.sum_(nk.matmul(a, b)), [(1, 3), (3, 2)]),
    "matmul_mat_mat": (lambda a, b: nk.sum_(nk.matmul(a, b)), [(2, 3), (3, 2)]),
    "matmul_dot": (lambda a, b: nk.matmul(a, b), [(1, 4), (4, 1)]),
    "add": (lambda a, b: nk.sum_(nk.add(a, b)), [(3, 2), (3, 2)]),
    "add_broadcast": (lambda a, b: nk.sum_(nk.mul(nk.add(a, b), nk.add(a, b))), [(3, 2), (2,)]),
    "sub": (lambda a, b: nk.sum_(nk.mul(nk.sub(a, b), nk.sub(a, b))), [(4,), (4,)]),
    "mul": (lambda a, b: nk.sum_(nk.mul(a, b)), [(2, 3), (2, 3)]),
    "scale": (lambda a: nk.sum_(nk.scale(a, -2.5)), [(5,)]),
    "concat": (lambda a, b: nk.sum_(tanh(nk.concat([a, b]))), [(2, 3), (2, 2)]),
    "sum_axis": (lambda a: nk.sum_(tanh(nk.sum_(a, axis=0))), [(3, 2)]),
    "mean": (lambda a, b, c: nk.exp(nk.mean([nk.sum_(tanh(a)), nk.sum_(nk.mul(b, b)), c])),
             [(3,), (2, 2), ()]),
    "mean_axis": (lambda a: nk.sum_(tanh(nk.scale(nk.sum_(a, axis=1), 1.0 / 3.0))), [(2, 3)]),
    "tanh": (lambda a: nk.sum_(tanh(a)), [(4,)]),
    "softplus": (lambda a: nk.sum_(nk.softplus(a)), [(4,)]),
    "dot_attention": (lambda q, k: read(nk.dot_attention_weights(q, k)), [(1, 3), (4, 3)]),
    "dot_attention_rows": (lambda q, k: read(nk.dot_attention_weights(q, k)),
                           [(2, 3), (4, 3)]),
    "dot_attention_constant_keys": (
        lambda q: read(nk.dot_attention_weights(q, nk.Tensor(CONSTANT_KEYS))), [(2, 3)]),
    "additive_attention": (lambda q, k, v: read(nk.additive_attention_weights(q, k, v)),
                           [(1, 3), (4, 3), (3,)]),
    "additive_attention_rows": (lambda q, k, v: read(nk.additive_attention_weights(q, k, v)),
                                [(2, 3), (4, 3), (3,)]),
    "additive_attention_constant_v": (
        lambda q, k: read(nk.additive_attention_weights(q, k, nk.Tensor(CONSTANT_V))),
        [(2, 3), (4, 3)]),
    "exp": (lambda a: nk.sum_(nk.exp(a)), [(4,)]),
    "lookup": (lambda a: nk.sum_(tanh(nk.lookup(a, [0, 2, 2]))), [(4, 3)]),
    "lookup_row_of_op_output": (lookup_op_output_case, [(4, 3)]),
    "cross_entropy": (lambda q, k: nk.cross_entropy(nk.dot_attention_weights(q, k), [[2]]),
                      [(1, 3), (4, 3)]),
    "cross_entropy_picks": (cross_entropy_picks_case, [(1, 5)]),
    "cross_entropy_row_picks": (cross_entropy_row_picks_case, [(3, 5)]),
    "sigmoid_cross_entropy": (sigmoid_cross_entropy_case, [(4,)]),
    "gru_cell": (gru_cell_case, [(1, 2), (1, 3)] + gru_shapes(2, 3)),
    "gru_cell_rows": (gru_cell_case, [(3, 2), (3, 3)] + gru_shapes(2, 3)),
    "bigru_encode": (bigru_case, [(4, 2)] + gru_shapes(2, 3) * 2),
    "bigru_encode_ragged": (ragged_bigru_case, [(6, 2)] + gru_shapes(2, 3) * 2),
    "gru_held_start": (held_start_case, [(6, 2), (3, 3)] + gru_shapes(2, 3)),
    "gru_sequence": (gru_sequence_case, [(4, 2), (1, 3)] + gru_shapes(2, 3)),
    "gru_sequence_ragged": (ragged_gru_sequence_case, [(6, 2), (3, 3)] + gru_shapes(2, 3)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    build, shapes = PRIMITIVE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params = [nk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    assert grad_check(lambda: build(*params), params) < 1e-6


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_backward_rules_return_upstream_or_fresh_arrays(name):
    # backward adds in place into every dense gradient a rule returns; that
    # is sound only if each is a fresh array or the upstream gradient itself,
    # and the upstream gradient goes to at most one input (a RowGrad's rows
    # and a Factors' g count as handing it on)
    build, shapes = PRIMITIVE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params = [nk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    with nk.Tape() as tape:
        build(*params)
    for rec in tape.records:
        g_out = np.asarray(rng.normal(size=rec.output.shape))
        grads = rec.backward_fn(g_out)
        for tensor, g in zip(rec.inputs, grads):
            if isinstance(g, Factors):
                # matmul's factors are the forward input and g_out itself,
                # which backward only reads
                assert rec.inputs[0].data is g.a and g.g is g_out
                assert np.array_equal(g.dense(), g.a.T @ g_out)
                assert g.dense().shape == tensor.shape
        fresh = [g for g in grads if g is not None and g is not g_out
                 and not isinstance(g, (RowGrad, Factors))]
        for g in fresh:
            assert not np.shares_memory(g, g_out)
        for g, h in itertools.combinations(fresh, 2):
            assert not np.shares_memory(g, h)
        handed = [g for g in grads if g is g_out
                  or isinstance(g, Factors) and g.g is g_out
                  or isinstance(g, RowGrad) and np.shares_memory(g.rows, g_out)]
        assert len(handed) <= 1


# the two likelihood records over picks, each called on (rows, index); the
# weighted one gets a weight of 1 per pick
LIKELIHOODS = {
    "cross_entropy": nk.cross_entropy,
    "softmax_cross_entropy": lambda z, index: nk.softmax_cross_entropy(
        z, index, np.ones(np.shape(index))),
}


def over_both_likelihoods(cases):
    """pytest params of each ``(id, *args)`` case for each likelihood record,
    led by the record: ``cross_entropy``'s under the case's own id,
    ``softmax_cross_entropy``'s under the record's name and the case's."""
    return [pytest.param(record, *args,
                         id=case if name == "cross_entropy" else f"{name}-{case}")
            for name, record in LIKELIHOODS.items() for case, *args in cases]


@pytest.mark.parametrize("record,p_shape,index,error", over_both_likelihoods([
    ("decreasing", (1, 5), [[3, 1]], ValueError),
    ("repeated", (1, 5), [[1, 1]], ValueError),
    ("repeated_in_a_row", (2, 5), [[0, 2], [3, 3]], ValueError),
    ("neither_shape", (2, 5), [0, 1, 2], ValueError),
    ("extra_axis", (2, 5), [[[0]]], ValueError),
    ("three_axes", (2, 2, 5), [[0, 1], [0, 1]], ValueError),
    ("past_the_end_in_a_row", (2, 5), [[0, 5], [1, 2]], IndexError),
    ("negative", (1, 5), [[-1, 2]], IndexError),
    ("single_past_the_end", (1, 5), [[5]], IndexError),
]) + [
    pytest.param(functools.partial(nk.softmax_cross_entropy, weights=[[1.0]]),
                 (1, 5), [[0, 2]], ValueError, id="short_weights"),
    pytest.param(functools.partial(nk.softmax_cross_entropy, weights=[1.0, 1.0]),
                 (2, 5), [[1], [2]], ValueError, id="misshaped_weights"),
])
def test_cross_entropy_rejects_bad_picks(record, p_shape, index, error):
    # for both records, picks must be in range, strictly increasing per
    # distribution, and shaped as one row of them per distribution; the
    # weights of softmax_cross_entropy take the picks' shape
    with pytest.raises(error):
        record(nk.Tensor(np.full(p_shape, 0.2)), index)


@pytest.mark.parametrize("q_shape,k_shape", [
    ((1, 3), (4, 2)), ((2, 3), (4, 2)), ((2, 2, 2), (4, 2)), ((1, 2), (2,)), ((), (4, 2)),
], ids=["width", "rows_width", "three_axes", "vector_keys", "scalar_query"])
def test_dot_attention_weights_rejects_bad_shapes(q_shape, k_shape):
    with pytest.raises(ValueError, match=r"dot attention needs"):
        nk.dot_attention_weights(nk.Tensor(np.ones(q_shape)), nk.Tensor(np.ones(k_shape)))


@pytest.mark.parametrize("q_shape,k_shape,v_shape", [
    ((1, 3), (4, 3), (2,)), ((2, 3), (4, 2), (3,)), ((2, 2, 3), (4, 3), (3,)),
    ((1, 3), (3,), (3,)), ((1, 3), (4, 3), (3, 1)),
], ids=["v_width", "keys_width", "three_axes", "vector_keys", "matrix_v"])
def test_additive_attention_weights_rejects_bad_shapes(q_shape, k_shape, v_shape):
    with pytest.raises(ValueError, match=r"additive attention needs"):
        nk.additive_attention_weights(nk.Tensor(np.ones(q_shape)), nk.Tensor(np.ones(k_shape)),
                                      nk.Tensor(np.ones(v_shape)))


@pytest.mark.parametrize("ids", [[1.5], [True, False], [[0, 1]], np.array([[0]]), 3],
                         ids=["float", "bool", "nested_list", "matrix", "int"])
def test_lookup_rejects_ids_that_are_not_a_1d_integer_sequence(ids):
    # each of these once read rows: 1.5 as row 1, True and False as rows 1
    # and 0, a 2-D array as a 3-D tensor and an int as a vector
    table = nk.Tensor(np.arange(12.0).reshape(4, 3))
    given = np.asarray(ids)
    with pytest.raises(ValueError, match=re.escape(f"got {given.dtype} ids of shape {given.shape}")):
        nk.lookup(table, ids)


@pytest.mark.parametrize("record,index", over_both_likelihoods([
    ("float", [1.7, 0.2]), ("bool", [True, False]), ("float_picks", [[1.0, 3.0], [0.0, 2.0]]),
]))
def test_cross_entropy_rejects_indices_that_are_not_integers(record, index):
    # np.asarray(index, dtype=np.intp) once truncated 1.7 to 1
    with pytest.raises(ValueError, match="integer indices"):
        record(nk.Tensor(np.full((2, 5), 0.2)), index)


def test_cross_entropy_rejects_a_1d_index():
    # one pick per distribution is a (k, 1) index; a 1-D index once gave k
    # unsummed terms; for both records
    for record in LIKELIHOODS.values():
        with pytest.raises(ValueError, match="one row of indices per distribution"):
            record(nk.Tensor(np.full((2, 5), 0.2)), [1, 3])


def vector_cases():
    """Calls, by name, that each hand a layer a (3,) activation (lookup an
    int id)."""
    rng = np.random.default_rng(0)
    vec = nk.Tensor(rng.normal(size=3))
    rows, keys = nk.Tensor(rng.normal(size=(2, 3))), nk.Tensor(rng.normal(size=(4, 3)))
    gru = nk.GruParams(3, 3, rng)
    return {
        "matmul_left": lambda: nk.matmul(vec, keys.data.T),
        "matmul_right": lambda: nk.matmul(rows, vec),
        "concat": lambda: nk.concat([vec, vec]),
        "lookup_int": lambda: nk.lookup(keys, 2),
        "dot_attention": lambda: nk.dot_attention_weights(vec, keys),
        "additive_attention": lambda: nk.additive_attention_weights(vec, keys, vec),
        "gru_cell": lambda: nk.gru_cell(vec, vec, gru),
        "gru_sequence_start": lambda: nk.gru_sequence(rows, vec, gru, [2]),
        "cross_entropy": lambda: nk.cross_entropy(vec, [0]),
        "softmax_cross_entropy": lambda: nk.softmax_cross_entropy(vec, [0], [1.0]),
    }


@pytest.mark.parametrize("name", sorted(vector_cases()))
def test_layers_reject_a_vector_activation_naming_its_shape(name):
    call = vector_cases()[name]
    shape = "()" if name == "lookup_int" else "(3,)"
    with pytest.raises(ValueError, match=re.escape(shape)):
        call()


def np_softmax_rule(scores, g):
    """softmax over the last axis and its backward rule, as plain numpy."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return w, w * (g - (g * w).sum(axis=-1, keepdims=True))


def attention_gradients(build, operands, g):
    """The weights of ``build`` on leaf copies of ``operands`` and their
    gradients when ``g`` flows into the weights, in both gradient forms."""
    leaves = [nk.Tensor(x.copy(), requires_grad=True) for x in operands]
    with nk.Tape() as tape:
        weights = build(*leaves)
        loss = nk.sum_(nk.mul(weights, g))
    as_dict = nk.backward(loss, tape)
    as_list = nk.backward(loss, tape, leaves)
    assert all(as_dict[t].tobytes() == h.tobytes() for t, h in zip(leaves, as_list))
    return weights.data, as_list


@pytest.mark.parametrize("q_shape", [(1, 6), (3, 6)], ids=["one_row", "rows"])
def test_dot_attention_weights_equal_the_transpose_matmul_softmax_composition_bitwise(q_shape):
    # the oracle composes the weights from generic ops, each with its own
    # backward rule: matmul(q, transpose(keys)), then softmax
    rng = np.random.default_rng(12)
    q, keys = rng.normal(size=q_shape), rng.normal(size=(7, 6))
    g = rng.normal(size=(q_shape[0], 7))
    weights, (g_q, g_keys) = attention_gradients(nk.dot_attention_weights, [q, keys], g)
    keys_t = keys.T                                       # transpose's output: a view
    want, g_s = np_softmax_rule(q @ keys_t, g)
    want_q = g_s @ keys_t.T
    want_keys = np.array((q.T @ g_s).T)
    assert weights.tobytes() == want.tobytes()
    assert g_q.tobytes() == want_q.tobytes()
    assert g_keys.tobytes() == want_keys.tobytes()


@pytest.mark.parametrize("q_shape,words", [((1, 5), 4), ((3, 5), 4), ((3, 5), 1)],
                         ids=["one_row", "rows", "one_word"])
def test_additive_attention_weights_equal_the_reshape_tanh_composition_bitwise(q_shape, words):
    # the oracle composes the weights from generic ops, each with its own
    # backward rule: reshape the query to (k, 1, a), add the keys, tanh,
    # reshape to (k * n, a), matmul by v, reshape to (k, n) and softmax
    rng = np.random.default_rng(13)
    q, keys, v = rng.normal(size=q_shape), rng.normal(size=(words, 5)), rng.normal(size=5)
    g = rng.normal(size=(q_shape[0], words))
    weights, (g_q, g_keys, g_v) = attention_gradients(
        nk.additive_attention_weights, [q, keys, v], g)
    q3 = q.reshape(-1, 1, 5)
    pre = np.tanh(q3 + keys)
    rows = pre.reshape(-1, 5)
    want, g_s = np_softmax_rule((rows @ v).reshape(q_shape[0], words), g)
    g_scores = np.array(g_s.reshape(-1))
    g_pre = np.array(np.outer(g_scores, v).reshape(pre.shape)) * (1.0 - pre * pre)
    want_q3 = g_pre if words == 1 else g_pre.sum(axis=1, keepdims=True)
    assert weights.tobytes() == want.tobytes()
    assert g_q.tobytes() == np.array(want_q3.reshape(q_shape)).tobytes()
    assert g_keys.tobytes() == g_pre.sum(axis=0).tobytes()
    assert g_v.tobytes() == (rows.T @ g_scores).tobytes()


def test_attention_weights_raise_at_a_non_finite_score():
    # the per-op contract: an overflow inside the record raises there,
    # although tanh and softmax would turn it into finite weights
    keys = nk.Tensor([[-1e308, -1e308, -1e308], [0.0, 0.0, 0.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="attention scores"):
            nk.dot_attention_weights(nk.Tensor(np.full((1, 3), 1e308)), keys)  # -inf and 0
        with pytest.raises(FloatingPointError, match="pre-activation"):
            nk.additive_attention_weights(nk.Tensor(np.full((1, 3), -1e308)), keys,
                                          nk.Tensor(np.ones(3)))


def test_cross_entropy_of_no_picks_is_zero():
    # for both records
    for record in LIKELIHOODS.values():
        p = nk.Tensor(np.full((2, 4), 0.25), requires_grad=True)
        with nk.Tape() as tape:
            loss = record(p, np.empty((2, 0), dtype=np.intp))
        assert loss.item() == 0.0
        assert np.array_equal(nk.backward(loss, tape)[p], np.zeros((2, 4)))


def test_scalar_leaf_gradients_accumulate():
    # a reduction to shape () gives a numpy scalar, which cannot be added
    # into in place
    s = nk.Tensor(np.array(0.5), requires_grad=True)
    v = nk.Tensor(np.ones(3), requires_grad=True)
    with nk.Tape() as tape:
        loss = nk.sum_(nk.add(v, s)) + nk.sum_(nk.mul(v, s))
    grads = nk.backward(loss, tape)
    assert isinstance(grads[s], np.ndarray) and grads[s].shape == ()
    assert grads[s] == 6.0


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        x = nk.Tensor([3.0], requires_grad=True)
        err = grad_check(lambda: nk.sum_(nk.mul(x, x)), [x], eps=1e-4)
        assert err < 1e-8

    def test_constant_function_has_zero_error(self):
        x = nk.Tensor([1.0, 2.0], requires_grad=True)
        err = grad_check(lambda: nk.Tensor(5.0), [x])
        assert err == 0.0

    def test_non_finite_eval_identifies_perturbation(self):
        x = nk.Tensor([0.5, 709.7827], requires_grad=True)
        # exp overflows under entry 1's +eps probe only
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match=r"param 0 entry 1 \(\+eps\)"):
                grad_check(lambda: nk.sum_(nk.exp(x)), [x], eps=1e-4)

    def test_rejects_bad_eps(self):
        x = nk.Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: nk.sum_(x), [x], eps=0.0)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = nk.Tensor([1.0, -2.0], requires_grad=True)
        state = nk.AdamState([p], lr=0.01)
        before = p.data.copy()
        nk.adam_step([p], [np.zeros(2)], state)
        assert np.array_equal(p.data, before)
        assert state.step_count == 1

    def test_first_step_magnitude_is_learning_rate(self):
        p = nk.Tensor([0.0], requires_grad=True)
        state = nk.AdamState([p], lr=1e-4)
        nk.adam_step([p], [np.ones(1)], state)
        # bias correction makes the first update almost exactly -lr
        assert p.data[0] == pytest.approx(-1e-4, rel=1e-6)

    def test_constant_gradient_approaches_lr_per_step(self):
        p = nk.Tensor([0.0], requires_grad=True)
        state = nk.AdamState([p], lr=1e-3)
        g = np.array([0.37])
        previous = p.data.copy()
        for _ in range(500):
            previous = p.data.copy()
            nk.adam_step([p], [g.copy()], state)
        delta = p.data - previous
        assert delta[0] == pytest.approx(-1e-3, rel=1e-3)

    def test_moments_decay_on_zero_gradient(self):
        p = nk.Tensor([0.0], requires_grad=True)
        state = nk.AdamState([p], lr=1e-3)
        nk.adam_step([p], [np.ones(1)], state)
        m_before = state.m[0].copy()
        nk.adam_step([p], [np.zeros(1)], state)
        assert np.allclose(state.m[0], 0.9 * m_before)

    def test_deterministic_bitwise(self):
        def run():
            p = nk.Tensor([0.5, -0.5], requires_grad=True)
            state = nk.AdamState([p], lr=0.01)
            for step in range(20):
                nk.adam_step([p], [np.array([0.1 * step, -0.3])], state)
            return p.data.tobytes()

        assert run() == run()

    def test_matches_reference_formula_bitwise(self):
        # the in-place, blocked update against Kingma & Ba's efficient form
        # written out; the shapes cover a scalar, a vector and matrices above
        # the block size
        rng = np.random.default_rng(11)
        shapes = [(), (7,), (3, 40000), (40000, 3)]
        params = [nk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        state = nk.AdamState(params, lr=3e-3)
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
        for t in range(1, 6):
            grads = [rng.normal(size=s) * (t % 3) for s in shapes]
            nk.adam_step(params, [g.copy() for g in grads], state)
            for i, g in enumerate(grads):
                ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (g * g)
                alpha = lr * np.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
                eps_hat = eps * np.sqrt(1.0 - b2 ** t)
                ref_p[i] = ref_p[i] - ref_m[i] / (np.sqrt(ref_v[i]) + eps_hat) * alpha
        for p, m, v, want_p, want_m, want_v in zip(params, state.m, state.v,
                                                     ref_p, ref_m, ref_v):
            assert p.data.tobytes() == np.asarray(want_p).tobytes()
            assert m.tobytes() == np.asarray(want_m).tobytes()
            assert v.tobytes() == np.asarray(want_v).tobytes()

    @pytest.mark.parametrize("row_grads", [False, True], ids=["dense", "row_grad"])
    def test_stays_within_rounding_of_the_classic_formula(self, row_grads):
        # the efficient form equals lr * m_hat / (sqrt(v_hat) + eps) in exact
        # arithmetic: the moments match bit for bit, and each step may move
        # a parameter by a few roundings of its largest entry
        rng = np.random.default_rng(13)
        shapes = [(), (7,), (300, 256), (70000,)]
        params = [nk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        state = nk.AdamState(params, lr=3e-3)
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
        steps = 60
        for t in range(1, steps + 1):
            grads, given = [], []
            for s in shapes:
                g = rng.normal(size=s) * (t % 3)
                if row_grads and s:
                    kept = rng.random(s[0]) < 0.3
                    g[~kept] = 0.0
                    given.append(RowGrad(np.flatnonzero(kept), g[kept]))
                else:
                    given.append(g.copy())
                grads.append(g)
            nk.adam_step(params, given, state)
            for i, g in enumerate(grads):
                ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (g * g)
                m_hat = ref_m[i] / (1.0 - b1 ** t)
                v_hat = ref_v[i] / (1.0 - b2 ** t)
                ref_p[i] = ref_p[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        bound = steps * 8 * np.finfo(np.float64).eps
        for p, m, v, want_p, want_m, want_v in zip(params, state.m, state.v,
                                                     ref_p, ref_m, ref_v):
            assert m.tobytes() == np.asarray(want_m).tobytes()
            assert v.tobytes() == np.asarray(want_v).tobytes()
            scale = np.abs(want_p).max()
            assert np.abs(p.data - want_p).max() <= bound * scale

    def test_shape_mismatch_rejected(self):
        p = nk.Tensor([1.0, 2.0], requires_grad=True)
        state = nk.AdamState([p], lr=1e-4)
        with pytest.raises(ValueError):
            nk.adam_step([p], [np.zeros(3)], state)

    def test_row_grad_step_equals_zero_filled_dense_step_bitwise(self):
        # not a lazy Adam: rows a RowGrad leaves out still decay their moments
        # and move, exactly as with a zero gradient. The shapes span several
        # blocks of the blocked update, and the index sets hit block edges,
        # the first and last rows, all rows and none.
        rng = np.random.default_rng(12)
        shapes = [(300, 256), (70000,), (5, 3)]
        sparse = [nk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        dense = [nk.Tensor(p.data.copy(), requires_grad=True) for p in sparse]
        sparse_state = nk.AdamState(sparse, lr=3e-3)
        dense_state = nk.AdamState(dense, lr=3e-3)

        def index_sets(rows, size):
            step = max(1, nk.optim._BLOCK * rows // size)
            edges = sorted({0, rows - 1} | {e + d for e in range(step, rows, step)
                                            for d in (-1, 0)})
            assert len(edges) > 4  # several blocks
            subset = np.flatnonzero(rng.random(rows) < 0.3)
            return [edges, np.arange(rows), [], subset, [0, rows - 1]]

        schedules = [index_sets(s[0], int(np.prod(s))) for s in shapes[:2]]
        for step in range(5):
            sparse_grads, dense_grads = [], []
            for p, schedule in zip(sparse, schedules):
                idx = np.asarray(schedule[step], dtype=np.intp)
                rows = rng.normal(size=(idx.size,) + p.shape[1:])
                full = np.zeros(p.shape)
                full[idx] = rows
                sparse_grads.append(RowGrad(idx, rows))
                dense_grads.append(full)
            bias_grad = rng.normal(size=shapes[2])
            nk.adam_step(sparse, sparse_grads + [bias_grad.copy()], sparse_state)
            nk.adam_step(dense, dense_grads + [bias_grad], dense_state)
            for arrays in zip(sparse, dense, sparse_state.m, dense_state.m,
                              sparse_state.v, dense_state.v):
                a_p, b_p, a_m, b_m, a_v, b_v = arrays
                assert a_p.data.tobytes() == b_p.data.tobytes()
                assert a_m.tobytes() == b_m.tobytes() and a_v.tobytes() == b_v.tobytes()

    @pytest.mark.parametrize("indices,rows_shape,problem", [
        ([3, 1], (2, 4), "strictly increasing"),
        ([1, 1], (2, 4), "strictly increasing"),
        ([[0, 1]], (2, 4), "strictly increasing"),
        ([0, 6], (2, 4), "out of range"),
        ([-1, 2], (2, 4), "out of range"),
        ([0, 2], (2, 3), "rows of shape"),
        ([0, 2], (3, 4), "rows of shape"),
    ], ids=["unsorted", "repeated", "not_1d", "past_end", "negative", "row_width",
            "row_count"])
    def test_bad_row_grad_rejected_naming_its_parameter(self, indices, rows_shape, problem):
        params = [nk.Tensor(np.ones(3), requires_grad=True),
                  nk.Tensor(np.ones((6, 4)), requires_grad=True)]
        state = nk.AdamState(params, lr=1e-4)
        grad = RowGrad(np.asarray(indices, dtype=np.intp), np.ones(rows_shape))
        with pytest.raises(ValueError, match=f"parameter 1 .*{problem}"):
            nk.adam_step(params, [np.ones(3), grad], state)
        assert state.step_count == 0
        assert all((p.data == 1.0).all() for p in params)


class TestClipGlobalNorm:
    def test_scales_down_only_when_above(self):
        grads = [np.array([3.0, 4.0])]
        norm = nk.clip_global_norm(grads, 10.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(grads[0], [3.0, 4.0])
        norm = nk.clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(grads[0]) == pytest.approx(1.0)

    def test_overflowing_norm_raises_and_leaves_gradients_unscaled(self):
        # every entry is finite, but 1e200 squared is not
        grads = [np.array([1e200, 1.0]), RowGrad(np.array([2]), np.array([[3.0, 4.0]]))]
        with pytest.raises(FloatingPointError, match="gradient norm"):
            nk.clip_global_norm(grads, 1.0)
        assert grads[0].tolist() == [1e200, 1.0]
        assert grads[1].rows.tolist() == [[3.0, 4.0]]

    def test_row_grad_counts_and_scales_its_rows_only(self):
        rng = np.random.default_rng(13)
        idx = np.array([0, 3, 4, 17, 59])
        rows, other = rng.normal(size=(idx.size, 64)), rng.normal(size=7)
        full = np.zeros((60, 64))
        full[idx] = rows
        sparse = [RowGrad(idx, rows.copy()), other.copy()]
        dense = [full, other.copy()]
        norm = nk.clip_global_norm(sparse, 1.0)
        dense_norm = nk.clip_global_norm(dense, 1.0)
        assert abs(norm - dense_norm) <= 1e-15 * dense_norm
        factor = 1.0 / norm
        assert sparse[0].rows.tobytes() == (rows * factor).tobytes()
        assert sparse[1].tobytes() == (other * factor).tobytes()
        assert np.allclose(sparse[0].rows, dense[0][idx], rtol=1e-15, atol=0)
        assert sparse[0].indices is idx


def factor_case(row_counts, k, n, seed=0):
    """(weight, loss, tape, a_i, g_i) of ``sum_i sum(matmul(a_i, W) * c_i)``
    with constant inputs ``a_i`` of the given row counts, so W's gradient
    contributions arrive as ``Factors(a_i, c_i)``, in reverse order."""
    rng = np.random.default_rng(seed)
    weight = nk.Tensor(rng.normal(size=(k, n)), requires_grad=True)
    inputs = [rng.normal(size=(rows, k)) for rows in row_counts]
    upstream = [rng.normal(size=(rows, n)) for rows in row_counts]
    with nk.Tape() as tape:
        terms = [nk.sum_(nk.mul(nk.matmul(a, weight), c)) for a, c in zip(inputs, upstream)]
        loss = terms[0]
        for term in terms[1:]:
            loss = nk.add(loss, term)
    return weight, loss, tape, inputs[::-1], upstream[::-1]


class TestFactoredGradients:
    # T stacked rows of a (K, N) weight stay factored while T^2 (K + N) <= K N
    @pytest.mark.parametrize("row_counts,k,n,factored", [
        ([2], 8, 8, True),            # 4 * 16 = 64 <= 64, the boundary
        ([3], 8, 8, False),
        ([1, 1], 8, 8, True),
        ([2, 1], 8, 8, False),
        ([14], 512, 2000, True),
        ([5, 4, 6], 16, 4000, False),
        ([1, 2, 1, 3], 100, 2000, True),
    ])
    def test_leaf_rule_gives_factors_or_one_stacked_product(self, row_counts, k, n, factored):
        weight, loss, tape, inputs, upstream = factor_case(row_counts, k, n)
        (grad,) = nk.backward(loss, tape, [weight])
        by_tensor = nk.backward(loss, tape)[weight]
        assert isinstance(grad, Factors) == factored
        dense = grad.dense() if factored else grad
        # the dict form densifies the same factors the same way
        assert dense.tobytes() == by_tensor.tobytes()
        if factored:
            # stacked in arrival order, into arrays of their own
            a, g = grad.a, grad.g
            assert np.array_equal(a, np.concatenate(inputs))
            assert np.array_equal(g, np.concatenate(upstream))
            assert not any(np.shares_memory(x, y) for x in (a, g) for y in inputs + upstream)
        want = sum(a.T @ c for a, c in zip(inputs, upstream))
        assert np.allclose(dense, want, rtol=0, atol=1e-12 * np.abs(want).max())
        if len(row_counts) == 1:
            # one contribution is formed by the rule's own product, bit for bit
            assert dense.tobytes() == (inputs[0].T @ upstream[0]).tobytes()

    @pytest.mark.parametrize("other", ["lookup_first", "lookup_last", "dense_add"])
    def test_leaf_that_other_forms_reach_is_dense_in_arrival_order(self, other, monkeypatch):
        # the per-parameter form against the dense rule, whose sweep adds each
        # contribution as it arrives: bit for bit
        rng = np.random.default_rng(8)
        weight = nk.Tensor(rng.normal(size=(6, 9)), requires_grad=True)
        a, c = rng.normal(size=(2, 6)), rng.normal(size=(2, 9))
        row_ids, extra = [1, 4, 1], rng.normal(size=(6, 9))

        def sweep():
            with nk.Tape() as tape:
                parts = []
                if other == "lookup_first":
                    parts.append(nk.sum_(tanh(nk.lookup(weight, row_ids))))
                parts.append(nk.sum_(nk.mul(nk.matmul(a, weight), c)))
                if other == "lookup_last":
                    parts.append(nk.sum_(tanh(nk.lookup(weight, row_ids))))
                if other == "dense_add":
                    parts.append(nk.sum_(tanh(nk.add(weight, extra))))
                loss = parts[0]
                for part in parts[1:]:
                    loss = nk.add(loss, part)
            return nk.backward(loss, tape, [weight])[0]

        got = sweep()
        monkeypatch.setattr(tensor_module, "_matmul_grad_b", dense_matmul_rule)
        want = sweep()
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == want.tobytes()

    def test_intermediate_operand_gets_the_dense_rule_bitwise(self, monkeypatch):
        # matmul(q, tanh(keys)), twice: the tanh output is no leaf, so its
        # factors are densified on arrival, as the dense rule formed them
        rng = np.random.default_rng(9)
        keys = nk.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        q = nk.Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def sweep():
            with nk.Tape() as tape:
                hidden = tanh(keys)
                loss = nk.sum_(nk.softplus(nk.matmul(q, hidden)))
                loss = nk.add(loss, nk.sum_(tanh(nk.matmul(q, hidden))))
            return nk.backward(loss, tape, [keys, q])

        got = sweep()
        monkeypatch.setattr(tensor_module, "_matmul_grad_b", dense_matmul_rule)
        want = sweep()
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

    @pytest.mark.parametrize("rows", [1, 14, 40])
    def test_clip_norm_from_grams_matches_dense(self, rows):
        rng = np.random.default_rng(rows)
        a, g = rng.normal(size=(rows, 64)), rng.normal(size=(rows, 3000))
        other = rng.normal(size=(5, 7))
        dense = [a.T @ g, other.copy()]
        factored = [Factors(a, g.copy()), other.copy()]
        a_before = a.copy()
        want = float(np.sqrt(np.vdot(dense[0], dense[0]) + np.vdot(other, other)))
        norm = nk.clip_global_norm(factored, 1.0)
        assert abs(norm - want) <= 1e-12 * want
        # the clip fired: g and the dense gradients scaled, a never written
        assert a.tobytes() == a_before.tobytes()
        assert factored[0].g.tobytes() == (g * (1.0 / norm)).tobytes()
        clipped = dense[0] / want
        assert np.allclose(factored[0].dense(), clipped, rtol=0,
                           atol=1e-12 * np.abs(clipped).max())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_g_raises_and_leaves_factors_unscaled(self, bad):
        rng = np.random.default_rng(11)
        a, g = rng.normal(size=(3, 4)), rng.normal(size=(3, 5))
        g[1, 2] = bad
        grads = [Factors(a, g), np.array([3.0, 4.0])]
        before = g.tobytes()
        with pytest.raises(FloatingPointError, match="gradient norm"):
            nk.clip_global_norm(grads, 1.0)
        assert g.tobytes() == before and grads[1].tolist() == [3.0, 4.0]

    @pytest.mark.parametrize("shape,rows", [((300, 5000), 14), ((37, 100), 3), ((9, 4096), 1)],
                             ids=["tiles_with_partial_edges", "narrow", "one_tile_row"])
    def test_adam_step_on_factors_matches_the_dense_step(self, shape, rows):
        # the tile-wise products are BLAS results like the one dense product,
        # so the steps agree to within the product's rounding
        rng = np.random.default_rng(12)
        start = rng.normal(size=shape)
        factored = nk.Tensor(start.copy(), requires_grad=True)
        dense = nk.Tensor(start.copy(), requires_grad=True)
        f_state, d_state = nk.AdamState([factored], 1e-3), nk.AdamState([dense], 1e-3)
        for _ in range(3):
            grad = Factors(rng.normal(size=(rows, shape[0])), rng.normal(size=(rows, shape[1])))
            a_before = grad.a.copy()
            nk.adam_step([factored], [grad], f_state)
            nk.adam_step([dense], [grad.dense()], d_state)
            assert grad.a.tobytes() == a_before.tobytes()
        assert np.allclose(f_state.m[0], d_state.m[0], rtol=1e-13, atol=1e-16)
        assert np.allclose(f_state.v[0], d_state.v[0], rtol=1e-13, atol=1e-16)
        assert np.allclose(factored.data, dense.data, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("a_shape,g_shape", [((2, 6), (3, 4)), ((2, 5), (2, 4)),
                                                 ((2, 6), (2, 5)), ((2, 2, 6), (2, 4))],
                             ids=["row_counts", "a_width", "g_width", "a_3d"])
    def test_bad_factors_rejected_naming_their_parameter(self, a_shape, g_shape):
        params = [nk.Tensor(np.ones(3), requires_grad=True),
                  nk.Tensor(np.ones((6, 4)), requires_grad=True)]
        state = nk.AdamState(params, lr=1e-4)
        grad = Factors(np.ones(a_shape), np.ones(g_shape))
        with pytest.raises(ValueError, match="parameter 1 .*Factors of shapes"):
            nk.adam_step(params, [np.ones(3), grad], state)
        assert state.step_count == 0
        assert all((p.data == 1.0).all() for p in params)


class TestModule:
    def test_walks_tensor_attributes_in_order_with_dotted_names(self):
        class Inner(nk.Module):
            def __init__(self):
                self.b = nk.Tensor([2.0])
                self.a = nk.Tensor([1.0], requires_grad=True)

        class Holder:   # not a Module: its tensor is not walked
            def __init__(self):
                self.hidden = nk.Tensor([9.0])

        class Outer(nk.Module):
            def __init__(self):
                self.count = 3
                self.z = nk.Tensor([0.0])
                self.inner = Inner()
                self.holder = Holder()
                self.tensors = [nk.Tensor([8.0])]
                self.last = nk.Tensor([4.0])

        outer = Outer()
        named = outer.named_params()
        assert [name for name, _ in named] == ["z", "inner.b", "inner.a", "last"]
        expected = [outer.z, outer.inner.b, outer.inner.a, outer.last]
        assert [t for _, t in named] == expected   # tensors compare by identity
        assert outer.params() == expected

    def test_layers_name_weight_then_bias(self):
        rng = np.random.default_rng(0)
        for layer in (nk.Affine(2, 3, rng), nk.TanhMlp(2, 3, rng)):
            assert [name for name, _ in layer.named_params()] == ["w", "b"]
        gru = nk.GruParams(2, 3, rng)
        assert [name for name, _ in gru.named_params()] == [
            "w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_n", "u_n", "b_n"]


class TestGru:
    def test_zero_weights_halve_hidden(self):
        rng = np.random.default_rng(0)
        p = nk.GruParams(2, 3, rng)
        for _, t in p.named_params():
            t.data[:] = 0.0
        h = nk.gru_cell(nk.Tensor([[0.7, -0.2]]), nk.Tensor([[1.0, 2.0, 3.0]]), p)
        assert np.allclose(h.data, [[0.5, 1.0, 1.5]])

    def test_zero_input_and_hidden_stay_zero(self):
        rng = np.random.default_rng(1)
        p = nk.GruParams(2, 3, rng)  # random weights, zero biases
        h = nk.gru_cell(nk.zeros((1, 2)), nk.zeros((1, 3)), p)
        assert np.allclose(h.data, 0.0)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(42)
        p = nk.GruParams(2, 3, rng)
        for _, t in p.named_params():
            t.data[:] = rng.normal(size=t.data.shape)
        x = rng.normal(size=(1, 2))
        h = rng.normal(size=(1, 3))
        ours = nk.gru_cell(nk.Tensor(x), nk.Tensor(h), p)
        assert np.allclose(ours.data, np_gru_step(x, h, p), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        p = nk.GruParams(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            nk.gru_cell(nk.zeros((1, 5)), nk.zeros((1, 3)), p)
        with pytest.raises(ValueError):
            nk.gru_cell(nk.zeros((1, 2)), nk.zeros((1, 4)), p)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_equal_stacked_single_steps(self, k):
        rng = np.random.default_rng(60 + k)
        p = nk.GruParams(2, 3, rng)
        for t in p.params():
            t.data[:] = rng.normal(size=t.data.shape)
        x, h = rng.normal(size=(k, 2)), rng.normal(size=(k, 3))
        rows = nk.gru_cell(nk.Tensor(x), nk.Tensor(h), p)
        assert rows.shape == (k, 3)
        for i in range(k):
            one = nk.gru_cell(nk.Tensor(x[i:i + 1]), nk.Tensor(h[i:i + 1]), p)
            np.testing.assert_allclose(rows.data[i:i + 1], one.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x_shape,h_shape", [
        ((2, 2), (3, 3)),
        ((3, 2), (2, 3)),
        ((2,), (1, 3)),
        ((1, 2), (3,)),
    ])
    def test_mismatched_rows_name_both_shapes(self, x_shape, h_shape):
        p = nk.GruParams(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError) as err:
            nk.gru_cell(nk.zeros(x_shape), nk.zeros(h_shape), p)
        assert str(x_shape) in str(err.value) and str(h_shape) in str(err.value)

    def test_sequence_equals_chained_cells(self):
        rng = np.random.default_rng(65)
        p = nk.GruParams(2, 3, rng)
        for t in p.params():
            t.data[:] = rng.normal(size=t.data.shape)
        x, h0 = rng.normal(size=(5, 2)), rng.normal(size=(1, 3))
        states = nk.gru_sequence(nk.Tensor(x), nk.Tensor(h0), p, [5])
        assert states.shape == (5, 3)
        h = nk.Tensor(h0)
        for t in range(5):
            h = nk.gru_cell(nk.Tensor(x[t:t + 1]), h, p)
            np.testing.assert_allclose(states.data[t:t + 1], h.data, rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            nk.gru_sequence(nk.Tensor(x), nk.Tensor(np.concatenate([h0, h0])), p, [5])
        with pytest.raises(ValueError):
            nk.gru_sequence(nk.Tensor(x[0]), nk.Tensor(h0), p, [1])
        # one start row per sequence
        with pytest.raises(ValueError, match=re.escape("(1, 3)")):
            nk.gru_sequence(nk.Tensor(x), nk.Tensor(h0), p, [2, 3])
        # lengths that cover the input, each at least one
        with pytest.raises(ValueError, match="lengths"):
            nk.gru_sequence(nk.Tensor(x), nk.Tensor(h0), p, [4])
        with pytest.raises(ValueError, match="lengths"):
            nk.gru_sequence(nk.Tensor(x), nk.Tensor(np.concatenate([h0, h0])), p, [5, 0])

    def test_held_start_rows_equal_their_own_runs(self):
        # rows of different lengths, each from its own start, in both
        # directions: a row that ends early holds its last state, and the
        # gradients pass the held steps unchanged, so each row equals a run
        # of that row alone
        rng = np.random.default_rng(66)
        p = nk.GruParams(2, 3, rng)
        for t in p.params():
            t.data[:] = rng.normal(size=t.data.shape)
        lengths = [1, 4, 2]
        x = nk.Tensor(rng.normal(size=(7, 2)), requires_grad=True)
        h0 = nk.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        weights = rng.normal(size=(7, 3))
        for run in (lambda x, h0, lengths: nk.gru_sequence(x, h0, p, lengths),
                    lambda x, h0, lengths: gru_module._gru(x, h0, p, True, lengths)):
            with nk.Tape() as tape:
                out = run(x, h0, lengths)
                loss = nk.sum_(nk.mul(out, weights))
            got = nk.backward(loss, tape)
            begin = 0
            for i, n in enumerate(lengths):
                xi = nk.Tensor(x.data[begin:begin + n], requires_grad=True)
                hi = nk.Tensor(h0.data[i:i + 1], requires_grad=True)
                with nk.Tape() as tape:
                    one = run(xi, hi, [n])
                    one_loss = nk.sum_(nk.mul(one, weights[begin:begin + n]))
                want = nk.backward(one_loss, tape)
                np.testing.assert_allclose(out.data[begin:begin + n], one.data,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(got[x][begin:begin + n], want[xi],
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(got[h0][i:i + 1], want[hi], rtol=0, atol=1e-12)
                begin += n

    def test_gradients_through_cell(self):
        rng = np.random.default_rng(5)
        p = nk.GruParams(2, 3, rng)
        x = nk.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        h = nk.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        params = [x, h] + [t for _, t in p.named_params()]
        err = grad_check(lambda: nk.sum_(nk.gru_cell(x, h, p)), params)
        assert err < 1e-6


class TestBigru:
    def test_length_one_step_equals_final(self):
        rng = np.random.default_rng(2)
        fwd = nk.GruParams(2, 3, rng)
        bwd = nk.GruParams(2, 3, rng)
        ahead, behind, final = nk.bigru_encode(nk.Tensor([[0.3, -0.6]]), fwd, bwd, [1])
        assert ahead.shape == behind.shape == (1, 3)
        assert np.array_equal(np.hstack([ahead.data, behind.data]), final.data)

    def test_palindrome_with_shared_params_mirrors(self):
        rng = np.random.default_rng(3)
        fwd = nk.GruParams(2, 3, rng)
        seq = nk.Tensor([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
        ahead, behind, _ = nk.bigru_encode(seq, fwd, fwd, [3])
        n = seq.shape[0]
        for t in range(n):
            assert np.allclose(ahead.data[t], behind.data[n - 1 - t], atol=1e-12)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(9)
        fwd = nk.GruParams(2, 3, rng)
        bwd = nk.GruParams(2, 3, rng)
        raw = [rng.normal(size=2) for _ in range(3)]
        ahead, behind, final = nk.bigru_encode(nk.Tensor(np.stack(raw)), fwd, bwd, [3])
        oracle_steps, oracle_final = np_bigru(raw, fwd, bwd)
        assert ahead.shape == behind.shape == (3, 3)
        for ours, expected in zip(np.hstack([ahead.data, behind.data]), oracle_steps):
            assert np.allclose(ours, expected, atol=1e-12)
        assert np.allclose(final.data, [oracle_final], atol=1e-12)

    def test_gradients_equal_a_row_slice_oracle_bitwise(self):
        # bigru_encode gathers the final state's rows with lookup; the oracle
        # runs the same two direction kernels and takes those rows with a
        # numpy row slice whose backward writes the row into zeros
        def row_slice(states, row):
            shape = states.shape

            def backward_fn(g):
                full = np.zeros(shape)
                full[[row]] += g
                return [full]

            return tensor_module._finish(states.data[[row]], (states,), backward_fn)

        rng = np.random.default_rng(12)
        fwd, bwd = nk.GruParams(2, 3, rng), nk.GruParams(2, 3, rng)
        x = nk.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        params = [x] + fwd.params() + bwd.params()
        for t in params:
            t.data[:] = rng.normal(size=t.shape)
        with nk.Tape() as tape:
            got_loss = bigru_loss(*nk.bigru_encode(x, fwd, bwd, [4]))
        got = nk.backward(got_loss, tape, params)
        with nk.Tape() as tape:
            start = nk.zeros((1, 3))
            ahead = gru_module._gru(x, start, fwd, False, [4])
            behind = gru_module._gru(x, start, bwd, True, [4])
            want_loss = bigru_loss(ahead, behind,
                                   nk.concat([row_slice(ahead, -1), row_slice(behind, 0)]))
        want = nk.backward(want_loss, tape, params)
        assert got_loss.item() == want_loss.item()
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("lengths", [[3, 1, 4, 2], [2, 2], [1], [5], [1, 1, 1], [1, 6]])
    def test_ragged_rows_match_per_sequence_oracle(self, lengths):
        # n sequences as rows of one record per direction: states in input
        # order and finals as rows, each as if encoded alone
        rng = np.random.default_rng(sum(lengths) + len(lengths))
        fwd, bwd = nk.GruParams(2, 3, rng), nk.GruParams(2, 3, rng)
        for t in fwd.params() + bwd.params():
            t.data[:] = rng.normal(size=t.shape)
        raw = rng.normal(size=(sum(lengths), 2))
        ahead, behind, finals = nk.bigru_encode(nk.Tensor(raw), fwd, bwd, lengths)
        steps = np.hstack([ahead.data, behind.data])
        assert steps.shape == (sum(lengths), 6) and finals.shape == (len(lengths), 6)
        begin = 0
        for i, n in enumerate(lengths):
            oracle_steps, oracle_final = np_bigru(list(raw[begin:begin + n]), fwd, bwd)
            np.testing.assert_allclose(steps[begin:begin + n], np.stack(oracle_steps),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(finals.data[i], oracle_final, rtol=0, atol=1e-12)
            begin += n

    def test_ragged_gradients_equal_per_sequence_runs(self):
        rng = np.random.default_rng(13)
        fwd, bwd = nk.GruParams(2, 3, rng), nk.GruParams(2, 3, rng)
        lengths = [2, 5, 1, 3]
        x = nk.Tensor(rng.normal(size=(sum(lengths), 2)), requires_grad=True)
        params = fwd.params() + bwd.params()
        for t in params:
            t.data[:] = rng.normal(size=t.shape)
        with nk.Tape() as tape:
            loss = bigru_loss(*nk.bigru_encode(x, fwd, bwd, lengths))
        got = nk.backward(loss, tape, [x] + params)
        pieces, begin = [], 0
        for n in lengths:
            pieces.append(nk.Tensor(x.data[begin:begin + n], requires_grad=True))
            begin += n
        with nk.Tape() as tape:
            want_loss = functools.reduce(nk.add, [
                bigru_loss(*nk.bigru_encode(piece, fwd, bwd, [piece.shape[0]]))
                for piece in pieces])
        want = nk.backward(want_loss, tape, pieces + params)
        assert loss.item() == pytest.approx(want_loss.item(), rel=1e-13, abs=0)
        np.testing.assert_allclose(got[0], np.concatenate(want[:len(pieces)]),
                                   rtol=0, atol=1e-12)
        for g, w in zip(got[1:], want[len(pieces):], strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lengths", [[3, 2], [4, 0], [5], [], [-1, 5]])
    def test_lengths_must_be_positive_and_cover_the_input(self, lengths):
        fwd = nk.GruParams(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="lengths"):
            nk.bigru_encode(nk.zeros((4, 2)), fwd, fwd, lengths)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(0)
        fwd = nk.GruParams(2, 3, rng)
        with pytest.raises(ValueError):
            nk.bigru_encode(nk.zeros((0, 2)), fwd, fwd, [0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_softmax_is_a_distribution(values):
    # the softmax of both attention records
    out = tensor_module._softmax(np.asarray(values))
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) < 1e-12


def test_bigru_rejects_input_that_is_not_a_t_by_e_matrix():
    fwd = nk.GruParams(2, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        nk.bigru_encode(nk.zeros((4, 5)), fwd, fwd, [4])
    with pytest.raises(ValueError):
        nk.bigru_encode(nk.zeros(2), fwd, fwd, [2])


def test_huge_gru_weights_raise_from_both_entry_points():
    # the fused kernels keep the per-op contract: a non-finite
    # pre-activation raises, although the gates it saturates stay finite
    rng = np.random.default_rng(4)
    params = nk.GruParams(2, 3, rng)
    for name in ("w_z", "w_r", "w_n"):
        getattr(params, name).data[:] = 1e308
    x = nk.Tensor([[10.0, 10.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            nk.gru_cell(x, nk.zeros((1, 3)), params)
        with pytest.raises(FloatingPointError):
            nk.bigru_encode(nk.Tensor([[0.1, 0.2], [10.0, 10.0]]),
                            nk.GruParams(2, 3, rng), params, [2])


def test_sigmoid_matches_two_branch_reference_bitwise():
    # reference: each formula evaluated only on its own half of the inputs
    rng = np.random.default_rng(8)
    v = np.concatenate([rng.normal(size=1000) * scale for scale in (1e-3, 1.0, 30.0, 800.0)]
                       + [[0.0, -0.0, 1e-320, -1e-320, np.inf, -np.inf]])
    want = np.empty_like(v)
    pos = v >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    want[~pos] = ev / (1.0 + ev)
    assert tensor_module._sigmoid_stable(v).tobytes() == want.tobytes()


def test_finite_check_raises_at_the_failing_op():
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            nk.exp(nk.Tensor([1000.0]))


def test_non_finite_error_names_the_primitive_and_its_input_shapes():
    x = nk.Tensor(np.ones((2, 3)))
    w = nk.Tensor(np.full((3, 4), 800.0), requires_grad=True)
    with np.errstate(over="ignore"), nk.Tape(), pytest.raises(FloatingPointError) as err:
        nk.exp(nk.matmul(x, w))
    assert str(err.value) == "exp produced non-finite values (inputs of shapes (2, 4))"


# exports that no caller outside numkit needs by name: the gradient forms,
# which callers meet as values
UNCALLED_EXPORTS = {"Factors", "RowGrad"}


def test_every_numkit_export_is_used_outside_numkit():
    # a primitive that loses its last caller goes with it instead of lingering
    package = Path(nk.__file__).parent
    exports = {alias.asname or alias.name
               for node in ast.parse((package / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in package.parent.rglob("*.py"):
        if package in path.parents:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("numkit", "personagen.numkit"):
                imported.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module in (None, "personagen"):
                modules.update(a.asname or a.name for a in node.names if a.name == "numkit")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in imported:
                used.add(imported[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                used.add(node.attr)
    assert sorted(exports - used - UNCALLED_EXPORTS) == []


def test_every_package_definition_is_named_outside_itself():
    # a module-level function or class, or a method, that nothing in the
    # package or the benchmark names serves tests alone, and test code lives
    # in tests/; the benchmark's tracer names its sites in strings, so a
    # string that is a whole name counts as a use
    def names(tree) -> collections.Counter:
        counts = collections.Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                counts[node.value] += 1
        return counts

    package = Path(nk.__file__).parent.parent
    perfbench = package.parents[1] / "perfbench"
    uses, definitions = collections.Counter(), []
    for path in sorted(package.rglob("*.py")) + sorted(perfbench.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses.update(names(tree))
        if package not in path.parents:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path, node))
            if isinstance(node, ast.ClassDef):
                definitions += [(path, member) for member in node.body
                                if isinstance(member, ast.FunctionDef)
                                and not re.fullmatch(r"__\w+__", member.name)]
    unused = [f"{path.relative_to(package)}:{node.lineno}: {node.name}"
              for path, node in definitions if uses[node.name] == names(node)[node.name]]
    assert unused == []


def test_no_module_imports_a_name_it_never_uses():
    # a deleted caller's import goes with it; package __init__ modules
    # import names to export them
    package = Path(nk.__file__).parent.parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(package)}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []
