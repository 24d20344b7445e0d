import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import np_bigru, np_gru_step
from personagen import numkit as nk
from personagen.numkit.tensor import RowGrad


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
            loss = nk.sum_(x * y)
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
        logits = nk.Tensor(rng.normal(size=4), requires_grad=True)
        with nk.Tape() as tape:
            loss = nk.cross_entropy(nk.softmax(logits), 1)
        grads = nk.backward(loss, tape)
        numeric = finite_difference(
            lambda: nk.cross_entropy(nk.softmax(logits), 1).item(), logits)
        rel = np.abs(grads[logits] - numeric) / np.maximum(1e-8, np.abs(numeric))
        assert rel.max() < 1e-6

    def test_non_scalar_loss_rejected(self):
        x = nk.Tensor([1.0, 2.0], requires_grad=True)
        with nk.Tape() as tape:
            out = x * 2.0
        with pytest.raises(ValueError):
            nk.backward(out, tape)

    def test_unreachable_tensor_gets_zero_gradient(self):
        x = nk.Tensor([1.0, 2.0], requires_grad=True)
        y = nk.Tensor([3.0, 4.0], requires_grad=True)
        with nk.Tape() as tape:
            _ = x * y  # recorded but not part of the loss
            loss = nk.sum_(x)
        grads = nk.backward(loss, tape)
        assert np.array_equal(grads[y], np.zeros(2))

    def test_backward_is_linear_over_loss_sum(self):
        rng = np.random.default_rng(3)
        x = nk.Tensor(rng.normal(size=5), requires_grad=True)

        with nk.Tape() as tape:
            loss_a = nk.sum_(nk.tanh(x))
        ga = nk.backward(loss_a, tape)[x]
        with nk.Tape() as tape:
            loss_b = nk.sum_(x * x)
        gb = nk.backward(loss_b, tape)[x]
        with nk.Tape() as tape:
            total = nk.sum_(nk.tanh(x)) + nk.sum_(x * x)
        gt = nk.backward(total, tape)[x]
        assert np.allclose(gt, ga + gb, atol=1e-12)

    def test_repeated_input_accumulates(self):
        x = nk.Tensor([3.0], requires_grad=True)
        with nk.Tape() as tape:
            loss = nk.sum_(x * x)
        grads = nk.backward(loss, tape)
        assert np.allclose(grads[x], [6.0])

    def test_nothing_recorded_without_tape(self):
        x = nk.Tensor([1.0], requires_grad=True)
        out = x * 2.0
        assert not out._tracked


# primitives whose backward hands on the upstream gradient itself, or (scale)
# a constant multiple of it
PASS_THROUGH_CASES = {
    "add": (lambda a, b: nk.add(a, b), [(3, 2), (3, 2)]),
    "add_broadcast": (lambda a, b: nk.add(a, b), [(3, 2), (2,)]),
    "add_chain": (lambda a, b: nk.add(nk.add(a, b), a), [(4,), (4,)]),
    "scale": (lambda a, b: nk.add(nk.scale(a, 1.0), nk.scale(b, 1.0)), [(4,), (4,)]),
    "sub": (lambda a, b: nk.sub(a, b), [(3, 2), (3, 2)]),
}


class TestGradientOwnership:
    def test_clipping_two_leaves_of_one_sum(self):
        # add hands its upstream gradient to both operands; if both leaves
        # kept that one array, clipping would scale it twice
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
        x = nk.Tensor(rng.normal(size=5), requires_grad=True)

        def fn():
            def sparse():
                return nk.sum_(nk.tanh(nk.lookup(table, [1, 3, 1])), axis=0) + nk.lookup(table, 1)

            def dense():
                return nk.matmul(x, table)

            if lookup_first:
                s, d = sparse(), dense()
            else:
                d, s = dense(), sparse()
            return nk.sum_(nk.mul(s, nk.tanh(d)))

        assert nk.grad_check(fn, [table, x]) < 1e-6


def gru_shapes(input_dim, hidden_dim):
    """Shapes of GruParams' nine tensors, in declaration order."""
    w, u, b = (input_dim, hidden_dim), (hidden_dim, hidden_dim), (hidden_dim,)
    return [w, u, b] * 3


def gru_cell_case(x, h, *weights):
    return nk.sum_(nk.tanh(nk.gru_cell(x, h, nk.GruParams(2, 3, *weights))))


def bigru_case(x, *weights):
    steps, final = nk.bigru_encode(x, nk.GruParams(2, 3, *weights[:9]),
                                   nk.GruParams(2, 3, *weights[9:]))
    return nk.add(nk.sum_(nk.tanh(steps)), nk.sum_(nk.mul(final, final)))


PRIMITIVE_CASES = {
    "matmul_mat_vec": (lambda a, b: nk.sum_(nk.matmul(a, b)), [(3, 4), (4,)]),
    "matmul_vec_mat": (lambda a, b: nk.sum_(nk.matmul(a, b)), [(3,), (3, 2)]),
    "matmul_mat_mat": (lambda a, b: nk.sum_(nk.matmul(a, b)), [(2, 3), (3, 2)]),
    "matmul_dot": (lambda a, b: nk.matmul(a, b), [(4,), (4,)]),
    "add": (lambda a, b: nk.sum_(nk.add(a, b)), [(3, 2), (3, 2)]),
    "add_broadcast": (lambda a, b: nk.sum_(nk.mul(nk.add(a, b), nk.add(a, b))), [(3, 2), (2,)]),
    "sub": (lambda a, b: nk.sum_(nk.mul(nk.sub(a, b), nk.sub(a, b))), [(4,), (4,)]),
    "mul": (lambda a, b: nk.sum_(nk.mul(a, b)), [(2, 3), (2, 3)]),
    "scale": (lambda a: nk.sum_(nk.scale(a, -2.5)), [(5,)]),
    "concat": (lambda a, b: nk.sum_(nk.tanh(nk.concat([a, b]))), [(3,), (2,)]),
    "stack": (lambda a, b: nk.sum_(nk.tanh(nk.stack([a, b]))), [(3,), (3,)]),
    "slice": (lambda a: nk.sum_(nk.slice_(a, (slice(0, 2), 1))), [(3, 3)]),
    "sum_axis": (lambda a: nk.sum_(nk.tanh(nk.sum_(a, axis=0))), [(3, 2)]),
    "mean": (lambda a: nk.mean(nk.mul(a, a)), [(4,)]),
    "mean_axis": (lambda a: nk.sum_(nk.tanh(nk.mean(a, axis=1))), [(2, 3)]),
    "tanh": (lambda a: nk.sum_(nk.tanh(a)), [(4,)]),
    "sigmoid": (lambda a: nk.sum_(nk.sigmoid(a)), [(4,)]),
    "softplus": (lambda a: nk.sum_(nk.softplus(a)), [(4,)]),
    "softmax": (lambda a: nk.sum_(nk.mul(nk.softmax(a), nk.softmax(a))), [(5,)]),
    "exp": (lambda a: nk.sum_(nk.exp(a)), [(4,)]),
    "log": (lambda a: nk.sum_(nk.log(nk.add(nk.mul(a, a), 0.5))), [(4,)]),
    "clip": (lambda a: nk.sum_(nk.clip(a, -0.5, 0.5)), [(6,)]),
    "lookup": (lambda a: nk.sum_(nk.tanh(nk.lookup(a, [0, 2, 2]))), [(4, 3)]),
    "cross_entropy": (lambda a: nk.cross_entropy(nk.softmax(a), 2), [(5,)]),
    "gru_cell": (gru_cell_case, [(2,), (3,)] + gru_shapes(2, 3)),
    "bigru_encode": (bigru_case, [(4, 2)] + gru_shapes(2, 3) * 2),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    build, shapes = PRIMITIVE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params = [nk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    assert nk.grad_check(lambda: build(*params), params) < 1e-6


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_backward_rules_return_upstream_or_fresh_arrays(name):
    # backward owns, and later adds into, every dense gradient a rule returns
    # that is not the upstream gradient itself; that is sound only if such an
    # array shares memory with nothing else the rule hands out
    build, shapes = PRIMITIVE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params = [nk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    with nk.Tape() as tape:
        build(*params)
    for rec in tape.records:
        g_out = np.asarray(rng.normal(size=rec.output.shape))
        fresh = [g for g in rec.backward_fn(g_out)
                 if g is not None and g is not g_out and not isinstance(g, RowGrad)]
        for g in fresh:
            assert not np.shares_memory(g, g_out)
        for g, h in itertools.combinations(fresh, 2):
            assert not np.shares_memory(g, h)


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
        err = nk.grad_check(lambda: nk.sum_(x * x), [x], eps=1e-4)
        assert err < 1e-8

    def test_constant_function_has_zero_error(self):
        x = nk.Tensor([1.0, 2.0], requires_grad=True)
        err = nk.grad_check(lambda: nk.Tensor(5.0), [x])
        assert err == 0.0

    def test_non_finite_eval_identifies_perturbation(self):
        x = nk.Tensor([1e-5], requires_grad=True)
        # log turns negative under the -eps probe
        with pytest.raises(FloatingPointError, match="param 0 entry 0"):
            nk.grad_check(lambda: nk.log(x), [x], eps=1e-4)

    def test_rejects_bad_eps(self):
        x = nk.Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            nk.grad_check(lambda: nk.sum_(x), [x], eps=0.0)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = nk.Tensor([1.0, -2.0], requires_grad=True)
        state = nk.AdamState.create([p], lr=0.01)
        before = p.data.copy()
        nk.adam_step([p], [np.zeros(2)], state)
        assert np.array_equal(p.data, before)
        assert state.step_count == 1

    def test_first_step_magnitude_is_learning_rate(self):
        p = nk.Tensor([0.0], requires_grad=True)
        state = nk.AdamState.create([p], lr=1e-4)
        nk.adam_step([p], [np.ones(1)], state)
        # bias correction makes the first update almost exactly -lr
        assert p.data[0] == pytest.approx(-1e-4, rel=1e-6)

    def test_constant_gradient_approaches_lr_per_step(self):
        p = nk.Tensor([0.0], requires_grad=True)
        state = nk.AdamState.create([p], lr=1e-3)
        g = np.array([0.37])
        previous = p.data.copy()
        for _ in range(500):
            previous = p.data.copy()
            nk.adam_step([p], [g.copy()], state)
        delta = p.data - previous
        assert delta[0] == pytest.approx(-1e-3, rel=1e-3)

    def test_moments_decay_on_zero_gradient(self):
        p = nk.Tensor([0.0], requires_grad=True)
        state = nk.AdamState.create([p], lr=1e-3)
        nk.adam_step([p], [np.ones(1)], state)
        m_before = state.m[0].copy()
        nk.adam_step([p], [np.zeros(1)], state)
        assert np.allclose(state.m[0], 0.9 * m_before)

    def test_deterministic_bitwise(self):
        def run():
            p = nk.Tensor([0.5, -0.5], requires_grad=True)
            state = nk.AdamState.create([p], lr=0.01)
            for step in range(20):
                nk.adam_step([p], [np.array([0.1 * step, -0.3])], state)
            return p.data.tobytes()

        assert run() == run()

    def test_matches_reference_formula_bitwise(self):
        # the in-place, blocked update against the textbook expression; the
        # shapes cover a scalar, a vector and matrices above the block size
        rng = np.random.default_rng(11)
        shapes = [(), (7,), (3, 40000), (40000, 3)]
        params = [nk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        state = nk.AdamState.create(params, lr=3e-3)
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
                m_hat = ref_m[i] / (1.0 - b1 ** t)
                v_hat = ref_v[i] / (1.0 - b2 ** t)
                ref_p[i] = ref_p[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for p, m, v, want_p, want_m, want_v in zip(params, state.m, state.v,
                                                     ref_p, ref_m, ref_v):
            assert p.data.tobytes() == np.asarray(want_p).tobytes()
            assert m.tobytes() == np.asarray(want_m).tobytes()
            assert v.tobytes() == np.asarray(want_v).tobytes()

    def test_shape_mismatch_rejected(self):
        p = nk.Tensor([1.0, 2.0], requires_grad=True)
        state = nk.AdamState.create([p])
        with pytest.raises(ValueError):
            nk.adam_step([p], [np.zeros(3)], state)


class TestClipGlobalNorm:
    def test_scales_down_only_when_above(self):
        grads = [np.array([3.0, 4.0])]
        norm = nk.clip_global_norm(grads, 10.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(grads[0], [3.0, 4.0])
        norm = nk.clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(grads[0]) == pytest.approx(1.0)


class TestGru:
    def test_zero_weights_halve_hidden(self):
        rng = np.random.default_rng(0)
        p = nk.GruParams.create(2, 3, rng)
        for _, t in p.named_params("p"):
            t.data[:] = 0.0
        h = nk.gru_cell(nk.Tensor([0.7, -0.2]), nk.Tensor([1.0, 2.0, 3.0]), p)
        assert np.allclose(h.data, [0.5, 1.0, 1.5])

    def test_zero_input_and_hidden_stay_zero(self):
        rng = np.random.default_rng(1)
        p = nk.GruParams.create(2, 3, rng)  # random weights, zero biases
        h = nk.gru_cell(nk.zeros(2), nk.zeros(3), p)
        assert np.allclose(h.data, 0.0)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(42)
        p = nk.GruParams.create(2, 3, rng)
        for _, t in p.named_params("p"):
            t.data[:] = rng.normal(size=t.data.shape)
        x = rng.normal(size=2)
        h = rng.normal(size=3)
        ours = nk.gru_cell(nk.Tensor(x), nk.Tensor(h), p)
        assert np.allclose(ours.data, np_gru_step(x, h, p), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        p = nk.GruParams.create(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            nk.gru_cell(nk.zeros(5), nk.zeros(3), p)
        with pytest.raises(ValueError):
            nk.gru_cell(nk.zeros(2), nk.zeros(4), p)

    def test_gradients_through_cell(self):
        rng = np.random.default_rng(5)
        p = nk.GruParams.create(2, 3, rng)
        x = nk.Tensor(rng.normal(size=2), requires_grad=True)
        h = nk.Tensor(rng.normal(size=3), requires_grad=True)
        params = [x, h] + [t for _, t in p.named_params("p")]
        err = nk.grad_check(lambda: nk.sum_(nk.gru_cell(x, h, p)), params)
        assert err < 1e-6


class TestBigru:
    def test_length_one_step_equals_final(self):
        rng = np.random.default_rng(2)
        fwd = nk.GruParams.create(2, 3, rng)
        bwd = nk.GruParams.create(2, 3, rng)
        steps, final = nk.bigru_encode(nk.Tensor([[0.3, -0.6]]), fwd, bwd)
        assert steps.shape == (1, 6)
        assert np.array_equal(steps.data[0], final.data)

    def test_palindrome_with_shared_params_mirrors(self):
        rng = np.random.default_rng(3)
        fwd = nk.GruParams.create(2, 3, rng)
        seq = nk.Tensor([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
        steps, _ = nk.bigru_encode(seq, fwd, fwd)
        n = seq.shape[0]
        for t in range(n):
            fwd_part = steps.data[t, :3]
            bwd_part = steps.data[n - 1 - t, 3:]
            assert np.allclose(fwd_part, bwd_part, atol=1e-12)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(9)
        fwd = nk.GruParams.create(2, 3, rng)
        bwd = nk.GruParams.create(2, 3, rng)
        raw = [rng.normal(size=2) for _ in range(3)]
        steps, final = nk.bigru_encode(nk.Tensor(np.stack(raw)), fwd, bwd)
        oracle_steps, oracle_final = np_bigru(raw, fwd, bwd)
        assert steps.shape == (3, 6)
        for ours, expected in zip(steps.data, oracle_steps):
            assert np.allclose(ours, expected, atol=1e-12)
        assert np.allclose(final.data, oracle_final, atol=1e-12)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(0)
        fwd = nk.GruParams.create(2, 3, rng)
        with pytest.raises(ValueError):
            nk.bigru_encode(nk.zeros((0, 2)), fwd, fwd)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_softmax_is_a_distribution(values):
    out = nk.softmax(nk.Tensor(values)).data
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) < 1e-12


def test_bigru_rejects_input_that_is_not_a_t_by_e_matrix():
    fwd = nk.GruParams.create(2, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        nk.bigru_encode(nk.zeros((4, 5)), fwd, fwd)
    with pytest.raises(ValueError):
        nk.bigru_encode(nk.zeros(2), fwd, fwd)


def test_huge_gru_weights_raise_from_both_entry_points():
    # the fused kernels keep the per-op contract: a non-finite
    # pre-activation raises, although the gates it saturates stay finite
    rng = np.random.default_rng(4)
    params = nk.GruParams.create(2, 3, rng)
    for name in ("w_z", "w_r", "w_n"):
        getattr(params, name).data[:] = 1e308
    x = nk.Tensor([10.0, 10.0])
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            nk.gru_cell(x, nk.zeros(3), params)
        with pytest.raises(FloatingPointError):
            nk.bigru_encode(nk.Tensor([[0.1, 0.2], [10.0, 10.0]]),
                            nk.GruParams.create(2, 3, rng), params)
        previous = nk.set_finite_checks(False)
        try:
            assert np.isfinite(nk.gru_cell(x, nk.zeros(3), params).data).all()
        finally:
            nk.set_finite_checks(previous)


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
    assert nk.sigmoid(nk.Tensor(v)).data.tobytes() == want.tobytes()


def test_finite_check_raises_at_the_failing_op():
    with pytest.raises(FloatingPointError):
        nk.log(nk.Tensor([-1.0]))


def test_finite_check_can_be_disabled():
    previous = nk.set_finite_checks(False)
    try:
        out = nk.log(nk.Tensor([-1.0]))
        assert np.isnan(out.data).all()
    finally:
        nk.set_finite_checks(previous)
