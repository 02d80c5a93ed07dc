import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from peer_lab import tensor as T
from peer_lab.tensor import BNState, MacMeter, Tape, Tensor


def rand(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_product(self):
        # brute-force oracle: c[i,j] = sum_k a[i,k] * b[k,j]
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += a[i, k] * b[k, j]
        assert np.array_equal(expected, [[19.0, 22.0], [43.0, 50.0]])
        assert np.array_equal(T.matmul(Tensor(a), Tensor(b)).data, expected)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_backward(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        g = rng.normal(size=(3, 2))
        with Tape() as tape:
            out = T.matmul(a, b)
            tape.backward(out, grad=g)
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_direct_formula(self):
        out = T.softmax(Tensor([math.log(2.0), 0.0])).data
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_stabilized_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_empty_axis_errors(self):
        with pytest.raises(ValueError):
            T.softmax(Tensor(np.zeros((3, 0))))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6), elements=st.floats(-50, 50)))
    def test_rows_sum_to_one(self, x):
        out = T.softmax(Tensor(x)).data
        assert np.all(out > 0)
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) <= 1e-12


class TestBatchNorm:
    def test_two_point_column(self):
        state = BNState.create(1)
        out = T.batch_norm(Tensor([[1.0], [3.0]]), state, "train")
        assert np.allclose(out.data, [[-1.0], [1.0]], atol=1e-4)

    def test_infer_is_identity_with_unit_stats(self):
        state = BNState.create(3)
        x = np.array([[0.3, -1.2, 4.0]])
        out = T.batch_norm(Tensor(x), state, "infer")
        assert np.allclose(out.data, x, atol=1e-4)

    def test_constant_column_train_gives_zeros(self):
        state = BNState.create(2)
        out = T.batch_norm(Tensor([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), state, "train")
        assert np.all(out.data[:, 0] == 0.0)

    def test_batch_of_one_errors(self):
        with pytest.raises(ValueError):
            T.batch_norm(Tensor([[1.0, 2.0]]), BNState.create(2), "train")

    def test_running_stats_ema(self):
        state = BNState.create(1, momentum=0.9)
        x = np.array([[1.0], [3.0]])
        T.batch_norm(Tensor(x), state, "train")
        assert state.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
        assert state.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_infer_deterministic_per_row(self):
        state = BNState.create(2)
        state.running_mean[:] = [0.5, -0.5]
        state.running_var[:] = [2.0, 0.3]
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = T.batch_norm(Tensor(x), state, "infer").data
        b = T.batch_norm(Tensor(x[::-1].copy()), state, "infer").data
        assert np.array_equal(a, b[::-1])


class TestGatherScatter:
    def test_gather_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(table, np.array([2, 0, 2]))
        assert np.array_equal(out.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0], [6.0, 7.0, 8.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            T.gather_rows(Tensor(np.zeros((4, 3))), np.array([4]))

    def test_adjoint_equals_one_hot_formulation_exactly(self):
        # integer-valued gradients make sums order-independent, so the
        # sequential-loop oracle is exact in floating point
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, r, d = 11, 40, 5
            idx = rng.integers(0, n, size=r)
            g = rng.integers(-8, 9, size=(r, d)).astype(np.float64)
            table = Tensor(np.zeros((n, d)), requires_grad=True)
            with Tape() as tape:
                out = T.gather_rows(table, idx)
                tape.backward(out, grad=g)
            oracle = np.zeros((n, d))
            for row, grad_row in zip(idx, g):
                oracle[row] += grad_row
            assert np.array_equal(table.grad, oracle)

    def test_untouched_rows_bitwise_zero(self):
        rng = np.random.default_rng(1)
        table = Tensor(rng.normal(size=(100, 8)), requires_grad=True)
        idx = np.array([3, 7, 3, 50])
        with Tape() as tape:
            out = T.gather_rows(table, idx)
            tape.backward(out, grad=rng.normal(size=out.data.shape))
        untouched = np.setdiff1d(np.arange(100), idx)
        assert np.all(table.grad[untouched] == 0.0)
        assert np.all(table.grad[np.unique(idx)] != 0.0)

    def test_scatter_rows_add(self):
        base = Tensor(np.zeros((4, 2)), requires_grad=True)
        rows = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        idx = np.array([1, 1, 3])
        with Tape() as tape:
            out = T.scatter_rows_add(base, idx, rows)
            tape.backward(out, grad=np.ones((4, 2)))
        assert np.array_equal(out.data, [[0.0, 0.0], [4.0, 6.0], [0.0, 0.0], [5.0, 6.0]])
        assert np.array_equal(base.grad, np.ones((4, 2)))
        assert np.array_equal(rows.grad, np.ones((3, 2)))


class TestTopK:
    def test_ties_resolve_to_lowest_index(self):
        idx, vals = T.top_k(np.array([1.0, 3.0, 3.0, 3.0, 0.0]), 2)
        assert idx.tolist() == [1, 2]
        assert vals.tolist() == [3.0, 3.0]

    def test_all_equal(self):
        idx, _ = T.top_k(np.zeros(6), 4)
        assert idx.tolist() == [0, 1, 2, 3]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            T.top_k(np.zeros(3), 4)
        with pytest.raises(ValueError):
            T.top_k(np.zeros(3), 0)

    @settings(max_examples=80, deadline=None)
    @given(
        hnp.arrays(np.float64, st.integers(1, 12), elements=st.floats(-5, 5).map(lambda v: round(v, 1))),
        st.data(),
    )
    def test_matches_lexicographic_brute_force(self, v, data):
        k = data.draw(st.integers(1, v.shape[0]))
        idx, vals = T.top_k(v, k)
        order = sorted(range(len(v)), key=lambda i: (-v[i], i))[:k]
        assert idx.tolist() == order
        assert vals.tolist() == [v[i] for i in order]

    def test_last_axis_batched(self):
        v = np.array([[1.0, 2.0], [5.0, 0.0]])
        idx, vals = T.top_k(v, 1)
        assert idx.ravel().tolist() == [1, 0]
        assert vals.ravel().tolist() == [2.0, 5.0]


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 256)))
        loss = T.cross_entropy_with_logits(logits, np.array([0, 100, 255]))
        assert float(loss.data) == pytest.approx(math.log(256.0), rel=1e-12)

    def test_two_class_hand_value(self):
        loss = T.cross_entropy_with_logits(Tensor([[0.0, 0.0]]), np.array([0]))
        assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            T.cross_entropy_with_logits(Tensor(np.zeros((2, 4))), np.array([0, 1, 2]))


class TestTapeSemantics:
    def test_grad_accumulates_over_uses(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            y = T.add(x, x)
            tape.backward(y, grad=np.array([1.0, 1.0]))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_no_tape_no_recording(self):
        x = Tensor([1.0], requires_grad=True)
        y = T.scale(x, 2.0)
        assert y.requires_grad is False and y.grad is None

    def test_nonscalar_backward_needs_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.scale(x, 2.0)
            with pytest.raises(ValueError):
                tape.backward(y)

    def test_unused_branch_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            _dead = T.scale(z, 3.0)
            y = T.sum_all(T.scale(x, 2.0))
            tape.backward(y)
        assert z.grad is None
        assert np.array_equal(x.grad, [2.0])

    def test_mac_meter_counts_matmul(self):
        with MacMeter() as meter:
            T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))))
        assert meter.total == 3 * 4 * 5
        with MacMeter() as meter:
            with T.macs_uncounted():
                T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))))
        assert meter.total == 0

    def test_mac_meter_counts_comparisons_and_pauses_both(self):
        with MacMeter() as meter:
            T.count_macs(7, comparisons=3)
            T.count_macs(2)
            with T.macs_uncounted():
                T.count_macs(5, comparisons=4)
        assert (meter.total, meter.comparisons) == (9, 3)


class TestGradCheck:
    def test_constant_function_zero_error(self):
        p = Tensor([1.0, 2.0], requires_grad=True)

        def f():
            return T.sum_all(T.scale(T.mul(p, Tensor([0.0, 0.0])), 1.0))

        assert T.grad_check(f, [p]) == 0.0

    def test_single_neuron_closure(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=4))
        u = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        v = Tensor(rng.normal(size=1), requires_grad=True)

        def f():
            hidden = T.sigmoid(T.matmul(T.reshape(x, (1, 4)), u))
            return T.sum_all(T.mul(v, T.reshape(hidden, (1,))))

        assert T.grad_check(f, [u, v], step=1e-5) <= 1e-4

    def test_nonscalar_function_errors(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            T.grad_check(lambda: T.scale(p, 1.0), [p])


def _case_elementwise(rng, op):
    a = rand(rng, 3, 4)
    b = rand(rng, 3, 4)
    w = Tensor(rng.normal(size=(3, 4)))
    return lambda: T.sum_all(T.mul(op(a, b), w)), [a, b]


def _case_unary(rng, op, low=None):
    x = rng.normal(size=(4, 5))
    if low is not None:
        x = np.where(np.abs(x) < low, low, x)  # keep clear of the activation kink
    a = Tensor(x, requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)))
    return lambda: T.sum_all(T.mul(op(a), w)), [a]


def _case_matmul(rng):
    a, b = rand(rng, 3, 4), rand(rng, 4, 2)
    w = Tensor(rng.normal(size=(3, 2)))
    return lambda: T.sum_all(T.mul(T.matmul(a, b), w)), [a, b]


def _case_causal_attention(rng):
    q, k, v = rand(rng, 2, 3, 4), rand(rng, 2, 3, 4), rand(rng, 2, 3, 4)
    mask = Tensor(np.triu(np.full((3, 3), -1e30), k=1))
    w = Tensor(rng.normal(size=(2, 3, 4)))
    return lambda: T.sum_all(T.mul(T.causal_attention(q, k, v, 2, mask), w)), [q, k, v]


def _case_softmax(rng):
    a = rand(rng, 3, 5)
    w = Tensor(rng.normal(size=(3, 5)))
    return lambda: T.sum_all(T.mul(T.softmax(a), w)), [a]


def _case_batch_norm(rng):
    a = rand(rng, 6, 3)
    state = BNState.create(3)
    state.scale.data = rng.normal(size=3)
    state.shift.data = rng.normal(size=3)
    w = Tensor(rng.normal(size=(6, 3)))
    return lambda: T.sum_all(T.mul(T.batch_norm(a, state, "train"), w)), [a, state.scale, state.shift]


def _case_layer_norm(rng):
    a = rand(rng, 4, 6)
    gamma = rand(rng, 6)
    beta = rand(rng, 6)
    w = Tensor(rng.normal(size=(4, 6)))
    return lambda: T.sum_all(T.mul(T.layer_norm(a, gamma, beta), w)), [a, gamma, beta]


def _case_gather(rng):
    table = rand(rng, 7, 3)
    idx = rng.integers(0, 7, size=(4, 2))
    w = Tensor(rng.normal(size=(4, 2, 3)))
    return lambda: T.sum_all(T.mul(T.gather_rows(table, idx), w)), [table]


def _case_scatter(rng):
    base = rand(rng, 6, 3)
    rows = rand(rng, 4, 3)
    idx = rng.integers(0, 6, size=4)
    w = Tensor(rng.normal(size=(6, 3)))
    return lambda: T.sum_all(T.mul(T.scatter_rows_add(base, idx, rows), w)), [base, rows]


def _gathered_ids(rng):
    # 4 tokens x 3 rows of a 5-row table: ids repeat across tokens, and
    # token 0 names one row twice (two experts sharing a sub-key)
    idx = rng.integers(0, 5, size=(4, 3))
    idx[0, 1] = idx[0, 0]
    return idx


def _case_gather_dot(rng):
    x = rand(rng, 4, 6)
    table = rand(rng, 5, 6)
    idx = _gathered_ids(rng)
    w = Tensor(rng.normal(size=(4, 3)))
    return lambda: T.sum_all(T.mul(T.gather_dot(x, table, idx), w)), [x, table]


def _case_gather_weighted_sum(rng):
    wts = rand(rng, 4, 3)
    table = rand(rng, 5, 6)
    idx = _gathered_ids(rng)
    w = Tensor(rng.normal(size=(4, 6)))
    return lambda: T.sum_all(T.mul(T.gather_weighted_sum(wts, table, idx), w)), [wts, table]


def _case_cross_entropy(rng):
    logits = rand(rng, 5, 7)
    targets = rng.integers(0, 7, size=5)
    return lambda: T.cross_entropy_with_logits(logits, targets), [logits]


def _case_slices_concat(rng):
    a, b = rand(rng, 3, 4), rand(rng, 2, 4)
    w = Tensor(rng.normal(size=(4, 2)))
    return (
        lambda: T.sum_all(T.mul(T.col_slice(T.row_slice(T.concat([a, b], axis=0), 1, 5), 1, 3), w)),
        [a, b],
    )


OP_CASES = {
    "add": lambda rng: _case_elementwise(rng, T.add),
    "sub": lambda rng: _case_elementwise(rng, T.sub),
    "mul": lambda rng: _case_elementwise(rng, T.mul),
    "matmul": _case_matmul,
    "causal_attention": _case_causal_attention,
    "relu": lambda rng: _case_unary(rng, T.relu, low=0.05),
    "gelu": lambda rng: _case_unary(rng, T.gelu),
    "sigmoid": lambda rng: _case_unary(rng, T.sigmoid),
    "softmax": _case_softmax,
    "batch_norm": _case_batch_norm,
    "layer_norm": _case_layer_norm,
    "gather_rows": _case_gather,
    "scatter_rows_add": _case_scatter,
    "gather_dot": _case_gather_dot,
    "gather_weighted_sum": _case_gather_weighted_sum,
    "cross_entropy": _case_cross_entropy,
    "slices_concat": _case_slices_concat,
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_every_op_passes_grad_check_over_100_seeds(name):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f, params = OP_CASES[name](rng)
        worst = max(worst, T.grad_check(f, params, step=1e-5, max_coords=6, seed=seed))
    assert worst <= 1e-3, f"{name}: worst rel err {worst}"
