import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p,n", [(64, 256), (256, 64)])
    def test_one_row_has_the_bits_of_a_two_row_product(self, dtype, p, n):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, p)).astype(dtype)
        b = Tensor(rng.normal(size=(p, n)).astype(dtype))
        with MacMeter() as meter:
            one = T.matmul(Tensor(a[:1]), b)
        assert meter.total == p * n  # the logical product, not the stacked one
        assert one.data.shape == (1, n)
        assert one.data.tobytes() == T.matmul(Tensor(a), b).data[:1].tobytes()


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
        state = BNState(1)
        out = T.batch_norm(Tensor([[1.0], [3.0]]), state, "train")
        assert np.allclose(out.data, [[-1.0], [1.0]], atol=1e-4)

    def test_infer_is_identity_with_unit_stats(self):
        state = BNState(3)
        x = np.array([[0.3, -1.2, 4.0]])
        out = T.batch_norm(Tensor(x), state, "infer")
        assert np.allclose(out.data, x, atol=1e-4)

    def test_constant_column_train_gives_zeros(self):
        state = BNState(2)
        out = T.batch_norm(Tensor([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), state, "train")
        assert np.all(out.data[:, 0] == 0.0)

    def test_batch_of_one_errors(self):
        with pytest.raises(ValueError):
            T.batch_norm(Tensor([[1.0, 2.0]]), BNState(2), "train")

    def test_unknown_mode_fails_by_name(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match=r"^mode must be one of \('train', 'infer'\), got 'eval'$"):
            T.batch_norm(x, BNState(2), "eval")

    def test_running_stats_ema(self):
        state = BNState(1, momentum=0.9)
        x = np.array([[1.0], [3.0]])
        T.batch_norm(Tensor(x), state, "train")
        assert state.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
        assert state.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_layer_norm_rejects_a_batch_time_input(self):
        one = Tensor(np.ones(4))
        with pytest.raises(ValueError, match="layer_norm expects x"):
            T.layer_norm(Tensor(np.zeros((2, 3, 4))), one, one)

    def test_infer_deterministic_per_row(self):
        state = BNState(2)
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

    def test_scatter_rows_add_rejects_bool_ids(self):
        base, rows = Tensor(np.zeros((3, 2))), Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scatter_rows_add needs integer indices"):
            T.scatter_rows_add(base, np.array([True, False, True]), rows)
        with pytest.raises(IndexError, match="scatter_rows_add"):
            T.scatter_rows_add(base, np.array([0, 3]), rows)


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

    def test_no_rows_errors(self):
        # the mean of nothing would be a silent NaN
        with pytest.raises(ValueError, match=r"\(0, 4\)"):
            T.cross_entropy_with_logits(Tensor(np.zeros((0, 4))), np.zeros(0, dtype=np.int64))


class TestTapeSemantics:
    def test_grad_accumulates_over_uses(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            y = T.add(x, x)
            tape.backward(y, grad=np.array([1.0, 1.0]))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_no_tape_no_recording(self):
        x = Tensor([1.0], requires_grad=True)
        y = T.mul(x, Tensor(2.0))
        assert y.requires_grad is False and y.grad is None

    def test_nonscalar_backward_needs_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, Tensor(2.0))
            with pytest.raises(ValueError):
                tape.backward(y)

    def test_unused_branch_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            _dead = T.mul(z, Tensor(3.0))
            y = T.sum_all(T.mul(x, Tensor(2.0)))
            tape.backward(y)
        assert z.grad is None
        assert np.array_equal(x.grad, [2.0])

    def test_mac_meter_counts_matmul(self):
        with MacMeter() as meter:
            T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))))
        assert meter.total == 3 * 4 * 5

    def test_mac_meter_counts_comparisons(self):
        with MacMeter() as meter:
            T.count_macs(7, comparisons=3)
            T.count_macs(2)
        assert (meter.total, meter.comparisons) == (9, 3)

    def test_backward_runs_once(self):
        # a second pass would add x's gradient again ([8, 16] at [1, 2]); its records are gone
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.sum_all(T.mul(x, x))
            tape.backward(y)
            with pytest.raises(RuntimeError, match="already run backward"):
                tape.backward(y)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_a_bad_seed_leaves_the_tape_able_to_run(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, Tensor(2.0))
            with pytest.raises(ValueError):
                tape.backward(y, grad=np.ones(3))
            tape.backward(y, grad=np.ones(2))
        assert np.array_equal(x.grad, [2.0, 2.0])


class TestTapeRelease:
    """Backward drops each record and each op output's gradient as it goes."""

    def test_only_leaves_hold_gradients_afterwards(self):
        rng = np.random.default_rng(0)
        x, w = rand(rng, 6, 4), rand(rng, 4, 5)
        gamma, beta = rand(rng, 5), rand(rng, 5)
        with Tape() as tape:
            h = T.gelu(T.matmul(x, w))
            n = T.layer_norm(h, gamma, beta)
            rows = T.gather_rows(n, [0, 2, 2, 5])  # n's gradient comes back row-sparse
            loss = T.cross_entropy_with_logits(rows, [1, 0, 4, 3])
            outputs = [out for out, _ in tape._records]
            tape.backward(loss)
            assert len(tape) == len(outputs) == 5
        assert {id(t) for t in outputs} >= {id(h), id(n), id(rows), id(loss)}
        for t in outputs:
            assert t.grad is None and t.grad_ids is None and t.grad_rows is None
        for leaf in (x, w, gamma, beta):
            assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape

    @pytest.mark.parametrize(
        "op,saved",
        [
            (lambda x: T.layer_norm(x, Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4))), "xhat"),
            (T.gelu, "cdf"),
            (lambda x: T.cross_entropy_with_logits(x, [0, 1, 2, 3, 0, 1]), "e"),
        ],
        ids=["layer_norm", "gelu", "cross_entropy"],
    )
    def test_saved_arrays_die_before_backward_returns(self, op, saved):
        # the op reads an op output: cross entropy's adjoint hands its saved
        # array on as the gradient, which a leaf would keep
        x = rand(np.random.default_rng(1), 6, 4)
        with Tape() as tape:
            y = op(T.mul(x, Tensor(1.0)))
            bwd = tape._records[-1][1]
            cells = dict(zip(bwd.__code__.co_freevars, (c.cell_contents for c in bwd.__closure__)))
            ref = weakref.ref(cells[saved])
            del bwd, cells
            loss = y if y.data.ndim == 0 else T.sum_all(y)
            assert ref() is not None
            tape.backward(loss)
            assert ref() is None  # the tape and y are still in scope
        assert x.grad is not None


def _head_normalize(x, gamma, beta, eps, axis, stats, g):
    """The normalization forward and adjoint as plain expressions (the form
    before the adjoint worked in place), for bitwise comparison."""
    if stats is None:
        mu = x.mean(axis=axis, keepdims=True)
        xhat = x - mu
        var = (xhat * xhat).mean(axis=axis, keepdims=True)
    else:
        mu, var = stats
        xhat = x - mu
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = gamma * xhat + beta
    dgamma, dbeta, dxhat = (g * xhat).sum(axis=0), g.sum(axis=0), g * gamma
    if stats is not None:
        dx = dxhat * inv
    else:
        n = x.shape[axis]
        dx = inv / n * (n * dxhat - dxhat.sum(axis=axis, keepdims=True) - xhat * (dxhat * xhat).sum(axis=axis, keepdims=True))
    return out, dx.astype(x.dtype), dgamma, dbeta


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestInPlaceAdjointsKeepTheBits:
    """The in-place adjoints against the plain expressions they replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["layer", "batch_train", "batch_infer"])
    @pytest.mark.parametrize("gamma_grad", [True, False])
    def test_normalize(self, dtype, mode, gamma_grad):
        rng = np.random.default_rng(3)
        n, d = 257, 67
        x = (rng.normal(size=(n, d)) * 3.0 + 1.0).astype(dtype)
        g = rng.normal(size=(n, d)).astype(dtype)
        gamma, beta = rng.normal(size=d).astype(dtype), rng.normal(size=d).astype(dtype)
        xt = Tensor(x.copy(), requires_grad=True)
        gt, bt = Tensor(gamma.copy(), requires_grad=gamma_grad), Tensor(beta.copy(), requires_grad=True)
        stats = None
        with Tape() as tape:
            if mode == "layer":
                axis, out = 1, T.layer_norm(xt, gt, bt)
            else:
                axis, state = 0, BNState(d, dtype=dtype)
                state.scale, state.shift = gt, bt
                if mode == "batch_infer":
                    state.running_mean = rng.normal(size=d).astype(dtype)
                    state.running_var = rng.uniform(0.5, 2.0, size=d).astype(dtype)
                    stats = (state.running_mean, state.running_var)
                out = T.batch_norm(xt, state, "train" if stats is None else "infer")
            tape.backward(out, grad=g)
        e_out, e_dx, e_dgamma, e_dbeta = _head_normalize(x, gamma, beta, 1e-5, axis, stats, g)
        assert _same_bits(out.data, e_out)
        assert _same_bits(xt.grad, e_dx)
        assert _same_bits(bt.grad, e_dbeta)
        assert _same_bits(gt.grad, e_dgamma) if gamma_grad else gt.grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu(self, dtype):
        rng = np.random.default_rng(4)
        x = (rng.normal(size=(129, 67)) * 2.0).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        xt = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            out = T.gelu(xt)
            tape.backward(out, grad=g)
        cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        assert _same_bits(out.data, x * cdf)
        assert _same_bits(xt.grad, g * (cdf + x * pdf))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy(self, dtype):
        rng = np.random.default_rng(5)
        n, v = 97, 256
        logits = (rng.normal(size=(n, v)) * 4.0).astype(dtype)
        targets = rng.integers(0, v, size=n)
        seed = np.asarray(0.7, dtype=dtype)
        lt = Tensor(logits.copy(), requires_grad=True)
        with Tape() as tape:
            loss = T.cross_entropy_with_logits(lt, targets)
            tape.backward(loss, grad=seed)
        m = logits.max(axis=-1, keepdims=True)
        e = np.exp(logits - m)
        z = e.sum(axis=-1, keepdims=True)
        log_probs = (logits - m) - np.log(z)
        p = e / z
        p[np.arange(n), targets] -= 1.0
        assert _same_bits(loss.data, np.asarray(-log_probs[np.arange(n), targets].mean(), dtype=dtype))
        assert _same_bits(lt.grad, (seed / n) * p)


class TestGradCheck:
    def test_constant_function_zero_error(self):
        p = Tensor([1.0, 2.0], requires_grad=True)

        def f():
            return T.sum_all(T.mul(T.mul(p, Tensor([0.0, 0.0])), Tensor(1.0)))

        assert T.grad_check(f, {"p": p}) == {"p": 0.0}

    def test_single_neuron_closure(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=4))
        u = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        v = Tensor(rng.normal(size=1), requires_grad=True)

        def f():
            hidden = T.sigmoid(T.matmul(T.reshape(x, (1, 4)), u))
            return T.sum_all(T.mul(v, T.reshape(hidden, (1,))))

        assert max(T.grad_check(f, {"u": u, "v": v}, step=1e-5).values()) <= 1e-4

    def test_nonscalar_function_errors(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            T.grad_check(lambda: T.mul(p, Tensor(1.0)), {"p": p})


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
    w = Tensor(rng.normal(size=(2, 3, 4)))
    return lambda: T.sum_all(T.mul(T.causal_attention(q, k, v, 2), w)), [q, k, v]


def _case_causal_attention_tiles(rng):
    # two tiles, the second of 5 rows: dk and dv add up across tiles
    t = T.ATTENTION_TILE + 5
    q, k, v = rand(rng, 1, t, 4), rand(rng, 1, t, 4), rand(rng, 1, t, 4)
    w = Tensor(rng.normal(size=(1, t, 4)))
    return lambda: T.sum_all(T.mul(T.causal_attention(q, k, v, 2), w)), [q, k, v]


def _case_softmax(rng):
    a = rand(rng, 3, 5)
    w = Tensor(rng.normal(size=(3, 5)))
    return lambda: T.sum_all(T.mul(T.softmax(a), w)), [a]


def _case_batch_norm(rng):
    a = rand(rng, 6, 3)
    state = BNState(3)
    state.scale.data = rng.normal(size=3)
    state.shift.data = rng.normal(size=3)
    w = Tensor(rng.normal(size=(6, 3)))
    return lambda: T.sum_all(T.mul(T.batch_norm(a, state, "train"), w)), [a, state.scale, state.shift]


def _case_batch_norm_infer(rng):
    a = rand(rng, 6, 3)
    state = BNState(3)
    state.scale.data = rng.normal(size=3)
    state.shift.data = rng.normal(size=3)
    state.running_mean = rng.normal(size=3)
    state.running_var = rng.uniform(0.5, 2.0, size=3)
    w = Tensor(rng.normal(size=(6, 3)))
    return lambda: T.sum_all(T.mul(T.batch_norm(a, state, "infer"), w)), [a, state.scale, state.shift]


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


def _case_product_key_scores(rng):
    q = rand(rng, 4, 6)
    left, right = rand(rng, 5, 3), rand(rng, 5, 3)
    left_ids, right_ids = _gathered_ids(rng), _gathered_ids(rng)
    w = Tensor(rng.normal(size=(4, 3)))

    def f():
        # the op takes its scores as given: compute them from the current
        # values, so central differences see them move
        scores = np.einsum("md,mkd->mk", q.data[:, :3], left.data[left_ids]) + np.einsum("md,mkd->mk", q.data[:, 3:], right.data[right_ids])
        return T.sum_all(T.mul(T.product_key_scores(q, left, right, left_ids, right_ids, scores), w))

    return f, [q, left, right]


def _case_cross_entropy(rng):
    logits = rand(rng, 5, 7)
    targets = rng.integers(0, 7, size=5)
    return lambda: T.cross_entropy_with_logits(logits, targets), [logits]


def _case_slices_concat(rng):
    a, b = rand(rng, 3, 4), rand(rng, 2, 4)
    w = Tensor(rng.normal(size=(4, 4)))
    return lambda: T.sum_all(T.mul(T.row_slice(T.concat([a, b], axis=0), 1, 5), w)), [a, b]


OP_CASES = {
    "add": lambda rng: _case_elementwise(rng, T.add),
    "mul": lambda rng: _case_elementwise(rng, T.mul),
    "matmul": _case_matmul,
    "causal_attention": _case_causal_attention,
    "causal_attention_tiles": _case_causal_attention_tiles,
    "relu": lambda rng: _case_unary(rng, T.relu, low=0.05),
    "gelu": lambda rng: _case_unary(rng, T.gelu),
    "sigmoid": lambda rng: _case_unary(rng, T.sigmoid),
    "softmax": _case_softmax,
    "batch_norm": _case_batch_norm,
    "batch_norm_infer": _case_batch_norm_infer,
    "layer_norm": _case_layer_norm,
    "gather_rows": _case_gather,
    "scatter_rows_add": _case_scatter,
    "gather_dot": _case_gather_dot,
    "gather_weighted_sum": _case_gather_weighted_sum,
    "product_key_scores": _case_product_key_scores,
    "cross_entropy": _case_cross_entropy,
    "slices_concat": _case_slices_concat,
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_every_op_passes_grad_check_over_100_seeds(name):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f, params = OP_CASES[name](rng)
        worst = max(worst, *T.grad_check(f, dict(enumerate(params)), step=1e-5, max_coords=6, seed=seed).values())
    assert worst <= 1e-3, f"{name}: worst rel err {worst}"


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_no_adjoint_writes_into_its_upstream_gradient(name):
    # the closures are called directly: Tape.backward copies its seed, so a
    # read-only seed passed through it would prove nothing
    rng = np.random.default_rng(0)
    f, _ = OP_CASES[name](rng)
    with Tape() as tape:
        f()
        records = list(tape._records)
    assert records
    for out, bwd in records:
        g = rng.normal(size=out.data.shape).astype(out.data.dtype)
        g.flags.writeable = False
        bwd(g)  # an in-place write into g raises here
