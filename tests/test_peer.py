import math

import numpy as np
import pytest
from scipy.special import erf

from peer_lab import tensor as T
from peer_lab.analysis import UsageAccumulator
from peer_lab.peer import (
    PeerConfig,
    PeerLayer,
    PeerRouting,
    assemble_dense_equivalent,
    peer_forward,
    record_usage,
)
from peer_lab.product_keys import build_index
from peer_lab.tensor import Tensor


def np_activation(name, x):
    if name == "relu":
        return np.maximum(x, 0.0)
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def _peer_backward(layer, x, upstream):
    """Run a recorded forward and pull gradients back from `upstream` (dL/dy).

    Returns ({parameter name: gradient}, dL/dx). Expert rows outside the
    retrieved set come back as exact zeros.
    """
    params = layer.named_parameters()
    for p in params.values():
        p.zero_grad()
    x.zero_grad()
    x.requires_grad = True
    with T.Tape() as tape:
        y, _ = peer_forward(layer, x, mode="train")
        tape.backward(y, grad=upstream)
    grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in params.items()}
    return grads, (x.grad.copy() if x.grad is not None else np.zeros_like(x.data))


def np_sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def dense_reference(layer, x_batch, mode="infer"):
    """Brute-force oracle: score all N experts per head, select, normalize,
    and combine, entirely in plain numpy."""
    cfg = layer.config
    m = x_batch.shape[0]
    q_all = np.concatenate([x_batch @ w.data for w in layer.query_nets], axis=0)
    if layer.bn is not None:
        bn = layer.bn
        if mode == "train":
            mu = q_all.mean(axis=0)
            var = ((q_all - mu) ** 2).mean(axis=0)
        else:
            mu, var = bn.running_mean, bn.running_var
        q_all = bn.scale.data * (q_all - mu) / np.sqrt(var + bn.eps) + bn.shift.data

    sqrt_n = layer.index.sqrt_n
    left, right = layer.index.left.data, layer.index.right.data
    full_keys = np.hstack([np.repeat(left, sqrt_n, axis=0), np.tile(right, (sqrt_n, 1))])
    scores_all = q_all @ full_keys.T  # [heads*m, N]

    y = np.zeros_like(x_batch)
    indices = np.zeros((m, cfg.heads, cfg.topk), dtype=np.int64)
    for h in range(cfg.heads):
        for t in range(m):
            row = scores_all[h * m + t]
            order = np.argsort(-row, kind="stable")[: cfg.topk]
            sel = row[order]
            if cfg.score_norm == "softmax_per_head":
                e = np.exp(sel - sel.max())
                g = e / e.sum()
            else:
                g = np_sigmoid(sel)
            x = x_batch[t]
            acts = np_activation(cfg.activation, layer.w_down.data[order] @ x)
            if layer.w_gate is not None:
                acts = acts * (layer.w_gate.data[order] @ x)
            y[t] += (g * acts) @ layer.w_up.data[order]
            indices[t, h] = order
    return y, indices


class TestConfig:
    def test_granularity_is_heads_times_topk(self):
        assert PeerConfig(n_experts=64, heads=8, topk=2, d_model=8, query_dim=4).granularity == 16

    def test_non_square_experts(self):
        with pytest.raises(ValueError):
            PeerConfig(n_experts=60, heads=1, topk=1, d_model=8, query_dim=4)

    def test_topk_above_sqrt_n(self):
        with pytest.raises(ValueError):
            PeerConfig(n_experts=16, heads=1, topk=5, d_model=8, query_dim=4)

    def test_index_mismatch_errors(self):
        cfg = PeerConfig(n_experts=16, heads=1, topk=1, d_model=8, query_dim=4, query_bn=False)
        layer = PeerLayer.build(cfg, seed=0)
        with pytest.raises(ValueError):
            PeerLayer(cfg, build_index(64, 4, seed=0), layer.query_nets, None, layer.w_down, layer.w_up)


class TestForward:
    def test_single_head_single_expert_softmax_weight_is_one(self):
        cfg = PeerConfig(n_experts=16, heads=1, topk=1, d_model=8, query_dim=4, activation="relu", query_bn=False)
        layer = PeerLayer.build(cfg, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        y, routing = peer_forward(layer, Tensor(x[None, :]))
        assert routing.weights[0, 0, 0] == 1.0
        j = routing.indices[0, 0, 0]
        expected = max(0.0, float(layer.w_down.data[j] @ x)) * layer.w_up.data[j]
        assert np.allclose(y.data[0], expected, atol=1e-14)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_topk1_equals_assembled_mlp(self, heads):
        cfg = PeerConfig(n_experts=64, heads=heads, topk=1, d_model=8, query_dim=4, activation="gelu", query_bn=True)
        layer = PeerLayer.build(cfg, seed=heads)
        rng = np.random.default_rng(heads)
        x = rng.normal(size=8)
        y, _ = peer_forward(layer, Tensor(x[None, :]), mode="infer")
        w, v = assemble_dense_equivalent(layer, Tensor(x), mode="infer")
        assert w.shape == (8, heads) and v.shape == (8, heads)
        reference = v @ np_activation("gelu", w.T @ x)
        assert np.max(np.abs(y.data[0] - reference)) <= 1e-12

    @pytest.mark.parametrize("heads", [1, 4])
    def test_topk1_assembled_identity_float32(self, heads):
        cfg = PeerConfig(n_experts=64, heads=heads, topk=1, d_model=8, query_dim=4, activation="gelu", query_bn=True)
        for seed in range(10):
            layer = PeerLayer.build(cfg, seed=seed, dtype=np.float32)
            rng = np.random.default_rng(seed)
            x = rng.normal(size=8).astype(np.float32)
            y, _ = peer_forward(layer, Tensor(x[None, :], dtype=np.float32), mode="infer")
            w, v = assemble_dense_equivalent(layer, Tensor(x, dtype=np.float32), mode="infer")
            reference = v.astype(np.float64) @ np_activation("gelu", w.T.astype(np.float64) @ x)
            assert np.max(np.abs(y.data[0] - reference)) <= 1e-6

    def test_two_tokens_can_assemble_different_networks(self):
        cfg = PeerConfig(n_experts=256, heads=2, topk=1, d_model=8, query_dim=8, query_bn=False)
        layer = PeerLayer.build(cfg, seed=9)
        rng = np.random.default_rng(9)
        w1, _ = assemble_dense_equivalent(layer, Tensor(rng.normal(size=8)))
        w2, _ = assemble_dense_equivalent(layer, Tensor(rng.normal(size=8)))
        assert not np.array_equal(w1, w2)

    def test_assemble_requires_topk1(self):
        cfg = PeerConfig(n_experts=16, heads=1, topk=2, d_model=8, query_dim=4, query_bn=False)
        layer = PeerLayer.build(cfg, seed=0)
        with pytest.raises(ValueError, match="topk=1"):
            assemble_dense_equivalent(layer, Tensor(np.zeros(8)))

    @pytest.mark.parametrize("score_norm", ["softmax_per_head", "sigmoid"])
    @pytest.mark.parametrize("glu", [False, True])
    def test_matches_dense_reference(self, score_norm, glu):
        cfg = PeerConfig(
            n_experts=256, heads=2, topk=3, d_model=16, query_dim=8,
            activation="gelu", score_norm=score_norm, query_bn=True, glu=glu,
        )
        for seed in range(8):
            layer = PeerLayer.build(cfg, seed=seed)
            rng = np.random.default_rng(seed + 100)
            x = rng.normal(size=(5, 16))
            y, routing = peer_forward(layer, Tensor(x), mode="train")
            ref_y, ref_idx = dense_reference(layer, x, mode="train")
            assert np.array_equal(routing.indices, ref_idx)
            assert np.max(np.abs(y.data - ref_y)) <= 1e-10

    def test_small_random_config_matches_reference(self):
        cfg = PeerConfig(n_experts=16, heads=2, topk=2, d_model=4, query_dim=4, activation="relu", query_bn=False)
        for seed in range(20):
            layer = PeerLayer.build(cfg, seed=seed)
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(3, 4))
            y, routing = peer_forward(layer, Tensor(x))
            ref_y, ref_idx = dense_reference(layer, x)
            assert np.array_equal(routing.indices, ref_idx)
            assert np.max(np.abs(y.data - ref_y)) <= 1e-10

    def test_per_head_softmax_weights_sum_to_one(self):
        cfg = PeerConfig(n_experts=64, heads=3, topk=4, d_model=8, query_dim=8, query_bn=True)
        layer = PeerLayer.build(cfg, seed=2)
        rng = np.random.default_rng(2)
        _, routing = peer_forward(layer, Tensor(rng.normal(size=(6, 8))), mode="train")
        assert np.max(np.abs(routing.weights.sum(axis=-1) - 1.0)) <= 1e-12

    def test_active_neurons_per_token(self):
        cfg = PeerConfig(n_experts=64, heads=3, topk=4, d_model=8, query_dim=8, query_bn=False)
        layer = PeerLayer.build(cfg, seed=3)
        rng = np.random.default_rng(3)
        _, routing = peer_forward(layer, Tensor(rng.normal(size=(5, 8))))
        assert routing.indices.shape == (5, 3, 4)
        assert routing.indices.shape[1] * routing.indices.shape[2] == cfg.granularity
        for t in range(5):
            for h in range(3):
                assert len(set(routing.indices[t, h].tolist())) == 4  # distinct within a head

    def test_infer_deterministic_bitwise(self):
        cfg = PeerConfig(n_experts=64, heads=2, topk=2, d_model=8, query_dim=8, query_bn=True)
        layer = PeerLayer.build(cfg, seed=4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 8))
        a, _ = peer_forward(layer, Tensor(x), mode="infer")
        b, _ = peer_forward(layer, Tensor(x), mode="infer")
        assert np.array_equal(a.data, b.data)

    def test_batch_time_input_is_rejected(self):
        cfg = PeerConfig(n_experts=16, heads=1, topk=1, d_model=8, query_dim=4, query_bn=False)
        layer = PeerLayer.build(cfg, seed=0)
        x3 = np.random.default_rng(0).normal(size=(2, 3, 8))
        with pytest.raises(ValueError, match=r"token rows \[tokens, d_model\], got shape \(2, 3, 8\)"):
            peer_forward(layer, Tensor(x3))

    def test_bn_train_single_token_errors(self):
        cfg = PeerConfig(n_experts=16, heads=2, topk=1, d_model=8, query_dim=4, query_bn=True)
        layer = PeerLayer.build(cfg, seed=0)
        with pytest.raises(ValueError):
            peer_forward(layer, Tensor(np.zeros((1, 8))), mode="train")

    def test_glu_single_expert_hand_value(self):
        cfg = PeerConfig(n_experts=16, heads=1, topk=1, d_model=4, query_dim=4, activation="relu", query_bn=False, glu=True)
        layer = PeerLayer.build(cfg, seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)
        y, routing = peer_forward(layer, Tensor(x[None, :]))
        j = routing.indices[0, 0, 0]
        hidden = max(0.0, float(layer.w_down.data[j] @ x)) * float(layer.w_gate.data[j] @ x)
        assert np.allclose(y.data[0], hidden * layer.w_up.data[j], atol=1e-14)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        cfg = PeerConfig(n_experts=64, heads=2, topk=2, d_model=8, query_dim=8, query_bn=True)
        layer = PeerLayer.build(cfg, seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 8)))
        grads, x_grad = _peer_backward(layer, x, np.zeros((4, 8)))
        assert all(np.all(g == 0.0) for g in grads.values())
        assert np.all(x_grad == 0.0)

    def test_single_expert_up_row_gradient_exact(self):
        cfg = PeerConfig(n_experts=16, heads=1, topk=1, d_model=8, query_dim=4, activation="relu", query_bn=False)
        layer = PeerLayer.build(cfg, seed=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=8)
        upstream = rng.normal(size=(1, 8))
        _, routing = peer_forward(layer, Tensor(x[None, :]))
        j = routing.indices[0, 0, 0]
        grads, _ = _peer_backward(layer, Tensor(x[None, :]), upstream)
        act = max(0.0, float(layer.w_down.data[j] @ x))  # weight g = 1 for topk=1
        assert np.allclose(grads["peer.experts.up"][j], act * upstream[0], rtol=1e-12, atol=0)

    def test_unretrieved_rows_bitwise_zero(self):
        cfg = PeerConfig(n_experts=256, heads=2, topk=3, d_model=8, query_dim=8, query_bn=True, glu=True)
        layer = PeerLayer.build(cfg, seed=2)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 8)))
        _, routing = peer_forward(layer, x, mode="train")
        grads, _ = _peer_backward(layer, x, rng.normal(size=(5, 8)))
        retrieved = np.unique(routing.indices)
        untouched = np.setdiff1d(np.arange(256), retrieved)
        for name in ("peer.experts.down", "peer.experts.up", "peer.experts.gate"):
            assert np.all(grads[name][untouched] == 0.0)
            assert np.any(grads[name][retrieved] != 0.0)
        sqrt_n = layer.index.sqrt_n
        for name, used in (("peer.subkeys.c", routing.indices // sqrt_n), ("peer.subkeys.cp", routing.indices % sqrt_n)):
            unused = np.setdiff1d(np.arange(sqrt_n), used)
            assert unused.size and grads[name][unused].tobytes() == bytes(grads[name][unused].nbytes), name
            # softmax is shift-invariant: a (token, head) whose k experts all
            # share one sub-key adds a zero-sum gradient to it, so a row with
            # no other use has zero gradient up to rounding
            flat = np.all(used == used[..., :1], axis=-1)
            spread = np.unique(used[~flat])
            assert np.all(np.any(grads[name][spread] != 0.0, axis=1)), name
            only_flat = np.setdiff1d(used, spread)
            assert np.all(np.abs(grads[name][only_flat]) <= 1e-12), name

    def test_full_layer_finite_differences(self):
        cfg = PeerConfig(n_experts=16, heads=2, topk=2, d_model=8, query_dim=8, activation="gelu", query_bn=True, glu=True)
        layer = PeerLayer.build(cfg, seed=3)
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 8)))
        w = Tensor(rng.normal(size=(4, 8)))

        def f():
            y, _ = peer_forward(layer, x, mode="train")
            return T.sum_all(T.mul(y, w))

        errors = T.grad_check(f, layer.named_parameters(), step=1e-5, max_coords=8, seed=3)
        for name, err in errors.items():
            assert err <= 1e-3, f"{name}: rel err {err}"


class TestRecordUsage:
    def test_definition_case(self):
        acc = UsageAccumulator.create(16)
        routing = PeerRouting(
            indices=np.array([[[5, 9]]]),
            weights=np.array([[[0.7, 0.3]]]),
            n_experts=16,
        )
        record_usage(routing, acc)
        assert acc.z_prime[5] == pytest.approx(0.7)
        assert acc.z_prime[9] == pytest.approx(0.3)
        assert acc.z_prime.sum() == pytest.approx(1.0)
        assert acc.token_count == 1

    def test_empty_stream_zero(self):
        acc = UsageAccumulator.create(8)
        assert np.all(acc.z_prime == 0.0) and acc.token_count == 0

    def test_two_identical_tokens_double(self):
        cfg = PeerConfig(n_experts=16, heads=2, topk=2, d_model=8, query_dim=4, query_bn=False)
        layer = PeerLayer.build(cfg, seed=6)
        rng = np.random.default_rng(6)
        x = rng.normal(size=8)
        _, r1 = peer_forward(layer, Tensor(x[None, :]))
        _, r2 = peer_forward(layer, Tensor(np.stack([x, x])))
        acc1 = UsageAccumulator.create(16)
        record_usage(r1, acc1)
        acc2 = UsageAccumulator.create(16)
        record_usage(r2, acc2)
        assert np.allclose(acc2.z_prime, 2.0 * acc1.z_prime)

    def test_out_of_range_errors(self):
        acc = UsageAccumulator.create(16)
        routing = PeerRouting(indices=np.array([[[17]]]), weights=np.array([[[1.0]]]), n_experts=16)
        with pytest.raises(IndexError):
            record_usage(routing, acc)

    def test_accumulator_of_another_size_rejected(self):
        routing = PeerRouting(indices=np.array([[[3, 7]]]), weights=np.array([[[0.5, 0.5]]]), n_experts=16)
        with pytest.raises(ValueError, match="accumulator holds 64 experts, routing echo has 16"):
            record_usage(routing, UsageAccumulator.create(64))
