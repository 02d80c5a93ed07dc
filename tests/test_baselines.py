import dataclasses

import numpy as np
import pytest

from peer_lab import tensor as T
from peer_lab.analysis import measured_mac_per_token
from peer_lab.baselines import (
    DenseConfig,
    DenseFFW,
    ExpertChoiceMoE,
    MoeConfig,
    PkmConfig,
    PkmLayer,
    dense_forward,
    expert_choice_forward,
    pkm_forward,
)
from peer_lab.peer import PeerConfig, PeerLayer, assemble_dense_equivalent, peer_forward
from peer_lab.tensor import MacMeter, Tensor


class TestDense:
    def test_mac_count_per_token(self):
        layer = DenseFFW.build(DenseConfig(d_model=4, d_ff=8), seed=0)
        assert measured_mac_per_token(layer, n_tokens=16) == 64  # 2 * 4 * 8

    def test_zero_output_matrix(self):
        layer = DenseFFW.build(DenseConfig(d_model=4, d_ff=8), seed=0)
        layer.w_out.data[:] = 0.0
        y = dense_forward(layer, Tensor(np.random.default_rng(0).normal(size=(3, 4))))
        assert np.all(y.data == 0.0)

    def test_shape_mismatch_errors(self):
        layer = DenseFFW.build(DenseConfig(d_model=4, d_ff=8), seed=0)
        with pytest.raises(ValueError):
            dense_forward(layer, Tensor(np.zeros((3, 5))))

    def test_matches_peer_assembled_equivalent(self):
        # copying the per-token assembled expert vectors into a dense FFW
        # must reproduce the PEER output for that token
        cfg = PeerConfig(n_experts=64, heads=4, topk=1, d_model=8, query_dim=8, activation="gelu", query_bn=False)
        peer = PeerLayer.build(cfg, seed=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=8)
        w, v = assemble_dense_equivalent(peer, Tensor(x))
        dense = DenseFFW.build(DenseConfig(d_model=8, d_ff=4, activation="gelu"), seed=0)
        dense.w_in.data = w.copy()
        dense.w_out.data = v.T.copy()
        y_dense = dense_forward(dense, Tensor(x[None, :]))
        y_peer, _ = peer_forward(peer, Tensor(x[None, :]))
        assert np.max(np.abs(y_dense.data - y_peer.data)) <= 1e-12

    def test_grad_check(self):
        rng = np.random.default_rng(2)
        layer = DenseFFW.build(DenseConfig(d_model=4, d_ff=6), seed=2)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))

        def f():
            return T.sum_all(T.mul(dense_forward(layer, x), w))

        params = dict(layer.named_parameters())
        params["x"] = x
        errors = T.grad_check_detail(f, params, seed=2)
        assert max(errors.values()) <= 1e-3


class TestPkm:
    def test_single_memory_payload(self):
        cfg = PkmConfig(n_memories=16, heads=1, topk=1, d_model=8, query_dim=4, query_bn=False)
        layer = PkmLayer.build(cfg, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        y, routing = pkm_forward(layer, Tensor(x[None, :]), collect_routing=True)
        j = routing.indices[0, 0, 0]
        assert routing.weights[0, 0, 0] == 1.0
        assert np.allclose(y.data[0], layer.values.data[j], atol=1e-14)

    def test_payload_constant_under_frozen_routing(self):
        # with routing (ids + weights) frozen, the output is a function of
        # the value table alone; the input never enters the payload
        cfg = PkmConfig(n_memories=64, heads=2, topk=3, d_model=8, query_dim=8, query_bn=False)
        layer = PkmLayer.build(cfg, seed=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 8))
        y, routing = pkm_forward(layer, Tensor(x), collect_routing=True)
        frozen = np.einsum("mhk,mhkd->md", routing.weights, layer.values.data[routing.indices])
        assert np.max(np.abs(y.data - frozen)) <= 1e-12

    def test_matches_dense_reference(self):
        cfg = PkmConfig(n_memories=256, heads=2, topk=4, d_model=8, query_dim=8, query_bn=True)
        for seed in range(8):
            layer = PkmLayer.build(cfg, seed=seed)
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(5, 8))
            y, routing = pkm_forward(layer, Tensor(x), mode="train", collect_routing=True)
            q_all = np.concatenate([x @ w.data for w in layer.query_nets], axis=0)
            bn = layer.bn
            mu = q_all.mean(axis=0)
            var = ((q_all - mu) ** 2).mean(axis=0)
            q_all = bn.scale.data * (q_all - mu) / np.sqrt(var + bn.eps) + bn.shift.data
            sqrt_n = layer.index.sqrt_n
            full = np.hstack(
                [np.repeat(layer.index.left.data, sqrt_n, axis=0), np.tile(layer.index.right.data, (sqrt_n, 1))]
            )
            scores_all = q_all @ full.T
            expected = np.zeros_like(x)
            for h in range(2):
                for t in range(5):
                    order = np.argsort(-scores_all[h * 5 + t], kind="stable")[:4]
                    sel = scores_all[h * 5 + t][order]
                    g = np.exp(sel - sel.max())
                    g /= g.sum()
                    expected[t] += g @ layer.values.data[order]
                    assert np.array_equal(routing.indices[t, h], order)
            assert np.max(np.abs(y.data - expected)) <= 1e-10

    def test_same_index_calls_as_peer(self):
        # identical queries against a shared index, query nets and BN select
        # identical slots with bitwise identical weights
        for score_norm, query_bn, mode in [
            ("softmax_per_head", False, "infer"),
            ("sigmoid", False, "infer"),
            ("softmax_per_head", True, "train"),
            ("sigmoid", True, "train"),
        ]:
            common = dict(heads=2, topk=3, d_model=8, query_dim=8, score_norm=score_norm, query_bn=query_bn)
            pkm = PkmLayer.build(PkmConfig(n_memories=64, **common), seed=7)
            peer = PeerLayer.build(PeerConfig(n_experts=64, **common), seed=7)
            peer.index = pkm.index
            peer.query_nets = pkm.query_nets
            peer.bn = pkm.bn
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(6, 8)))
            _, routing_pkm = pkm_forward(pkm, x, mode=mode, collect_routing=True)
            _, routing_peer = peer_forward(peer, x, mode=mode, collect_routing=True)
            assert np.array_equal(routing_pkm.indices, routing_peer.indices)
            assert routing_pkm.weights.tobytes() == routing_peer.weights.tobytes(), (score_norm, query_bn, mode)

    @pytest.mark.parametrize("case", ["score_norm", "zero_heads", "query_nets_per_head", "bn_state"])
    def test_invalid_router_rejected(self, case):
        cfg = PkmConfig(n_memories=64, heads=2, topk=2, d_model=8, query_dim=8, query_bn=False)
        layer = PkmLayer.build(cfg, seed=0)
        with pytest.raises(ValueError):
            if case == "score_norm":
                PkmConfig(score_norm="softmax")
            elif case == "zero_heads":
                PkmConfig(heads=0)
            elif case == "query_nets_per_head":
                PkmLayer(cfg, layer.index, layer.query_nets[:1], None, layer.values)
            else:
                PkmLayer(dataclasses.replace(cfg, query_bn=True), layer.index, layer.query_nets, None, layer.values)

    def test_unretrieved_rows_bitwise_zero(self):
        cfg = PkmConfig(n_memories=256, heads=2, topk=3, d_model=8, query_dim=8, query_bn=True)
        layer = PkmLayer.build(cfg, seed=2)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 8)))
        with T.Tape() as tape:
            y, routing = pkm_forward(layer, x, mode="train", collect_routing=True)
            tape.backward(y, grad=rng.normal(size=(5, 8)))
        grads = {name: p.grad for name, p in layer.named_parameters().items()}
        sqrt_n = layer.index.sqrt_n
        for name, used in (("pkm.values", routing.indices), ("pkm.subkeys.c", routing.indices // sqrt_n), ("pkm.subkeys.cp", routing.indices % sqrt_n)):
            unused = np.setdiff1d(np.arange(grads[name].shape[0]), used)
            assert unused.size and grads[name][unused].tobytes() == bytes(grads[name][unused].nbytes), name
            assert np.all(np.any(grads[name][np.unique(used)] != 0.0, axis=1)), name

    def test_grad_check(self):
        cfg = PkmConfig(n_memories=16, heads=2, topk=2, d_model=6, query_dim=4, query_bn=True)
        layer = PkmLayer.build(cfg, seed=3)
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 6)))

        def f():
            y, _ = pkm_forward(layer, x, mode="train")
            return T.sum_all(T.mul(y, w))

        params = dict(layer.named_parameters())
        params["x"] = x
        errors = T.grad_check_detail(f, params, step=1e-5, max_coords=6, seed=3)
        assert max(errors.values()) <= 1e-3


class TestExpertChoice:
    def test_single_expert_full_capacity(self):
        cfg = MoeConfig(n_experts=1, d_model=4, d_ff=8, granularity=1)
        layer = ExpertChoiceMoE.build(cfg, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        y = expert_choice_forward(layer, Tensor(x), capacity=5)
        expert_out = dense_forward(layer.experts[0], Tensor(x))
        assert np.max(np.abs(y.data - expert_out.data)) <= 1e-12  # softmax over 1 expert = 1

    def test_hand_assignment_matches_brute_force(self):
        cfg = MoeConfig(n_experts=2, d_model=2, d_ff=4, granularity=1)
        layer = ExpertChoiceMoE.build(cfg, seed=1)
        layer.gate.data = np.eye(2)
        x = np.array([[10.0, 0.0], [0.0, 10.0]])
        y = expert_choice_forward(layer, Tensor(x), capacity=1)
        # brute force: scores softmax rows; expert e takes its top-1 token
        e = np.exp(x @ np.eye(2))
        s = e / e.sum(axis=1, keepdims=True)
        expected = np.zeros((2, 2))
        for ei in range(2):
            t = int(np.argmax(s[:, ei]))
            out = dense_forward(layer.experts[ei], Tensor(x[t][None, :])).data[0]
            expected[t] += s[t, ei] * out
        assert np.allclose(y.data, expected, atol=1e-12)

    def test_capacity_invariant_exact_tokens_per_expert(self):
        cfg = MoeConfig(n_experts=4, d_model=4, d_ff=8, granularity=2)
        layer = ExpertChoiceMoE.build(cfg, seed=2)
        m = 10
        assert layer.capacity(m) == 5  # ceil(10 * 2 / 4)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(m, 4)))
        with MacMeter() as meter:
            expert_choice_forward(layer, x)
        # gate matmul + exactly min(c, m) tokens through each expert
        expected = m * 4 * 4 + 4 * 5 * (2 * 4 * 8)
        assert meter.total == expected

    def test_unselected_tokens_pass_through_as_zero(self):
        cfg = MoeConfig(n_experts=1, d_model=4, d_ff=8, granularity=1)
        layer = ExpertChoiceMoE.build(cfg, seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 4))
        y = expert_choice_forward(layer, Tensor(x), capacity=2)
        scores = np.exp(x @ layer.gate.data)
        picked = set(np.argsort(-(scores / scores.sum(axis=1, keepdims=True))[:, 0], kind="stable")[:2].tolist())
        for t in range(6):
            if t not in picked:
                assert np.all(y.data[t] == 0.0)

    def test_capacity_below_one_errors(self):
        cfg = MoeConfig(n_experts=2, d_model=4, d_ff=8, granularity=1)
        layer = ExpertChoiceMoE.build(cfg, seed=0)
        with pytest.raises(ValueError):
            expert_choice_forward(layer, Tensor(np.zeros((2, 4))), capacity=0)

    def test_grad_check(self):
        cfg = MoeConfig(n_experts=3, d_model=4, d_ff=6, granularity=2, activation="gelu")
        layer = ExpertChoiceMoE.build(cfg, seed=4)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4)))

        def f():
            return T.sum_all(T.mul(expert_choice_forward(layer, x), w))

        params = dict(layer.named_parameters())
        params["x"] = x
        errors = T.grad_check_detail(f, params, step=1e-5, max_coords=6, seed=4)
        assert max(errors.values()) <= 1e-3


class TestCommonInterface:
    @pytest.mark.parametrize("build", [
        lambda: DenseFFW.build(DenseConfig(d_model=8, d_ff=16), seed=0),
        lambda: PkmLayer.build(PkmConfig(n_memories=16, heads=2, topk=2, d_model=8, query_dim=4), seed=0),
        lambda: PeerLayer.build(PeerConfig(n_experts=16, heads=2, topk=2, d_model=8, query_dim=4), seed=0),
        lambda: ExpertChoiceMoE.build(MoeConfig(n_experts=2, d_model=8, d_ff=16), seed=0),
    ])
    def test_shape_preserved_and_finite(self, build):
        layer = build()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 8))
        y, _ = layer.forward(Tensor(x), mode="train")
        assert y.data.shape == x.shape
        assert np.all(np.isfinite(y.data))
