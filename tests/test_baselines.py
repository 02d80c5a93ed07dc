import dataclasses

import numpy as np
import pytest

from peer_lab import baselines
from peer_lab import tensor as T
from peer_lab.analysis import measured_mac_per_token
from peer_lab.baselines import (
    DenseConfig,
    DenseFFW,
    MoeConfig,
    MoeLayer,
    PkmConfig,
    PkmLayer,
    dense_forward,
    moe_forward,
    pkm_forward,
)
from peer_lab.peer import PeerConfig, PeerLayer, assemble_dense_equivalent, peer_forward
from peer_lab.product_keys import RouterConfig
from peer_lab.tensor import MacMeter, Tensor


class TestDense:
    def test_mac_count_per_token(self):
        layer = DenseFFW(DenseConfig(d_model=4, d_ff=8), seed=0)
        assert measured_mac_per_token(layer, n_tokens=16) == 64  # 2 * 4 * 8

    def test_zero_output_matrix(self):
        layer = DenseFFW(DenseConfig(d_model=4, d_ff=8), seed=0)
        layer.w_out.data[:] = 0.0
        y = dense_forward(layer, Tensor(np.random.default_rng(0).normal(size=(3, 4))))
        assert np.all(y.data == 0.0)

    def test_shape_mismatch_errors(self):
        layer = DenseFFW(DenseConfig(d_model=4, d_ff=8), seed=0)
        with pytest.raises(ValueError):
            dense_forward(layer, Tensor(np.zeros((3, 5))))

    def test_matches_peer_assembled_equivalent(self):
        # copying the per-token assembled expert vectors into a dense FFW
        # must reproduce the PEER output for that token
        cfg = PeerConfig(n_experts=64, heads=4, topk=1, d_model=8, query_dim=8, activation="gelu", query_bn=False)
        peer = PeerLayer(cfg, seed=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=8)
        w, v = assemble_dense_equivalent(peer, Tensor(x))
        dense = DenseFFW(DenseConfig(d_model=8, d_ff=4, activation="gelu"), seed=0)
        dense.w_in.data = w.copy()
        dense.w_out.data = v.T.copy()
        y_dense = dense_forward(dense, Tensor(x[None, :]))
        y_peer, _ = peer_forward(peer, Tensor(x[None, :]))
        assert np.max(np.abs(y_dense.data - y_peer.data)) <= 1e-12

    def test_grad_check(self):
        rng = np.random.default_rng(2)
        layer = DenseFFW(DenseConfig(d_model=4, d_ff=6), seed=2)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))

        def f():
            return T.sum_all(T.mul(dense_forward(layer, x), w))

        params = dict(layer.named_parameters())
        params["x"] = x
        errors = T.grad_check(f, params, seed=2)
        assert max(errors.values()) <= 1e-3


class TestPkm:
    def test_single_memory_payload(self):
        cfg = PkmConfig(n_memories=16, heads=1, topk=1, d_model=8, query_dim=4, query_bn=False)
        layer = PkmLayer(cfg, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        y, routing = pkm_forward(layer, Tensor(x[None, :]))
        j = routing.indices[0, 0, 0]
        assert routing.weights[0, 0, 0] == 1.0
        assert np.allclose(y.data[0], layer.values.data[j], atol=1e-14)

    def test_payload_constant_under_frozen_routing(self):
        # with routing (ids + weights) frozen, the output is a function of
        # the value table alone; the input never enters the payload
        cfg = PkmConfig(n_memories=64, heads=2, topk=3, d_model=8, query_dim=8, query_bn=False)
        layer = PkmLayer(cfg, seed=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 8))
        y, routing = pkm_forward(layer, Tensor(x))
        frozen = np.einsum("mhk,mhkd->md", routing.weights, layer.values.data[routing.indices])
        assert np.max(np.abs(y.data - frozen)) <= 1e-12

    def test_matches_dense_reference(self):
        cfg = PkmConfig(n_memories=256, heads=2, topk=4, d_model=8, query_dim=8, query_bn=True)
        for seed in range(8):
            layer = PkmLayer(cfg, seed=seed)
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(5, 8))
            y, routing = pkm_forward(layer, Tensor(x), mode="train")
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
            pkm = PkmLayer(PkmConfig(n_memories=64, **common), seed=7)
            peer = PeerLayer(PeerConfig(n_experts=64, **common), seed=7)
            peer.index = pkm.index
            peer.query_nets = pkm.query_nets
            peer.bn = pkm.bn
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(6, 8)))
            _, routing_pkm = pkm_forward(pkm, x, mode=mode)
            _, routing_peer = peer_forward(peer, x, mode=mode)
            assert np.array_equal(routing_pkm.indices, routing_peer.indices)
            assert routing_pkm.weights.tobytes() == routing_peer.weights.tobytes(), (score_norm, query_bn, mode)

    @pytest.mark.parametrize("case", ["score_norm", "zero_heads"])
    def test_invalid_router_rejected(self, case):
        with pytest.raises(ValueError):
            if case == "score_norm":
                PkmConfig(score_norm="softmax")
            else:
                PkmConfig(heads=0)

    def test_unretrieved_rows_bitwise_zero(self):
        cfg = PkmConfig(n_memories=256, heads=2, topk=3, d_model=8, query_dim=8, query_bn=True)
        layer = PkmLayer(cfg, seed=2)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 8)))
        with T.Tape() as tape:
            y, routing = pkm_forward(layer, x, mode="train")
            tape.backward(y, grad=rng.normal(size=(5, 8)))
        grads = {name: p.grad for name, p in layer.named_parameters().items()}
        sqrt_n = layer.index.sqrt_n
        for name, used in (("pkm.values", routing.indices), ("pkm.subkeys.c", routing.indices // sqrt_n), ("pkm.subkeys.cp", routing.indices % sqrt_n)):
            unused = np.setdiff1d(np.arange(grads[name].shape[0]), used)
            assert unused.size and grads[name][unused].tobytes() == bytes(grads[name][unused].nbytes), name
            assert np.all(np.any(grads[name][np.unique(used)] != 0.0, axis=1)), name

    def test_grad_check(self):
        cfg = PkmConfig(n_memories=16, heads=2, topk=2, d_model=6, query_dim=4, query_bn=True)
        layer = PkmLayer(cfg, seed=3)
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 6)))

        def f():
            y, _ = pkm_forward(layer, x, mode="train")
            return T.sum_all(T.mul(y, w))

        params = dict(layer.named_parameters())
        params["x"] = x
        errors = T.grad_check(f, params, step=1e-5, max_coords=6, seed=3)
        assert max(errors.values()) <= 1e-3


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestExpertChoice:
    """The token-choice MoE: each token runs through its own top-g experts."""

    def test_single_expert_full_capacity(self):
        cfg = MoeConfig(n_experts=1, d_model=4, d_ff=8, granularity=1)
        layer = MoeLayer(cfg, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        y = moe_forward(layer, Tensor(x))
        expert_out = dense_forward(layer.experts[0], Tensor(x))
        assert np.max(np.abs(y.data - expert_out.data)) <= 1e-12  # softmax over 1 expert = 1

    def test_hand_assignment_matches_brute_force(self):
        cfg = MoeConfig(n_experts=2, d_model=2, d_ff=4, granularity=1)
        layer = MoeLayer(cfg, seed=1)
        layer.gate.data = np.eye(2)
        # tokens 0 and 2 lean to expert 0, token 1 to expert 1, token 3 ties
        x = np.array([[10.0, 0.0], [0.0, 10.0], [3.0, 1.0], [2.0, 2.0]])
        y = moe_forward(layer, Tensor(x))
        s = _softmax_rows(x)
        expected = np.zeros((4, 2))
        for t, e in enumerate([0, 1, 0, 0]):  # the tie goes to the lower expert id
            expected[t] = s[t, e] * dense_forward(layer.experts[e], Tensor(x[t : t + 1])).data[0]
        assert np.allclose(y.data, expected, atol=1e-12)

    def test_each_expert_runs_on_exactly_the_tokens_that_picked_it(self, monkeypatch):
        cfg = MoeConfig(n_experts=4, d_model=4, d_ff=8, granularity=2)
        layer = MoeLayer(cfg, seed=2)
        m = 10  # 20 picks do not split evenly over 4 experts
        x = np.random.default_rng(2).normal(size=(m, 4))
        seen = {}

        def spy(expert, rows):
            seen[expert.prefix] = rows.data.copy()
            return dense_forward(expert, rows)

        monkeypatch.setattr(baselines, "dense_forward", spy)
        with MacMeter() as meter:
            moe_forward(layer, Tensor(x))
        picks = np.argsort(-_softmax_rows(x @ layer.gate.data), axis=1, kind="stable")[:, :2]
        loads = []
        for e in range(4):
            picked = (picks == e).any(axis=1)
            assert np.array_equal(seen[f"moe.expert{e}"], x[picked]), e
            loads.append(int(picked.sum()))
        assert len(set(loads)) > 1  # the experts' loads are uneven
        # gate matmul + exactly granularity experts per token
        assert meter.total == m * 4 * 4 + m * 2 * (2 * 4 * 8) == m * cfg.mac_per_token()

    def test_each_token_is_the_sum_of_its_own_experts_alone(self):
        cfg = MoeConfig(n_experts=5, d_model=6, d_ff=8, granularity=3)
        layer = MoeLayer(cfg, seed=5)
        x = np.random.default_rng(5).normal(size=(9, 6))
        y = moe_forward(layer, Tensor(x))
        s = _softmax_rows(x @ layer.gate.data)
        for t in range(9):
            expected = np.zeros(6)
            for e in np.argsort(-s[t], kind="stable")[:3]:
                expected += s[t, e] * dense_forward(layer.experts[e], Tensor(x[t : t + 1])).data[0]
            assert np.allclose(y.data[t], expected, rtol=0, atol=1e-14), t

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lone_token_gets_the_bits_it_gets_beside_another(self, dtype):
        cfg = MoeConfig(n_experts=2, d_model=64, d_ff=256, granularity=1)
        layer = MoeLayer(cfg, seed=6, dtype=dtype)
        gate = np.zeros((64, 2), dtype=dtype)
        gate[0] = [1.0, -1.0]  # the sign of feature 0 picks the expert
        layer.gate.data = gate
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 64)).astype(dtype)
        x[0, 0], x[1, 0] = 1.0, -1.0  # token 0 alone in expert 0
        shared = x.copy()
        shared[1, 0] = 2.0  # token 1 joins token 0 in expert 0
        alone = moe_forward(layer, Tensor(x)).data
        beside = moe_forward(layer, Tensor(shared)).data
        assert alone[0].tobytes() == beside[0].tobytes()
        assert alone[1].tobytes() != beside[1].tobytes()

    def test_grad_check(self):
        cfg = MoeConfig(n_experts=3, d_model=4, d_ff=6, granularity=2, activation="gelu")
        layer = MoeLayer(cfg, seed=4)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4)))

        def f():
            return T.sum_all(T.mul(moe_forward(layer, x), w))

        params = dict(layer.named_parameters())
        params["x"] = x
        errors = T.grad_check(f, params, step=1e-5, max_coords=6, seed=4)
        assert max(errors.values()) <= 1e-3


class TestConfigs:
    def test_dense_activation_checked(self):
        with pytest.raises(ValueError, match="activation must be one of"):
            DenseConfig(activation="nope")

    def test_moe_activation_checked(self):
        with pytest.raises(ValueError, match="activation must be one of"):
            MoeConfig(activation="sigmoid")

    def test_moe_granularity_above_n_experts_fails_by_name(self):
        with pytest.raises(ValueError, match=r"^granularity must be <= n_experts=2, got 3$"):
            MoeConfig(n_experts=2, granularity=3)
        assert MoeConfig(n_experts=2, granularity=2).granularity == 2

    def test_router_fields_declared_once(self):
        shared = {"heads": 4, "topk": 4, "d_model": 64, "query_dim": 128, "score_norm": "softmax_per_head", "query_bn": True}
        assert {f.name: f.default for f in dataclasses.fields(RouterConfig)} == shared
        for cls, keys in ((PeerConfig, "n_experts"), (PkmConfig, "n_memories")):
            assert issubclass(cls, RouterConfig) and dataclasses.is_dataclass(cls)
            assert cls.keys_field == keys
            assert {name: getattr(cls(), name) for name in shared} == shared


class TestCommonInterface:
    @pytest.mark.parametrize("build", [
        lambda: DenseFFW(DenseConfig(d_model=8, d_ff=16), seed=0),
        lambda: PkmLayer(PkmConfig(n_memories=16, heads=2, topk=2, d_model=8, query_dim=4), seed=0),
        lambda: PeerLayer(PeerConfig(n_experts=16, heads=2, topk=2, d_model=8, query_dim=4), seed=0),
        lambda: MoeLayer(MoeConfig(n_experts=2, d_model=8, d_ff=16), seed=0),
    ])
    def test_shape_preserved_and_finite(self, build):
        layer = build()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 8))
        y, _ = layer.forward(Tensor(x), mode="train")
        assert y.data.shape == x.shape
        assert np.all(np.isfinite(y.data))
