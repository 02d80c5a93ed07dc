import math

import numpy as np
import pytest

from peer_lab import analysis
from peer_lab.analysis import (
    ScalingLawParams,
    UsageAccumulator,
    evaluate_scaling_law,
    expert_usage_metrics,
    mac_per_token,
    measured_mac_per_token,
    model_param_macs_per_token,
)
from peer_lab.baselines import DenseConfig, DenseFFW, MoeConfig, MoeLayer, PkmConfig, PkmLayer
from peer_lab.model import Model, ModelConfig
from peer_lab.peer import PeerConfig, PeerLayer
from peer_lab.tensor import MacMeter


class TestParamCounts:
    def test_single_neuron_expert_with_bias_slot(self):
        cfg = PeerConfig(n_experts=1024**2, heads=8, topk=16, d_model=256, query_dim=8)
        counts = cfg.param_counts()
        assert counts.expert == 2 * 256 + 1 == 513
        assert counts.active == 513 * 128
        assert counts.granularity == 128 == cfg.granularity

    def test_bias_accounting_flag(self):
        cfg = PeerConfig(n_experts=16, heads=2, topk=2, d_model=10, query_dim=4)
        counts = cfg.param_counts(bias_accounting=False)
        assert counts.expert == 20
        assert counts.active == 20 * 4
        assert counts.granularity == 4.0

    def test_dense_all_params_active(self):
        counts = DenseConfig(d_model=16, d_ff=64).param_counts()
        assert counts.total == counts.active == 2 * 16 * 64

    def test_peer_total_enumerates_every_tensor(self):
        cfg = PeerConfig(n_experts=64, heads=2, topk=2, d_model=8, query_dim=4, query_bn=True, glu=True)
        layer = PeerLayer(cfg, seed=0)
        serialized = sum(p.data.size for p in layer.named_parameters().values())
        serialized += sum(a.size for a in layer.named_state().values())
        assert cfg.param_counts().total == serialized

    def test_pkm_total_enumerates_every_tensor(self):
        cfg = PkmConfig(n_memories=64, heads=2, topk=2, d_model=8, query_dim=4, query_bn=True)
        layer = PkmLayer(cfg, seed=0)
        serialized = sum(p.data.size for p in layer.named_parameters().values())
        serialized += sum(a.size for a in layer.named_state().values())
        assert cfg.param_counts().total == serialized

    def test_moe_total_enumerates_every_tensor(self):
        cfg = MoeConfig(n_experts=3, d_model=8, d_ff=16, granularity=2)
        layer = MoeLayer(cfg, seed=0)
        serialized = sum(p.data.size for p in layer.named_parameters().values())
        assert cfg.param_counts().total == serialized
        assert cfg.param_counts().granularity == 2.0


class TestMacPerToken:
    def test_retrieval_term_at_million_experts(self):
        cfg = PeerConfig(n_experts=1024**2, heads=1, topk=16, d_model=4, query_dim=128)
        total = mac_per_token(cfg)
        query_proj = 4 * 128
        experts = 2 * 4 * 16
        assert total - query_proj - experts == 1024 * 128 + 256 == 131328

    def test_dense(self):
        assert mac_per_token(DenseConfig(d_model=4, d_ff=8)) == 64

    def test_expert_term(self):
        cfg = PeerConfig(n_experts=4096, heads=4, topk=4, d_model=64, query_dim=8)
        retrieval_and_query = 4 * (64 * 8 + 64 * 8 + 16)
        assert mac_per_token(cfg) - retrieval_and_query == 2 * 64 * 16 == 2048

    @pytest.mark.parametrize("build,cfg", [
        (DenseFFW, DenseConfig(d_model=8, d_ff=32)),
        (PeerLayer, PeerConfig(n_experts=64, heads=2, topk=2, d_model=8, query_dim=4, query_bn=True)),
        (PeerLayer, PeerConfig(n_experts=256, heads=3, topk=5, d_model=16, query_dim=8, glu=True, query_bn=False)),
        (PkmLayer, PkmConfig(n_memories=64, heads=2, topk=2, d_model=8, query_dim=4)),
        (MoeLayer, MoeConfig(n_experts=4, d_model=8, d_ff=16, granularity=2)),
    ], ids=lambda v: "build" if isinstance(v, type) else None)  # a case is named by its config's index
    def test_formula_equals_live_instrumented_count(self, build, cfg):
        layer = build(cfg, seed=0)
        for n_tokens in (7, 10, 64):  # exact per token at counts that split unevenly over experts too
            assert measured_mac_per_token(layer, n_tokens=n_tokens) == mac_per_token(cfg), n_tokens

    def test_model_level_accounting_sequence_independent(self):
        a = ModelConfig(n_blocks=2, d_model=16, n_attn_heads=2, d_ff=32, seq_len=32)
        b = ModelConfig(n_blocks=2, d_model=16, n_attn_heads=2, d_ff=32, seq_len=256)
        assert model_param_macs_per_token(a) == model_param_macs_per_token(b)
        expected = 2 * (4 * 16 * 16) + 2 * (2 * 16 * 32) + 16 * 256
        assert model_param_macs_per_token(a) == expected

    def test_train_step_budget_includes_attention(self):
        mc = ModelConfig(n_blocks=2, d_model=16, n_attn_heads=2, d_ff=32, seq_len=32)
        per_token = model_param_macs_per_token(mc) + 2 * 2 * 32 * 16
        assert analysis.model_train_step_macs(mc, batch=4) == 3 * per_token * 4 * 32

    @pytest.mark.parametrize("kind,expected", [("dense", 1310720), ("peer", 6496256), ("pkm", 6463488), ("moe", 1449984)])
    def test_metered_forward_equals_budget(self, kind, expected):
        mc = ModelConfig(n_blocks=2, d_model=16, n_attn_heads=2, d_ff=32, seq_len=32, middle_layer=kind)
        tokens = np.random.default_rng(0).integers(0, 256, size=(4, 32))
        with MacMeter() as meter:
            Model(mc).forward(tokens)
        assert meter.total == analysis.model_train_step_macs(mc, batch=4) // analysis.TRAIN_STEP_MULTIPLIER == expected


class TestUsageMetrics:
    def test_uniform_distribution(self):
        acc = UsageAccumulator.create(1000)
        acc.z_prime[:] = 1.0 / 1000
        usage, unevenness = expert_usage_metrics(acc)
        assert usage == 1.0
        assert abs(unevenness) <= 1e-12

    def test_one_hot_over_a_million(self):
        n = 1024**2
        acc = UsageAccumulator.create(n)
        acc.z_prime[12345] = 3.7
        usage, unevenness = expert_usage_metrics(acc)
        assert usage == 1.0 / n
        assert unevenness == pytest.approx(math.log(n), abs=1e-9)
        assert unevenness == pytest.approx(13.8629, abs=1e-4)

    def test_half_support_case(self):
        acc = UsageAccumulator.create(4)
        acc.z_prime[:] = [0.5, 0.5, 0.0, 0.0]
        usage, unevenness = expert_usage_metrics(acc)
        assert usage == 0.5
        assert unevenness == pytest.approx(math.log(4) - math.log(2), abs=1e-12)
        assert unevenness == pytest.approx(0.6931, abs=1e-4)

    def test_matches_direct_formula_on_random_z(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(4, 200))
            z_prime = rng.uniform(0, 1, size=n) * (rng.random(size=n) < 0.6)
            if z_prime.sum() == 0:
                continue
            acc = UsageAccumulator(z_prime=z_prime)
            usage, unevenness = expert_usage_metrics(acc)
            z = z_prime / z_prime.sum()
            direct = math.log(n) + sum(zi * math.log(zi) for zi in z if zi > 0)
            assert unevenness == pytest.approx(direct, abs=1e-9)
            assert usage == pytest.approx(np.count_nonzero(z_prime) / n, abs=0)
            assert 0.0 <= unevenness <= math.log(n) + 1e-12
            assert 0.0 < usage <= 1.0

    def test_uniform_over_support_iff_zero_requires_full_support(self):
        acc = UsageAccumulator.create(8)
        acc.z_prime[:4] = 0.25
        _, unevenness = expert_usage_metrics(acc)
        assert unevenness > 0.0  # uniform on half the experts is still uneven

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            expert_usage_metrics(UsageAccumulator.create(10))

    def test_accumulate_validates(self):
        acc = UsageAccumulator.create(4)
        with pytest.raises(IndexError):
            acc.accumulate(np.array([4]), np.array([1.0]))
        with pytest.raises(ValueError):
            acc.accumulate(np.array([1, 2]), np.array([1.0]))
        with pytest.raises(ValueError):
            acc.accumulate(np.array([1]), np.array([-0.1]))


class TestScalingLaw:
    def test_hand_evaluated_point(self):
        params = ScalingLawParams(a=1, b=1, g=1, gamma=0.5, alpha=0.5, beta=0.5, c=1)
        assert evaluate_scaling_law(params, 4, 4, 4) == pytest.approx(2.25, abs=1e-12)

    def test_constant_when_abg_zero(self):
        params = ScalingLawParams(a=0, b=0, g=0, gamma=1, alpha=1, beta=1, c=3.5)
        for p, d, g in [(1, 1, 1), (10, 1e6, 64), (1e12, 1e12, 1e4)]:
            assert evaluate_scaling_law(params, p, d, g) == 3.5

    def test_large_granularity_limit(self):
        params = ScalingLawParams(a=2, b=3, g=5, gamma=0.8, alpha=0.3, beta=0.6, c=1)
        p, d = 1e6, 1e8
        limit = 1 + 2 / p**0.3 + 3 / d**0.6
        assert evaluate_scaling_law(params, p, d, 1e12) == pytest.approx(limit, rel=1e-9)
        assert evaluate_scaling_law(params, p, d, 8) > limit
        # decreasing toward the limit as granularity grows
        gs = [1, 4, 16, 64, 256]
        values = [evaluate_scaling_law(params, p, d, g) for g in gs]
        assert all(a > b > limit for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_each_argument(self):
        params = ScalingLawParams(a=1.2, b=0.8, g=2.0, gamma=0.7, alpha=0.35, beta=0.45, c=0.5)
        grid = np.geomspace(1, 1e9, 10)
        for fixed in [(1e5, 1e7), (17.0, 3.0)]:
            losses_p = [evaluate_scaling_law(params, p, fixed[0], fixed[1]) for p in grid]
            losses_d = [evaluate_scaling_law(params, fixed[0], d, fixed[1]) for d in grid]
            losses_g = [evaluate_scaling_law(params, fixed[0], fixed[1], g) for g in grid]
            for seq in (losses_p, losses_d, losses_g):
                assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_nonpositive_inputs_error(self):
        params = ScalingLawParams(a=1, b=1, g=1, gamma=1, alpha=1, beta=1, c=0)
        for bad in [(0, 1, 1), (1, -2, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                evaluate_scaling_law(params, *bad)

    def test_nonpositive_exponents_rejected(self):
        with pytest.raises(ValueError):
            ScalingLawParams(a=1, b=1, g=1, gamma=0, alpha=1, beta=1, c=0)
