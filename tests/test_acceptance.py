"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. The desk-training criterion dominates the runtime
(tens of minutes on CPU); everything else finishes in a couple of minutes.
"""

import math
import time

import numpy as np
import pytest

from peer_lab import analysis
from peer_lab import tensor as T
from peer_lab.analysis import (
    ScalingLawParams,
    UsageAccumulator,
    evaluate_scaling_law,
    expert_usage_metrics,
)
from peer_lab.baselines import DenseConfig, PkmConfig, PkmLayer, pkm_forward
from peer_lab.checkpoint import load_checkpoint
from peer_lab.config import default_config
from peer_lab.data import Corpus
from peer_lab.model import ModelConfig, build_model, model_config_from_flat
from peer_lab.peer import PeerConfig, PeerLayer, assemble_dense_equivalent, peer_forward, record_usage
from peer_lab.product_keys import build_index, retrieve_exhaustive, retrieve_topk
from peer_lab.tensor import MacMeter, Tensor
from peer_lab.train import (
    TrainConfig,
    init_train_state,
    load_train_checkpoint,
    save_train_checkpoint,
    train,
)

from test_peer import dense_reference, np_activation


def report(number, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def test_c1_retrieval_exactness_and_c2_complexity():
    """Criteria 1 and 2 share one configuration sweep."""
    started = time.perf_counter()
    n_values = (16, 64, 256, 4096, 65536)
    d_values = (4, 16, 64)
    instances_per_config = 1000
    mismatches = 0
    checked = 0
    mac_ok = True

    for n in n_values:
        sqrt_n = math.isqrt(n)
        ks = sorted({1, min(4, sqrt_n), sqrt_n})
        for d in d_values:
            rng = np.random.default_rng(n * 131 + d)
            for trial in range(instances_per_config):
                index = build_index(n, d, seed=n + d * 7 + trial)
                query = rng.normal(size=d)
                # one exhaustive ordering serves every k: the top-k list under
                # a fixed total order is a prefix of the top-sqrt(n) list
                with MacMeter() as ex_meter:
                    oracle = retrieve_exhaustive(index, query, sqrt_n)
                if ex_meter.total != n * d:
                    mac_ok = False
                for k in ks:
                    with MacMeter() as meter:
                        got = retrieve_topk(index, query, k)
                    checked += 1
                    if not (
                        np.array_equal(got.indices, oracle.indices[:k])
                        and np.array_equal(got.scores, oracle.scores[:k])
                    ):
                        mismatches += 1
                    if meter.total != sqrt_n * d + k * k:
                        mac_ok = False

    elapsed = time.perf_counter() - started
    ok1 = mismatches == 0 and elapsed < 120.0
    report(1, ok1, f"{checked} retrievals, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 120.0, f"retrieval sweep took {elapsed:.1f}s (budget 120s)"

    ratio = (256 * 64 + 16 * 16) / (65536 * 64)
    ok2 = mac_ok and ratio < 0.005
    report(2, ok2, f"MAC counters exact; product/exhaustive ratio at N=65536,d=64,k=16 is {ratio:.6f}")
    assert mac_ok
    assert ratio < 0.005


def test_c3_single_expert_heads_equal_assembled_mlp():
    worst = 0.0
    layers_checked = 0
    for heads in (1, 2, 4, 8):
        for seed in range(25):
            cfg = PeerConfig(
                n_experts=256,
                heads=heads,
                topk=1,
                d_model=16,
                query_dim=8,
                activation="gelu" if seed % 2 == 0 else "relu",
                query_bn=(seed % 3 == 0),
            )
            layer = PeerLayer(cfg, seed=seed)
            rng = np.random.default_rng(1000 * heads + seed)
            x = rng.normal(size=16)
            y, _ = peer_forward(layer, Tensor(x[None, :]), mode="infer")
            w, v = assemble_dense_equivalent(layer, Tensor(x), mode="infer")
            reference = v @ np_activation(cfg.activation, w.T @ x)
            worst = max(worst, float(np.max(np.abs(y.data[0] - reference))))
            layers_checked += 1
    ok = layers_checked >= 100 and worst <= 1e-12
    report(3, ok, f"{layers_checked} layers, max |peer - assembled MLP| = {worst:.2e}")
    assert ok


def tiny_full_model():
    return build_model(
        ModelConfig(
            n_blocks=1,
            d_model=8,
            n_attn_heads=2,
            d_ff=16,
            seq_len=8,
            activation="gelu",
            middle_layer="peer",
            middle_config=PeerConfig(
                n_experts=16, heads=2, topk=2, d_model=8, query_dim=8, activation="gelu", query_bn=True, glu=True
            ),
            seed=0,
            dtype="float64",
        )
    )


def test_c4_full_model_gradients():
    started = time.perf_counter()
    model = tiny_full_model()
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 256, size=(2, 4))
    targets = rng.integers(0, 256, size=(2, 4))

    def f():
        return model.loss(tokens, targets, mode="train")

    errors = T.grad_check(f, model.named_parameters(), step=1e-5, max_coords=6, seed=0)
    worst_name, worst = max(errors.items(), key=lambda kv: kv[1])

    # sparsity: rows outside the union of retrieved experts get zero grads
    for p in model.named_parameters().values():
        p.zero_grad()
    with T.Tape() as tape:
        logits, routing = model.forward(tokens, mode="train")
        loss = T.cross_entropy_with_logits(logits, targets.reshape(-1))
        tape.backward(loss)
    params = model.named_parameters()
    untouched = np.setdiff1d(np.arange(16), np.unique(routing.indices))
    sparse_ok = untouched.size > 0
    for name in ("peer.experts.down", "peer.experts.up", "peer.experts.gate"):
        sparse_ok &= bool(np.all(params[name].grad[untouched] == 0.0))

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-3 and sparse_ok and elapsed < 300.0
    report(
        4,
        ok,
        f"{len(errors)} parameter groups, worst rel err {worst:.2e} ({worst_name}); "
        f"{untouched.size} unretrieved expert rows all zero-grad; {elapsed:.1f}s",
    )
    assert worst <= 1e-3, f"{worst_name}: {worst}"
    assert sparse_ok
    assert elapsed < 300.0


def test_c5_dense_oracle_equivalence():
    worst_peer = 0.0
    seeds_run = 0
    for seed in range(100):
        cfg = PeerConfig(
            n_experts=(16, 64, 256)[seed % 3],
            heads=1 + seed % 3,
            topk=1 + seed % 4,
            d_model=8,
            query_dim=8,
            activation=("relu", "gelu")[seed % 2],
            score_norm=("softmax_per_head", "sigmoid")[seed % 2],
            query_bn=(seed % 3 == 0),
            glu=(seed % 5 == 0),
        )
        layer = PeerLayer(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 8))
        y, routing = peer_forward(layer, Tensor(x), mode="train")
        ref_y, ref_idx = dense_reference(layer, x, mode="train")
        assert np.array_equal(routing.indices, ref_idx)
        worst_peer = max(worst_peer, float(np.max(np.abs(y.data - ref_y))))
        seeds_run += 1

    worst_pkm = 0.0
    for seed in range(100):
        cfg = PkmConfig(
            n_memories=(16, 64, 256)[seed % 3],
            heads=1 + seed % 2,
            topk=1 + seed % 4,
            d_model=8,
            query_dim=8,
            query_bn=(seed % 2 == 0),
        )
        layer = PkmLayer(cfg, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=(4, 8))
        y, routing = pkm_forward(layer, Tensor(x), mode="train")
        # brute force over all memories
        q_all = np.concatenate([x @ w.data for w in layer.query_nets], axis=0)
        if layer.bn is not None:
            mu = q_all.mean(axis=0)
            var = ((q_all - mu) ** 2).mean(axis=0)
            q_all = layer.bn.scale.data * (q_all - mu) / np.sqrt(var + layer.bn.eps) + layer.bn.shift.data
        sqrt_n = layer.index.sqrt_n
        full = np.hstack([np.repeat(layer.index.left.data, sqrt_n, 0), np.tile(layer.index.right.data, (sqrt_n, 1))])
        scores_all = q_all @ full.T
        expected = np.zeros_like(x)
        for h in range(cfg.heads):
            for t in range(4):
                order = np.argsort(-scores_all[h * 4 + t], kind="stable")[: cfg.topk]
                sel = scores_all[h * 4 + t][order]
                g = np.exp(sel - sel.max())
                g /= g.sum()
                expected[t] += g @ layer.values.data[order]
                assert np.array_equal(routing.indices[t, h], order)
        worst_pkm = max(worst_pkm, float(np.max(np.abs(y.data - expected))))

    ok = seeds_run >= 100 and worst_peer <= 1e-10 and worst_pkm <= 1e-10
    report(5, ok, f"peer max dev {worst_peer:.2e}, pkm max dev {worst_pkm:.2e} over 100 seeds each")
    assert ok


def test_c6_usage_metrics_oracle():
    acc = UsageAccumulator.create(64)
    acc.z_prime[:] = 1.0 / 64
    usage_u, uneven_u = expert_usage_metrics(acc)

    n = 1048576
    acc = UsageAccumulator.create(n)
    acc.z_prime[7] = 1.0
    usage_h, uneven_h = expert_usage_metrics(acc)

    acc = UsageAccumulator.create(4)
    acc.z_prime[:] = [0.5, 0.5, 0.0, 0.0]
    usage_half, uneven_half = expert_usage_metrics(acc)

    ok = (
        usage_u == 1.0
        and abs(uneven_u) <= 1e-9
        and usage_h == 1.0 / n
        and abs(uneven_h - math.log(n)) <= 1e-9
        and abs(uneven_h - 13.8629) <= 1e-4
        and usage_half == 0.5
        and abs(uneven_half - 0.6931) <= 1e-4
        and abs(uneven_half - (math.log(4) + 2 * 0.5 * math.log(0.5))) <= 1e-9
    )
    report(6, ok, f"uniform=(1.0,{uneven_u:.1e}); one-hot=({usage_h:.2e},{uneven_h:.4f}); half=({usage_half},{uneven_half:.4f})")
    assert ok


def desk_model(query_bn: bool, seed: int = 0):
    return build_model(
        ModelConfig(
            n_blocks=2,
            d_model=64,
            n_attn_heads=4,
            d_ff=256,
            seq_len=128,
            activation="gelu",
            middle_layer="peer",
            middle_config=PeerConfig(n_experts=4096, heads=4, topk=4, d_model=64, query_dim=128, query_bn=query_bn),
            seed=seed,
            dtype="float32",
        )
    )


def validation_usage(model, corpus, chunk=16):
    acc = UsageAccumulator.create(4096)
    windows = corpus.val_windows(model.config.seq_len)
    for lo in range(0, len(windows), chunk):
        x = np.stack([w[0] for w in windows[lo : lo + chunk]])
        _, routing = model.forward(x, mode="infer")
        record_usage(routing, acc)
    return expert_usage_metrics(acc)


@pytest.mark.slow
def test_c7_desk_training(tmp_path):
    started = time.perf_counter()
    corpus = Corpus.synthetic(1 << 20, seed=0)
    steps, ckpt_at = 2000, 1900
    tc_full = TrainConfig(steps=steps, batch=6, lr=1e-3, warmup=100, seed=0)

    model = desk_model(query_bn=True)
    tc_head = TrainConfig(steps=ckpt_at, batch=6, lr=1e-3, warmup=100, seed=0)
    state, rows_head = train(model, corpus, tc_head)
    save_train_checkpoint(tmp_path / "ckpt.bin", model, state)
    state, rows_tail = train(model, corpus, tc_full, state=state)
    rows = rows_head + rows_tail

    first_loss = rows[0]["loss"]
    final_loss = float(np.mean([r["loss"] for r in rows[-20:]]))
    drop = 1.0 - final_loss / first_loss
    loss_ok = drop >= 0.30

    resumed = desk_model(query_bn=True)
    resumed_state = load_train_checkpoint(tmp_path / "ckpt.bin", resumed)
    assert resumed_state.step == ckpt_at
    _, rows_resumed = train(resumed, corpus, tc_full, state=resumed_state)
    bitwise_ok = [r["loss"] for r in rows_resumed] == [r["loss"] for r in rows_tail]
    for name, p in model.named_parameters().items():
        bitwise_ok &= bool(np.array_equal(p.data, resumed.named_parameters()[name].data))
    for name, arr in model.named_state().items():
        bitwise_ok &= bool(np.array_equal(arr, resumed.named_state()[name]))

    usage_bn, uneven_bn = validation_usage(model, corpus)

    model_nobn = desk_model(query_bn=False)
    train(model_nobn, corpus, tc_full)
    usage_nobn, uneven_nobn = validation_usage(model_nobn, corpus)

    elapsed = time.perf_counter() - started
    direction = "more" if uneven_bn < uneven_nobn else "less"
    ok = loss_ok and bitwise_ok and elapsed < 1800.0
    report(
        7,
        ok,
        f"loss {first_loss:.3f}->{final_loss:.3f} ({drop:.0%} drop); resume bitwise={bitwise_ok}; "
        f"usage BN={usage_bn:.4f}/uneven {uneven_bn:.3f} vs no-BN={usage_nobn:.4f}/uneven {uneven_nobn:.3f} "
        f"(BN run is {direction} balanced here; direction reported, not asserted); {elapsed:.0f}s",
    )
    assert loss_ok, f"loss dropped only {drop:.1%}"
    assert bitwise_ok
    assert elapsed < 1800.0


def test_c8_accounting_consistency(tmp_path):
    from peer_lab.sweep import isoflop_sweep

    cfg = default_config()
    cfg["model.n_blocks"] = 2
    cfg["model.n_attn_heads"] = 2
    cfg["model.seq_len"] = 32
    cfg["train.batch"] = 4
    cfg["train.steps"] = 0
    cfg["data.synthetic_bytes"] = 40000
    cfg["peer.n_experts"] = 1024
    cfg["peer.heads"] = 2
    cfg["peer.topk"] = 4
    cfg["peer.query_dim"] = 16
    cfg["pkm.n_memories"] = 1024
    cfg["pkm.heads"] = 2
    cfg["pkm.topk"] = 4
    cfg["pkm.query_dim"] = 16
    cfg["moe.n_experts"] = 4
    cfg["sweep.methods"] = ("dense", "peer", "pkm", "moe")
    cfg["sweep.d_models"] = (16, 32)
    worst_step_macs = max(
        analysis.model_train_step_macs(model_config_from_flat({**cfg, "model.middle_layer": m, "model.d_model": dm, "model.d_ff": 4 * dm}), 4)
        for m in cfg["sweep.methods"]
        for dm in cfg["sweep.d_models"]
    )
    cfg["sweep.budget_macs"] = float(worst_step_macs * 12)

    corpus = Corpus.synthetic(cfg["data.synthetic_bytes"], seed=0)
    results = isoflop_sweep(cfg, corpus, tmp_path, log=lambda *a: None)
    assert len(results) == 8

    all_ok = True
    for r in results:
        mc = model_config_from_flat({**cfg, "model.middle_layer": r.method, "model.d_model": r.d_model, "model.d_ff": 4 * r.d_model})
        model = build_model(mc)
        save_train_checkpoint(tmp_path / "acct.bin", model, init_train_state(model, TrainConfig(steps=1)))
        tensors = load_checkpoint(tmp_path / "acct.bin")
        layer_size = sum(arr.size for name, arr in tensors.items() if name.startswith(f"{r.method}."))
        counts = mc.middle_config.param_counts()
        all_ok &= layer_size == counts.total
        if r.method == "peer":
            all_ok &= counts.granularity == mc.middle_config.heads * mc.middle_config.topk
            dense_total = DenseConfig(d_model=r.d_model, d_ff=4 * r.d_model).param_counts().total
            all_ok &= counts.active < dense_total < counts.total

    report(8, all_ok, f"{len(results)} sweep configs: checkpoint sizes match param_counts; G=h*k; peer active < dense P < peer total")
    assert all_ok


def test_c9_scaling_law_evaluator():
    params = ScalingLawParams(a=1, b=1, g=1, gamma=0.5, alpha=0.5, beta=0.5, c=1)
    hand = evaluate_scaling_law(params, 4, 4, 4)
    exact_ok = abs(hand - 2.25) <= 1e-12

    params = ScalingLawParams(a=0.7, b=1.3, g=2.1, gamma=0.6, alpha=0.31, beta=0.52, c=0.9)
    grid = np.geomspace(1.0, 1e8, 10)
    monotone_ok = True
    for i in range(10):
        for j in range(10):
            for axis in range(3):
                values = []
                for v in grid:
                    args = [grid[i], grid[j]]
                    args.insert(axis, v)
                    values.append(evaluate_scaling_law(params, *args))
                monotone_ok &= all(a > b for a, b in zip(values, values[1:]))

    ok = exact_ok and monotone_ok
    report(9, ok, f"hand point {hand!r} (|err| <= 1e-12); monotone over {10**3}-point grid in P, D, G")
    assert ok
