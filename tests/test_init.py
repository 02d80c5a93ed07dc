"""Parameter draws: `tensor.normal_rows` gives the one-shot draw's bits from
one array of the parameter's dtype, so building a layer holds each table once."""

import tracemalloc

import numpy as np
import pytest

from peer_lab import tensor as T
from peer_lab.baselines import MoeConfig, PkmConfig, PkmLayer
from peer_lab.model import ModelConfig, build_model
from peer_lab.peer import PeerConfig, PeerLayer

ROWS = 129 * 129  # 16641: four full 4096-row blocks at d = 64, then 257 rows


def one_shot(rng, std, shape, dtype):
    return rng.normal(0.0, std, size=shape).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(ROWS, 64), (4096, 64), (3, 5), (7,), (0, 64), (2, 3, 70000)])
def test_blocks_are_the_one_shot_stream(shape, dtype):
    chunked, whole = np.random.default_rng(5), np.random.default_rng(5)
    a = T.normal_rows(chunked, 0.3, shape, dtype)
    b = one_shot(whole, 0.3, shape, dtype)
    assert a.dtype == dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(chunked.normal(size=4), whole.normal(size=4))


def middle_config(kind):
    if kind in ("peer", "peer-glu"):
        return PeerConfig(n_experts=ROWS, heads=2, topk=2, d_model=64, query_dim=8, glu=kind == "peer-glu")
    if kind == "pkm":
        return PkmConfig(n_memories=ROWS, heads=2, topk=2, d_model=64, query_dim=8)
    if kind == "moe":
        return MoeConfig(n_experts=2, d_model=64, d_ff=128, granularity=1)
    return None


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("kind", ["dense", "pkm", "peer", "peer-glu", "moe"])
def test_every_parameter_has_the_one_shot_bits(kind, dtype, monkeypatch):
    config = ModelConfig(
        n_blocks=2,
        d_model=64,
        n_attn_heads=2,
        d_ff=128,
        seq_len=8,
        middle_layer=kind.removesuffix("-glu"),
        middle_config=middle_config(kind),
        seed=3,
        dtype=dtype,
    )

    def build(draw):
        rngs = []

        def recording(rng, std, shape, dtype):
            rngs.append(rng)
            return draw(rng, std, shape, dtype)

        monkeypatch.setattr(T, "normal_rows", recording)
        model = build_model(config)
        # each generator's state after the build: where its next draw starts
        states = [rng.bit_generator.state for rng in dict.fromkeys(rngs)]
        return model.named_parameters(), states

    chunked, chunked_states = build(T.normal_rows)
    whole, whole_states = build(one_shot)
    assert chunked.keys() == whole.keys()
    for name, p in chunked.items():
        assert p.data.dtype == np.dtype(dtype), name
        assert np.array_equal(p.data, whole[name].data), name
    assert chunked_states == whole_states


def build_peak_over_held(build) -> tuple[int, int]:
    tracemalloc.start()
    try:
        layer = build()  # noqa: F841 -- held while the traced memory is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak - held


@pytest.mark.parametrize(
    "build",
    [
        lambda: PeerLayer(PeerConfig(n_experts=1 << 16, d_model=64), dtype=np.float32),
        lambda: PkmLayer(PkmConfig(n_memories=1 << 16, d_model=64), dtype=np.float32),
    ],
    ids=["peer", "pkm"],
)
def test_a_float32_build_holds_no_float64_table(build):
    table_bytes = (1 << 16) * 64 * 4
    held, over = build_peak_over_held(build)
    assert held >= table_bytes
    assert over < table_bytes // 4, f"peaked {over / 2**20:.1f} MiB above the {held / 2**20:.1f} MiB held"
