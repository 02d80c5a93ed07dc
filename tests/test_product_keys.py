import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peer_lab import product_keys
from peer_lab.product_keys import (
    build_index,
    retrieve_exhaustive,
    retrieve_topk,
    retrieve_topk_batch,
    tile_rows,
)
from peer_lab.tensor import MacMeter


def hand_index():
    """N=4, d=2: left keys {1, -1}, right keys {2, 0.5}."""
    index = build_index(4, 2, seed=0)
    index.left.keys.data[:] = np.array([[1.0], [-1.0]])
    index.right.keys.data[:] = np.array([[2.0], [0.5]])
    return index


class TestBuildIndex:
    def test_million_experts_gives_1024_row_subkey_sets(self):
        index = build_index(1024**2, 8, seed=0)
        assert index.left.keys.data.shape == (1024, 4)
        assert index.right.keys.data.shape == (1024, 4)
        assert index.n_experts == 1048576

    def test_smallest_nontrivial(self):
        index = build_index(4, 2, seed=0)
        assert index.left.keys.data.shape == (2, 1)
        assert index.sqrt_n == 2 and index.key_dim == 2

    def test_non_square_errors(self):
        with pytest.raises(ValueError):
            build_index(6, 4)

    def test_odd_key_dim_errors(self):
        with pytest.raises(ValueError):
            build_index(16, 3)

    def test_deterministic_per_seed_and_in_range(self):
        a = build_index(64, 8, init_scale=0.25, seed=42)
        b = build_index(64, 8, init_scale=0.25, seed=42)
        assert np.array_equal(a.left.keys.data, b.left.keys.data)
        assert np.array_equal(a.right.keys.data, b.right.keys.data)
        assert np.max(np.abs(a.left.keys.data)) <= 0.25
        c = build_index(64, 8, init_scale=0.25, seed=43)
        assert not np.array_equal(a.left.keys.data, c.left.keys.data)


class TestRetrieveTopk:
    def test_hand_instance(self):
        # full keys: e0=(1,2) e1=(1,0.5) e2=(-1,2) e3=(-1,0.5); q=(1,1)
        # scores by exhaustive enumeration: 3.0, 1.5, 1.0, -0.5
        result = retrieve_topk(hand_index(), np.array([1.0, 1.0]), 2)
        assert result.indices.tolist() == [0, 1]
        assert result.scores.tolist() == [3.0, 1.5]

    def test_k_above_sqrt_n_errors(self):
        with pytest.raises(ValueError):
            retrieve_topk(hand_index(), np.array([1.0, 1.0]), 3)

    def test_bad_query_shape_errors(self):
        with pytest.raises(ValueError):
            retrieve_topk(hand_index(), np.array([1.0, 1.0, 1.0]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_errors(self, bad):
        # an all-NaN query used to route to experts 0..k-1, an inf one to arbitrary ids
        with pytest.raises(ValueError, match="1 of 1 query rows are non-finite"):
            retrieve_topk(hand_index(), np.array([bad, 1.0]), 1)

    def test_mac_and_comparison_counts(self):
        index = build_index(4096, 16, seed=1)
        with MacMeter() as meter:
            retrieve_topk(index, np.ones(16), 8)
            assert meter.total == 64 * 16 + 64
            assert meter.comparisons == 2 * 64 + 64
            retrieve_topk(index, np.ones(16), 8)
        assert meter.total == 2 * (64 * 16 + 64)  # meters accumulate

    def test_result_invariants(self):
        rng = np.random.default_rng(3)
        index = build_index(256, 8, seed=3)
        result = retrieve_topk(index, rng.normal(size=8), 16)
        assert len(set(result.indices.tolist())) == 16
        assert np.all(np.diff(result.scores) <= 0)

    def test_determinism_across_runs(self):
        rng = np.random.default_rng(5)
        index = build_index(1024, 16, seed=5)
        q = rng.normal(size=16)
        a = retrieve_topk(index, q, 9)
        b = retrieve_topk(index, q, 9)
        assert np.array_equal(a.indices, b.indices) and np.array_equal(a.scores, b.scores)

    def test_parallel_queries_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(8)
        index = build_index(4096, 16, seed=8)
        queries = rng.normal(size=(32, 16))
        serial = [retrieve_topk(index, q, 8) for q in queries]
        serial_ex = [retrieve_exhaustive(index, q, 8) for q in queries]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda q: retrieve_topk(index, q, 8), queries))
            parallel_ex = list(pool.map(lambda q: retrieve_exhaustive(index, q, 8), queries))
        for s, p in list(zip(serial, parallel)) + list(zip(serial_ex, parallel_ex)):
            assert np.array_equal(s.indices, p.indices)
            assert np.array_equal(s.scores, p.scores)


class TestExhaustive:
    def test_same_hand_instance(self):
        result = retrieve_exhaustive(hand_index(), np.array([1.0, 1.0]), 2)
        assert result.indices.tolist() == [0, 1]
        assert result.scores.tolist() == [3.0, 1.5]

    def test_k_equals_n_returns_all_sorted(self):
        result = retrieve_exhaustive(hand_index(), np.array([1.0, 1.0]), 4)
        assert result.indices.tolist() == [0, 1, 2, 3]
        assert result.scores.tolist() == [3.0, 1.5, 1.0, -0.5]

    def test_zero_query_tie_break(self):
        index = build_index(64, 8, seed=0)
        result = retrieve_exhaustive(index, np.zeros(8), 5)
        assert result.indices.tolist() == [0, 1, 2, 3, 4]
        assert np.all(result.scores == 0.0)
        product = retrieve_topk(index, np.zeros(8), 5)
        assert product.indices.tolist() == [0, 1, 2, 3, 4]

    def test_k_above_n_errors(self):
        with pytest.raises(ValueError):
            retrieve_exhaustive(hand_index(), np.array([1.0, 1.0]), 5)

    def test_mac_count(self):
        with MacMeter() as meter:
            retrieve_exhaustive(build_index(4096, 16, seed=0), np.ones(16), 4)
        assert meter.total == 4096 * 16

    def test_comparison_count(self):
        with MacMeter() as meter:
            retrieve_exhaustive(build_index(4096, 16, seed=0), np.ones(16), 4)
        assert meter.comparisons == 4096


class TestOracleEquivalence:
    @pytest.mark.parametrize("n,d", [(16, 4), (64, 16), (256, 16), (4096, 16)])
    def test_random_instances_match_exactly(self, n, d):
        rng = np.random.default_rng(n * 1000 + d)
        sqrt_n = int(np.sqrt(n))
        for trial in range(60):
            index = build_index(n, d, seed=trial)
            q = rng.normal(size=d)
            for k in {1, min(4, sqrt_n), sqrt_n}:
                got = retrieve_topk(index, q, k)
                want = retrieve_exhaustive(index, q, k)
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.scores, want.scores)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tie_heavy_instances_match_exactly(self, data):
        # low-resolution keys/queries force massive score ties
        sqrt_n = data.draw(st.integers(2, 6))
        half = data.draw(st.integers(1, 3))
        grid = st.integers(-2, 2)
        left = np.array(data.draw(st.lists(st.lists(grid, min_size=half, max_size=half), min_size=sqrt_n, max_size=sqrt_n)), dtype=np.float64)
        right = np.array(data.draw(st.lists(st.lists(grid, min_size=half, max_size=half), min_size=sqrt_n, max_size=sqrt_n)), dtype=np.float64)
        q = np.array(data.draw(st.lists(grid, min_size=2 * half, max_size=2 * half)), dtype=np.float64)
        index = build_index(sqrt_n * sqrt_n, 2 * half, seed=0)
        index.left.keys.data[:] = left
        index.right.keys.data[:] = right
        k = data.draw(st.integers(1, sqrt_n))
        got = retrieve_topk(index, q, k)
        want = retrieve_exhaustive(index, q, k)
        assert got.indices.tolist() == want.indices.tolist()
        assert got.scores.tolist() == want.scores.tolist()

    def test_float32_scores_agree_up_to_the_half_dot_rounding(self):
        # N=16, d=4 in float32: the ids agree, but some scores differ in the
        # last bit, within the rounding of two half-length dot products
        index = build_index(16, 4, seed=3, dtype=np.float32)
        queries = np.random.default_rng(3).normal(size=(12, 4)).astype(np.float32)
        differ = 0
        for q in queries:
            for k in (1, 2, 4):
                got, want = retrieve_topk(index, q, k), retrieve_exhaustive(index, q, k)
                assert np.array_equal(got.indices, want.indices)
                tol = 2 * 2 * np.finfo(np.float32).eps * max(1.0, float(np.abs(want.scores).max()))
                assert np.allclose(got.scores, want.scores, rtol=0.0, atol=tol)
                differ += got.scores.tobytes() != want.scores.tobytes()
        assert differ > 0  # so the docstring's caveat is real

    def test_score_decomposition(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            index = build_index(256, 16, seed=trial)
            q = rng.normal(size=16)
            result = retrieve_topk(index, q, 12)
            sqrt_n = index.sqrt_n
            for expert, score in zip(result.indices, result.scores):
                i, j = expert // sqrt_n, expert % sqrt_n
                recomputed = float(index.left.keys.data[i] @ q[:8]) + float(index.right.keys.data[j] @ q[8:])
                assert abs(score - recomputed) <= 1e-12

    def test_cost_sublinearity(self):
        d, k = 16, 4
        macs = {}
        for n in (256, 4096):
            index = build_index(n, d, seed=0)
            with MacMeter() as c_prod:
                retrieve_topk(index, np.ones(d), k)
            with MacMeter() as c_ex:
                retrieve_exhaustive(index, np.ones(d), k)
            macs[n] = (c_prod.total, c_ex.total)
        # quadrupling sqrt(N): product sub-scoring scales 4x, exhaustive 16x
        assert macs[4096][0] - k * k == 4 * (macs[256][0] - k * k)
        assert macs[4096][1] == 16 * macs[256][1]


class TestBatchedRetrieval:
    def test_matches_single_query_path(self):
        rng = np.random.default_rng(2)
        index = build_index(4096, 16, seed=2)
        queries = rng.normal(size=(40, 16))
        with MacMeter() as meter:
            indices, scores = retrieve_topk_batch(index, queries, 8)
        assert meter.total == 40 * (64 * 16 + 64)
        for row, q in enumerate(queries):
            single = retrieve_topk(index, q, 8)
            assert np.array_equal(indices[row], single.indices)
            assert np.allclose(scores[row], single.scores, atol=1e-12)

    def test_tie_break_matches_on_zero_queries(self):
        index = build_index(256, 8, seed=0)
        indices, scores = retrieve_topk_batch(index, np.zeros((3, 8)), 4)
        assert np.array_equal(indices, np.tile(np.arange(4), (3, 1)))
        assert np.all(scores == 0.0)

    def test_non_finite_rows_are_counted(self):
        queries = np.zeros((5, 8))
        queries[1, :] = np.nan
        queries[3, 2] = np.inf
        with pytest.raises(ValueError, match="2 of 5 query rows are non-finite"):
            retrieve_topk_batch(build_index(256, 8, seed=0), queries, 4)


class TestTiledRetrieval:
    """Rows go through retrieve_topk_batch in near-equal tiles of at most
    tile_rows(sqrt_n) rows; the result must not depend on the tiling."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [16, 4096, 65536])
    def test_tiles_equal_the_untiled_block_and_the_oracle(self, n, dtype, monkeypatch):
        d, k = 16, 4
        rng = np.random.default_rng(n)
        index = build_index(n, d, seed=4, dtype=dtype)
        # integer-valued keys and queries score exactly, with ties between experts
        whole = build_index(n, d, seed=4, dtype=dtype)
        for keys in (whole.left.keys, whole.right.keys):
            keys.data[:] = np.round(keys.data * 3)
        t = tile_rows(index.sqrt_n)
        for m in (1, 2, t - 1, t, t + 1, 2 * t + 1):
            queries = rng.normal(size=(m, d)).astype(dtype)
            ints = np.round(queries * 2)
            for idx, q, exact in ((index, queries, False), (whole, ints, True)):
                ids, scores = retrieve_topk_batch(idx, q, k)
                with monkeypatch.context() as patch:
                    patch.setattr(product_keys, "TILE_SCORES", 1 << 40)
                    untiled_ids, untiled_scores = retrieve_topk_batch(idx, q, k)
                assert ids.tobytes() == untiled_ids.tobytes() and scores.tobytes() == untiled_scores.tobytes(), m
                tiles = -(-m // t)
                edges = {b for i in range(1, tiles) for b in (i * m // tiles - 1, i * m // tiles)}
                for r in sorted(edges | {0, m - 1} | set(rng.integers(0, m, size=4).tolist())):
                    ref = retrieve_exhaustive(idx, q[r], k)
                    assert np.array_equal(ids[r], ref.indices), (m, r)
                    if exact:
                        assert scores[r].tobytes() == ref.scores.tobytes(), (m, r)
                    else:
                        tol = 2 * (d // 2) * np.finfo(dtype).eps * max(1.0, float(np.abs(ref.scores).max()))
                        assert np.allclose(scores[r], ref.scores, rtol=0.0, atol=tol), (m, r)
