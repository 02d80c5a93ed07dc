"""top_k against the stable full sort, bitwise, on heavily tied inputs.

top_k narrows long rows by partial selection and falls back to the full
sort only where the k-th value is tied across the cut or a NaN is present,
so these inputs are built to hit both branches: small integer values (many
ties), wide integer values (few ties), and +-0.0, +-inf and NaN.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from peer_lab.product_keys import build_index, retrieve_exhaustive, retrieve_topk, retrieve_topk_batch, tile_rows  # noqa: E402
from peer_lab.tensor import top_k  # noqa: E402

SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)
ELEMENTS = st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6), st.sampled_from(SPECIALS)).map(float)
DTYPES = st.sampled_from([np.float32, np.float64])


def reference(v: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.argsort(-v, axis=-1, kind="stable")[..., :k]
    return idx, np.take_along_axis(v, idx, axis=-1)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def tied_arrays(draw):
    shape = draw(st.one_of(st.tuples(st.integers(1, 96)), st.tuples(st.integers(1, 5), st.integers(1, 96))))
    return draw(hnp.arrays(draw(DTYPES), shape, elements=ELEMENTS))


@settings(max_examples=300, deadline=None)
@given(tied_arrays())
def test_every_k_equals_stable_full_sort(v):
    for k in range(1, v.shape[-1] + 1):
        idx, vals = top_k(v, k)
        ref_idx, ref_vals = reference(v, k)
        assert same_bits(idx, ref_idx), k
        assert same_bits(vals, ref_vals), k


def test_wide_rows_with_planted_ties_and_nan():
    # realistic widths (k=4 of 1024): most rows distinct, some with the 4th
    # value tied across the cut, one with a NaN, one all-equal
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):
        v = rng.normal(size=(64, 1024)).astype(dtype)
        for r in range(0, 16):
            order = np.argsort(-v[r], kind="stable")
            v[r, order[4 : 4 + r % 3 + 1]] = v[r, order[3]]
        v[20, 7] = np.nan
        v[21] = 1.0
        v[22, 100] = -0.0
        v[22, 200] = 0.0
        for k in (1, 4, 16, 128):
            idx, vals = top_k(v, k)
            ref_idx, ref_vals = reference(v, k)
            assert same_bits(idx, ref_idx)
            assert same_bits(vals, ref_vals)
            idx1, vals1 = top_k(v[20], k)
            assert same_bits(idx1, ref_idx[20]) and same_bits(vals1, ref_vals[20])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batched_retrieval_equals_exhaustive_on_integer_keys(data):
    # integer-valued keys and queries: every score is exact, and ties abound.
    # m may cross a retrieval tile boundary; its rows then repeat a drawn block
    # of at most 6, so each row's result must equal its block row's
    sqrt_n = data.draw(st.integers(1, 40), label="sqrt_n")
    half = data.draw(st.integers(1, 3), label="half")
    k = data.draw(st.integers(1, sqrt_n), label="k")
    t = tile_rows(sqrt_n)
    m = data.draw(st.one_of(st.integers(1, 6), st.sampled_from([t - 1, t + 1])), label="m")
    dtype = data.draw(DTYPES, label="dtype")
    small = st.integers(-2, 2).map(float)
    index = build_index(sqrt_n * sqrt_n, 2 * half, seed=0, dtype=dtype)
    index.left.data[:] = data.draw(hnp.arrays(dtype, (sqrt_n, half), elements=small))
    index.right.data[:] = data.draw(hnp.arrays(dtype, (sqrt_n, half), elements=small))
    block = data.draw(hnp.arrays(dtype, (min(m, 6), 2 * half), elements=small))
    queries = np.resize(block, (m, 2 * half))

    ids, scores = retrieve_topk_batch(index, queries, k)
    b = block.shape[0]
    assert same_bits(ids, np.resize(ids[:b], ids.shape)) and same_bits(scores, np.resize(scores[:b], scores.shape))
    for r in range(b):
        ref = retrieve_exhaustive(index, queries[r], k)
        assert np.array_equal(ids[r], ref.indices)
        assert np.array_equal(scores[r], ref.scores)
        assert np.array_equal(retrieve_topk(index, queries[r], k).indices, ref.indices)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_small_k_on_long_rows_with_infinities_and_nan(data):
    # k <= 8 on rows of at least 8k values takes the argmax passes; -inf at or
    # above the cut (an id can repeat once -inf is picked), +inf and NaN rows
    # must come out as the stable sort does
    k = data.draw(st.integers(1, 8), label="k")
    n = data.draw(st.integers(8 * k, 8 * k + 40), label="n")
    rows = data.draw(st.integers(1, 4), label="rows")
    dtype = data.draw(DTYPES, label="dtype")
    v = data.draw(hnp.arrays(dtype, (rows, n), elements=ELEMENTS), label="v")
    finite = data.draw(st.integers(0, k + 1), label="finite values in row 0")
    v[0, finite:] = -np.inf
    for arr in (v, v[0]):
        idx, vals = top_k(arr, k)
        ref_idx, ref_vals = reference(arr, k)
        assert same_bits(idx, ref_idx)
        assert same_bits(vals, ref_vals)


def test_small_k_on_wide_rows_with_infinities_and_nan():
    rng = np.random.default_rng(1)
    for dtype in (np.float32, np.float64):
        v = rng.normal(size=(32, 1024)).astype(dtype)
        v[0, 3:] = -np.inf  # 3 finite values: -inf reaches the cut for k >= 4
        v[1, :] = -np.inf
        v[2, 500] = np.inf
        v[3, 9] = np.nan
        v[4, ::2] = np.nan
        v[5] = np.round(v[5])  # integer-valued: ties everywhere
        for k in range(1, 9):
            idx, vals = top_k(v, k)
            ref_idx, ref_vals = reference(v, k)
            assert same_bits(idx, ref_idx), k
            assert same_bits(vals, ref_vals), k
