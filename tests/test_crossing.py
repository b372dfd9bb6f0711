import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinenc import crossing
from twinenc.crossing import (
    cosine,
    cosine_head_prob,
    init_head_params,
    max_combine,
    residual_head_forward,
    residual_head_prob,
)
from twinenc.encoder import sigmoid

unit_free = arrays(
    np.float64, 8,
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
).filter(lambda v: np.linalg.norm(v) > 1e-6)


@pytest.fixture(scope="module")
def head_params():
    return init_head_params(8, np.random.default_rng(0))


class TestCosine:
    def test_self_similarity_one(self, rng):
        v = rng.standard_normal(16)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_zero(self):
        a = np.zeros(8); a[0] = 1.0
        b = np.zeros(8); b[1] = 1.0
        assert cosine(a, b) == 0.0

    def test_hand_computed(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == pytest.approx(0.8, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(4), np.ones(4))

    @given(unit_free, st.floats(0.1, 50))
    @settings(max_examples=50)
    def test_scale_invariance(self, v, s):
        w = np.roll(v, 1) + 0.5
        if np.linalg.norm(w) < 1e-6:
            return
        assert cosine(v * s, w) == pytest.approx(cosine(v, w), rel=1e-9, abs=1e-9)


class TestCosineHead:
    def test_zero_cosine_scale_one(self):
        params = {"cosine_head.scale": np.asarray(1.0), "cosine_head.bias": np.asarray(0.0)}
        a = np.zeros((1, 8)); a[0, 0] = 1.0
        b = np.zeros((1, 8)); b[0, 1] = 1.0
        assert cosine_head_prob(a, b, params)[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_scale_constant(self, rng):
        params = {"cosine_head.scale": np.asarray(0.0), "cosine_head.bias": np.asarray(0.3)}
        for _ in range(5):
            q = rng.standard_normal((1, 8))
            k = rng.standard_normal((1, 8))
            assert cosine_head_prob(q, k, params)[0] == pytest.approx(float(sigmoid(np.asarray(0.3))), abs=1e-12)

    def test_calibrated_value(self):
        params = {"cosine_head.scale": np.asarray(2.0), "cosine_head.bias": np.asarray(-1.0)}
        v = np.ones((1, 8))
        expected = 1.0 / (1.0 + np.exp(-1.0))  # sigmoid(2*1 - 1)
        assert cosine_head_prob(v, v.copy(), params)[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.7311, abs=5e-5)

    def test_monotone_in_cosine_when_scale_positive(self, rng):
        params = {"cosine_head.scale": np.asarray(3.0), "cosine_head.bias": np.asarray(0.1)}
        q = rng.standard_normal(8)
        ks = rng.standard_normal((50, 8))
        cos_vals = np.array([cosine(q, k) for k in ks])
        probs = np.array([cosine_head_prob(q[None], k[None], params)[0] for k in ks])
        order_by_cos = np.argsort(-cos_vals)
        order_by_prob = np.argsort(-probs)
        np.testing.assert_array_equal(order_by_cos, order_by_prob)


class TestMaxCombine:
    def test_definition(self):
        np.testing.assert_array_equal(
            max_combine(np.array([1.0, -2.0]), np.array([0.0, 3.0])), np.array([1.0, 3.0])
        )

    def test_idempotent(self, rng):
        v = rng.standard_normal(12)
        np.testing.assert_array_equal(max_combine(v, v), v)

    @given(unit_free, unit_free)
    @settings(max_examples=50)
    def test_commutative(self, a, b):
        np.testing.assert_array_equal(max_combine(a, b), max_combine(b, a))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            max_combine(np.ones(3), np.ones(4))


class TestResidualHead:
    def test_zero_residual_branch_is_identity(self, head_params, rng):
        params = dict(head_params)
        params["residual_head.w2"] = np.zeros_like(params["residual_head.w2"])
        params["residual_head.b2"] = np.zeros_like(params["residual_head.b2"])
        q = rng.standard_normal((3, 8))
        k = rng.standard_normal((3, 8))
        _, cache = residual_head_forward(q, k, params)
        np.testing.assert_array_equal(cache["y"], cache["x"])

    def test_prob_over_1000_float32_rows_peaks_near_four_row_arrays(self, rng):
        # the max, f1 and GELU's two arrays; the bias adds and y = r + x run in
        # place. Measured: 4.1 arrays of K x 64.
        params = {k: v.astype(np.float32) for k, v in init_head_params(64, rng).items()}
        k = rng.standard_normal((1000, 64)).astype(np.float32)
        q = np.broadcast_to(k[0], k.shape)  # one query against a cached store, as served
        residual_head_prob(q, k, params)
        tracemalloc.start()
        try:
            residual_head_prob(q, k, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * k.nbytes, peak / k.nbytes

    def test_output_in_unit_interval(self, head_params, rng):
        q = rng.standard_normal((20, 8)) * 50
        k = rng.standard_normal((20, 8)) * 50
        p = residual_head_prob(q, k, head_params)
        assert np.all((p > 0) & (p < 1))

    def test_symmetric_in_arguments(self, head_params, rng):
        q = rng.standard_normal((5, 8))
        k = rng.standard_normal((5, 8))
        np.testing.assert_array_equal(
            residual_head_prob(q, k, head_params), residual_head_prob(k, q, head_params)
        )


def cosine_to_euclidean_check(q: np.ndarray, k: np.ndarray) -> float:
    """Squared Euclidean distance between two unit vectors; for unit-norm
    inputs it equals 2 - 2*cos(q, k), which lets the index rank cosines by
    distance. Rejects inputs whose norm deviates from 1 by more than 1e-6."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    for name, v in (("q", q), ("k", k)):
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"{name} is not unit-norm (|{name}| = {norm!r})")
    d = q - k
    return float(d @ d)


class TestHeadDispatch:
    @pytest.mark.parametrize("head", ["cosine", "residual"])
    def test_dispatch_matches_the_named_head(self, head, head_params, rng):
        q, k = rng.standard_normal((2, 5, 8))
        logits, cache = crossing.head_forward(head, q, k, head_params)
        want, _ = getattr(crossing, f"{head}_head_forward")(q, k, head_params)
        np.testing.assert_array_equal(logits, want)
        np.testing.assert_array_equal(crossing.head_prob(head, q, k, head_params), sigmoid(want))
        grads, want_grads = {}, {}
        dq, dk = crossing.head_backward(head, np.ones(5), cache, head_params, grads)
        want_dq, want_dk = getattr(crossing, f"{head}_head_backward")(np.ones(5), cache, head_params, want_grads)
        np.testing.assert_array_equal(dq, want_dq)
        np.testing.assert_array_equal(dk, want_dk)
        assert set(grads) == set(want_grads) >= set(crossing.CALIBRATION[head])

    def test_unknown_head_rejected(self, head_params):
        for call in (crossing.head_forward, crossing.head_prob):
            with pytest.raises(ValueError, match="unknown crossing head: 'cross'"):
                call("cross", np.ones(8), np.ones(8), head_params)

    def test_head_resolved_at_call_time(self, head_params, monkeypatch):
        # a wrapper set on the module attribute, as a tracer does, is the one called
        monkeypatch.setattr(crossing, "cosine_head_prob", lambda q, k, params: "wrapped")
        assert crossing.head_prob("cosine", np.ones(8), np.ones(8), head_params) == "wrapped"


class TestCosineEuclideanDuality:
    def test_identical_vectors(self):
        v = np.zeros(8); v[2] = 1.0
        assert cosine_to_euclidean_check(v, v) == 0.0
        assert cosine(v, v) == 1.0

    def test_antipodal(self):
        v = np.zeros(8); v[2] = 1.0
        assert cosine_to_euclidean_check(v, -v) == pytest.approx(4.0, abs=1e-12)
        assert cosine(v, -v) == -1.0

    def test_non_unit_rejected(self):
        v = np.ones(8)
        with pytest.raises(ValueError):
            cosine_to_euclidean_check(v, v / np.linalg.norm(v))

    def test_identity_over_random_pairs(self, rng):
        for _ in range(1000):
            q = rng.standard_normal(16)
            k = rng.standard_normal(16)
            q /= np.linalg.norm(q)
            k /= np.linalg.norm(k)
            dist_sq = cosine_to_euclidean_check(q, k)
            assert abs(dist_sq - (2.0 - 2.0 * cosine(q, k))) <= 1e-9

    def test_ranking_equivalence(self, rng):
        q = rng.standard_normal(16); q /= np.linalg.norm(q)
        ks = rng.standard_normal((100, 16))
        ks /= np.linalg.norm(ks, axis=1, keepdims=True)
        by_cos = np.argsort([-cosine(q, k) for k in ks], kind="stable")
        by_dist = np.argsort([cosine_to_euclidean_check(q, k) for k in ks], kind="stable")
        np.testing.assert_array_equal(by_cos[:5], by_dist[:5])
