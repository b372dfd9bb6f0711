import ast
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinenc
from twinenc.metrics import dcg_at, label_gain, mean_ndcg, ndcg_at, roc_auc


def brute_force_auc(scores, labels):
    """Pairwise enumeration oracle: wins + half-ties over all pos/neg pairs."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_ndcg(gains, position):
    """All-permutation oracle for the ideal DCG."""
    ideal = max(dcg_at(list(perm), position) for perm in itertools.permutations(gains))
    actual = dcg_at(gains, position)
    if ideal == 0.0:
        return float("nan")
    return actual / ideal


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_two_pair_example(self):
        # positives 0.9 and 0.3 vs negative 0.8: one win, one loss
        assert roc_auc([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            assert roc_auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12
            )

    def test_monotone_transform_invariance(self, rng):
        scores = rng.standard_normal(100)
        labels = (rng.random(100) < 0.4).astype(int)
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(3.5 * scores + 11.0, labels) == pytest.approx(base, abs=1e-12)

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=8).filter(lambda s: len(set(s)) > 1),
           st.integers(0, 1000))
    @settings(max_examples=60)
    def test_brute_force_property(self, score_grid, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, len(score_grid))
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = [s / 5 for s in score_grid]
        assert roc_auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    @given(st.lists(st.tuples(st.floats(-2.0, 2.0) | st.sampled_from([math.inf, -math.inf]),
                              st.integers(0, 1)),
                    min_size=2, max_size=2000))
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_rankdata_oracle(self, rows):
        # +/-inf rank as ordinary values, as they do for rankdata
        from scipy.stats import rankdata  # the ranks roc_auc replaced; a test oracle only

        scores = np.round(np.array([s for s, _ in rows]), 1)  # one decimal: many ties
        labels = np.array([l for _, l in rows])
        labels[0], labels[-1] = 0, 1
        n_pos = int(labels.sum())
        n_neg = len(labels) - n_pos
        oracle = (float(rankdata(scores)[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert roc_auc(scores, labels) == oracle

    @pytest.mark.parametrize("scores", [[0.2, math.nan, 0.1], [math.nan] * 3])
    def test_nan_scores_rejected(self, scores):
        with pytest.raises(ValueError, match="scores contain NaN"):
            roc_auc(scores, [1, 0, 0])


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.special"])
def test_package_import_leaves_scipy_package_unloaded(module):
    # a fresh interpreter: other tests may have imported these here
    code = f"import sys, twinenc, twinenc.cli; print({module!r} in sys.modules)"
    src = Path(twinenc.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.strip() == "False"


class TestLabelGain:
    def test_linear_scale(self):
        assert [label_gain(l) for l in ("bad", "fair", "good", "excellent")] == [0.0, 1.0, 2.0, 3.0]

    def test_binary_cells(self):
        assert label_gain("1") == 1.0
        assert label_gain("0") == 0.0

    @pytest.mark.parametrize("number", [1, 0, 2.0])
    def test_a_number_is_not_a_label_cell(self, number):
        with pytest.raises(ValueError, match="bad label"):
            label_gain(number)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            label_gain("meh")


def test_the_label_scale_is_spelled_only_in_metrics():
    # everywhere else names it through LABEL_SCALE, so it cannot drift from LABEL_GAINS
    spelled = []
    for path in sorted(Path(twinenc.__file__).parent.glob("*.py")):
        if path.name == "metrics.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        spelled += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "bad/fair/good/excellent" in node.value and id(node) not in docstrings]
    assert spelled == []


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        gains = [3.0, 2.0, 1.0, 0.0]
        for p in range(1, 5):
            assert ndcg_at(gains, p) == pytest.approx(1.0, abs=1e-12)

    def test_single_item(self):
        assert ndcg_at([3.0], 1) == 1.0

    def test_bad_then_excellent(self):
        expected = math.log2(2) / math.log2(3)
        assert ndcg_at([0.0, 3.0], 2) == pytest.approx(expected, abs=1e-12)

    def test_position_validation(self):
        with pytest.raises(ValueError):
            ndcg_at([2.0], 0)

    def test_empty_ranking_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at([], 3)

    def test_zero_idcg_is_nan(self):
        assert math.isnan(ndcg_at([0.0, 0.0], 2))

    def test_mean_of_no_rankings_says_so(self):
        with pytest.raises(ValueError, match="there are no rankings"):
            mean_ndcg([], 2)

    def test_mean_excludes_zero_idcg(self):
        value = mean_ndcg([[0.0, 0.0], [3.0, 0.0]], 2)
        assert value == pytest.approx(1.0)

    def test_inversion_strictly_below_one(self):
        assert ndcg_at([1.0, 3.0], 2) < 1.0

    def test_matches_permutation_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 8))
            gains = [float(g) for g in rng.integers(0, 4, n)]
            p = int(rng.integers(1, n + 1))
            oracle = brute_force_ndcg(gains, p)
            mine = ndcg_at(gains, p)
            if math.isnan(oracle):
                assert math.isnan(mine)
            else:
                assert mine == pytest.approx(oracle, abs=1e-12)
