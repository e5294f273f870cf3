"""Unit and property tests for the AUC variants and ROC curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inexad.metrics import (
    EmptyScoresError,
    empirical_auc,
    empirical_inexact_auc,
    roc_curve,
    segment_starts,
    set_max_scores,
)

scores = st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                  min_size=1, max_size=8)


def brute_auc(anoms, norms):
    """Quadratic double loop over pairs; strict inequality."""
    wins = sum(1 for a in anoms for n in norms if a > n)
    return wins / (len(anoms) * len(norms))


class TestEmpiricalAuc:
    def test_perfect(self):
        assert empirical_auc([0.9], [0.1]) == 1.0

    def test_hand_case(self):
        # pairs: .9>.5, .9>.1, .2<.5, .2>.1  ->  3/4
        assert empirical_auc([0.9, 0.2], [0.5, 0.1]) == 0.75

    def test_tie_counts_zero(self):
        assert empirical_auc([0.5], [0.5]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyScoresError, match="anomaly_scores"):
            empirical_auc([], [0.5])
        with pytest.raises(EmptyScoresError, match="normal_scores"):
            empirical_auc([0.5], [])

    def test_non_finite_raises(self):
        with pytest.raises(ValueError, match="finite"):
            empirical_auc([np.nan], [0.5])

    @given(a=scores, n=scores)
    def test_matches_brute_force(self, a, n):
        assert empirical_auc(a, n) == brute_auc(a, n)

    @given(a=scores, n=scores)
    def test_range(self, a, n):
        assert 0.0 <= empirical_auc(a, n) <= 1.0


@pytest.mark.parametrize("a, n, name", [
    (0.5, [0.3], "anomaly_scores"),
    ([0.5], 0.3, "normal_scores"),
    ([0.5], [[0.3, 0.1]], "normal_scores"),
    ([[0.5, 0.7]], [0.3], "anomaly_scores"),
], ids=["scalar-anomaly", "scalar-normal", "2-d-normals", "2-d-anomalies"])
def test_scores_must_be_1d(a, n, name):
    for metric in (empirical_auc, roc_curve):
        with pytest.raises(ValueError, match=f"^{name} must be 1-d, got shape "):
            metric(a, n)


class TestSegmentStarts:
    @pytest.mark.parametrize("lengths, starts", [
        ([], []),
        ([3], [0]),
        ([2, 1, 3], [0, 2, 3]),
        (np.array([2, 1, 3]), [0, 2, 3]),
    ])
    def test_offsets(self, lengths, starts):
        got = segment_starts(lengths)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, starts)

    @pytest.mark.parametrize("lengths", [[1, 0, 2, 0], np.array([1, 0, 2, 0])])
    def test_first_empty_segment_is_named(self, lengths):
        with pytest.raises(EmptyScoresError, match="set 1 is empty"):
            segment_starts(lengths)


class TestSetMax:
    def test_single_set(self):
        np.testing.assert_array_equal(set_max_scores([[0.1, 0.9]]), [0.9])

    def test_singletons_identity(self):
        np.testing.assert_array_equal(set_max_scores([[0.3], [0.7]]), [0.3, 0.7])

    def test_two_sets(self):
        np.testing.assert_array_equal(
            set_max_scores([[0.3, 0.4], [0.8, 0.2]]), [0.4, 0.8]
        )

    def test_empty_set_names_index(self):
        with pytest.raises(EmptyScoresError, match="set 1"):
            set_max_scores([[0.3], []])

    def test_first_empty_set_is_named(self):
        with pytest.raises(EmptyScoresError, match="set 2 "):
            set_max_scores([[0.3], [0.1, 0.2], [], [0.5], []])

    def test_arrays_lists_and_scalars_mix(self):
        sets = [np.array([0.3, 0.9]), [0.4, 0.2], np.float64(0.7), 0.1, np.array(0.5),
                np.array([[0.2, 0.8], [0.6, 0.1]])]  # a 2-d set is flattened
        np.testing.assert_array_equal(set_max_scores(sets), [0.9, 0.4, 0.7, 0.1, 0.5, 0.8])

    @pytest.mark.parametrize("empty", [[], np.array([]), np.empty((0, 3)), np.empty((2, 0))])
    def test_empty_set_of_any_kind_is_named(self, empty):
        with pytest.raises(EmptyScoresError, match="set 1 is empty"):
            set_max_scores([np.array([0.3]), empty])

    @given(sets=st.lists(scores, min_size=1, max_size=6))
    def test_equals_per_set_max(self, sets):
        np.testing.assert_array_equal(set_max_scores(sets), [max(s) for s in sets])


class TestInexactAuc:
    def test_hand_case(self):
        # maxima (0.4, 0.8) vs normals (0.5, 0.35): 0.4>0.35, 0.8>both -> 3/4
        assert empirical_inexact_auc([[0.3, 0.4], [0.8, 0.2]], [0.5, 0.35]) == 0.75

    def test_dominant_set(self):
        norms = [0.1, 0.2, 0.3]
        val = empirical_inexact_auc([[0.9, 0.0], [0.05]], norms)
        # the first set beats all 3 normals, the second none
        assert val == pytest.approx(3 / 6)

    def test_no_sets_raises(self):
        with pytest.raises(EmptyScoresError, match="sets"):
            empirical_inexact_auc([], [0.5])

    @pytest.mark.parametrize("sets, error, message", [
        ([[0.3], []], EmptyScoresError, "set 1 is empty"),
        ([[0.3], [np.nan]], ValueError, "set scores contain non-finite"),
    ])
    def test_sets_are_checked_before_normals(self, sets, error, message):
        with pytest.raises(error, match=message):
            empirical_inexact_auc(sets, [])

    def test_minus_inf_below_a_finite_maximum_raises(self):
        # the property test below draws this case only some of the time
        with pytest.raises(ValueError, match="non-finite"):
            empirical_inexact_auc([[0.5, float("-inf")]], [0.1])

    def test_singleton_reduction_bitwise(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = rng.normal(size=rng.integers(1, 10))
            n = rng.normal(size=rng.integers(1, 10))
            assert empirical_inexact_auc([[v] for v in a], n) == empirical_auc(a, n)

    def test_monotone_in_set_scores(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            sets = [list(rng.normal(size=rng.integers(1, 4))) for _ in range(3)]
            norms = rng.normal(size=4)
            base = empirical_inexact_auc(sets, norms)
            k = rng.integers(0, 3)
            i = rng.integers(0, len(sets[k]))
            sets[k][i] += abs(rng.normal()) + 0.1
            assert empirical_inexact_auc(sets, norms) >= base

    def test_adding_low_normal_never_decreases(self):
        sets = [[0.5, 0.2], [0.9]]
        norms = [0.4, 0.6]
        base = empirical_inexact_auc(sets, norms)
        low = min(set_max_scores(sets)) - 1.0
        assert empirical_inexact_auc(sets, norms + [low]) >= base

    def test_adding_high_normal_never_increases(self):
        sets = [[0.5, 0.2], [0.9]]
        norms = [0.4, 0.6]
        base = empirical_inexact_auc(sets, norms)
        high = max(set_max_scores(sets)) + 1.0
        assert empirical_inexact_auc(sets, norms + [high]) <= base

    def test_increasing_transform_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            sets = [list(rng.normal(size=rng.integers(1, 4))) for _ in range(3)]
            norms = list(rng.normal(size=4))
            f = lambda v: np.exp(0.5 * np.asarray(v)) + 3.0  # strictly increasing
            assert empirical_inexact_auc(sets, norms) == empirical_inexact_auc(
                [f(s) for s in sets], f(norms)
            )
            a = np.concatenate(sets)
            assert empirical_auc(a, norms) == empirical_auc(f(a), f(norms))


ragged = st.lists(scores, min_size=1, max_size=6)


class TestInexactAucBruteForce:
    """empirical_inexact_auc against a double loop over ragged sets."""

    @given(sets=ragged, n=scores)
    def test_matches_double_loop(self, sets, n):
        wins = sum(1 for s in sets for v in n if max(s) > v)
        assert empirical_inexact_auc(sets, n) == wins / (len(sets) * len(n))

    @given(sets=ragged, n=scores, data=st.data())
    def test_empty_set_named_by_index(self, sets, n, data):
        k = data.draw(st.integers(0, len(sets)))
        sets.insert(k, [])
        with pytest.raises(EmptyScoresError, match=f"set {k} is empty"):
            empirical_inexact_auc(sets, n)

    @given(sets=ragged)
    def test_empty_normals(self, sets):
        with pytest.raises(EmptyScoresError, match="normal_scores"):
            empirical_inexact_auc(sets, [])

    @given(sets=ragged, n=scores, bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           data=st.data())
    def test_non_finite_score_raises(self, sets, n, bad, data):
        # set members are checked before the maxima are taken, so a -inf
        # below a finite maximum is rejected too
        target = data.draw(st.sampled_from([n, sets] + sets))
        target.insert(data.draw(st.integers(0, len(target))),
                      [bad] if target is sets else bad)
        with pytest.raises(ValueError, match="non-finite"):
            empirical_inexact_auc(sets, n)


def midrank_auc(anoms, norms):
    """Pairwise AUC with ties worth one half (trapezoid-equivalent oracle)."""
    total = 0.0
    for a in anoms:
        for n in norms:
            total += 1.0 if a > n else (0.5 if a == n else 0.0)
    return total / (len(anoms) * len(norms))


# few distinct values, so most draws tie, and any finite float (with -0.0 beside 0.0)
tied_scores = st.lists(st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 7.0]),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=12)


def roc_points(curve):
    """The curve's (FPR, TPR) points, in threshold order."""
    return list(zip(curve.fpr, curve.tpr))


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve([0.9], [0.1])
        points = roc_points(curve)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        assert (0.0, 1.0) in points  # the perfect corner is reached
        assert curve.auc == 1.0

    def test_all_tied(self):
        curve = roc_curve([0.5, 0.5], [0.5])
        assert curve.auc == pytest.approx(0.5)

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            a = rng.normal(size=rng.integers(1, 7))
            n = rng.normal(size=rng.integers(1, 7))
            curve = roc_curve(a, n)
            assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
            assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)
            assert 0.0 <= curve.auc <= 1.0

    def test_trapezoid_equals_midrank_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            # draws from a tiny alphabet so ties actually occur
            a = rng.choice([0.1, 0.2, 0.3, 0.4], size=rng.integers(1, 7))
            n = rng.choice([0.1, 0.2, 0.3, 0.4], size=rng.integers(1, 7))
            curve = roc_curve(a, n)
            assert curve.auc == pytest.approx(midrank_auc(a, n), abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyScoresError):
            roc_curve([], [0.1])

    @settings(max_examples=200)
    @given(a=tied_scores, n=tied_scores)
    def test_matches_unique_levels(self, a, n):
        # reference: np.unique's levels, counted as roc_curve counts them
        levels = np.unique(np.concatenate([a, n]))[::-1]
        a, n = np.array(a), np.array(n)
        tpr = (a.size - np.searchsorted(np.sort(a), levels, side="right")) / a.size
        fpr = (n.size - np.searchsorted(np.sort(n), levels, side="right")) / n.size
        fpr, tpr = np.r_[0.0, fpr, 1.0], np.r_[0.0, tpr, 1.0]
        curve = roc_curve(a, n)
        assert curve.thresholds.tolist() == [np.inf, *levels.tolist(), -np.inf]
        assert (curve.fpr.tobytes(), curve.tpr.tobytes()) == (fpr.tobytes(), tpr.tobytes())
        assert curve.auc.hex() == float(np.trapezoid(tpr, fpr)).hex()
