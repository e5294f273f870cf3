"""Ranking metrics for exact and set-level anomaly labels.

Two AUC variants live here.  empirical_auc counts strictly-winning
anomaly/normal score pairs (ties count zero); this is the metric of
record.  roc_curve reports the trapezoidal area, which credits ties
with one half, so the two can differ on tied scores -- both behaviors
are intentional and documented.

The set-level variant replaces each weakly labeled group of scores by
its maximum before pair counting: a group "fires" if any member does.
"""

import itertools
from dataclasses import dataclass

import numpy as np


class EmptyScoresError(ValueError):
    """Raised when a rate is requested over an empty score collection."""


def _check_scores(name, scores):
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise EmptyScoresError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def empirical_auc(anomaly_scores, normal_scores):
    """Fraction of (anomaly, normal) pairs where the anomaly scores strictly higher.

    Computed by sorting the normal scores once, so the cost is
    O((m+n) log(m+n)) rather than the quadratic pair sum.
    """
    return _count_wins(_check_scores("anomaly_scores", anomaly_scores),
                       _check_scores("normal_scores", normal_scores))


def _count_wins(a, n):
    """empirical_auc of nonempty, finite float64 score arrays."""
    wins = np.searchsorted(np.sort(n), a, side="left").sum()
    return float(wins) / (a.size * n.size)


def segment_starts(lengths):
    """Start offsets of consecutive segments with the given lengths, as an intp array.

    Raises EmptyScoresError naming the first empty segment, which
    segment_max would otherwise give another segment's entry.
    """
    if isinstance(lengths, np.ndarray):
        lengths = lengths.tolist()  # Python ints sum without numpy's per-element cost
    if 0 in lengths:
        raise EmptyScoresError(f"set {lengths.index(0)} is empty")
    # count drops the running total after the last segment
    return np.fromiter(itertools.accumulate(lengths, initial=0), np.intp, len(lengths))


def segment_max(scores, starts):
    """Maximum of each segment along the last axis; segment k runs from starts[k]
    to the next start."""
    return np.maximum.reduceat(scores, starts, axis=-1)


def set_max_scores(sets):
    """Maximum score per weakly labeled set, order preserving.

    Every member score must be finite, not only each set's maximum.
    """
    # .size skips np.size's per-call dispatch, most of the call on many small sets
    starts = segment_starts([s.size if isinstance(s, np.ndarray) else np.size(s)
                             for s in sets])
    if not len(sets):
        return np.empty(0)
    flat = np.concatenate(sets, axis=None).astype(np.float64, copy=False)
    if not np.isfinite(flat).all():
        raise ValueError("set scores contain non-finite values")
    return segment_max(flat, starts)


def empirical_inexact_auc(sets, normal_scores):
    """Pairwise AUC with each weakly labeled set represented by its max score."""
    if len(sets) == 0:
        raise EmptyScoresError("sets must be nonempty")
    # set_max_scores has checked every member, so the maxima are finite
    maxima = set_max_scores(sets)
    return _count_wins(maxima, _check_scores("normal_scores", normal_scores))


@dataclass
class RocCurve:
    """ROC points ordered by descending threshold, plus trapezoidal area."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_curve(anomaly_scores, normal_scores):
    """Sweep thresholds over all distinct scores and collect (FPR, TPR) points.

    The curve always starts at (0, 0) and ends at (1, 1).  The reported
    area is trapezoidal, equivalent to counting tied pairs as one half.
    """
    a = _check_scores("anomaly_scores", anomaly_scores)
    n = _check_scores("normal_scores", normal_scores)
    levels = np.unique(np.concatenate([a, n]))[::-1]
    sorted_a = np.sort(a)
    sorted_n = np.sort(n)
    # strict '>' at threshold h: count of scores above h
    tpr = (a.size - np.searchsorted(sorted_a, levels, side="right")) / a.size
    fpr = (n.size - np.searchsorted(sorted_n, levels, side="right")) / n.size
    thresholds = np.concatenate([[np.inf], levels, [-np.inf]])
    fpr = np.concatenate([[0.0], fpr, [1.0]])
    tpr = np.concatenate([[0.0], tpr, [1.0]])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)
