"""Shared test helpers: small random networks, finite-difference tolerances,
and weakly labeled data built from lists of sets."""

import os

# The experiment tests train in forked workers, one per CPU.  OpenBLAS
# threads would multiply that by the core count and slow the small
# matmuls several-fold, so pin one thread before numpy loads, as CI does;
# a value set in the environment still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from inexad.data import TrainData  # noqa: E402
from inexad.network import affine_forward, param_count  # noqa: E402
from inexad.scorer import AutoencoderParams, ae_init, reconstruct  # noqa: E402

# Central finite differences in float64 resolve gradients to roughly
# this relative precision away from ReLU kinks.
REL_TOL = 1e-4
ABS_TOL = 1e-7
FD_STEP = 1e-5

# Pre-activations closer to zero than this may cross a ReLU kink under
# the finite-difference perturbation; such draws are rejected.
KINK_MARGIN = 1e-3


def assert_grad_close(analytic, numeric):
    """Elementwise |analytic - numeric| <= max(ABS_TOL, REL_TOL * |numeric|)."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    tol = np.maximum(ABS_TOL, REL_TOL * np.abs(numeric))
    gap = np.abs(analytic - numeric)
    worst = int(np.argmax(gap - tol))
    assert np.all(gap <= tol), (
        f"coordinate {worst}: analytic {analytic.flat[worst]!r} vs "
        f"numeric {numeric.flat[worst]!r} (gap {gap.flat[worst]:.3e})"
    )


def zero_ae(dim=2, hidden=3, code=2):
    """Autoencoder whose weights and biases are all zero: it reconstructs every row as 0."""
    dims = [dim, hidden, code, hidden, dim]
    return AutoencoderParams(dims, np.zeros(param_count(dims)))


def small_ae(rng, dim=3, hidden=4, code=2, activation="relu"):
    """Tiny autoencoder with weights rescaled away from the origin.

    Glorot init plus a random shift keeps scores nonzero and, for ReLU,
    makes kink-free inputs easy to find.  The edits go through the
    layer views, so they land in params.theta.
    """
    params = ae_init(dim, int(rng.integers(0, 2**31)), hidden=hidden,
                     code=code, activation=activation)
    for weight, bias in params.encoder + params.decoder:
        weight += rng.normal(0.0, 0.1, size=weight.shape)
        bias += rng.normal(0.0, 0.1, size=bias.shape)
    return params


def weak_data(sets, normals):
    """TrainData holding the given list of (set size, D) arrays and normals."""
    normals = np.asarray(normals, dtype=np.float64)
    rows = np.concatenate(sets) if sets else np.empty((0, normals.shape[1]))
    return TrainData(set_rows=rows, lengths=[len(s) for s in sets], normals=normals)


def set_list(data):
    """The sets of a TrainData as a list of arrays, as tests/reference.py takes them."""
    ends = np.cumsum(data.lengths)
    return [data.set_rows[end - n:end] for end, n in zip(ends, data.lengths)]


def min_preactivation(params, X):
    """Smallest |pre-activation| over the hidden layers for the batch X."""
    _, enc_tape, dec_tape = reconstruct(params, np.atleast_2d(X))
    margins = [np.min(np.abs(affine_forward(half[0], tape[0])))
               for half, tape in ((params.encoder, enc_tape), (params.decoder, dec_tape))]
    return min(margins)


def draw_kink_free(rng, params, shape, lo=-1.0, hi=1.0, tries=200):
    """Rejection-sample inputs whose hidden pre-activations avoid ReLU kinks."""
    for _ in range(tries):
        X = rng.uniform(lo, hi, size=shape)
        if min_preactivation(params, X) >= KINK_MARGIN:
            return X
    pytest.fail("could not draw a kink-free input batch")
