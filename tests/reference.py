"""The 2-d gradient path: an independent oracle for the stacked passes.

One model and one (n, D) batch at a time, through network.mlp_forward
and mlp_backward (by way of scorer.reconstruct), with a fresh array for
each layer output and each gradient.  It shares no pass with
scorer.AutoencoderStack, which training and training.objective_grad
run, so a test that compares the two checks the stacked forward and
backward passes bit for bit.  Only the upstream gradient of the
objective, training._upstream, is shared.
"""

import numpy as np

from inexad.network import layer_views, mlp_backward
from inexad.scorer import reconstruct
from inexad.training import _is_plain, _upstream


def score_forward(params, X):
    """Scores of an (n, D) batch plus the tape score_backward consumes.

    The tape keeps each layer output once, the code shared by both
    halves, the last D columns holding the reconstruction error.
    """
    recon, enc_tape, dec_tape = reconstruct(params, X)
    diff = np.subtract(X, recon, out=recon)
    scores = np.einsum("ij,ij->i", diff, diff)
    return scores, (diff, enc_tape, dec_tape)


def score_backward(params, tape, upstream):
    """sum_i upstream_i * d a(x_i)/d theta for a score_forward tape, as a new
    vector laid out like params.theta.  Consumes the tape."""
    diff, enc_tape, dec_tape = tape
    g_recon = np.multiply(-2.0, diff, out=diff)
    g_recon *= upstream[:, None]
    dec_grads, g_code = mlp_backward(params.decoder, dec_tape, g_recon,
                                     activation=params.activation)
    enc_grads, _ = mlp_backward(params.encoder, enc_tape, g_code,
                                activation=params.activation)
    grad = np.empty_like(params.theta)
    for (dweight, dbias), (w, b) in zip(layer_views(grad, params.dims),
                                        enc_grads + dec_grads):
        dweight[...] = w
        dbias[...] = b
    return grad


def score_batch_grad(params, X, upstream):
    """(scores, sum_i upstream_i * d a(x_i)/d theta) for the batch X."""
    scores, tape = score_forward(params, np.asarray(X, dtype=np.float64))
    return scores, score_backward(params, tape, np.asarray(upstream, dtype=np.float64))


def objective_grad(params, set_batch, normal_batch, lam, mode="proposed"):
    """training.objective_grad on the 2-d path; inputs are not checked."""
    normals = np.asarray(normal_batch, dtype=np.float64)
    plain = _is_plain(mode, lam)
    sets = [] if plain else [np.asarray(s, dtype=np.float64) for s in set_batch]
    all_x = np.concatenate([normals] + sets) if sets else normals
    scores, tape = score_forward(params, all_x)
    upstream = _upstream(mode, np.array([lam], dtype=np.float64), scores[None],
                         normals.shape[0], None if plain else [len(s) for s in sets])
    return score_backward(params, tape, upstream[0])
