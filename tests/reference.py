"""The 2-d gradient path: an independent oracle for the package's passes.

One model and one (n, D) batch at a time, through this module's own
copies of a 2-d affine forward pass and backward pass, with a fresh
array for each layer output and each gradient.  It shares no pass with
inexad.network.forward_pass/backward_pass, which every forward and
backward pass in the package runs, so a test that compares the two
checks them bit for bit.  Only the upstream gradient of the objective,
training._upstream, is shared.
"""

import numpy as np

from inexad.network import layer_views
from inexad.training import _is_plain, _upstream


def _act(z, activation):
    return np.maximum(0.0, z) if activation == "relu" else np.tanh(z)


def _act_grad(act, activation):
    """Derivative of the hidden activation, computed from its output."""
    return np.greater(act, 0.0) if activation == "relu" else 1.0 - np.square(act)


def affine(layer, x):
    """x @ weight.T + bias for an (n, in_dim) batch x."""
    out = np.matmul(x, layer.weight.T)
    out += layer.bias
    return out


def layers_forward(layers, x, activation):
    """Activated affine layers with a linear final layer; returns the tape
    [x, output of layer 0, ..., output of the last layer]."""
    tape = [x]
    for i, layer in enumerate(layers):
        h = affine(layer, tape[-1])
        tape.append(h if i == len(layers) - 1 else _act(h, activation))
    return tape


def layers_backward(layers, tape, g, activation):
    """([(dweight, dbias) per layer], gradient at the input) for a
    layers_forward tape and the loss gradient g at its output."""
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = (np.matmul(g.T, tape[i]), np.sum(g, axis=0))
        g = np.matmul(g, layers[i].weight)
        if i > 0:
            g = g * _act_grad(tape[i], activation)
    return grads, g


def score_forward(params, X):
    """Scores of an (n, D) batch plus the tape score_backward consumes.

    The tape keeps each layer output once, the code shared by both
    halves, the last D columns holding the reconstruction error.
    """
    enc_tape = layers_forward(params.encoder, X, params.activation)
    dec_tape = layers_forward(params.decoder, enc_tape[-1], params.activation)
    diff = X - dec_tape[-1]
    scores = np.einsum("ij,ij->i", diff, diff)
    return scores, (diff, enc_tape, dec_tape)


def score_backward(params, tape, upstream):
    """sum_i upstream_i * d a(x_i)/d theta for a score_forward tape, as a new
    vector laid out like params.theta."""
    diff, enc_tape, dec_tape = tape
    g_recon = -2.0 * diff
    g_recon *= upstream[:, None]
    dec_grads, g_code = layers_backward(params.decoder, dec_tape, g_recon, params.activation)
    enc_grads, _ = layers_backward(params.encoder, enc_tape, g_code, params.activation)
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
    """training.objective_grad on the 2-d path, the batch given as a list of sets
    and the normals; inputs are not checked."""
    normals = np.asarray(normal_batch, dtype=np.float64)
    plain = _is_plain(mode, lam)
    sets = [] if plain else [np.asarray(s, dtype=np.float64) for s in set_batch]
    all_x = np.concatenate([normals] + sets) if sets else normals
    scores, tape = score_forward(params, all_x)
    upstream = _upstream(mode, np.array([lam], dtype=np.float64), scores[None],
                         normals.shape[0], None if plain else [len(s) for s in sets])
    return score_backward(params, tape, upstream[0])
