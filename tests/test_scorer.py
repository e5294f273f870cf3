"""Unit tests for the reconstruction-error scorer and its gradients."""

import pickle
import tracemalloc

import numpy as np
import pytest

from inexad import network, scorer, training
from inexad.network import (
    ACTIVATIONS,
    ShapeError,
    param_count,
)
from inexad.scorer import (
    AutoencoderParams,
    AutoencoderStack,
    ae_from_vector,
    ae_init,
    load_params,
    reconstruct,
    save_params,
    score_batch,
)
from .conftest import assert_grad_close, draw_kink_free, small_ae, weak_data, zero_ae
from . import reference
from .reference import finite_diff_grad, score_batch_grad, score_forward


def identity_ae(dim=3):
    params = zero_ae(dim, hidden=dim, code=dim)
    for weight, _ in params.encoder + params.decoder:
        weight[...] = np.eye(dim)
    return params


def score_one(params, x):
    """score_batch on the one-row batch x."""
    (value,) = score_batch(params, np.asarray(x, dtype=np.float64)[None, :])
    return float(value)


def grad_one(params, x, upstream):
    """upstream * d a(x) / d theta from the reference score_batch_grad on the
    one-row batch x."""
    _, grad = score_batch_grad(params, np.asarray(x, dtype=np.float64)[None, :],
                               np.array([upstream], dtype=np.float64))
    return grad


class TestScore:
    """One instance's score, through a one-row score_batch call."""

    def test_zero_params(self):
        # reconstruction is the zero vector, so the score is ||x||^2
        assert score_one(zero_ae(), [0.6, 0.8]) == pytest.approx(1.0, abs=1e-15)

    def test_perfect_reconstruction(self):
        # identity layers pass nonnegative inputs through ReLU unchanged
        assert score_one(identity_ae(), [0.5, 1.0, 2.0]) == 0.0

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(21)
        params = small_ae(rng)
        x = rng.uniform(-1, 1, size=3)
        h = np.maximum(0.0, reference.affine(params.encoder[0], [x]))
        code = reference.affine(params.encoder[1], h)
        h2 = np.maximum(0.0, reference.affine(params.decoder[0], code))
        (recon,) = reference.affine(params.decoder[1], h2)
        expected = float((x - recon) @ (x - recon))
        assert score_one(params, x) == pytest.approx(expected, rel=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            params = small_ae(rng)
            assert score_one(params, rng.uniform(-2, 2, size=3)) >= 0.0

    def test_rejects_matrix(self):
        # a batch is 2-d: a single instance vector is rejected, not broadcast
        with pytest.raises(ShapeError, match="1-d"):
            score_batch(zero_ae(), np.zeros(2))


class TestScoreBatch:
    def test_empty(self):
        out = score_batch(zero_ae(), np.zeros((0, 2)))
        assert out.shape == (0,)

    def test_singleton(self):
        x = np.array([0.3, -0.4])
        params = small_ae(np.random.default_rng(23), dim=2)
        (recon,), _, _ = reconstruct(params, x[None, :])
        np.testing.assert_allclose(score_batch(params, x[None, :]),
                                   [(x - recon) @ (x - recon)], rtol=1e-14)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(24)
        params = small_ae(rng)
        X = rng.uniform(-1, 1, size=(6, 3))
        perm = rng.permutation(6)
        np.testing.assert_array_equal(score_batch(params, X)[perm],
                                      score_batch(params, X[perm]))

    def test_peak_memory_holds_no_tape(self):
        # at most the decoder's hidden output, the code and the reconstruction
        # are alive at once (146 doubles a row); a kept encoder tape adds 128
        X = np.random.default_rng(25).normal(size=(20_000, 2))
        params = ae_init(2, 25)
        tracemalloc.start()
        try:
            score_batch(params, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 8 * len(X)

    def test_dimension_mismatch(self):
        for shape in ((2, 5), (5, 0), (0, 5)):
            with pytest.raises(ShapeError):
                score_batch(zero_ae(), np.zeros(shape))

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_tape_free_equals_score_forward_bitwise(self, activation):
        for dim in (1, 2, 7, 32):
            for hidden, code in ((128, 16), (8, 3), (64, 64)):
                params = ae_init(dim, dim + hidden, hidden=hidden, code=code,
                                 activation=activation)
                for n in (1, 2, 3, 5, 17, 128, 129, 333, 1674, 4001):
                    X = np.random.default_rng(n + dim).normal(size=(n, dim))
                    for view in (X, X[::-1], np.asfortranarray(X)[::2]):
                        before = view.copy()
                        scores = score_batch(params, view)
                        assert scores.tobytes() == score_forward(
                            params, view)[0].tobytes()
                        np.testing.assert_array_equal(view, before)


class TestScoreGrad:
    """One instance's score gradient, through one-row calls of the 2-d
    reference, which TestAutoencoderStack holds the stacked passes to."""

    def test_zero_upstream(self):
        rng = np.random.default_rng(25)
        params = small_ae(rng)
        x = rng.uniform(-1, 1, size=3)
        scores, grad = score_batch_grad(params, x[None, :], np.zeros(1))
        assert scores[0] == pytest.approx(score_one(params, x), rel=1e-14)
        assert not grad.any()

    def test_zero_params_bias_grad(self):
        # recon = decoder output bias b = 0, so d||x - b||^2 / db = -2x
        x = np.array([0.6, 0.8])
        params = zero_ae()
        grad = ae_from_vector(grad_one(params, x, 1.0), params.dims)
        np.testing.assert_allclose(grad.decoder[-1].bias, -2 * x, atol=1e-15)

    def test_upstream_linearity(self):
        rng = np.random.default_rng(26)
        params = small_ae(rng)
        x = rng.uniform(-1, 1, size=3)
        g1 = grad_one(params, x, 1.0)
        gc = grad_one(params, x, -2.5)
        np.testing.assert_allclose(gc, -2.5 * g1, atol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(27)
        dims = None
        for _ in range(20):
            params = small_ae(rng, activation=activation)
            dims = params.dims
            x = (draw_kink_free(rng, params, (3,)) if activation == "relu"
                 else rng.uniform(-1, 1, size=3))

            def loss(theta):
                return score_one(ae_from_vector(theta, dims, activation=activation), x)

            analytic = grad_one(params, x, 1.0)
            numeric = finite_diff_grad(loss, params.theta)
            assert_grad_close(analytic, numeric)

    def test_batch_grad_sums_instances(self):
        rng = np.random.default_rng(28)
        params = small_ae(rng)
        X = rng.uniform(-1, 1, size=(4, 3))
        w = rng.normal(size=4)
        scores, grad = score_batch_grad(params, X, w)
        np.testing.assert_allclose(scores, score_batch(params, X), rtol=1e-14)
        expected = sum(grad_one(params, X[i], w[i]) for i in range(4))
        np.testing.assert_allclose(grad, expected, atol=1e-12)


class TestAutoencoderStack:
    """The stacked passes against the 2-d reference path, per model."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_passes_smaller_than_the_pool_match_allocating(self, activation):
        rng = np.random.default_rng(65)
        init = ae_init(3, 5, hidden=128, code=16, activation=activation)
        members = AutoencoderStack(init, 4)
        members.spare(100_000)
        pool = members.pool
        members.theta += rng.normal(scale=0.1, size=members.theta.shape)
        params = [ae_from_vector(row.copy(), init.dims, activation=activation)
                  for row in members.theta]
        for a, n in ((4, 37), (2, 9), (3, 1)):  # fewer members and rows than room for
            pool[:] = np.nan
            X = rng.uniform(-1, 1, size=(n, 3))
            upstream = rng.normal(size=(a, n))
            scores = members.scores(a, X, np.empty((a, n)))
            stepped = members.forward(a, X, np.empty((a, n)))
            members.backward(a, X, upstream)
            for m in range(a):
                want_scores, want_grad = score_batch_grad(params[m], X, upstream[m])
                np.testing.assert_array_equal(scores[m], want_scores)
                np.testing.assert_array_equal(stepped[m], want_scores)
                np.testing.assert_array_equal(members.grad[m], want_grad)
        assert members.pool is pool

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_passes_larger_than_the_pool_match_allocating(self, activation):
        rng = np.random.default_rng(66)
        init = ae_init(3, 6, hidden=32, code=4, activation=activation)
        members = AutoencoderStack(init, 3)
        assert members.pool.size == 0
        members.theta += rng.normal(scale=0.1, size=members.theta.shape)
        params = [ae_from_vector(row.copy(), init.dims, activation=activation)
                  for row in members.theta]
        for a, n in ((2, 5), (3, 40), (3, 300)):  # each pass outgrows the pool
            X = rng.uniform(-1, 1, size=(n, 3))
            upstream = rng.normal(size=(a, n))
            small = members.pool.size
            scores = members.scores(a, X, np.empty((a, n)))
            assert members.pool.size > small
            stepped = members.forward(a, X, np.empty((a, n)))
            tape = members.pool
            # regrow while the tape is live: the tape keeps the old pool
            members.spare(members.pool.size)[:] = np.nan
            assert members.pool is not tape
            members.pool[:] = np.nan
            members.backward(a, X, upstream)
            for m in range(a):
                want_scores, want_grad = score_batch_grad(params[m], X, upstream[m])
                np.testing.assert_array_equal(scores[m], want_scores)
                np.testing.assert_array_equal(stepped[m], want_scores)
                np.testing.assert_array_equal(members.grad[m], want_grad)

    @pytest.mark.parametrize("mode", training.MODES)
    def test_training_regrows_its_pools_in_the_first_epoch_only(self, mode, monkeypatch):
        # equally long sets make every epoch's batches the same sizes, so
        # each stack meets its largest pass in the first epoch and evaluation
        rng = np.random.default_rng(67)
        train_data, val_data = (
            weak_data([rng.normal(size=(3, 2)) for _ in range(k)], rng.normal(size=(n, 2)))
            for k, n in ((5, 20), (2, 10)))

        class Counted(AutoencoderStack):
            def __init__(self, *args):
                super().__init__(*args)
                self.regrows = 0
                stacks.append(self)

            def _grow(self, size):
                self.regrows += size > self.pool.size
                return super()._grow(size)

        monkeypatch.setattr(training, "AutoencoderStack", Counted)
        counts = []
        for epochs in (2, 12):
            stacks = []
            training.train(train_data, val_data, training.TrainConfig(
                mode=mode, hidden_dim=8, code_dim=2, max_epochs=epochs, patience=None,
                batch_sets=2, batch_normals=8))
            counts.append([stack.regrows for stack in stacks])
        assert counts[0] == counts[1]
        assert len(counts[0]) == 2 and 0 not in counts[0]  # the step and evaluation stacks


class TestReferenceIsIndependent:
    """tests/reference.py is the oracle for every pass in the package and for
    the kernel's Adam, so it must not run one of them."""

    PASSES = {
        network: ("forward_pass", "backward_pass", "squared_error", "mlp_forward",
                  "mlp_backward", "_activate", "_activation_grad"),
        scorer: ("reconstruct", "score_batch", "AutoencoderStack"),
        training: ("_adam_update",),
    }

    def test_binds_no_forward_or_backward_pass(self):
        passes = {id(getattr(module, name)): f"{module.__name__}.{name}"
                  for module, names in self.PASSES.items() for name in names
                  if hasattr(module, name)}
        for attr, value in vars(reference).items():
            assert all(value is not module for module in self.PASSES), f"reference.{attr}"
            name = passes.get(id(value))
            assert name is None, f"reference.{attr} is {name}"


class TestStructure:
    def test_theta_holds_every_parameter(self):
        params = ae_init(5, 0, hidden=7, code=3)
        assert params.theta.shape == ((5 * 7 + 7) + (7 * 3 + 3) + (3 * 7 + 7) + (7 * 5 + 5),)

    def test_dims_chain(self):
        params = ae_init(5, 0, hidden=7, code=3)
        assert params.dims == [5, 7, 3, 7, 5]

    def test_init_deterministic(self):
        a = ae_init(4, 9, hidden=6, code=2).theta
        b = ae_init(4, 9, hidden=6, code=2).theta
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dim, seed, hidden, code", [(3, 41, 6, 2), (2, 0, 128, 16)])
    def test_initial_draws_are_pinned(self, dim, seed, hidden, code):
        # Glorot-uniform weights in layer order, the encoder drawn from seed and
        # the decoder from seed + 1, each layer's zero bias after its weight
        parts = []
        for rng_seed, chain in ((seed, [dim, hidden, code]), (seed + 1, [code, hidden, dim])):
            rng = np.random.default_rng(rng_seed)
            for fan_in, fan_out in zip(chain[:-1], chain[1:]):
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                parts += [rng.uniform(-bound, bound, size=fan_out * fan_in), np.zeros(fan_out)]
        want = np.concatenate(parts)
        for activation in ACTIVATIONS:
            got = ae_init(dim, seed, hidden=hidden, code=code, activation=activation).theta
            assert got.tobytes() == want.tobytes()

    def test_layer_edits_land_in_theta(self):
        params = ae_init(3, 0, hidden=4, code=2)
        before = params.theta.copy()
        params.encoder[1].weight[0, 0] += 1.0
        params.decoder[0].bias[...] = 5.0
        # encoder: 4 * 3 + 4 entries, then the (2, 4) weight and 2 biases;
        # decoder: the (4, 2) weight, then its 4 biases
        assert np.flatnonzero(params.theta != before).tolist() == [16, 34, 35, 36, 37]
        X = np.random.default_rng(30).normal(size=(5, 3))
        copied = ae_from_vector(params.theta.copy(), params.dims)
        np.testing.assert_array_equal(score_batch(params, X), score_batch(copied, X))

    def test_from_vector_wraps_without_copying(self):
        params = ae_init(4, 10, hidden=6, code=2, activation="tanh")
        back = ae_from_vector(params.theta, params.dims, activation="tanh")
        assert back.theta is params.theta
        assert back.dims == params.dims and back.activation == "tanh"

    def test_survives_pickling_as_views(self):
        params = small_ae(np.random.default_rng(31))
        back = pickle.loads(pickle.dumps(params))
        np.testing.assert_array_equal(back.theta, params.theta)
        for weight, bias in back.encoder + back.decoder:
            assert np.shares_memory(weight, back.theta) and np.shares_memory(bias, back.theta)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="'sigmoid'"):
            ae_init(3, 0, activation="sigmoid")
        vec = ae_init(3, 0, hidden=4, code=2).theta
        with pytest.raises(ValueError, match="'gelu'"):
            ae_from_vector(vec, [3, 4, 2, 4, 3], activation="gelu")


# (dims, theta length or shape) pairs that describe no autoencoder
MALFORMED = [
    pytest.param([3], 0, id="one-entry"),
    pytest.param([3, 3], 12, id="one-layer"),
    pytest.param([3, 4, 5, 3], param_count([3, 4, 5, 3]), id="even-count"),
    pytest.param([3, 0, 3], 3, id="zero-width"),
    pytest.param([3, -4, 3], param_count([3, 4, 3]), id="negative-width"),
    pytest.param([3, 4, 2], param_count([3, 4, 2]), id="ends-differ"),
    pytest.param([3, 4.5, 3], param_count([3, 4, 3]), id="fractional-width"),
    pytest.param(3, 0, id="0-d"),
    pytest.param([3, 4, 3], param_count([3, 4, 3]) - 1, id="theta-too-short"),
    pytest.param([3, 4, 3], param_count([3, 4, 3]) + 1, id="theta-too-long"),
    pytest.param([3, 4, 3], (1, param_count([3, 4, 3])), id="theta-2-d"),
]


class TestMalformedModel:
    """A model's dims and theta are checked where an AutoencoderParams is built."""

    def test_smallest_chain_accepted(self):
        params = AutoencoderParams([3, 4, 3], np.zeros(param_count([3, 4, 3])))
        assert len(params.encoder) == len(params.decoder) == 1

    @pytest.mark.parametrize("dims, theta_shape", MALFORMED)
    def test_rejected_when_built(self, dims, theta_shape):
        with pytest.raises(ShapeError):
            AutoencoderParams(dims, np.zeros(theta_shape))

    @pytest.mark.parametrize("dims", [[2, True, 2], [True, 1, True]])
    def test_bool_width_rejected(self, dims):
        # a bool is an Integral, but not a width
        with pytest.raises(ShapeError):
            AutoencoderParams(dims, np.zeros(param_count([int(d) for d in dims])))

    @pytest.mark.parametrize("dims, theta_shape", MALFORMED)
    def test_rejected_on_load(self, tmp_path, dims, theta_shape):
        path = tmp_path / "model.npz"
        np.savez(path, dims=np.asarray(dims), seed=np.int64(0),
                 activation=np.str_("relu"), theta=np.zeros(theta_shape))
        with pytest.raises(ShapeError):
            load_params(path)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        params = ae_init(4, 77, hidden=6, code=2)
        path = tmp_path / "model.npz"
        save_params(path, params, rng_seed=77)
        loaded, seed = load_params(path)
        assert seed == 77
        assert loaded.dims == params.dims
        assert loaded.activation == params.activation
        np.testing.assert_array_equal(loaded.theta, params.theta)

    def test_unknown_activation_rejected_on_load(self, tmp_path):
        params = ae_init(3, 0, hidden=4, code=2)
        path = tmp_path / "model.npz"
        np.savez(path, dims=np.asarray(params.dims, dtype=np.int64),
                 seed=np.int64(0), activation=np.str_("gelu"),
                 theta=params.theta)
        with pytest.raises(ValueError, match="'gelu'"):
            load_params(path)

    def test_scores_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        params = small_ae(rng, activation="tanh")
        path = tmp_path / "model.npz"
        save_params(path, params)
        loaded, _ = load_params(path)
        X = rng.uniform(-1, 1, size=(5, 3))
        np.testing.assert_array_equal(score_batch(loaded, X),
                                      score_batch(params, X))
