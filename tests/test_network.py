"""Unit tests for the dense-network machinery and its finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from inexad.network import (
    Layer,
    ShapeError,
    _sigmoid_into,
    backward_pass,
    finite_diff_grad,
    forward_pass,
    init_params,
    layer_views,
    mlp_backward,
    mlp_forward,
    param_count,
    sigmoid_stable,
    squared_error,
)
from . import reference
from .conftest import KINK_MARGIN, assert_grad_close

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def init_layers(dims, seed):
    """The layers of init_params(dims, seed), as views into its vector."""
    return layer_views(init_params(dims, seed), dims)


def affine_forward(layer, x):
    """One affine layer on the batch x: mlp_forward of a one-layer chain."""
    return mlp_forward([layer], x)[0]


class TestAffineForward:
    def test_identity(self):
        layer = Layer(weight=np.eye(2), bias=np.zeros(2))
        np.testing.assert_array_equal(affine_forward(layer, [[3.0, 4.0]]), [[3.0, 4.0]])

    def test_scale_and_shift(self):
        layer = Layer(weight=2 * np.eye(2), bias=np.ones(2))
        np.testing.assert_array_equal(affine_forward(layer, [[1.0, 1.0]]), [[3.0, 3.0]])

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(7)
        layer = Layer(weight=rng.normal(size=(3, 2)), bias=rng.normal(size=3))
        x = np.array([0.5, -0.5])
        expected = [
            sum(layer.weight[i, j] * x[j] for j in range(2)) + layer.bias[i]
            for i in range(3)
        ]
        np.testing.assert_allclose(affine_forward(layer, [x]), [expected], rtol=1e-14)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(8)
        layer = Layer(weight=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
        X = rng.normal(size=(5, 4))
        out = affine_forward(layer, X)
        for i in range(5):
            # batched and one-row BLAS paths may differ by 1 ulp
            np.testing.assert_allclose(out[i], affine_forward(layer, X[i:i + 1])[0],
                                       rtol=1e-14)

    def test_dimension_mismatch(self):
        layer = Layer(weight=np.eye(2), bias=np.zeros(2))
        with pytest.raises(ShapeError, match="3 features.*expects 2"):
            affine_forward(layer, [[1.0, 2.0, 3.0]])

    def test_linearity(self):
        rng = np.random.default_rng(9)
        layer = Layer(weight=rng.normal(size=(3, 3)), bias=rng.normal(size=3))
        for _ in range(10):
            a, b = rng.normal(size=2)
            x, y = rng.normal(size=(2, 1, 3))
            lhs = affine_forward(layer, a * x + b * y)
            rhs = (a * affine_forward(layer, x) + b * affine_forward(layer, y)
                   - (a + b - 1) * layer.bias)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def relu_layer(v):
    """The hidden layer's output for v: identity weights, then mlp_forward's ReLU."""
    n = len(v)
    layers = [Layer(weight=np.eye(n), bias=np.zeros(n)),
              Layer(weight=np.eye(n), bias=np.zeros(n))]
    return mlp_forward(layers, [v])[0][0]


class TestRelu:
    """The default hidden activation of mlp_forward."""

    def test_mixed(self):
        np.testing.assert_array_equal(relu_layer([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])

    def test_nonnegative_unchanged(self):
        v = np.array([0.0, 1.5, 3.0])
        np.testing.assert_array_equal(relu_layer(v), v)

    def test_all_negative(self):
        np.testing.assert_array_equal(relu_layer([-3.0, -0.1]), [0.0, 0.0])


class TestSigmoid:
    def test_zero(self):
        assert sigmoid_stable(0.0) == 0.5

    def test_reference_value(self):
        # 1 / (1 + exp(-0.4)) to 12 places
        assert sigmoid_stable(0.4) == pytest.approx(0.598687660112, abs=1e-12)

    def test_saturation_low(self):
        v = sigmoid_stable(-1000.0)
        assert 0.0 < v <= 1e-300
        assert np.isfinite(v)

    def test_saturation_high(self):
        v = sigmoid_stable(1000.0)
        assert 0.0 < v < 1.0

    @given(z1=finite_floats, z2=finite_floats)
    def test_monotone(self, z1, z2):
        if z1 < z2:
            assert sigmoid_stable(z1) <= sigmoid_stable(z2)

    def test_strictly_increasing_on_grid(self):
        zs = np.linspace(-30, 30, 121)
        vals = [sigmoid_stable(z) for z in zs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @given(z=finite_floats)
    def test_symmetry(self, z):
        assert sigmoid_stable(z) + sigmoid_stable(-z) == pytest.approx(1.0, abs=1e-12)

    def test_vectorized(self):
        out = sigmoid_stable(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[1] == 0.5


def masked_sigmoid(z):
    """The branch-per-sign formula: exp only of the compacted elements of each sign."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, 5e-324, np.nextafter(1.0, 0.0))


def sigmoid_cases():
    rng = np.random.default_rng(18)
    for n in list(range(1, 70)) + [1000, 12345, 190000]:
        for scale in (1.0, 30.0, 3000.0):
            yield rng.normal(scale=scale, size=n)
    wide = rng.normal(scale=30.0, size=5001)
    yield wide[1:]  # a view starting off the allocation's alignment
    yield wide[3:1004]
    yield wide[::3]  # strided
    yield np.array([0.0, -0.0, 1e-320, -1e-320, 709.8, -709.8, 745.2, -745.2,
                    -746.0, 3000.0, -3000.0, np.inf, -np.inf])


class TestSigmoidMatchesMaskedFormula:
    """exp runs over every element at once, at other array positions than in
    the masked formula; the results must still be the same bits."""

    def test_bitwise_equal(self):
        for z in sigmoid_cases():
            np.testing.assert_array_equal(sigmoid_stable(z), masked_sigmoid(z))

    def test_out_may_be_the_input(self):
        for z in sigmoid_cases():
            want = masked_sigmoid(z)
            buf = z.copy()
            assert _sigmoid_into(buf, buf, np.empty_like(buf)) is buf
            np.testing.assert_array_equal(buf, want)

    def test_input_unchanged_with_separate_out(self):
        z = np.linspace(-5.0, 5.0, 11)
        before = z.copy()
        out = np.empty_like(z)
        assert _sigmoid_into(z, out, np.empty_like(z)) is out
        np.testing.assert_array_equal(z, before)
        np.testing.assert_array_equal(out, masked_sigmoid(before))


def heaviside_sigmoid(z):
    """The same-exp formula with numpy's heaviside step as the numerator's switch."""
    e = np.exp(-np.abs(z))
    out = np.maximum(np.heaviside(z, 1.0), e) / (1.0 + e)
    return np.clip(out, 5e-324, np.nextafter(1.0, 0.0))


class TestSigmoidMatchesHeavisideFormula:
    """The numerator's switch is a comparison, not heaviside; the bits must not move."""

    EDGES = [0.0, 5e-324, 1e-320, 1e-300, 36.7, 745.2, 800.0, np.inf]

    def cases(self):
        edges = np.array(self.EDGES)
        yield np.concatenate([edges, -edges, [np.nan, -np.nan]])
        yield np.random.default_rng(19).normal(scale=30.0, size=100_000)

    def test_bitwise_equal_and_nan_where_the_formula_gives_nan(self):
        for z in self.cases():
            want = heaviside_sigmoid(z)
            buf = z.copy()
            for got in (sigmoid_stable(z), _sigmoid_into(buf, buf, np.empty_like(buf))):
                np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
                keep = ~np.isnan(want)
                assert got[keep].tobytes() == want[keep].tobytes()


class TestMlpForward:
    def test_single_identity_layer(self):
        layers = [Layer(weight=np.eye(3), bias=np.zeros(3))]
        out, _ = mlp_forward(layers, [[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(out, [[1.0, -2.0, 3.0]])

    def test_zero_params_zero_output(self):
        layers = [
            Layer(weight=np.zeros((4, 3)), bias=np.zeros(4)),
            Layer(weight=np.zeros((2, 4)), bias=np.zeros(2)),
        ]
        out, _ = mlp_forward(layers, [[5.0, -1.0, 2.0]])
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(11)
        layers = init_layers([3, 4, 2], 11)
        x = rng.normal(size=(1, 3))
        h = np.maximum(0.0, reference.affine(layers[0], x))
        expected = reference.affine(layers[1], h)
        out, _ = mlp_forward(layers, x)
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_tanh_activation(self):
        layers = init_layers([3, 4, 2], 12)
        x = np.array([[0.3, -0.2, 0.1]])
        h = np.tanh(reference.affine(layers[0], x))
        expected = reference.affine(layers[1], h)
        out, _ = mlp_forward(layers, x, activation="tanh")
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_tape_is_the_input_then_each_layer_output(self):
        layers = init_layers([3, 4, 2, 5], 13)
        x = np.random.default_rng(13).normal(size=(5, 3))
        for activation, act in (("relu", lambda z: np.maximum(0.0, z)), ("tanh", np.tanh)):
            out, tape = mlp_forward(layers, x, activation)
            assert len(tape) == len(layers) + 1
            assert tape[0] is x and tape[-1] is out
            for i, layer in enumerate(layers):
                want = reference.affine(layer, tape[i])
                if i < len(layers) - 1:
                    want = act(want)
                assert tape[i + 1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("shape", [(0, 3), (1, 3), (7, 3)])
    def test_tape_free_equals_taped_bitwise(self, activation, shape):
        layers = init_layers([3, 6, 2, 6, 3], 17)
        x = np.random.default_rng(17).normal(size=shape)
        before = x.copy()
        out, cache = mlp_forward(layers, x, activation, cache=False)
        assert cache is None
        taped = mlp_forward(layers, x, activation)[0]
        assert out.shape == taped.shape == (len(x), 3)
        assert out.tobytes() == taped.tobytes()
        # the in-place activations write only into the layer outputs
        np.testing.assert_array_equal(x, before)


class TestMlpBackward:
    def test_zero_output_grad(self):
        layers = init_layers([3, 4, 2], 14)
        _, tape = mlp_forward(layers, np.array([[0.2, 0.5, -0.1]]))
        grads, input_grad = mlp_backward(layers, tape, np.zeros((1, 2)))
        for dw, db in grads:
            assert not dw.any() and not db.any()
        assert not np.asarray(input_grad).any()

    def test_single_linear_layer(self):
        # loss = scalar output  =>  dW = x, db = 1
        layers = [Layer(weight=np.array([[0.3, -0.7]]), bias=np.array([0.1]))]
        x = np.array([[2.0, 5.0]])
        _, tape = mlp_forward(layers, x)
        grads, _ = mlp_backward(layers, tape, np.array([[1.0]]))
        dw, db = grads[0]
        np.testing.assert_array_equal(dw, x)
        np.testing.assert_array_equal(db, [1.0])

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(15)
        dims = [3, 5, 4, 2]
        for _ in range(5):
            theta = init_params(dims, int(rng.integers(0, 2**31)))
            layers = layer_views(theta, dims)
            for _, bias in layers:
                bias += rng.normal(0.0, 0.2, size=bias.shape)
            # redraw inputs that graze a ReLU kink
            for _ in range(100):
                x = rng.uniform(-1, 1, size=(1, 3))
                _, tape = mlp_forward(layers, x, activation=activation)
                if activation == "tanh" or all(
                    np.min(np.abs(reference.affine(layer, h))) >= KINK_MARGIN
                    for layer, h in zip(layers[:-1], tape)
                ):
                    break
            w_out = rng.normal(size=(1, 2))

            def loss(theta):
                out, _ = mlp_forward(layer_views(theta, dims), x, activation=activation)
                return float(np.sum(w_out * out))

            grads, _ = mlp_backward(layers, tape, w_out, activation=activation)
            analytic = np.concatenate(
                [np.concatenate([dw.ravel(), db]) for dw, db in grads]
            )
            numeric = finite_diff_grad(loss, theta)
            assert_grad_close(analytic, numeric)

    def test_shape_mismatch(self):
        layers = init_layers([3, 4, 2], 16)
        _, tape = mlp_forward(layers, np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            mlp_backward(layers, tape, np.zeros((1, 3)))


    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_leaves_the_tape_and_output_grad_alone(self, activation):
        layers = init_layers([3, 6, 2, 4], 18)
        x = np.random.default_rng(18).normal(size=(9, 3))
        _, tape = mlp_forward(layers, x, activation)
        before = [h.copy() for h in tape]
        g = np.random.default_rng(19).normal(size=(9, 4))
        g_before = g.copy()
        mlp_backward(layers, tape, g, activation)
        for h, want in zip(tape, before):
            assert h.tobytes() == want.tobytes()
        assert g.tobytes() == g_before.tobytes()


STACK_DIMS = [3, 7, 2, 7, 3]
STACK_HIDDEN = [True, False, True, False]


def stacked(count, seed):
    """count models' parameter vectors as rows, and their (count, out, in) layer views."""
    theta = np.stack([init_params(STACK_DIMS, seed + m) for m in range(count)])
    theta += np.random.default_rng(seed).normal(scale=0.1, size=theta.shape)
    return theta, layer_views(theta, STACK_DIMS)


class TestForwardPass:
    """The one forward loop against the tests' own 2-d copy, per model."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_stacked_weights_on_a_shared_batch_match_each_model(self, activation):
        theta, layers = stacked(3, 40)
        X = np.random.default_rng(40).normal(size=(11, 3))
        outs = forward_pass(layers, X, activation, STACK_HIDDEN)
        assert [h.shape for h in outs] == [(3, 11, w) for w in STACK_DIMS[1:]]
        for m in range(3):
            model = layer_views(theta[m], STACK_DIMS)
            enc = reference.layers_forward(model[:2], X, activation)
            dec = reference.layers_forward(model[2:], enc[-1], activation)
            for got, want in zip(outs, enc[1:] + dec[1:]):
                assert got[m].tobytes() == want.tobytes()

    def test_writes_into_the_buffers_given(self):
        _, layers = stacked(2, 41)
        X = np.random.default_rng(41).normal(size=(5, 3))
        bufs = [np.full((2, 5, w), np.nan) for w in STACK_DIMS[1:]]
        outs = forward_pass(layers, X, "relu", STACK_HIDDEN, bufs)
        assert all(got is buf for got, buf in zip(outs, bufs))
        fresh = forward_pass(layers, X, "relu", STACK_HIDDEN)
        for got, want in zip(outs, fresh):
            assert got.tobytes() == want.tobytes()


class TestBackwardPass:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_spare_gives_the_allocating_bits_and_keeps_the_input(self, activation):
        theta, layers = stacked(3, 42)
        rng = np.random.default_rng(42)
        X = rng.normal(size=(8, 3))
        X_before = X.copy()
        g = rng.normal(size=(3, 8, 3))
        grads = []
        for spare in (None, np.empty(3 * 8 * 7)):
            outs = forward_pass(layers, X, activation, STACK_HIDDEN)
            grad = np.empty_like(theta)
            input_grad = backward_pass(layers, [X] + outs, g.copy(), activation,
                                       STACK_HIDDEN, layer_views(grad, STACK_DIMS), spare)
            assert (input_grad is None) == (spare is not None)
            grads.append(grad)
        assert grads[0].tobytes() == grads[1].tobytes()
        np.testing.assert_array_equal(X, X_before)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_each_model_matches_the_2d_copy(self, activation):
        theta, layers = stacked(2, 43)
        rng = np.random.default_rng(43)
        X = rng.normal(size=(6, 3))
        g = rng.normal(size=(2, 6, 3))
        grad = np.empty_like(theta)
        outs = forward_pass(layers, X, activation, STACK_HIDDEN)
        backward_pass(layers, [X] + outs, g, activation, STACK_HIDDEN,
                      layer_views(grad, STACK_DIMS))
        for m in range(2):
            model = layer_views(theta[m], STACK_DIMS)
            enc = reference.layers_forward(model[:2], X, activation)
            dec = reference.layers_forward(model[2:], enc[-1], activation)
            dec_grads, g_code = reference.layers_backward(model[2:], dec, g[m], activation)
            enc_grads, _ = reference.layers_backward(model[:2], enc, g_code, activation)
            for (dw, db), (want_w, want_b) in zip(layer_views(grad[m], STACK_DIMS),
                                                  enc_grads + dec_grads):
                assert dw.tobytes() == want_w.tobytes()
                assert db.tobytes() == want_b.tobytes()


class TestSquaredError:
    def test_row_sums_and_the_difference_left_in_recon(self):
        x = np.array([[1.0, 2.0], [0.0, -1.0]])
        recon = np.array([[1.0, 0.0], [3.0, -1.0]])
        np.testing.assert_array_equal(squared_error(x, recon), [4.0, 9.0])
        np.testing.assert_array_equal(recon, [[0.0, 2.0], [-3.0, 0.0]])

    def test_stacked_rows_match_each_model(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(37, 5))
        recon = rng.normal(size=(3, 37, 5))
        out = np.empty((3, 37))
        want = [np.einsum("ij,ij->i", x - r, x - r) for r in recon]
        assert squared_error(x, recon, out) is out
        for m in range(3):
            assert out[m].tobytes() == want[m].tobytes()


class TestBatchesOnly:
    """A lone 1-d vector is rejected, not read as a one-row batch."""

    def test_mlp_forward(self):
        layers = init_layers([3, 4, 2], 19)
        for cache in (True, False):
            with pytest.raises(ShapeError, match="1-d"):
                mlp_forward(layers, np.zeros(3), cache=cache)

    def test_mlp_backward(self):
        layers = init_layers([3, 4, 2], 19)
        _, tape = mlp_forward(layers, np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            mlp_backward(layers, tape, np.zeros(2))


class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), step=1e-4)
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        g = finite_diff_grad(lambda t: 1.25, np.arange(4.0))
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_sum_of_squares(self):
        theta = np.random.default_rng(17).normal(size=6)
        g = finite_diff_grad(lambda t: float(t @ t), theta)
        np.testing.assert_allclose(g, 2 * theta, atol=1e-8)

    def test_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            finite_diff_grad(lambda t: 0.0, np.zeros(2), step=0.0)


class TestInitParams:
    def test_deterministic(self):
        a = init_params([4, 3, 2], 42)
        b = init_params([4, 3, 2], 42)
        assert a.tobytes() == b.tobytes()

    def test_one_vector_of_every_layer(self):
        theta = init_params([4, 3, 2], 42)
        assert theta.shape == (4 * 3 + 3 + 3 * 2 + 2,) == (param_count([4, 3, 2]),)

    def test_seed_changes_weights(self):
        a = init_params([4, 3], 1)
        b = init_params([4, 3], 2)
        assert not np.array_equal(a, b)

    def test_bound(self):
        # fan_in + fan_out = 6  =>  bound = 1
        (layer,) = init_layers([4, 2], 0)
        assert np.all(np.abs(layer.weight) <= 1.0)
        np.testing.assert_array_equal(layer.bias, np.zeros(2))

    def test_sample_mean_near_zero(self):
        (layer,) = init_layers([128, 16], 3)
        bound = np.sqrt(6.0 / 144)
        stderr = bound / np.sqrt(3) / np.sqrt(layer.weight.size)
        assert abs(layer.weight.mean()) < 5 * stderr

    def test_empty_dims(self):
        with pytest.raises(ValueError, match="at least two"):
            init_params([4], 0)


class TestLayerViews:
    def test_layout(self):
        # per layer, the row-major weight and then the bias
        theta = np.arange(float(param_count([3, 2, 1])))
        (w0, b0), (w1, b1) = layer_views(theta, [3, 2, 1])
        assert w0.tolist() == [[0, 1, 2], [3, 4, 5]] and b0.tolist() == [6, 7]
        assert w1.tolist() == [[8, 9]] and b1.tolist() == [10]

    def test_wrong_length(self):
        with pytest.raises(ShapeError, match="entries"):
            layer_views(np.zeros(7), [3, 5, 2])

    def test_stack_views_equal_each_row_and_share_memory(self):
        dims = [3, 5, 2, 5, 3]
        rows = [init_params(dims, seed) for seed in (20, 21, 22)]
        stack = np.stack(rows)
        views = layer_views(stack, dims)
        for m, row in enumerate(rows):
            for (weight, bias), layer in zip(views, layer_views(row, dims)):
                assert weight[m].tobytes() == layer.weight.tobytes()
                assert bias[m].tobytes() == layer.bias.tobytes()
        for weight, bias in views:
            # updates written through the views land in the stack, as Adam's do
            assert np.shares_memory(weight, stack) and np.shares_memory(bias, stack)
        views[-1][1][1] += 1.0
        assert stack[1, -3:].tolist() == (rows[1][-3:] + 1.0).tolist()
