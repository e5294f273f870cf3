"""Unit tests for the objective, its gradient, Adam, batching, and the train loop."""

import functools
import math
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from inexad.network import ShapeError, sigmoid_stable
from inexad.scorer import ae_from_vector, ae_init, score_batch
from inexad import blas, training
from inexad.data import DataError, TrainData, gen_synthetic, materialize
from inexad.training import (
    History,
    TrainConfig,
    TrainResult,
    best_of_grid,
    grid_search,
    make_batches,
    mode_objective,
    objective_grad,
    train,
    validation_metric,
)
from . import reference
from .conftest import (
    KINK_MARGIN,
    assert_grad_close,
    min_preactivation,
    set_list,
    small_ae,
    weak_data,
    zero_ae,
)


def tiny_problem(rng, n_sets=4, set_size=3, n_normals=20):
    """Small 2-d training/validation data with one planted outlier per set."""
    def make(n_sets_, n_normals_):
        sets = []
        for _ in range(n_sets_):
            members = rng.normal(0.0, 0.3, size=(set_size, 2))
            members[0] = rng.normal(3.0, 0.3, size=2)  # the anomaly
            sets.append(members)
        return weak_data(sets, rng.normal(0.0, 0.3, size=(n_normals_, 2)))

    return make(n_sets, n_normals), make(2, 10)


def quick_config(**kw):
    base = dict(hidden_dim=8, code_dim=2, max_epochs=5, patience=None,
                batch_sets=2, batch_normals=8, rng_seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(mode="nope")

    def test_negative_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            TrainConfig(lam=-1.0)

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="'gelu'"):
            TrainConfig(activation="gelu")

    def test_bad_batch(self):
        with pytest.raises(ValueError, match="batch"):
            TrainConfig(batch_sets=0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(lam=lam)

    def test_non_finite_grid_value(self):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(lambda_grid=(0.0, math.nan))

    @pytest.mark.parametrize("kw", [dict(lam=-0.0), dict(lambda_grid=(-0.0, 1.0)),
                                    dict(lambda_grid=(1.0, np.float64(-0.0)))])
    def test_negative_zero_lambda_rejected(self, kw):
        # -0 trains as 0 but would name its history file "-0"
        with pytest.raises(ValueError, match="not -0, got -0.0"):
            TrainConfig(**kw)

    def test_negative_max_epochs(self):
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=-1)

    def test_zero_patience(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=0)

    def test_patience_none_allowed(self):
        assert TrainConfig(patience=None, max_epochs=0).patience is None

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="grid"):
            TrainConfig(lambda_grid=())

    def test_array_grid_compares_equal(self):
        # == compares the stored tuples; kept arrays would make it ambiguous
        assert TrainConfig(lambda_grid=np.array([1.0, 2.0])) == TrainConfig(lambda_grid=(1.0, 2.0))

    def test_fraction_adam_settings_train(self):
        # Adam's in-place steps on float64 arrays take no Fraction
        train_data, val_data = tiny_problem(np.random.default_rng(3))
        config = quick_config(max_epochs=2)
        want = train(train_data, val_data, config)
        got = train(train_data, val_data, replace(
            config, learning_rate=Fraction(1, 1000), adam_beta1=Fraction(9, 10),
            adam_beta2=Fraction(999, 1000), adam_eps=Fraction(1, 10**8)))
        assert got.history == want.history

    def test_integer_lambda_is_reported_as_a_float(self):
        train_data, val_data = tiny_problem(np.random.default_rng(3))
        res = train(train_data, val_data, quick_config(lam=1, max_epochs=1))
        assert type(res.chosen_lambda) is float and res.chosen_lambda == 1.0


class TestObjectiveValue:
    def test_lambda_zero_is_mean_normal_score(self):
        rng = np.random.default_rng(41)
        params = small_ae(rng, dim=2)
        normals = rng.uniform(-1, 1, size=(7, 2))
        sets = [rng.uniform(-1, 1, size=(3, 2))]
        expected = float(score_batch(params, normals).mean())
        assert mode_objective("proposed", params, weak_data(sets, normals), 0.0) == expected

    def test_hand_value(self):
        # zero-parameter scorer: a(x) = ||x||^2.  One normal scoring 0.2,
        # one set whose max score is 0.6, lambda = 1:
        #   E = 0.2 - sigmoid(0.6 - 0.2) = 0.2 - 0.598687...
        params = zero_ae()
        normals = np.array([[np.sqrt(0.2), 0.0]])
        sets = [np.array([[np.sqrt(0.6), 0.0], [0.1, 0.0]])]
        val = mode_objective("proposed", params, weak_data(sets, normals), 1.0)
        assert val == pytest.approx(0.2 - 0.598687660112, abs=1e-9)
        assert val == pytest.approx(0.2 - sigmoid_stable(0.4), abs=1e-12)

    def test_zero_params_matches_raw_norms(self):
        # every score is ||x||^2, so recompute the objective from raw inputs
        rng = np.random.default_rng(42)
        params = zero_ae()
        normals = rng.uniform(-1, 1, size=(5, 2))
        sets = [rng.uniform(-1, 1, size=(3, 2)) for _ in range(2)]
        a_n = np.einsum("ij,ij->i", normals, normals)
        maxima = [max(float(x @ x) for x in s) for s in sets]
        pairs = [sigmoid_stable(m - a) for m in maxima for a in a_n]
        expected = a_n.mean() - 0.5 * np.mean(pairs)
        assert mode_objective("proposed", params, weak_data(sets, normals), 0.5) == pytest.approx(
            expected, rel=1e-12)

    def test_empty_normals_raises(self):
        # TrainData owns the rule, so no objective ever sees zero normals
        with pytest.raises(DataError, match="normals must have at least one row"):
            weak_data([], np.zeros((0, 2)))


class TestModeObjective:
    def test_ae_equals_lambda_zero(self):
        rng = np.random.default_rng(43)
        params = small_ae(rng, dim=2)
        normals = rng.uniform(-1, 1, size=(6, 2))
        sets = [rng.uniform(-1, 1, size=(3, 2))]
        data = weak_data(sets, normals)
        assert mode_objective("ae", params, data, 7.0) == mode_objective(
            "proposed", params, data, 0.0)

    def test_mil_is_negated_pair_mean(self):
        params = zero_ae()
        normals = np.array([[np.sqrt(0.2), 0.0]])
        sets = [np.array([[np.sqrt(0.6), 0.0]])]
        assert mode_objective("mil", params, weak_data(sets, normals), 123.0) == pytest.approx(
            -sigmoid_stable(0.4), abs=1e-12)

    def test_sae_on_singletons_equals_proposed(self):
        rng = np.random.default_rng(44)
        params = small_ae(rng, dim=2)
        normals = rng.uniform(-1, 1, size=(6, 2))
        sets = [rng.uniform(-1, 1, size=(1, 2)) for _ in range(4)]
        data = weak_data(sets, normals)
        assert mode_objective("sae", params, data, 2.0) == mode_objective(
            "proposed", params, data, 2.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            mode_objective("svm", zero_ae(), weak_data([], np.zeros((1, 2))), 1.0)

    def test_sets_required(self):
        with pytest.raises(ValueError, match="set"):
            mode_objective("mil", zero_ae(), weak_data([], np.ones((2, 2))), 1.0)


class TestObjectiveKernel:
    """training._objective on a stack of members against one 1-d call per member."""

    LAMS = np.array([0.0, 1e-3, 1.0, 1e3])

    @staticmethod
    def draw(rng):
        """(normal scores, set scores, ragged lengths) of the LAMS members; scores
        are rounded so that some sets hold tied maxima."""
        lengths = rng.integers(1, 5, size=int(rng.integers(1, 6)))
        a_n = np.round(rng.gamma(2.0, size=(len(TestObjectiveKernel.LAMS),
                                            int(rng.integers(1, 9)))), 1)
        set_scores = np.round(rng.gamma(2.0, size=(len(a_n), int(lengths.sum()))), 1)
        return a_n, set_scores, lengths

    @pytest.mark.parametrize("mode", training.MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_stack_equals_one_call_per_member(self, mode, seed):
        a_n, set_scores, lengths = self.draw(np.random.default_rng(seed))
        grad = np.empty((len(a_n), a_n.shape[1] + set_scores.shape[1]))
        stacked = training._objective(mode, self.LAMS, a_n, set_scores, lengths)
        with_grad = training._objective(mode, self.LAMS, a_n, set_scores, lengths, grad=grad)
        for m, lam in enumerate(self.LAMS.tolist()):
            one = training._objective(mode, lam, a_n[m], set_scores[m], lengths)
            assert stacked[m].tobytes() == with_grad[m].tobytes() == one.tobytes()
            # each member's gradient is the bits of a one-member stack's
            alone = np.empty((1, grad.shape[1]))
            training._objective(mode, self.LAMS[m:m + 1], a_n[m:m + 1], set_scores[m:m + 1],
                                lengths, grad=alone)
            assert grad[m].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_plain_stack_equals_one_call_per_member(self, seed):
        a_n = self.draw(np.random.default_rng(seed))[0]
        grad = np.empty((len(a_n), a_n.shape[1]))
        stacked = training._objective("ae", self.LAMS, a_n, None, None, grad=grad)
        for m, lam in enumerate(self.LAMS.tolist()):
            assert stacked[m].tobytes() == training._objective("ae", lam, a_n[m], None,
                                                               None).tobytes()
        assert (grad == 1.0 / a_n.shape[1]).all()

    @pytest.mark.parametrize("mode", training.MODES)
    def test_mode_objective_and_history_hand_out_python_floats(self, mode):
        train_data, val_data = tiny_problem(np.random.default_rng(5))
        params = small_ae(np.random.default_rng(6), dim=2)
        assert type(mode_objective(mode, params, train_data, 1.0)) is float
        result = train(train_data, val_data, quick_config(mode=mode, max_epochs=2))
        assert all(type(obj) is float for _, obj, _ in result.history)


class TestObjectiveGrad:
    def test_lambda_zero_is_mean_score_grad(self):
        rng = np.random.default_rng(45)
        params = small_ae(rng, dim=2)
        normals = rng.uniform(-1, 1, size=(5, 2))
        g = objective_grad(params, weak_data([], normals), 0.0)
        _, expected = reference.score_batch_grad(params, normals, np.full(5, 1.0 / 5))
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_modes_need_sets(self):
        with pytest.raises(ValueError, match="set"):
            objective_grad(zero_ae(), weak_data([], np.ones((2, 2))), 1.0, mode="mil")

    def test_tied_set_max_flows_through_first_member(self):
        # zero parameters score ||x||^2, so both set members score 1.0;
        # only the output bias then has a gradient, sum_i upstream_i * -2 x_i
        normal = np.array([[np.sqrt(0.2), 0.0]])
        first, second = np.array([0.6, 0.8]), np.array([0.8, 0.6])
        g = objective_grad(zero_ae(), weak_data([np.array([first, second])], normal), 1.0)
        s = sigmoid_stable(0.8)
        ds = s * (1.0 - s)
        expected = (1.0 + ds) * -2.0 * normal[0] + (-ds) * -2.0 * first
        np.testing.assert_allclose(g[-2:], expected, rtol=1e-12)
        assert not g[:-2].any()

    def test_deterministic(self):
        rng = np.random.default_rng(46)
        params = small_ae(rng, dim=2)
        sets = [rng.uniform(-1, 1, size=(3, 2))]
        normals = rng.uniform(-1, 1, size=(4, 2))
        g1 = objective_grad(params, weak_data(sets, normals), 1.0)
        g2 = objective_grad(params, weak_data(sets, normals), 1.0)
        np.testing.assert_array_equal(g1, g2)

    @pytest.mark.parametrize("normals", [
        pytest.param(np.ones(2), id="1-d"),
        pytest.param(np.ones((3, 3)), id="too-wide"),
        pytest.param(np.ones((3, 1)), id="too-narrow"),
    ])
    @pytest.mark.parametrize("mode", ["proposed", "ae"])
    def test_batch_of_another_shape_is_a_shape_error(self, normals, mode):
        # a 1-d batch is refused when the TrainData is built, a wrong width
        # by objective_grad
        params = small_ae(np.random.default_rng(47), dim=2)
        with pytest.raises(ShapeError, match="1-d|features"):
            objective_grad(params, TrainData(normals, [len(normals)], normals), 1.0, mode=mode)

    @pytest.mark.parametrize("bad_rows", [
        pytest.param(np.ones(4), id="1-d"),
        pytest.param(np.ones((4, 3)), id="too-wide"),
    ])
    def test_set_of_another_shape_is_a_shape_error(self, bad_rows):
        params = small_ae(np.random.default_rng(48), dim=2)
        with pytest.raises(ShapeError, match="1-d|features"):
            objective_grad(params, TrainData(bad_rows, [2, 2], np.ones((3, 2))), 1.0)


class TestObjectiveGradMatchesReference:
    """objective_grad runs the training kernel's stacked passes on one model;
    it must give the bits of the 2-d reference path."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dim", [2, 9, 32])
    @pytest.mark.parametrize("hidden, code", [(128, 16), (7, 3)])
    def test_bitwise_equal(self, activation, dim, hidden, code):
        rng = np.random.default_rng(dim * hidden + code)
        params = ae_init(dim, dim + hidden, hidden=hidden, code=code, activation=activation)
        params.theta += rng.normal(scale=0.1, size=params.theta.shape)
        for n_normals, n_sets in ((11, 3), (128, 8), (300, 20)):
            normals = rng.normal(size=(n_normals, dim))
            sets = [rng.normal(0.5, 1.0, size=(int(rng.integers(1, 6)), dim))
                    for _ in range(n_sets)]
            for mode in training.MODES:
                for lam in (0.0, 0.7):
                    got = objective_grad(params, weak_data(sets, normals), lam, mode=mode)
                    want = reference.objective_grad(params, sets, normals, lam, mode=mode)
                    assert got.tobytes() == want.tobytes(), (mode, lam, n_normals)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_strided_normals_bitwise_equal(self, activation):
        # with no set rows the normals reach the stack as given, not copied
        rng = np.random.default_rng(66)
        params = ae_init(9, 5, activation=activation)
        params.theta += rng.normal(scale=0.1, size=params.theta.shape)
        X = rng.normal(size=(300, 9))
        for normals in (X[::2], np.asfortranarray(X)[::3], X[::-1]):
            got = objective_grad(params, weak_data([], normals), 0.0, mode="ae")
            want = reference.objective_grad(params, [], normals, 0.0, mode="ae")
            assert got.tobytes() == want.tobytes()


def _draw_smooth_point(rng, mode, activation):
    """Network and batch where the mode's objective is smooth: no hidden
    pre-activation near a ReLU kink, and for the set-max modes a clear
    argmax in every multi-instance set."""
    uses_max = mode in ("proposed", "mil")
    while True:
        params = small_ae(rng, dim=3, hidden=5, code=2, activation=activation)
        sets = [rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), 3))
                for _ in range(int(rng.integers(1, 4)))]
        normals = rng.uniform(-1, 1, size=(int(rng.integers(2, 6)), 3))
        if activation == "relu" and min_preactivation(
                params, np.vstack(sets + [normals])) < KINK_MARGIN:
            continue
        gaps = [np.diff(np.sort(score_batch(params, s))[-2:]) for s in sets]
        if not uses_max or all(g.size == 0 or g[0] >= 1e-2 for g in gaps):
            return params, sets, normals


class TestObjectiveGradFiniteDifferences:
    """objective_grad against central differences of mode_objective, for the
    modes and activations that criterion 1 (proposed, ReLU) leaves out."""

    @pytest.mark.parametrize("mode, activation", [
        ("mil", "relu"), ("sae", "relu"), ("ae", "relu"),
        ("proposed", "tanh"), ("mil", "tanh"), ("sae", "tanh"), ("ae", "tanh"),
    ])
    def test_matches_finite_differences(self, mode, activation):
        rng = np.random.default_rng(1101)
        for _ in range(6):
            params, sets, normals = _draw_smooth_point(rng, mode, activation)
            lam = float(rng.choice([1e-1, 1.0, 10.0]))
            dims = params.dims
            batch = weak_data(sets, normals)

            def loss(theta):
                p = ae_from_vector(theta, dims, activation=activation)
                return mode_objective(mode, p, batch, lam)

            analytic = objective_grad(params, batch, lam, mode=mode)
            assert_grad_close(analytic, reference.finite_diff_grad(loss, params.theta))


def kernel_adam(theta, grad, m, v, t, config):
    """training._adam_update on copies of theta, m and v; returns them."""
    theta, m, v = (np.array(a, dtype=np.float64) for a in (theta, m, v))
    training._adam_update(theta, grad, m, v, t, config,
                          np.empty_like(theta), np.empty_like(theta))
    return theta, m, v


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        theta0 = ae_init(2, 0, hidden=3, code=2).theta
        zeros = np.zeros_like(theta0)
        new, m, v = kernel_adam(theta0, zeros, zeros, zeros, 1, TrainConfig())
        np.testing.assert_array_equal(new, theta0)
        np.testing.assert_array_equal(m, zeros)
        np.testing.assert_array_equal(v, zeros)

    def test_first_step_scalar(self):
        zero = np.array([0.0])
        new, m, v = kernel_adam(zero, np.array([1.0]), zero, zero, 1, TrainConfig())
        assert m[0] == pytest.approx(0.1)
        assert v[0] == pytest.approx(0.001)
        # bias correction makes m_hat = v_hat = 1 on the first step
        assert new[0] == pytest.approx(-1e-3 / (1 + 1e-8), rel=1e-12)

    def test_constant_gradient_step_size_approaches_lr(self):
        config = TrainConfig()
        theta, m, v = np.array([0.0]), np.array([0.0]), np.array([0.0])
        for t in range(1, 501):
            prev = theta
            theta, m, v = kernel_adam(theta, np.array([2.0]), m, v, t, config)
        assert abs(theta[0] - prev[0]) == pytest.approx(config.learning_rate,
                                                        rel=1e-3)

    def test_equals_textbook_update_bitwise(self):
        # the in-place update must keep the textbook expression's operation order
        rng = np.random.default_rng(62)
        config = TrainConfig()
        theta, m, v = rng.normal(size=50), np.zeros(50), np.zeros(50)
        ref, ref_m, ref_v = theta.copy(), m.copy(), v.copy()
        tmp, denom = np.empty(50), np.empty(50)
        for t in range(1, 30):
            grad = rng.normal(scale=10.0 ** rng.integers(-4, 3), size=50)
            training._adam_update(theta, grad, m, v, t, config, tmp, denom)
            ref, ref_m, ref_v = reference.adam(ref, grad, ref_m, ref_v, t, config)
            np.testing.assert_array_equal(theta, ref)
            np.testing.assert_array_equal(m, ref_m)
            np.testing.assert_array_equal(v, ref_v)


class TestMakeBatches:
    def test_ten_sets_split_eight_two(self):
        rng = np.random.default_rng(47)
        batches = make_batches(10, 30, TrainConfig(), rng)
        assert [len(set_ids) for set_ids, _ in batches] == [8, 2]
        assert all(normal_ids.shape == (128,) for _, normal_ids in batches)
        assert all(0 <= i < 30 for _, normal_ids in batches for i in normal_ids)

    def test_large_batch_is_single_pass(self):
        rng = np.random.default_rng(48)
        batches = make_batches(5, 4, TrainConfig(), rng)
        assert len(batches) == 1
        assert sorted(batches[0][0].tolist()) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        a = make_batches(10, 20, TrainConfig(), np.random.default_rng(5))
        b = make_batches(10, 20, TrainConfig(), np.random.default_rng(5))
        for (sa, na), (sb, nb) in zip(a, b):
            np.testing.assert_array_equal(sa, sb)
            np.testing.assert_array_equal(na, nb)

    def test_draws_pinned(self):
        # the draws of an earlier release for this seed and config; the
        # allocating-reference tests call make_batches on both sides, so
        # only a pinned stream shows a change in its rng calls
        config = TrainConfig(batch_sets=3, batch_normals=4)
        rng = np.random.default_rng(2024)
        epochs = [make_batches(7, 12, config, rng) for _ in range(2)]
        got = [(s.tolist(), n.tolist()) for batches in epochs for s, n in batches]
        assert got == [
            ([3, 2, 6], [9, 10, 11, 0]), ([5, 4, 1], [1, 10, 0, 1]),
            ([0], [2, 10, 4, 3]), ([1, 6, 5], [8, 0, 2, 5]),
            ([3, 4, 0], [0, 11, 7, 9]), ([2], [6, 7, 4, 3]),
        ]
        (only,) = make_batches(0, 12, config, np.random.default_rng(2024))
        assert (only[0].tolist(), only[1].tolist()) == ([], [2, 8, 1, 2])


class TestTrain:
    def test_max_epochs_zero_returns_initial(self):
        # epoch 0 is booked like any other: the initialisation's objective and metric
        rng = np.random.default_rng(49)
        train_data, val_data = tiny_problem(rng)
        config = quick_config(max_epochs=0)
        res = train(train_data, val_data, config)
        init = ae_init(2, config.rng_seed, hidden=8, code=2)
        metric = validation_metric("proposed", init, val_data)
        assert res.history == [(0, mode_objective("proposed", init, train_data, config.lam),
                                metric)]
        assert res.best_val_metric == metric
        assert (res.best_epoch, res.stopped_epoch) == (0, 0)
        np.testing.assert_array_equal(res.best_params.theta, init.theta)

    def test_deterministic_histories(self):
        rng = np.random.default_rng(50)
        train_data, val_data = tiny_problem(rng)
        a = train(train_data, val_data, quick_config())
        b = train(train_data, val_data, quick_config())
        assert a.history == b.history
        np.testing.assert_array_equal(a.best_params.theta, b.best_params.theta)

    def test_best_metric_is_history_max(self):
        rng = np.random.default_rng(51)
        train_data, val_data = tiny_problem(rng)
        res = train(train_data, val_data, quick_config(lam=1.0, max_epochs=8))
        assert res.best_val_metric == max(m for _, _, m in res.history)

    def test_best_snapshot_attains_best_metric(self):
        rng = np.random.default_rng(52)
        train_data, val_data = tiny_problem(rng)
        res = train(train_data, val_data, quick_config(lam=1.0, max_epochs=8))
        metric = validation_metric("proposed", res.best_params, val_data)
        assert metric == res.best_val_metric

    def test_only_the_step_stack_holds_a_gradient(self, monkeypatch):
        stacks = []

        class Recorded(training.AutoencoderStack):
            def __init__(self, *args):
                super().__init__(*args)
                stacks.append(self)

        monkeypatch.setattr(training, "AutoencoderStack", Recorded)
        train(*tiny_problem(np.random.default_rng(53)), quick_config(lam=1.0))
        step, evaluation = stacks
        assert "grad" in vars(step)
        assert "grad" not in vars(evaluation) and "grads" not in vars(evaluation)

    def test_lambda_zero_ignores_set_contents(self):
        # with no ranking term the training sets cannot influence the
        # parameter trajectory (patience disabled, fixed epoch count)
        rng = np.random.default_rng(53)
        train_data, val_data = tiny_problem(rng)
        shuffled = weak_data([s[::-1] * 5.0 for s in set_list(train_data)],
                             train_data.normals)
        config = quick_config(lam=0.0, max_epochs=4)
        a = train(train_data, val_data, config)
        b = train(shuffled, val_data, config)
        np.testing.assert_array_equal(a.best_params.theta, b.best_params.theta)

    def test_mil_improves_training_surrogate(self):
        # mil maximizes the pairwise surrogate, so the selected snapshot
        # should rank the planted outliers above normals at least as well
        # as the untrained network does
        rng = np.random.default_rng(54)
        train_data, val_data = tiny_problem(rng)
        config = quick_config(mode="mil", max_epochs=30, patience=None)
        res = train(train_data, val_data, config)
        init = ae_init(2, config.rng_seed, hidden=8, code=2)
        before = -mode_objective("mil", init, train_data, 1.0)
        after = -mode_objective("mil", res.best_params, train_data, 1.0)
        assert after >= before

    def test_empty_training_normals_raise(self):
        # the TrainData that train would take cannot be built
        with pytest.raises(DataError, match="normals must have at least one row"):
            weak_data([np.ones((2, 2))], np.zeros((0, 2)))

    def test_modes_requiring_sets_raise_without_them(self):
        rng = np.random.default_rng(56)
        train_data, val_data = tiny_problem(rng)
        empty = weak_data([], train_data.normals)
        with pytest.raises(ValueError, match="sets"):
            train(empty, val_data, quick_config(mode="sae"))


def ragged_problem(rng, dim=3, shift=2.5):
    """Training/validation data with sets of 1-5 instances, so passes differ in row count.

    Each set's first member is shifted by `shift`; a small shift keeps the
    validation metric from saturating at once.
    """
    def make(n_sets, n_normals):
        sets = []
        for _ in range(n_sets):
            members = rng.normal(0.0, 0.3, size=(int(rng.integers(1, 6)), dim))
            members[0] += shift
            sets.append(members)
        return weak_data(sets, rng.normal(0.0, 0.3, size=(n_normals, dim)))

    return make(7, 30), make(3, 12)


def reference_train(train_data, val_data, config):
    """train() restated with the allocating public functions, and the 2-d
    reference gradient and the textbook Adam in place of the kernel's
    stacked passes and in-place update.

    Every pass gets fresh arrays and a fresh parameter object, and Adam
    returns new vectors.  Each minibatch is a list of sets built
    from make_batches' indices.  Returns (history, best_theta,
    stopped_epoch).
    """
    normals = train_data.normals
    sets = set_list(train_data)
    init = ae_init(normals.shape[1], config.rng_seed, hidden=config.hidden_dim,
                   code=config.code_dim, activation=config.activation)
    dims = init.dims
    theta = init.theta
    m, v, t = np.zeros_like(theta), np.zeros_like(theta), 0
    rng = np.random.default_rng(config.rng_seed)

    def params_of(theta):
        return ae_from_vector(theta, dims, activation=config.activation)

    def evaluate(epoch, theta):
        p = params_of(theta)
        return (epoch,
                mode_objective(config.mode, p, train_data, config.lam),
                validation_metric(config.mode, p, val_data))

    history = [evaluate(0, theta)]
    best_metric, best_theta, best_epoch = history[0][2], theta.copy(), 0
    for epoch in range(1, config.max_epochs + 1):
        for set_ids, normal_ids in make_batches(len(sets), len(normals), config, rng):
            grad = reference.objective_grad(params_of(theta), [sets[i] for i in set_ids],
                                            normals[normal_ids], config.lam, mode=config.mode)
            t += 1
            theta, m, v = reference.adam(theta, grad, m, v, t, config)
        history.append(evaluate(epoch, theta))
        metric = history[-1][2]
        if metric >= best_metric:
            if metric > best_metric:
                best_metric, best_epoch = metric, epoch
            best_theta = theta.copy()
        if epoch - best_epoch >= config.patience:
            break
    return history, best_theta, epoch


class ForcedOverlap:
    """Forces the training kernel to evaluate each epoch on the calling
    thread (overlap False) or on its helper thread (True), whatever the
    problem's size and the machine; subclasses repeat the tests with True."""

    overlap = False

    @pytest.fixture(autouse=True)
    def force_overlap(self, monkeypatch):
        monkeypatch.setattr(training, "_train_members",
                            functools.partial(training._train_members, overlap=self.overlap))


class TestTrainMatchesAllocatingReference(ForcedOverlap):
    """train() runs the member-stacked kernel with one member; its results
    must equal the allocating functions' bit for bit."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("mode", ["proposed", "ae", "mil", "sae"])
    def test_history_and_best_params_identical(self, mode, activation):
        rng = np.random.default_rng(61)
        train_data, val_data = ragged_problem(rng)
        # the default layer widths: at tiny widths BLAS results do not
        # depend on a row's position, so a change of row sets would not show
        config = quick_config(mode=mode, activation=activation, lam=0.5,
                              max_epochs=60, patience=3, batch_sets=3,
                              batch_normals=11, hidden_dim=128, code_dim=16)
        res = train(train_data, val_data, config)
        history, best_theta, stopped = reference_train(train_data, val_data, config)
        assert res.stopped_epoch < config.max_epochs  # early stopping fired
        assert res.stopped_epoch == stopped
        assert res.stop_reason == "patience"
        assert len(res.history) == len(history)
        for got, want in zip(res.history, history):
            assert got == want
        assert res.best_val_metric == max(m for _, _, m in history)
        assert res.history[res.best_epoch][2] == res.best_val_metric
        # patience counts from the first epoch that reached the best metric
        assert res.best_epoch == next(e for e, _, m in history if m == res.best_val_metric)
        np.testing.assert_array_equal(res.best_params.theta, best_theta)


class TestTrainMatchesAllocatingReferenceOverlapped(TestTrainMatchesAllocatingReference):
    overlap = True


class TestGridMatchesAllocatingReference(ForcedOverlap):
    """grid_search trains its values in lockstep; each must still equal the
    allocating reference loop for its lambda bit for bit."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("mode", ["proposed", "ae", "mil", "sae"])
    def test_every_member_identical(self, mode, activation):
        rng = np.random.default_rng(64)
        train_data, val_data = ragged_problem(rng, shift=0.6)
        grid = (1e-2, 3.0, 0.0, 0.5, 30.0)  # lambda 0 in the middle
        config = quick_config(mode=mode, activation=activation, lambda_grid=grid,
                              max_epochs=60, patience=3, batch_sets=3,
                              batch_normals=11, hidden_dim=128, code_dim=16)
        results = grid_search(train_data, val_data, config)
        assert [lam for lam, _ in results] == list(grid)
        stops = set()
        for lam, res in results:
            history, best_theta, stopped = reference_train(
                train_data, val_data, replace(config, lam=lam))
            assert res.chosen_lambda == lam
            assert res.stopped_epoch == stopped
            assert res.stop_reason == ("patience" if stopped < config.max_epochs
                                       else "max_epochs")
            assert res.history == history
            assert res.best_val_metric == max(m for _, _, m in history)
            assert res.history[res.best_epoch][2] == res.best_val_metric
            np.testing.assert_array_equal(res.best_params.theta, best_theta)
            stops.add(stopped)
        if mode in ("proposed", "sae"):
            # members left the stack at different epochs
            assert len(stops) > 1
        assert max(stops) < config.max_epochs

    def test_long_grid_runs_in_bounded_groups(self, monkeypatch):
        rng = np.random.default_rng(64)
        train_data, val_data = ragged_problem(rng)
        grid = tuple(0.25 * i for i in range(training._MAX_MEMBERS + 4))
        config = quick_config(lambda_grid=grid, max_epochs=6, patience=2,
                              batch_sets=3, batch_normals=11)
        groups = []
        kernel = training._train_members

        def spy(train_data, val_data, config, lams, plain, **kwargs):
            groups.append(list(lams))
            return kernel(train_data, val_data, config, lams, plain, **kwargs)

        monkeypatch.setattr(training, "_train_members", spy)
        results = grid_search(train_data, val_data, config)
        assert [len(g) for g in groups] == [1, training._MAX_MEMBERS, 3]
        assert groups[0] == [0.0]
        assert [lam for lam, _ in results] == list(grid)
        for lam, res in results:
            direct = train(train_data, val_data, replace(config, lam=lam))
            assert res.history == direct.history
            assert res.stopped_epoch == direct.stopped_epoch
            np.testing.assert_array_equal(res.best_params.theta, direct.best_params.theta)


class TestGridMatchesAllocatingReferenceOverlapped(TestGridMatchesAllocatingReference):
    overlap = True


class TestTwoTracks:
    """The shared plain run stops each validation track on its own."""

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("seed, shift, stops", [(68, 0.6, (11, 3)), (64, 1.0, (3, 6))])
    def test_each_track_equals_its_standalone_training(self, overlap, seed, shift, stops):
        train_data, val_data = ragged_problem(np.random.default_rng(seed), shift=shift)
        config = quick_config(mode="ae", max_epochs=60, patience=3, batch_sets=3,
                              batch_normals=11, hidden_dim=128, code_dim=16)
        runs = training._train_members(train_data, val_data, config, [0.0], True,
                                       tracks=("val_auc", "val_set_auc"), overlap=overlap)
        # one track keeps going after the other has stopped
        assert tuple(run.stopped_epoch for (run,) in runs) == stops
        for (got,), mode in zip(runs, ("ae", "proposed")):
            want = train(train_data, val_data, replace(config, mode=mode, lam=0.0))
            assert got.history == want.history
            assert (got.best_val_metric, got.best_epoch) == (want.best_val_metric,
                                                             want.best_epoch)
            assert (got.stopped_epoch, got.stop_reason) == (want.stopped_epoch, "patience")
            np.testing.assert_array_equal(got.best_params.theta, want.best_params.theta)


class TestValidationWidth:
    @pytest.mark.parametrize("max_epochs", [0, 3])
    @pytest.mark.parametrize("entry", [train, grid_search])
    def test_mismatch_rejected_before_any_step(self, monkeypatch, entry, max_epochs):
        rng = np.random.default_rng(71)
        train_data, _ = tiny_problem(rng)
        _, val_data = ragged_problem(rng)  # 3 features against training's 2
        steps = []
        monkeypatch.setattr(training, "_step_grad", lambda *args: steps.append(args))
        config = quick_config(max_epochs=max_epochs, lambda_grid=(0.0, 1.0))
        with pytest.raises(ShapeError,
                           match="validation data has 3 features but training data has 2"):
            entry(train_data, val_data, config)
        assert steps == []


class TestOverlappedEvaluation:
    """The kernel's helper thread: errors, joining, and when it is used."""

    def test_error_reaches_the_caller_and_the_helper_is_joined(self, monkeypatch):
        rng = np.random.default_rng(65)
        train_data, val_data = tiny_problem(rng)
        error = RuntimeError("metric failed at epoch 3")
        threads, metric = [], training._metric

        def failing(*args):
            # one member with one track: one call per epoch
            threads.append(threading.current_thread())
            if len(threads) == 4:
                raise error
            return metric(*args)

        monkeypatch.setattr(training, "_metric", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            training._train_members(train_data, val_data, quick_config(max_epochs=8),
                                    [1.0], False, overlap=True)
        assert caught.value is error
        assert threading.active_count() == before
        assert len(threads) == 4 and threading.main_thread() not in threads

    def test_helper_is_joined_on_return(self):
        rng = np.random.default_rng(66)
        train_data, val_data = tiny_problem(rng)
        before = threading.active_count()
        (result,), = training._train_members(train_data, val_data, quick_config(),
                                             [1.0], False, overlap=True)
        assert threading.active_count() == before
        assert result.history == train(train_data, val_data, quick_config()).history

    def test_bits_hold_under_frequent_thread_switches(self):
        # the helper and the caller share the parameter copy between joins;
        # switching threads every microsecond would expose an unjoined read
        train_data, val_data = ragged_problem(np.random.default_rng(68))
        config = quick_config(max_epochs=30, patience=3, batch_sets=3, batch_normals=11,
                              hidden_dim=128, code_dim=16)
        lams = [1e-2, 0.5, 3.0, 30.0]
        inline = training._train_members(train_data, val_data, config, lams, False,
                                         overlap=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            overlapped = training._train_members(train_data, val_data, config, lams, False,
                                                 overlap=True)
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(inline[0], overlapped[0]):
            assert (got.history, got.stopped_epoch) == (want.history, want.stopped_epoch)
            np.testing.assert_array_equal(got.best_params.theta, want.best_params.theta)

    @pytest.fixture
    def spare_cpu(self, monkeypatch):
        """Two CPUs and a one-thread BLAS, so that only the size rule decides."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(blas, "num_threads", lambda: 1)

    def test_large_evaluation_overlaps_when_a_cpu_is_spare(self, spare_cpu):
        assert training._overlap_pays(training._MIN_OVERLAP_WORK)

    @pytest.mark.parametrize("threads", [2, None])
    def test_multithreaded_or_unknown_blas_does_not_overlap(self, spare_cpu, monkeypatch,
                                                            threads):
        monkeypatch.setattr(blas, "num_threads", lambda: threads)
        assert not training._overlap_pays(10 * training._MIN_OVERLAP_WORK)

    def test_one_cpu_does_not_overlap(self, spare_cpu, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not training._overlap_pays(10 * training._MIN_OVERLAP_WORK)

    def test_small_trainings_fall_below_the_size_rule(self, spare_cpu):
        # the largest test problem with grid_search's largest group, and a
        # one-member run on the synthetic data, at the default widths
        ds, split = gen_synthetic(np.random.default_rng(0))
        synthetic = materialize(ds, split)[:2]
        for (train_data, val_data), count in ((ragged_problem(np.random.default_rng(64)), 5),
                                              (synthetic, 1)):
            rows = sum(len(x) for x in (train_data.normals, train_data.set_rows,
                                        val_data.normals, val_data.set_rows))
            dim = train_data.normals.shape[1]
            work = training._evaluation_work([dim, 128, 16, 128, dim], count, rows)
            assert not training._overlap_pays(work)
        # the benchmark's fixed-lambda training: 32 features, about 3,000 rows
        assert training._overlap_pays(training._evaluation_work([32, 128, 16, 128, 32], 1, 3000))

    def test_blas_thread_count_is_read_or_unknown(self):
        threads = blas.num_threads()
        assert threads is None or (isinstance(threads, int) and threads >= 1)

    def test_import_loads_neither_threads_nor_ctypes_helper(self):
        code = ("import sys, inexad; "
                "print([m for m in ('concurrent.futures', 'inexad.blas') if m in sys.modules])")
        src = os.path.dirname(os.path.dirname(training.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "[]"


class TestStopReason:
    def test_patience(self):
        rng = np.random.default_rng(67)
        train_data, val_data = tiny_problem(rng)
        res = train(train_data, val_data, quick_config(max_epochs=50, patience=2))
        assert res.stopped_epoch < 50 and res.stop_reason == "patience"

    @pytest.mark.parametrize("patience", [None, 1000])
    def test_max_epochs(self, patience):
        rng = np.random.default_rng(67)
        train_data, val_data = tiny_problem(rng)
        res = train(train_data, val_data, quick_config(max_epochs=6, patience=patience))
        assert (res.stopped_epoch, res.stop_reason) == (6, "max_epochs")

    def test_no_epochs(self):
        rng = np.random.default_rng(67)
        train_data, val_data = tiny_problem(rng)
        res = train(train_data, val_data, quick_config(max_epochs=0))
        assert (res.stopped_epoch, res.stop_reason) == (0, "max_epochs")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("overlap", [False, True])
    def test_non_finite_adam_state(self, overlap):
        # at this λ the first step's squared gradient overflows Adam's second moment
        rng = np.random.default_rng(67)
        train_data, val_data = tiny_problem(rng)
        config = quick_config(max_epochs=6)
        (huge, finite), = training._train_members(train_data, val_data, config,
                                                  [1e170, 1.0], False, overlap=overlap)
        init = ae_init(2, config.rng_seed, hidden=8, code=2)
        assert [epoch for epoch, _, _ in huge.history] == [0]
        assert (huge.stopped_epoch, huge.best_epoch, huge.stop_reason) == (0, 0, "non-finite")
        np.testing.assert_array_equal(huge.best_params.theta, init.theta)
        # the member beside it trains as it would alone
        want = train(train_data, val_data, replace(config, lam=1.0))
        assert finite.history == want.history
        assert (finite.stopped_epoch, finite.stop_reason) == (6, "max_epochs")
        np.testing.assert_array_equal(finite.best_params.theta, want.best_params.theta)


class TestValidationMetric:
    def test_weak_label_modes_use_set_maxima(self):
        rng = np.random.default_rng(57)
        params = small_ae(rng, dim=2)
        _, val_data = tiny_problem(rng)
        from inexad.metrics import empirical_auc, empirical_inexact_auc

        n_scores = score_batch(params, val_data.normals)
        per_set = [score_batch(params, s) for s in set_list(val_data)]
        assert validation_metric("proposed", params, val_data) == empirical_inexact_auc(
            per_set, n_scores)
        assert validation_metric("ae", params, val_data) == empirical_auc(
            np.concatenate(per_set), n_scores)

    def test_unknown_mode(self):
        rng = np.random.default_rng(57)
        _, val_data = tiny_problem(rng)
        with pytest.raises(ValueError, match="unknown mode 'nope'"):
            validation_metric("nope", small_ae(rng, dim=2), val_data)


class TestLambdaSelection:
    def test_single_grid_value_equals_train(self):
        rng = np.random.default_rng(58)
        train_data, val_data = tiny_problem(rng)
        config = quick_config(lambda_grid=(0.1,), max_epochs=3)
        picked = best_of_grid(grid_search(train_data, val_data, config))
        direct = train(train_data, val_data, replace(config, lam=0.1))
        assert picked.chosen_lambda == 0.1
        np.testing.assert_array_equal(picked.best_params.theta, direct.best_params.theta)

    def test_selects_grid_argmax_with_smaller_tiebreak(self):
        rng = np.random.default_rng(59)
        train_data, val_data = tiny_problem(rng)
        config = quick_config(lambda_grid=(0.0, 0.1, 1.0), max_epochs=3)
        results = grid_search(train_data, val_data, config)
        picked = best_of_grid(results)
        best_metric = max(res.best_val_metric for _, res in results)
        assert picked.best_val_metric == best_metric
        first_best = next(lam for lam, res in results
                          if res.best_val_metric == best_metric)
        assert picked.chosen_lambda == first_best

    def test_best_of_grid_first_maximum_wins(self):
        def result(metric):
            return TrainResult(best_params=None, best_val_metric=metric,
                               history=[], stopped_epoch=0)

        results = [(10.0, result(0.5)), (0.0, result(0.75)),
                   (1.0, result(0.75)), (2.0, result(0.25))]
        assert best_of_grid(results) is results[1][1]


class TestHistory:
    ROWS = [(0, 1.5, 0.25), (1, -0.0, 1.0), (2, math.inf, 0.5)]

    def test_reads_as_a_list_of_its_rows(self):
        history = History()
        assert not history and history == [] and len(history) == 0
        for row in self.ROWS:
            history.append(row)
        assert history and len(history) == 3
        assert history == self.ROWS and self.ROWS == history and list(history) == self.ROWS
        assert (history[-1], history[1:], history[::-2]) == (
            self.ROWS[-1], self.ROWS[1:], self.ROWS[::-2])
        assert [type(v) for v in history[0]] == [int, float, float]
        assert math.copysign(1.0, history[1][1]) == -1.0  # the doubles' bits are kept
        with pytest.raises(IndexError):
            history[3]
        assert history != self.ROWS[:2] and history != [list(row) for row in self.ROWS]
        assert history != "abc" and history != 3
        assert pickle.loads(pickle.dumps(history)) == history

    def test_append_takes_three_values(self):
        with pytest.raises(ValueError):
            History().append((0, 1.0))

    def test_training_books_a_history(self):
        train_data, val_data = tiny_problem(np.random.default_rng(5))
        result = train(train_data, val_data, quick_config(max_epochs=2))
        assert type(result.history) is History and len(result.history) == 3
