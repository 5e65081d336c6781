"""Neural kernels: shape laws, gradient checks, loss formula fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trafficflow import nn

from conftest import central_diff, rel_err


def _margin_sample(build, min_margin=1e-3, max_tries=50):
    """Call ``build(attempt)`` until its returned pre-activations clear the
    relu kink by ``min_margin`` (keeps finite differences meaningful)."""
    for attempt in range(max_tries):
        payload, preacts = build(attempt)
        if min(np.min(np.abs(z)) for z in preacts) > min_margin:
            return payload
    raise AssertionError("could not sample inputs away from activation kinks")


# ---------------------------------------------------------------------------
# convolution


def test_conv_shapes_match_architecture_table():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(1, 9, 5, 1))
    w1 = rng.normal(size=(3, 3, 1, 64))
    out1, _ = nn.conv2d_forward(x, w1, np.zeros(64))
    assert out1.shape == (1, 7, 3, 64)
    w2 = rng.normal(size=(3, 3, 64, 64))
    out2, _ = nn.conv2d_forward(out1, w2, np.zeros(64))
    assert out2.shape == (1, 5, 1, 64)


def test_conv_identity_filter_extracts_center():
    x = np.arange(9.0).reshape(1, 3, 3, 1)
    w = np.zeros((3, 3, 1, 1))
    w[1, 1, 0, 0] = 1.0
    out, _ = nn.conv2d_forward(x, w, np.zeros(1), activation="linear")
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == x[0, 1, 1, 0]


def test_conv_zero_grad_out_gives_zero_grads():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 6, 5, 2))
    w = rng.normal(size=(3, 3, 2, 4))
    out, cache = nn.conv2d_forward(x, w, rng.normal(size=4))
    gx, gw, gb = nn.conv2d_backward(np.zeros_like(out), cache)
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_one_by_one_filter_weight_gradient_is_correlation():
    # with a 1x1 filter and linear activation, dL/dw = sum over positions of
    # input * grad_out (hand expansion of the forward map)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 4, 4, 1))
    w = rng.normal(size=(1, 1, 1, 1))
    out, cache = nn.conv2d_forward(x, w, np.zeros(1), activation="linear")
    grad_out = rng.normal(size=out.shape)
    _, gw, gb = nn.conv2d_backward(grad_out, cache)
    assert gw[0, 0, 0, 0] == pytest.approx(float(np.sum(x[..., 0] * grad_out[..., 0])), rel=1e-12)
    assert gb[0] == pytest.approx(float(np.sum(grad_out)), rel=1e-12)


@pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid"])
@pytest.mark.parametrize("seed", range(4))
def test_conv_gradients_match_finite_differences(activation, seed):
    def build(attempt):
        rng = np.random.default_rng(1000 * seed + attempt)
        x = rng.normal(size=(2, 9, 5, 2))
        w = rng.normal(size=(3, 3, 2, 4)) * 0.7
        b = rng.normal(size=4)
        _, cache = nn.conv2d_forward(x, w, b, activation)
        return (x, w, b, rng), [cache.z]

    x, w, b, rng = _margin_sample(build)
    out, cache = nn.conv2d_forward(x, w, b, activation)
    coef = rng.normal(size=out.shape)

    def objective():
        y, _ = nn.conv2d_forward(x, w, b, activation)
        return float(np.sum(y * coef))

    gx, gw, gb = nn.conv2d_backward(coef, cache)
    assert rel_err(gx, central_diff(objective, x)) < 1e-6
    assert rel_err(gw, central_diff(objective, w)) < 1e-6
    assert rel_err(gb, central_diff(objective, b)) < 1e-6


@given(
    batch=st.integers(1, 3),
    height=st.integers(3, 10),
    width=st.integers(3, 10),
    k=st.integers(1, 3),
    channels=st.integers(1, 3),
    filters=st.integers(1, 4),
)
def test_conv_shape_law_property(batch, height, width, k, channels, filters):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(batch, height, width, channels))
    w = rng.normal(size=(k, k, channels, filters))
    out, _ = nn.conv2d_forward(x, w, np.zeros(filters))
    assert out.shape == (batch, height - k + 1, width - k + 1, filters)


@given(
    batch=st.integers(0, 3),
    height=st.integers(3, 8),
    width=st.integers(3, 8),
    k=st.integers(1, 3),
    channels=st.integers(1, 3),
    layout=st.sampled_from(["contiguous", "transposed", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_patches_equal_sliding_window_view(batch, height, width, k, channels, layout, seed):
    rng = np.random.default_rng(seed)
    if layout == "transposed":
        x = rng.normal(size=(channels, width, height, batch)).transpose(3, 2, 1, 0)
    elif layout == "strided":
        x = rng.normal(size=(batch, 2 * height, width + 1, channels))[:, ::2, 1:]
    else:
        x = rng.normal(size=(batch, height, width, channels))
    assert x.shape == (batch, height, width, channels)
    w = rng.normal(size=(k, k, channels, 2))
    _, cache = nn.conv2d_forward(x, w, np.zeros(2))
    # patches in the weights' (k, k, C) order
    want = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    want = want.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * channels)
    assert cache.cols.shape == want.shape
    assert cache.cols.tobytes() == np.ascontiguousarray(want).tobytes()
    # the weight matrix is the weights themselves, not a per-call copy
    assert np.shares_memory(cache.w_mat, w)


def test_conv_param_grads_equal_backward():
    rng = np.random.default_rng(5)
    for activation in ("linear", "relu", "sigmoid"):
        x = rng.normal(size=(4, 9, 5, 3))
        _, cache = nn.conv2d_forward(x, rng.normal(size=(3, 3, 3, 6)), rng.normal(size=6), activation)
        grad_out = rng.normal(size=cache.out.shape)
        _, gw, gb = nn.conv2d_backward(grad_out, cache)
        pw, pb = nn.conv2d_param_grads(grad_out, cache)
        assert pw.tobytes() == gw.tobytes() and pw.shape == gw.shape
        assert pb.tobytes() == gb.tobytes() and pb.shape == gb.shape
    with pytest.raises(nn.ShapeMismatchError):
        nn.conv2d_param_grads(grad_out[:, :-1], cache)


def test_conv_shape_mismatch_errors():
    rng = np.random.default_rng(3)
    with pytest.raises(nn.ShapeMismatchError, match="channels"):
        nn.conv2d_forward(rng.normal(size=(1, 9, 5, 2)), rng.normal(size=(3, 3, 1, 4)), np.zeros(4))
    with pytest.raises(nn.ShapeMismatchError, match="smaller than filter"):
        nn.conv2d_forward(rng.normal(size=(1, 2, 2, 1)), rng.normal(size=(3, 3, 1, 4)), np.zeros(4))


# ---------------------------------------------------------------------------
# dense


def test_dense_chain_matches_architecture_table():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 320))
    h, _ = nn.dense_forward(x, rng.normal(size=(320, 32)), np.zeros(32))
    assert h.shape == (1, 32)
    out, _ = nn.dense_forward(h, rng.normal(size=(32, 1)), np.zeros(1), activation="sigmoid")
    assert out.shape == (1, 1)


def test_dense_identity_is_identity():
    x = np.array([[0.3, -1.2, 4.5]])
    out, _ = nn.dense_forward(x, np.eye(3), np.zeros(3), activation="linear")
    np.testing.assert_array_equal(out, x)


@pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid"])
@pytest.mark.parametrize("seed", range(4))
def test_dense_gradients_match_finite_differences(activation, seed):
    def build(attempt):
        rng = np.random.default_rng(2000 * seed + attempt)
        x = rng.normal(size=(3, 7))
        w = rng.normal(size=(7, 4))
        b = rng.normal(size=4)
        _, cache = nn.dense_forward(x, w, b, activation)
        return (x, w, b, rng), [cache.z]

    x, w, b, rng = _margin_sample(build)
    out, cache = nn.dense_forward(x, w, b, activation)
    coef = rng.normal(size=out.shape)

    def objective():
        y, _ = nn.dense_forward(x, w, b, activation)
        return float(np.sum(y * coef))

    gx, gw, gb = nn.dense_backward(coef, cache)
    assert rel_err(gx, central_diff(objective, x)) < 1e-6
    assert rel_err(gw, central_diff(objective, w)) < 1e-6
    assert rel_err(gb, central_diff(objective, b)) < 1e-6


# ---------------------------------------------------------------------------
# LSTM


def test_lstm_zero_parameters_give_zero_state():
    # sigmoid(0) = 0.5 but the candidate tanh(0) = 0, so c = 0 and h = 0
    xs = np.array([[[0.7, -0.3, 0.1], [-0.2, 0.9, 0.4]]])
    hs, cache = nn.lstm_forward(xs, np.zeros((3, 16)), np.zeros((4, 16)), np.zeros(16))
    np.testing.assert_array_equal(hs, np.zeros((1, 2, 4)))
    np.testing.assert_array_equal(cache.steps[1].c_prev, np.zeros((1, 4)))
    np.testing.assert_array_equal(cache.steps[1].tanh_c, np.zeros((1, 4)))


def test_lstm_single_unit_matches_scalar_hand_computation():
    # one unit, one input, two steps from zero state; every quantity is
    # recomputed here with plain math, so the second step checks the
    # recurrence on a nonzero h_prev / c_prev
    wx = np.array([[0.5, -0.3, 0.8, 0.2]])
    wh = np.array([[0.1, 0.4, -0.2, 0.3]])
    b = np.array([0.05, -0.1, 0.2, 0.0])

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def step(x, h_prev, c_prev):
        zi = wx[0, 0] * x + wh[0, 0] * h_prev + b[0]
        zf = wx[0, 1] * x + wh[0, 1] * h_prev + b[1]
        zg = wx[0, 2] * x + wh[0, 2] * h_prev + b[2]
        zo = wx[0, 3] * x + wh[0, 3] * h_prev + b[3]
        c = sig(zf) * c_prev + sig(zi) * math.tanh(zg)
        return sig(zo) * math.tanh(c), c

    h0, c0 = step(0.6, 0.0, 0.0)
    h1, c1 = step(-0.9, h0, c0)
    assert h0 != 0.0 and c0 != 0.0

    hs, cache = nn.lstm_forward(np.array([[[0.6], [-0.9]]]), wx, wh, b)
    assert hs[0, 0, 0] == pytest.approx(h0, abs=1e-15)
    assert cache.steps[1].h_prev[0, 0] == pytest.approx(h0, abs=1e-15)
    assert cache.steps[1].c_prev[0, 0] == pytest.approx(c0, abs=1e-15)
    assert cache.steps[1].tanh_c[0, 0] == pytest.approx(math.tanh(c1), abs=1e-15)
    assert hs[0, 1, 0] == pytest.approx(h1, abs=1e-15)


def test_lstm_gates_equal_sigmoid_of_unscaled_preactivations():
    # lstm_forward takes i/f/o from one tanh of halved pre-activations.  With
    # one input the pre-activation x * w + b rounds once, so the unscaled one
    # is recomputed exactly here; far out both sides saturate at 0 or 1.
    rng = np.random.default_rng(15)
    batch, hidden = 256, 6
    xs = rng.normal(scale=3.0, size=(batch, 1, 1))
    wx = rng.normal(scale=2.0, size=(1, 4 * hidden))
    wh = rng.normal(size=(hidden, 4 * hidden))
    biases = [rng.normal(scale=4.0, size=4 * hidden)]
    biases += [np.full(4 * hidden, v) for v in (0.0, 36.0, -36.0, 745.0, -745.0, 800.0, -800.0, 1e3, -1e3)]
    for b in biases:
        with np.errstate(all="raise"):
            _, cache = nn.lstm_forward(xs, wx, wh, b)
            z = xs[:, 0] @ wx + b
            want = nn.sigmoid(z)
        step = cache.steps[0]
        for name, gate in (("i", 0), ("f", 1), ("o", 3)):
            cols = slice(gate * hidden, (gate + 1) * hidden)
            assert np.max(np.abs(getattr(step, name) - want[:, cols])) <= 2.0**-52, name
        np.testing.assert_array_equal(step.g, np.tanh(z[:, 2 * hidden : 3 * hidden]))


@pytest.mark.parametrize("batch", [1, 31, 32, 33, 256])
def test_lstm_hidden_gives_lstm_forward_hidden_states_bit_for_bit(batch):
    # the cache-free pass runs lstm_forward's step loop on one-step buffers;
    # batches each side of _MIN_ROWS take both of _matmul's paths, and the
    # second layer reads the first's hidden states, as in the model
    rng = np.random.default_rng(batch)
    xs = rng.normal(size=(batch, 5, 9))
    layer1, layer2 = ([rng.normal(scale=0.5, size=shape) for shape in ((d, 80), (20, 80), (80,))] for d in (9, 20))
    hs1, _ = nn.lstm_forward(xs, *layer1)
    hs2, _ = nn.lstm_forward(hs1, *layer2)
    every = nn.lstm_hidden(xs, *layer1)
    last = nn.lstm_hidden(every, *layer2, last=True)
    assert every.shape == hs1.shape and last.shape == (batch, 20)
    assert np.array_equal(every.view(np.int64), hs1.view(np.int64))
    assert np.array_equal(last.view(np.int64), hs2[:, -1].view(np.int64))
    assert np.array_equal(nn.lstm_hidden(xs, *layer1, last=True).view(np.int64), hs1[:, -1].view(np.int64))


@pytest.mark.parametrize("seed", range(4))
def test_lstm_bptt_gradients_match_finite_differences(seed):
    # batch 1 is the node path; one step runs no recurrent product
    for batch, steps in ((2, 5), (1, 5), (2, 1)):
        rng = np.random.default_rng(3000 + seed)
        dim, hidden = 3, 4
        xs = rng.normal(size=(batch, steps, dim))
        wx = rng.normal(size=(dim, 4 * hidden)) * 0.6
        wh = rng.normal(size=(hidden, 4 * hidden)) * 0.6
        b = rng.normal(size=4 * hidden) * 0.3
        hs, cache = nn.lstm_forward(xs, wx, wh, b)
        coef = rng.normal(size=hs.shape)

        def objective():
            out, _ = nn.lstm_forward(xs, wx, wh, b)
            return float(np.sum(out * coef))

        gxs, gwx, gwh, gb = nn.lstm_backward(coef, cache)
        assert rel_err(gxs, central_diff(objective, xs)) < 1e-5, (batch, steps)
        assert rel_err(gwx, central_diff(objective, wx)) < 1e-5, (batch, steps)
        assert rel_err(gwh, central_diff(objective, wh)) < 1e-5, (batch, steps)
        assert rel_err(gb, central_diff(objective, b)) < 1e-5, (batch, steps)


# ---------------------------------------------------------------------------
# loss


def test_loss_zero_when_predictions_equal_targets():
    values = np.array([0.1, 0.5, 0.9])
    assert nn.loss_forward(nn.LossBatch(values, values)) == 0.0


@pytest.mark.parametrize("targets", [[0.5, np.nan], [np.nan], [-0.1, 0.5], [0.5, 1.1], [-0.1, 1.1]])
def test_loss_batch_refuses_targets_outside_the_unit_interval(targets):
    with pytest.raises(ValueError, match=r"^targets must lie in \[0, 1\]$"):
        nn.LossBatch(np.full(len(targets), 0.5), np.array(targets))


def test_loss_light_traffic_example():
    # Y > 0.5 disables the regularizer: sqrt(0.01) / 1 = 0.1
    batch = nn.LossBatch(np.array([0.8]), np.array([0.9]))
    assert nn.loss_forward(batch) == pytest.approx(0.1, abs=1e-12)


def test_loss_heavy_traffic_example():
    # Y <= 0.5 adds |X - Y|: sqrt(0.01 + 0.1) / 1
    batch = nn.LossBatch(np.array([0.5]), np.array([0.4]))
    assert nn.loss_forward(batch) == pytest.approx(math.sqrt(0.11), abs=1e-12)


def test_loss_weight_switches_exactly_at_half():
    at_half = nn.LossBatch(np.array([0.6]), np.array([0.5]))
    assert nn.loss_forward(at_half) == pytest.approx(math.sqrt(0.01 + 0.1), abs=1e-12)
    above_half = nn.LossBatch(np.array([0.6]), np.array([0.5 + 1e-9]))
    assert nn.loss_forward(above_half) == pytest.approx(
        math.sqrt((0.6 - (0.5 + 1e-9)) ** 2), abs=1e-12
    )


def test_loss_gradient_single_element_example():
    batch = nn.LossBatch(np.array([0.5]), np.array([0.4]))
    expected = (2 * 0.1 + 1.0) / (2 * 1 * math.sqrt(0.11))
    grad = nn.loss_backward(batch)
    assert grad[0] == pytest.approx(expected, rel=1e-10)


def test_loss_gradient_reduces_to_plain_euclidean_when_targets_light():
    rng = np.random.default_rng(7)
    preds = rng.uniform(0, 1, size=12)
    targets = rng.uniform(0.51, 1.0, size=12)
    batch = nn.LossBatch(preds, targets)
    n = batch.n
    value = nn.loss_forward(batch)
    expected = (preds - targets) / (n**2 * value)
    np.testing.assert_allclose(nn.loss_backward(batch), expected, rtol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_loss_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(4000 + seed)
    targets = rng.uniform(0, 1, size=16)
    preds = rng.uniform(0, 1, size=16)
    # keep away from the |.| kink, as the derivative is one-sided there
    near = np.abs(preds - targets) < 1e-3
    preds[near] += 5e-3

    def objective():
        return nn.loss_forward(nn.LossBatch(preds, targets))

    grad = nn.loss_backward(nn.LossBatch(preds, targets))
    assert rel_err(grad, central_diff(objective, preds)) < 1e-6


def test_loss_divides_by_n_outside_the_sqrt():
    preds = np.array([0.5, 0.2])
    targets = np.array([0.4, 0.8])
    total = (0.1) ** 2 + 1.0 * 0.1 + (0.6) ** 2  # second target is light (0.8 > 0.5)
    assert nn.loss_forward(nn.LossBatch(preds, targets)) == pytest.approx(math.sqrt(total) / 2, abs=1e-12)


def test_loss_errors():
    with pytest.raises(nn.EmptyBatchError):
        nn.LossBatch(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        nn.LossBatch(np.array([0.5]), np.array([1.5]))
    with pytest.raises(nn.ZeroLossError):
        nn.loss_backward(nn.LossBatch(np.array([0.4]), np.array([0.4])))


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
def test_loss_lower_bound_property(preds, targets):
    size = min(len(preds), len(targets))
    preds = np.array(preds[:size])
    targets = np.array(targets[:size])
    batch = nn.LossBatch(preds, targets)
    value = nn.loss_forward(batch)
    plain = math.sqrt(float(np.sum((preds - targets) ** 2))) / size
    assert value >= plain - 1e-15
    weights = nn.congestion_weights(targets)
    if np.all((weights == 0) | (preds == targets)):
        assert value == pytest.approx(plain, abs=1e-15)
    elif float(np.sum(weights * np.abs(preds - targets))) > 1e-9:
        # the penalty only separates the two values once it is representable
        # next to the squared term
        assert value > plain


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_zero_learning_rate_keeps_params():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([5.0, -3.0])}
    out = nn.sgd_step(params, grads, 0.0)
    np.testing.assert_array_equal(out["w"], params["w"])


def test_sgd_scalar_definition():
    out = nn.sgd_step({"p": np.array([1.0])}, {"p": np.array([2.0])}, 0.1)
    assert out["p"][0] == pytest.approx(0.8, abs=1e-15)


def test_sgd_converges_on_quadratic():
    # f(p) = (p - 3)^2 has gradient 2 (p - 3); lr 0.1 contracts the distance
    # to the minimum by 0.8 per step
    params = {"p": np.array([0.0])}
    for _ in range(1000):
        grads = {"p": 2.0 * (params["p"] - 3.0)}
        params = nn.sgd_step(params, grads, 0.1)
    assert abs(params["p"][0] - 3.0) < 1e-6


def test_sgd_rejects_non_finite_gradient():
    with pytest.raises(nn.NonFiniteGradientError) as err:
        nn.sgd_step({"w": np.ones(2)}, {"w": np.array([1.0, np.nan])}, 0.1)
    assert "w" in str(err.value)


# ---------------------------------------------------------------------------
# misc invariants


def test_activation_output_ranges():
    rng = np.random.default_rng(9)
    z = rng.normal(scale=4.0, size=1000)
    wide = np.concatenate([rng.uniform(-1e3, 1e3, size=1000), [-1e3, 1e3]])
    with np.errstate(all="raise"):
        s, s_wide = nn.sigmoid(z), nn.sigmoid(wide)
        t, t_wide = np.tanh(z), np.tanh(wide)
    assert np.all((s > 0.0) & (s < 1.0))
    assert np.all((t > -1.0) & (t < 1.0))
    # far out the results round to the bounds themselves
    assert np.all((s_wide >= 0.0) & (s_wide <= 1.0))
    assert np.all((t_wide >= -1.0) & (t_wide <= 1.0))
    assert s_wide[-2:].tolist() == [0.0, 1.0]


def test_sigmoid_matches_masked_reference_bitwise():
    # reference: evaluate each sign on its own, through exp(-z) or exp(z)
    def masked(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    rng = np.random.default_rng(12)
    extremes = [0.0, -0.0, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308]
    z = np.concatenate([rng.normal(scale=20.0, size=10_000), extremes])
    with np.errstate(under="ignore"):
        expected = masked(z)
    np.testing.assert_array_equal(nn.sigmoid(z).view(np.int64), expected.view(np.int64))


def test_kernels_reject_unbatched_input():
    rng = np.random.default_rng(13)
    with pytest.raises(nn.ShapeMismatchError, match="batch"):
        nn.conv2d_forward(rng.normal(size=(9, 5, 1)), rng.normal(size=(3, 3, 1, 4)), np.zeros(4))
    with pytest.raises(nn.ShapeMismatchError, match="batch"):
        nn.dense_forward(rng.normal(size=320), rng.normal(size=(320, 32)), np.zeros(32))
    for lstm in (nn.lstm_forward, nn.lstm_hidden):
        with pytest.raises(nn.ShapeMismatchError, match="batch"):
            lstm(rng.normal(size=(5, 9)), rng.normal(size=(9, 80)), rng.normal(size=(20, 80)), np.zeros(80))


def test_forward_determinism():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 9, 5, 1))
    w = rng.normal(size=(3, 3, 1, 8))
    b = rng.normal(size=8)
    a, _ = nn.conv2d_forward(x, w, b)
    b2, _ = nn.conv2d_forward(x, w, b)
    np.testing.assert_array_equal(a, b2)


# (K, N) of every forward product the models run: conv1, conv2, fc1, fc2,
# the LSTM's first-layer input product, its recurrent and second-layer
# products, and its head
_MODEL_PRODUCTS = [(9, 64), (576, 64), (320, 32), (32, 1), (9, 80), (20, 80), (20, 1)]


@pytest.mark.parametrize("k,n", _MODEL_PRODUCTS, ids=[f"{k}x{n}" for k, n in _MODEL_PRODUCTS])
def test_forward_product_rows_do_not_depend_on_the_row_count(k, n):
    # a node's batch-of-one prediction equals the same snapshot's prediction
    # in a training batch or a dataset chunk only while this holds.  It rests
    # on the BLAS build and the CPU kernel it picks (numpy's row sum for the
    # one-column shapes): a BLAS that rounds a row by the product's row
    # count fails here, by shape
    rng = np.random.default_rng(k * 1000 + n)
    a = rng.normal(size=(4000, k))
    w = rng.normal(size=(k, n))
    full = nn._matmul(a, w)
    differ = [
        m for m in range(1, 301)
        if not np.array_equal(nn._matmul(a[m : 2 * m], w).view(np.int64), full[m : 2 * m].view(np.int64))
    ]
    assert not differ, f"{k}x{n} product: rows differ from the 4000-row product at M = {differ[:20]}"
