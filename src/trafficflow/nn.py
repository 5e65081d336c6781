"""Minimal dense-tensor neural kernels with exact manual gradients.

Everything runs in float64 numpy.  Every layer takes a batch: an array
whose leading dimension indexes samples, one sample being a batch of one.
Training, dataset prediction and a node's single-snapshot prediction all
run these kernels, so at batch 1 their cost is mostly numpy's per-call
overhead, and each kernel keeps its call count low.  Each layer's weights
meet the whole batch in one 2-D matrix product (the LSTM's recurrent
product is one per timestep after the first).  A GEMM's blocking, and so
its rounding of a row, can depend on how many rows the product has, so
every forward product goes through ``_matmul``, whose row bits depend only
on the row: a sample's output has the same bits in a batch of one, in a
training batch and in any dataset chunk.  Convolution patches are
gathered through a window view, an ndarray built over the contiguous
input's buffer with its H and W strides repeated, in the weights' own
(k, k, C) order, so the weight matrix is a view of the (k, k, C, F)
weights.  The LSTM halves its sigmoid-gate columns so that one tanh per
step gives all four gates, and writes each step's gates, cell, tanh(cell)
and hidden state in place into time-major (T, B, ...) arrays, which are
its cache.  ``lstm_hidden``, the pass for prediction, runs the same step
loop over arrays whose steps share one buffer, so it keeps only the
newest step and no cache, and gives the same bits by construction.  The
forward pass returns a cache object that the matching backward pass
consumes.  Backward passes are analytic (no autodiff) and
are held to central finite differences by the test suite.

Supported pieces: valid 2-D convolution (stride 1, no padding), fully
connected layers, a 4-gate LSTM cell with backprop through time, relu /
sigmoid / linear activations, the congestion-weighted Euclidean
training loss, and plain SGD.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "EmptyBatchError",
    "ZeroLossError",
    "NonFiniteGradientError",
    "LossBatch",
    "conv2d_forward",
    "conv2d_backward",
    "conv2d_param_grads",
    "dense_forward",
    "dense_backward",
    "lstm_forward",
    "lstm_hidden",
    "lstm_backward",
    "loss_forward",
    "loss_backward",
    "sgd_step",
    "glorot_uniform",
    "sigmoid",
]


class ShapeMismatchError(ValueError):
    """Array shapes are inconsistent with the layer's parameters."""


class EmptyBatchError(ValueError):
    """A loss batch must contain at least one element."""


class ZeroLossError(ArithmeticError):
    """Loss is exactly zero; its gradient is singular and the update must be skipped."""


class NonFiniteGradientError(ArithmeticError):
    """A gradient contains NaN or infinity; carries the offending parameter
    name, and the message says where in training it arose when ``where`` is
    given."""

    def __init__(self, name: str, where: str = ""):
        super().__init__(f"non-finite gradient for parameter {name!r}" + (f" at {where}" if where else ""))
        self.name = name


# ---------------------------------------------------------------------------
# activations


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    Neither exponent is positive, so exp cannot overflow.  It underflows only
    for |z| > 708, where the result is 1 or that subnormal exp(z) itself, so
    underflow is not reported.
    """
    # exp(min(z, 0)) is exactly 1 where z >= 0 and exp(-|z|) where z < 0, so
    # this is 1 / (1 + e) or e / (1 + e), e = exp(-|z|), without a select
    with np.errstate(under="ignore"):
        return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return sigmoid(z)
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind!r}")


def _activate_backward(grad_out: np.ndarray, kind: str, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.where(z > 0.0, grad_out, 0.0)
    if kind == "sigmoid":
        return grad_out * out * (1.0 - out)
    if kind == "linear":
        return grad_out
    raise ValueError(f"unknown activation {kind!r}")


# Below this many rows the BLAS can round a product's row by the row count:
# conv2's 576x64 product does up to 27 rows.  test_nn pins the floor.
_MIN_ROWS = 32


def _matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a (M, K) @ w (K, N)``, each output row's bits a function of its
    input row alone.  The BLAS rounds a one-column product by its row count
    at most counts, so that is a multiply and a row sum; any other product
    runs zero-padded to at least ``_MIN_ROWS`` rows."""
    if w.shape[1] == 1:
        return (a * w[:, 0]).sum(axis=1, keepdims=True)
    if len(a) < _MIN_ROWS:
        return (np.concatenate([a, np.zeros((_MIN_ROWS - len(a), a.shape[1]))]) @ w)[: len(a)]
    return a @ w


def _batch(x: np.ndarray, ndim: int, layout: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != ndim:
        raise ShapeMismatchError(f"expected a {layout} batch, got shape {x.shape}")
    return x


# ---------------------------------------------------------------------------
# convolution


@dataclass
class ConvCache:
    cols: np.ndarray        # (B*H'*W', k*k*C) im2col patches
    w_mat: np.ndarray       # (k*k*C, F), a view of the (k, k, C, F) weights
    z: np.ndarray
    out: np.ndarray
    activation: str
    in_shape: tuple[int, ...]
    filter_size: int


def conv2d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    biases: np.ndarray,
    activation: str = "relu",
) -> tuple[np.ndarray, ConvCache]:
    """Valid cross-correlation, stride 1, plus per-filter bias and activation.

    ``x`` is (B, H, W, C); ``weights`` is (k, k, C, F).  Returns the
    activated (B, H-k+1, W-k+1, F) map and the backward cache.
    """
    x = _batch(x, 4, "(B, H, W, C)")
    weights = np.asarray(weights, dtype=np.float64)
    biases = np.asarray(biases, dtype=np.float64)
    if weights.ndim != 4 or weights.shape[0] != weights.shape[1]:
        raise ShapeMismatchError(f"conv weights must be (k, k, C, F), got {weights.shape}")
    k, _, c_in, f = weights.shape
    if x.shape[3] != c_in:
        raise ShapeMismatchError(f"input channels {x.shape[3]} != weight channels {c_in}")
    if biases.shape != (f,):
        raise ShapeMismatchError(f"biases must be ({f},), got {biases.shape}")
    if x.shape[1] < k or x.shape[2] < k:
        raise ShapeMismatchError(f"input {x.shape[1]}x{x.shape[2]} smaller than filter {k}x{k}")

    # (B, H', W', k, k, C) window view: an ndarray over the contiguous input's
    # own buffer with the window axes reusing the H and W strides.  The
    # constructor checks only that the view stays inside the buffer, where
    # as_strided and sliding_window_view cost several times the conv1 GEMM
    # at batch 1.  Patches in the weights' own (k, k, C) order make w_mat a
    # view of the weights, and the patch copy moves contiguous runs of C
    # channels.
    x = np.ascontiguousarray(x)
    b, height, width = x.shape[:3]
    out_h, out_w = height - k + 1, width - k + 1
    s_b, s_h, s_w, s_c = x.strides
    view = np.ndarray((b, out_h, out_w, k, k, c_in), np.float64, x, 0, (s_b, s_h, s_w, s_h, s_w, s_c))
    # one row per output position of every sample: a 2-D operand makes the
    # layer one GEMM, where a 4-D one makes matmul loop over B*H' products
    cols = view.reshape(b * out_h * out_w, k * k * c_in)
    w_mat = weights.reshape(k * k * c_in, f)
    z = _matmul(cols, w_mat)
    z += biases
    z = z.reshape(b, out_h, out_w, f)
    out = _activate(z, activation)
    return out, ConvCache(cols, w_mat, z, out, activation, x.shape, k)


def conv2d_param_grads(grad_out: np.ndarray, cache: ConvCache) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward w.r.t. weights and biases only.

    A network's first layer needs no more: its input gradient feeds nothing.
    """
    grad_w, grad_b, _ = _conv_param_grads(grad_out, cache)
    return grad_w, grad_b


def _conv_param_grads(grad_out, cache):
    """Weight and bias gradients, plus the pre-activation gradient as one
    row per output position, which the input gradient needs."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != cache.out.shape:
        raise ShapeMismatchError(
            f"grad shape {grad_out.shape} != forward output shape {cache.out.shape}"
        )
    k = cache.filter_size
    c_in = cache.in_shape[3]
    f = cache.w_mat.shape[1]
    grad_z = _activate_backward(grad_out, cache.activation, cache.z, cache.out)
    gz_flat = grad_z.reshape(-1, f)
    grad_w = (cache.cols.T @ gz_flat).reshape(k, k, c_in, f)
    return grad_w, grad_z.sum(axis=(0, 1, 2)), gz_flat


def conv2d_backward(
    grad_out: np.ndarray, cache: ConvCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward w.r.t. input, weights and biases."""
    grad_w, grad_b, gz_flat = _conv_param_grads(grad_out, cache)
    k = cache.filter_size
    batch, _, _, c_in = cache.in_shape
    out_h, out_w = cache.out.shape[1:3]
    grad_cols = (gz_flat @ cache.w_mat.T).reshape(batch, out_h, out_w, k, k, c_in)
    grad_x = np.zeros(cache.in_shape, dtype=np.float64)
    for ki in range(k):
        for kj in range(k):
            grad_x[:, ki : ki + out_h, kj : kj + out_w, :] += grad_cols[:, :, :, ki, kj, :]
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# fully connected


@dataclass
class DenseCache:
    x: np.ndarray
    weights: np.ndarray
    z: np.ndarray
    out: np.ndarray
    activation: str


def dense_forward(
    x: np.ndarray,
    weights: np.ndarray,
    biases: np.ndarray,
    activation: str = "relu",
) -> tuple[np.ndarray, DenseCache]:
    """Affine map plus activation: x (B, D) @ weights (D, K) + biases (K,)."""
    x = _batch(x, 2, "(B, D)")
    weights = np.asarray(weights, dtype=np.float64)
    biases = np.asarray(biases, dtype=np.float64)
    if weights.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeMismatchError(
            f"input width {x.shape[1]} incompatible with weights {weights.shape}"
        )
    if biases.shape != (weights.shape[1],):
        raise ShapeMismatchError(f"biases must be ({weights.shape[1]},), got {biases.shape}")
    z = _matmul(x, weights)
    z += biases
    out = _activate(z, activation)
    return out, DenseCache(x, weights, z, out, activation)


def dense_backward(
    grad_out: np.ndarray, cache: DenseCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of dense_forward w.r.t. input, weights and biases."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != cache.out.shape:
        raise ShapeMismatchError(
            f"grad shape {grad_out.shape} != forward output shape {cache.out.shape}"
        )
    grad_z = _activate_backward(grad_out, cache.activation, cache.z, cache.out)
    return grad_z @ cache.weights.T, cache.x.T @ grad_z, grad_z.sum(axis=0)


# ---------------------------------------------------------------------------
# LSTM cell
#
# Gate packing along the last axis of w_x (D, 4H), w_h (H, 4H), b (4H,):
# [input i, forget f, candidate g, output o].
#   c_t = f * c_{t-1} + i * g        h_t = o * tanh(c_t)
#
# lstm_forward halves the i/f/o columns (exact in binary), so one tanh
# covers all four gates: sigmoid(z) = (1 + tanh(z / 2)) / 2.  Parameter
# files, the cache and lstm_backward keep the unscaled weights.


@dataclass
class LstmStepCache:
    """One step's values: views into the LstmCache arrays."""

    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    tanh_c: np.ndarray


@dataclass
class LstmCache:
    """A forward pass's state, in time-major arrays written in place.

    ``gates`` (T, B, 4H) holds i, f, g, o as squashed; ``c`` and ``h``
    (T + 1, B, H) hold the cell and hidden state before step 0 (zeros) and
    after each step; ``tanh_c`` (T, B, H) holds tanh(c) of each step.
    """

    xs: np.ndarray
    w_x: np.ndarray
    w_h: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray

    @property
    def steps(self) -> list[LstmStepCache]:
        """Per-step views, oldest first."""
        gates = _gate_views(self.gates, self.h.shape[2])
        return [LstmStepCache(*step) for step in zip(self.h, self.c, *gates, self.tanh_c)]


def _gate_views(gates: np.ndarray, hidden: int) -> np.ndarray:
    """i, f, g, o as (T, B, H) views of the packed (T, B, 4H) gates."""
    return gates.reshape(*gates.shape[:2], 4, hidden).transpose(2, 0, 1, 3)


def _check_lstm_params(w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray) -> int:
    if w_x.ndim != 2 or w_h.ndim != 2 or w_x.shape[1] != w_h.shape[1]:
        raise ShapeMismatchError("lstm weight shapes inconsistent")
    hidden4 = w_x.shape[1]
    if hidden4 % 4 != 0 or w_h.shape[0] * 4 != hidden4 or b.shape != (hidden4,):
        raise ShapeMismatchError("lstm weights must pack 4 gates of equal width")
    return hidden4 // 4


@functools.lru_cache(maxsize=8)
def _gate_affine(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """(scale, offset), each (1, 4H): 0.5 and 0.5 for i/f/o, 1 and -0 for g.
    ``t * scale + offset`` is (1 + t) / 2 in the halved columns and leaves g's
    tanh as it is, -0 included.  Read-only, since every call shares them."""
    scale = np.full((1, 4 * hidden), 0.5)
    offset = np.full((1, 4 * hidden), 0.5)
    scale[:, 2 * hidden : 3 * hidden] = 1.0
    offset[:, 2 * hidden : 3 * hidden] = -0.0
    scale.flags.writeable = offset.flags.writeable = False
    return scale, offset


def _lstm_inputs(xs, w_x, w_h, b):
    """The checked float64 operands of one LSTM layer, plus its width H."""
    xs = _batch(xs, 3, "(B, T, D)")
    w_x = np.asarray(w_x, dtype=np.float64)
    w_h = np.asarray(w_h, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    hidden = _check_lstm_params(w_x, w_h, b)
    if xs.shape[2] != w_x.shape[0]:
        raise ShapeMismatchError(f"input dim {xs.shape[2]} != weight rows {w_x.shape[0]}")
    return xs, w_x, w_h, b, hidden


def _lstm_steps(xs, w_x, w_h, b, gates, c, tanh_c, h) -> None:
    """The recurrence that every LSTM pass runs, from zero state.

    Step t writes its squashed gates, tanh(cell), cell and hidden state in
    place into ``gates[t]``, ``tanh_c[t]``, ``c[t + 1]`` and ``h[t + 1]``,
    time-major arrays whose ``c[0]`` and ``h[0]`` are zeros.  Any of them may
    be a ``_one_step`` array, which keeps only the newest step.
    """
    batch, steps, dim = xs.shape
    hidden = w_h.shape[0]
    # i/f/o columns halved (see the packing note above).  The input
    # projection does not depend on the recurrence: one GEMM for every
    # timestep, in time-major rows so that each step's slice is contiguous.
    scale, offset = _gate_affine(hidden)
    zx = _matmul(xs.transpose(1, 0, 2).reshape(steps * batch, dim), w_x * scale)
    zx += b * scale[0]
    w_h_half = w_h * scale
    # Each step writes in place through per-step views of these arrays.  At
    # batch 1 every operand of an elementwise step then has the shape of its
    # output, which numpy runs without setting up a broadcast.
    i, f, g, o = _gate_views(gates, hidden)
    for t, (z, zx_t, i_t, f_t, g_t, o_t, c_prev, c_t, tanh_c_t, h_prev, h_t) in enumerate(
        zip(gates, zx.reshape(steps, batch, 4 * hidden), i, f, g, o, c, c[1:], tanh_c, h, h[1:])
    ):
        if t:  # h_0 = 0: step 0's pre-activations are the input projection alone
            zx_t += _matmul(h_prev, w_h_half)
        np.tanh(zx_t, out=z)
        z *= scale
        z += offset
        np.multiply(f_t, c_prev, out=c_t)
        c_t += i_t * g_t
        np.tanh(c_t, out=tanh_c_t)
        np.multiply(o_t, tanh_c_t, out=h_t)


def _one_step(steps: int, *shape: int) -> np.ndarray:
    """A zeroed (steps, *shape) array whose steps all share one buffer, so a
    pass that writes step by step keeps only the newest step.  Each step has
    the layout of a step of a full array, so the same ufunc loops run."""
    buffer = np.zeros(shape)
    return np.ndarray((steps, *shape), np.float64, buffer, 0, (0, *buffer.strides))


def lstm_forward(
    xs: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, LstmCache]:
    """Run a full sequence (B, T, D) from zero initial state.

    i/f/o gates are sigmoid, candidate and cell squashing tanh.  Returns
    all hidden states (B, T, H), a view of the cache's ``h``, plus the BPTT
    cache.
    """
    xs, w_x, w_h, b, hidden = _lstm_inputs(xs, w_x, w_h, b)
    batch, steps, _ = xs.shape
    gates = np.empty((steps, batch, 4 * hidden))
    c = np.zeros((steps + 1, batch, hidden))
    tanh_c = np.empty((steps, batch, hidden))
    h = np.zeros((steps + 1, batch, hidden))
    _lstm_steps(xs, w_x, w_h, b, gates, c, tanh_c, h)
    return h[1:].transpose(1, 0, 2), LstmCache(xs, w_x, w_h, gates, c, tanh_c, h)


def lstm_hidden(
    xs: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    b: np.ndarray,
    last: bool = False,
) -> np.ndarray:
    """lstm_forward's hidden states, bit for bit, without its cache: all of
    them (B, T, H), or with ``last`` only the final one (B, H).  It keeps one
    step's gates, cell and tanh(cell), and every step's hidden state only
    when it returns them."""
    xs, w_x, w_h, b, hidden = _lstm_inputs(xs, w_x, w_h, b)
    batch, steps, _ = xs.shape
    gates = _one_step(steps, batch, 4 * hidden)
    c = _one_step(steps + 1, batch, hidden)
    tanh_c = _one_step(steps, batch, hidden)
    h = _one_step(steps + 1, batch, hidden) if last else np.zeros((steps + 1, batch, hidden))
    _lstm_steps(xs, w_x, w_h, b, gates, c, tanh_c, h)
    return h[-1] if last else h[1:].transpose(1, 0, 2)


def lstm_backward(
    grad_hs: np.ndarray, cache: LstmCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BPTT over a cached sequence.

    ``grad_hs`` holds the loss gradient w.r.t. every emitted hidden state
    (zero rows for steps that do not feed the loss).  Returns gradients
    w.r.t. the inputs, w_x, w_h and b.
    """
    grad_hs = np.asarray(grad_hs, dtype=np.float64)
    batch, steps, dim = cache.xs.shape
    hidden = cache.w_h.shape[0]
    if grad_hs.shape != (batch, steps, hidden):
        raise ShapeMismatchError(f"grad_hs shape {grad_hs.shape} != {(batch, steps, hidden)}")

    # the loop only carries the recurrence; every weight gradient is one
    # GEMM over all timesteps afterwards
    i, f, g, o = _gate_views(cache.gates, hidden)
    per_step = enumerate(zip(grad_hs.transpose(1, 0, 2), i, f, g, o, cache.c, cache.tanh_c))
    dz = np.empty((batch, steps, 4 * hidden))
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t, (grad_h, i_t, f_t, g_t, o_t, c_prev, tanh_c) in reversed(list(per_step)):
        dh = grad_h + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o_t * (1.0 - tanh_c**2)
        di = dc * g_t
        dg = dc * i_t
        df = dc * c_prev
        dc_next = dc * f_t
        dz_t = dz[:, t]
        dz_t[:, :hidden] = di * i_t * (1.0 - i_t)
        dz_t[:, hidden : 2 * hidden] = df * f_t * (1.0 - f_t)
        dz_t[:, 2 * hidden : 3 * hidden] = dg * (1.0 - g_t**2)
        dz_t[:, 3 * hidden :] = do * o_t * (1.0 - o_t)
        dh_next = dz_t @ cache.w_h.T
    dz_rows = dz.reshape(batch * steps, 4 * hidden)
    h_prev = cache.h[:-1].transpose(1, 0, 2).reshape(batch * steps, hidden)
    grad_xs = (dz_rows @ cache.w_x.T).reshape(batch, steps, dim)
    grad_wx = cache.xs.reshape(batch * steps, dim).T @ dz_rows
    grad_wh = h_prev.T @ dz_rows
    return grad_xs, grad_wx, grad_wh, dz_rows.sum(axis=0)


# ---------------------------------------------------------------------------
# congestion-weighted Euclidean loss
#
#   loss = sqrt( sum_i (X_i - Y_i)^2 + w_i * |X_i - Y_i| ) / N
#
# where w_i is 0 when the target speed ratio Y_i exceeds 0.5 (light traffic)
# and 1 otherwise, so heavy-congestion samples carry an extra absolute-error
# penalty.


@dataclass(frozen=True)
class LossBatch:
    """Prediction/target pair for one loss evaluation; N is the batch size."""

    predictions: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        preds = np.asarray(self.predictions, dtype=np.float64).ravel()
        targs = np.asarray(self.targets, dtype=np.float64).ravel()
        if preds.size == 0:
            raise EmptyBatchError("loss batch is empty")
        if preds.shape != targs.shape:
            raise ShapeMismatchError(
                f"{preds.size} predictions vs {targs.size} targets"
            )
        if not (targs.min() >= 0.0 and targs.max() <= 1.0):  # NaN fails both
            raise ValueError("targets must lie in [0, 1]")
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "targets", targs)

    @property
    def n(self) -> int:
        return self.predictions.size


def congestion_weights(targets: np.ndarray) -> np.ndarray:
    """Per-element regularizer switch: 0 for targets above 0.5, else 1."""
    return np.where(targets > 0.5, 0.0, 1.0)


def loss_forward(batch: LossBatch) -> float:
    """Evaluate the regularized Euclidean loss over a batch."""
    diff = batch.predictions - batch.targets
    weights = congestion_weights(batch.targets)
    total = float(np.sum(diff**2 + weights * np.abs(diff)))
    return float(np.sqrt(total) / batch.n)


def loss_backward(batch: LossBatch) -> np.ndarray:
    """Gradient of loss_forward w.r.t. the predictions.

    The |.| subgradient at 0 is taken as 0.  Raises ZeroLossError at exactly
    zero loss, where the sqrt makes the gradient singular.
    """
    value = loss_forward(batch)
    if value == 0.0:
        raise ZeroLossError("loss is zero; skip the parameter update")
    diff = batch.predictions - batch.targets
    weights = congestion_weights(batch.targets)
    numerator = 2.0 * diff + weights * np.sign(diff)
    return numerator / (2.0 * batch.n**2 * value)


# ---------------------------------------------------------------------------
# optimizer and init


def sgd_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float
) -> dict[str, np.ndarray]:
    """One plain gradient-descent update: p <- p - lr * g, elementwise."""
    if lr < 0.0:
        raise ValueError("learning rate must be >= 0")
    if set(params) != set(grads):
        raise ShapeMismatchError("parameter/gradient key sets differ")
    updated: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ShapeMismatchError(f"{name}: param {p.shape} vs grad {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(name)
        updated[name] = p - lr * g
    return updated


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
