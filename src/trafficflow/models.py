"""The two trainable predictors and their versioned parameter files.

Both models map one 9x5 point snapshot to the centre point's next-step
condition in (0, 1):

* CnnPredictor: two valid 3x3 convolutions (64 filters each, relu), flatten
  to 320, dense 320->32 (relu), dense 32->1 (sigmoid).
* LstmPredictor: the snapshot's five columns (oldest first) feed a stacked
  pair of 20-unit LSTM layers; a dense 20->1 sigmoid head reads the final
  hidden state.

Neither model reads a snapshot's day or time scalars.

Model files are self-describing: magic string, format version, kind tag and
shape manifest, float64 little-endian payload, sha256 trailer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .core import PointSnapshot, check_field_types, from_json
from .ingestion import Dataset
from .nn import ShapeMismatchError
from .rng import stream
from .serialization import ContainerFormatError, atomic_write_bytes, read_container, write_container

__all__ = [
    "ManifestMismatchError",
    "ModelParams",
    "CnnPredictor",
    "LstmPredictor",
    "KINDS",
    "build_predictor",
    "save",
    "load",
    "save_file",
    "load_file",
    "MODEL_FORMAT_VERSION",
    "PREDICT_CHUNK",
]

MODEL_MAGIC = b"TRAFFICFLOW-MODEL\n"
MODEL_FORMAT_VERSION = 1

SNAP_ROWS = 9
SNAP_COLS = 5
_FILTER = 3
_FILTERS = 64
_HIDDEN_DENSE = 32
_LSTM_HIDDEN = 20

# About how many snapshots one predict_dataset pass takes: ``chunk`` rows per
# LSTM pass and per pass of the CNN's row path, and ``chunk // centre_rows``
# grid columns per tile of the CNN's grid path, about ``chunk`` snapshots of
# a full dataset.  The working set must stay cache-sized: at 256 rows conv2's
# im2col operand is 5.9 MB on the row path, at 4096 rows it is 94 MB and the
# CNN ran memory-bound, 1.3x slower per snapshot.  A grid-path tile has at
# most as many conv2 cells as its snapshots would have on the row path.  The
# LSTM's pass keeps no backward cache, about 7 KB per row (1.9 MB at 256
# rows), against about 28 KB with forward_batch's caches.  256 gave the
# fastest CNN plus LSTM total in a sweep of the row path from 32 to 4096
# rows, and the replay predicts at it too.
PREDICT_CHUNK = 256


class ManifestMismatchError(ValueError):
    """Stored parameter manifest does not match the requested architecture."""


@dataclass
class ModelParams:
    """Learnable parameters of one predictor plus provenance.

    ``arrays`` maps each array's name to it, in manifest order; ``config``
    echoes the training settings that produced the parameters.  No predictor
    reads it: the kind and the arrays alone define the model.
    """

    kind: str
    arrays: dict
    seed: int | None = None
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_field_types(self)

    @property
    def manifest(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(name, tuple(a.shape)) for name, a in self.arrays.items()]


def _cnn_manifest() -> list[tuple[str, tuple[int, ...]]]:
    return [
        ("conv1_w", (_FILTER, _FILTER, 1, _FILTERS)),
        ("conv1_b", (_FILTERS,)),
        ("conv2_w", (_FILTER, _FILTER, _FILTERS, _FILTERS)),
        ("conv2_b", (_FILTERS,)),
        ("fc1_w", (5 * 1 * _FILTERS, _HIDDEN_DENSE)),
        ("fc1_b", (_HIDDEN_DENSE,)),
        ("fc2_w", (_HIDDEN_DENSE, 1)),
        ("fc2_b", (1,)),
    ]


def _lstm_manifest() -> list[tuple[str, tuple[int, ...]]]:
    h4 = 4 * _LSTM_HIDDEN
    return [
        ("l1_wx", (SNAP_ROWS, h4)),
        ("l1_wh", (_LSTM_HIDDEN, h4)),
        ("l1_b", (h4,)),
        ("l2_wx", (_LSTM_HIDDEN, h4)),
        ("l2_wh", (_LSTM_HIDDEN, h4)),
        ("l2_b", (h4,)),
        ("head_w", (_LSTM_HIDDEN, 1)),
        ("head_b", (1,)),
    ]


def _stack(matrices: np.ndarray) -> np.ndarray:
    x = np.asarray(matrices, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (SNAP_ROWS, SNAP_COLS):
        raise ShapeMismatchError(f"expected (B, {SNAP_ROWS}, {SNAP_COLS}), got {x.shape}")
    return x


class _Predictor:
    """What both predictors share: the manifest check, the parameter-file
    round trip and per-snapshot prediction."""

    kind: str
    # bias slices that start at 1 rather than 0
    unit_biases: dict[str, slice] = {}

    @staticmethod
    def _manifest() -> list[tuple[str, tuple[int, ...]]]:
        raise NotImplementedError

    def __init__(self, params: dict[str, np.ndarray]):
        expected = dict(self._manifest())
        for name, shape in expected.items():
            if name not in params or params[name].shape != shape:
                got = params[name].shape if name in params else "missing"
                raise ManifestMismatchError(f"{name}: expected shape {shape}, got {got}")
        self.params = {name: np.asarray(params[name], dtype=np.float64) for name in expected}

    @classmethod
    def initialize(cls, seed: int):
        """Fresh parameters: zero biases but ``unit_biases``, Glorot-uniform
        weights.  The fans take a weight's last axis as its outputs and the
        axes before its input axis as the kernel (none for a dense layer)."""
        rng = stream(seed, "init")
        params: dict[str, np.ndarray] = {}
        for name, shape in cls._manifest():
            if name.endswith("_b"):
                params[name] = np.zeros(shape)
                params[name][cls.unit_biases.get(name, slice(0))] = 1.0
            else:
                fan_in, fan_out = math.prod(shape[:-1]), math.prod(shape[:-2]) * shape[-1]
                params[name] = nn.glorot_uniform(rng, shape, fan_in, fan_out)
        return cls(params)

    @property
    def param_count(self) -> int:
        return int(sum(a.size for a in self.params.values()))

    def predict_snapshot(self, snap: PointSnapshot) -> float:
        return self.predict(snap.matrix)

    def to_params(self, seed: int | None = None, config: dict | None = None) -> ModelParams:
        arrays = {name: a.copy() for name, a in self.params.items()}
        return ModelParams(kind=self.kind, arrays=arrays, seed=seed, config=dict(config or {}))

    @classmethod
    def from_params(cls, params: ModelParams):
        if params.kind != cls.kind:
            raise ManifestMismatchError(f"parameters are for kind {params.kind!r}, not {cls.kind!r}")
        if params.manifest != cls._manifest():
            raise ManifestMismatchError(
                f"manifest {params.manifest} does not match the {cls.kind} architecture"
            )
        return cls(params.arrays)


class CnnPredictor(_Predictor):
    """Convolutional snapshot predictor (architecture is bound to 9x5 inputs)."""

    kind = "cnn"
    _manifest = staticmethod(_cnn_manifest)

    def forward_batch(self, matrices: np.ndarray):
        """Predictions for a (B, 9, 5) stack; returns (preds (B,), cache)."""
        x = _stack(matrices)
        batch = x.shape[0]
        a2, c1, c2 = self._convs(x[..., None])
        out, c3, c4 = self._dense(a2.reshape(batch, -1))
        return out, (c1, c2, c3, c4, batch)

    def _convs(self, x: np.ndarray):
        """Both convolutions over a (B, H, W, 1) stack: (conv2 map, caches)."""
        p = self.params
        a1, c1 = nn.conv2d_forward(x, p["conv1_w"], p["conv1_b"], "relu")
        a2, c2 = nn.conv2d_forward(a1, p["conv2_w"], p["conv2_b"], "relu")
        return a2, c1, c2

    def _dense(self, flat: np.ndarray):
        """fc1 and fc2 over (B, 320) flattened conv2 cells: (preds (B,), caches)."""
        p = self.params
        h, c3 = nn.dense_forward(flat, p["fc1_w"], p["fc1_b"], "relu")
        out, c4 = nn.dense_forward(h, p["fc2_w"], p["fc2_b"], "sigmoid")
        return out[:, 0], c3, c4

    def backward_batch(self, grad_preds: np.ndarray, cache) -> dict[str, np.ndarray]:
        """Parameter gradients given d(loss)/d(predictions)."""
        c1, c2, c3, c4, batch = cache
        grad_h, gw_fc2, gb_fc2 = nn.dense_backward(np.asarray(grad_preds)[:, None], c4)
        grad_flat, gw_fc1, gb_fc1 = nn.dense_backward(grad_h, c3)
        grad_a2 = grad_flat.reshape(batch, 5, 1, _FILTERS)
        grad_a1, gw_c2, gb_c2 = nn.conv2d_backward(grad_a2, c2)
        gw_c1, gb_c1 = nn.conv2d_param_grads(grad_a1, c1)
        return {
            "conv1_w": gw_c1,
            "conv1_b": gb_c1,
            "conv2_w": gw_c2,
            "conv2_b": gb_c2,
            "fc1_w": gw_fc1,
            "fc1_b": gb_fc1,
            "fc2_w": gw_fc2,
            "fc2_b": gb_fc2,
        }

    def predict(self, matrix: np.ndarray) -> float:
        """Single-snapshot prediction (a node's, one at a time)."""
        return float(self.forward_batch(np.asarray(matrix)[None])[0][0])

    def predict_dataset(self, dataset: Dataset, chunk: int = PREDICT_CHUNK) -> np.ndarray:
        """Predictions for every snapshot, in dataset order.

        Both convolutions are valid and stride 1, so snapshots that overlap on
        the condition grid share conv cells: up to 5 snapshots read each conv2
        cell.  The snapshots go in blocks of ``max(1, chunk // centre_rows)``
        grid columns, where ``centre_rows`` is the span of their centre rows,
        so a full block holds about ``chunk`` snapshots.  A block takes the
        grid path when its tile (every grid cell its snapshots read) has at
        most as many conv2 cells as its snapshots have between them, 5 each:
        both convolutions run once over the tile, and each snapshot's 5x1x64
        conv2 cells are gathered for fc1 and fc2.  Any other block, as in a
        sparse or scattered subset, goes through ``forward_batch`` with the
        other such blocks' snapshots, ``chunk`` per pass.
        """
        cfg, (grid, _, centre, column) = dataset.config, dataset.windows
        if (cfg.rows, cfg.cols) != (SNAP_ROWS, SNAP_COLS):
            raise ShapeMismatchError(f"expected {SNAP_ROWS}x{SNAP_COLS} snapshots, got {cfg.rows}x{cfg.cols}")
        out = np.empty(dataset.z)
        if not dataset.z:
            return out
        shrink = 2 * (_FILTER - 1)  # what the two convolutions take off each axis
        cells = SNAP_ROWS - shrink  # conv2 cells per snapshot, in one column
        width = max(1, chunk // (int(centre.max()) - int(centre.min()) + 1))
        block = (column - column.min()) // width
        order = np.argsort(block, kind="stable")
        by_rows = []
        for sel in np.split(order, np.flatnonzero(np.diff(block[order])) + 1):
            top, left = centre[sel].min() - cfg.n_in, column[sel].min() - cfg.delta
            tile = grid[top : centre[sel].max() + cfg.m_out + 1, left : column[sel].max() + 1]
            if (tile.shape[0] - shrink) * (tile.shape[1] - shrink) > cells * len(sel):
                by_rows.append(sel)
                continue
            a2 = self._convs(tile[None, :, :, None])[0]  # no conv cache outlives the convolutions
            for lo in range(0, len(sel), chunk):
                part = sel[lo : lo + chunk]
                rows = (centre[part] - cfg.n_in - top)[:, None] + np.arange(cells)
                flat = a2[0, rows, (column[part] - cfg.delta - left)[:, None]].reshape(len(part), -1)
                out[part] = self._dense(flat)[0]
        rest = np.concatenate(by_rows) if by_rows else order[:0]
        for lo in range(0, len(rest), chunk):
            part = rest[lo : lo + chunk]
            out[part], _ = self.forward_batch(dataset.matrices(part))
        return out


class LstmPredictor(_Predictor):
    """Stacked-LSTM snapshot predictor; consumes columns oldest first."""

    kind = "lstm"
    _manifest = staticmethod(_lstm_manifest)
    # the forget gates' slice of each layer's [i, f, g, o] bias
    unit_biases = dict.fromkeys(("l1_b", "l2_b"), slice(_LSTM_HIDDEN, 2 * _LSTM_HIDDEN))

    def forward_batch(self, matrices: np.ndarray):
        """Predictions for a (B, 9, 5) stack; returns (preds (B,), cache)."""
        p = self.params
        xs = _stack(matrices).transpose(0, 2, 1)  # (B, T=5, 9), oldest column first
        hs1, c1 = nn.lstm_forward(xs, p["l1_wx"], p["l1_wh"], p["l1_b"])
        hs2, c2 = nn.lstm_forward(hs1, p["l2_wx"], p["l2_wh"], p["l2_b"])
        out, c3 = nn.dense_forward(hs2[:, -1, :], p["head_w"], p["head_b"], "sigmoid")
        return out[:, 0], (c1, c2, c3, hs2.shape)

    def backward_batch(self, grad_preds: np.ndarray, cache) -> dict[str, np.ndarray]:
        c1, c2, c3, hs2_shape = cache
        grad_h_last, gw_head, gb_head = nn.dense_backward(np.asarray(grad_preds)[:, None], c3)
        grad_hs2 = np.zeros(hs2_shape)
        grad_hs2[:, -1, :] = grad_h_last
        grad_hs1, gwx2, gwh2, gb2 = nn.lstm_backward(grad_hs2, c2)
        _, gwx1, gwh1, gb1 = nn.lstm_backward(grad_hs1, c1)
        return {
            "l1_wx": gwx1,
            "l1_wh": gwh1,
            "l1_b": gb1,
            "l2_wx": gwx2,
            "l2_wh": gwh2,
            "l2_b": gb2,
            "head_w": gw_head,
            "head_b": gb_head,
        }

    def predict(self, matrix: np.ndarray) -> float:
        return float(self.forward_batch(np.asarray(matrix)[None])[0][0])

    def predict_dataset(self, dataset: Dataset, chunk: int = PREDICT_CHUNK) -> np.ndarray:
        """Predictions for every snapshot, in dataset order, ``chunk`` snapshots
        per pass, so the working set stays cache-sized.  Each pass is
        ``forward_batch``'s, bit for bit, through ``nn.lstm_hidden``, which
        keeps no backward cache.  There is no grid path: each window's
        recurrence starts from a zero state, so overlapping snapshots share
        only the first layer's input projection."""
        p = self.params
        out = np.empty(dataset.z)
        for lo in range(0, dataset.z, chunk):
            hi = min(lo + chunk, dataset.z)
            xs = _stack(dataset.matrices(slice(lo, hi))).transpose(0, 2, 1)
            hs1 = nn.lstm_hidden(xs, p["l1_wx"], p["l1_wh"], p["l1_b"])
            h2 = nn.lstm_hidden(hs1, p["l2_wx"], p["l2_wh"], p["l2_b"], last=True)
            out[lo:hi] = nn.dense_forward(h2, p["head_w"], p["head_b"], "sigmoid")[0][:, 0]
        return out


Predictor = CnnPredictor | LstmPredictor


# every model kind, by the tag that training configs and model files carry
KINDS: dict[str, type[Predictor]] = {cls.kind: cls for cls in (CnnPredictor, LstmPredictor)}


def build_predictor(params: ModelParams) -> Predictor:
    """Reconstruct the right predictor from stored parameters."""
    if params.kind not in KINDS:
        raise ManifestMismatchError(f"unknown model kind {params.kind!r}")
    return KINDS[params.kind].from_params(params)


def save(params: ModelParams) -> bytes:
    """Serialize parameters to the versioned model-file bytes."""
    header = {
        "kind": params.kind,
        "seed": params.seed,
        "config": params.config,
    }
    arrays = [(name, array) for name, array in params.arrays.items()]
    return write_container(MODEL_MAGIC, MODEL_FORMAT_VERSION, header, arrays)


def load(data: bytes) -> ModelParams:
    """Parse and verify model-file bytes, whose header's ``kind``, ``seed``
    and ``config`` are read as ModelParams fields.  Raises
    ManifestMismatchError for a kind not in KINDS, and ContainerFormatError
    for a header field that is unknown or of another type."""
    header, arrays = read_container(data, MODEL_MAGIC, MODEL_FORMAT_VERSION)
    kind = header.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ManifestMismatchError(f"unknown model kind {kind!r}")
    try:
        return from_json(ModelParams, {**header, "arrays": arrays}, "model header")
    except ValueError as err:
        raise ContainerFormatError(str(err)) from None


def save_file(params: ModelParams, path: str | Path) -> None:
    atomic_write_bytes(path, save(params))


def load_file(path: str | Path) -> ModelParams:
    return load(Path(path).read_bytes())
