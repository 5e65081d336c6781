#!/usr/bin/env python3
"""Run the command-line pipeline in two source trees and diff what it writes.

Usage:
    python scripts/compare_trees.py PARENT CHANGE [--profile PATH] [--work DIR]

PARENT and CHANGE are source trees with the package under ``src/``: a
checkout, or a commit unpacked with ``git archive``.  For each tree, in fresh
interpreters with ``PYTHONPATH=<tree>/src`` and BLAS pinned to one thread,
and in a directory of its own so that every path echo reads the same, it runs:

- ``synth`` of the profile (``perfbench/tests/tiny.json`` by default; give
  ``--profile src/trafficflow/profiles/benchmark.json`` for the bundled world);
- ``ingest`` of a raw detector file written from the synthesized series;
- ``train`` of a CNN split by point and of an LSTM split by time, 1 epoch each;
- ``evaluate --baseline`` with both models;
- ``simulate`` with the CNN.

Then it compares every output but ``*.meta.json``, and each command's
printed lines, byte for byte.  For a model or dataset file that differs it
reports whether its arrays are identical and, where they are not, how many
elements differ and the largest difference in ulp.  Exit status 0 when every
output is identical, 1 when any differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
TINY = REPO / "perfbench" / "tests" / "tiny.json"

# writes the synthesized series as a raw detector file, speeds at each
# point's limit, with the tree's own writer
_WRITE_RAW = """
from datetime import timedelta
from trafficflow import ingestion
dataset = ingestion.load_dataset("synth.tfds")
raw = [
    ingestion.RawSeries(
        s.point,
        tuple(zip([s.start + timedelta(minutes=s.step_minutes * i) for i in range(len(s.values))], s.values * limit)),
        limit,
    )
    for s, limit in zip(dataset.series, dataset.spec.speed_limits)
]
ingestion.write_raw_file("raw.csv", raw)
"""


def _steps(profile: dict) -> list[tuple[str, list[str]]]:
    """Each step's name and its interpreter arguments, all paths relative."""
    snapshot = {"delta": 4, "n_in": 4, "m_out": 4, **profile.get("snapshot", {})}
    points = profile["network"]["points"] - snapshot["n_in"] - snapshot["m_out"]
    days = profile["days"]
    cli = ["-m", "trafficflow.cli"]
    train = [*cli, "train", "--dataset", "synth.tfds", "--epochs", "1", "--seed", "1"]
    return [
        ("synth", [*cli, "synth", "--profile", "profile.json", "--seed", "1", "--out", "synth.tfds"]),
        ("raw", ["-c", _WRITE_RAW]),
        ("ingest", [*cli, "ingest", "--input", "raw.csv", "--config-file", "ingest.json", "--out", "ingest.tfds"]),
        ("train_cnn", [*train, "--model", "cnn", "--split-axis", "point", "--train-units", str(points * 2 // 5),
                       "--test-units", str(points - points * 2 // 5), "--out", "cnn.tfmodel"]),
        ("train_lstm", [*train, "--model", "lstm", "--split-axis", "time", "--train-units", str(days - max(days // 4, 1)),
                        "--test-units", str(max(days // 4, 1)), "--out", "lstm.tfmodel"]),
        ("evaluate", [*cli, "evaluate", "--model", "cnn.tfmodel", "--model2", "lstm.tfmodel", "--baseline",
                      "--dataset", "synth.tfds", "--out-dir", "eval"]),
        ("simulate", [*cli, "simulate", "--dataset", "synth.tfds", "--model", "cnn.tfmodel", "--out", "sim.log"]),
    ]


def run_tree(tree: Path, work: Path, profile: dict) -> None:
    """Run every step for ``tree`` in ``work``; each step's printed lines go
    to ``<step>.out``.  Raises RuntimeError naming the step that fails."""
    work.mkdir(parents=True)
    (work / "profile.json").write_text(json.dumps(profile), encoding="utf-8")
    (work / "ingest.json").write_text(json.dumps({"snapshot": profile.get("snapshot", {})}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    for name, argv in _steps(profile):
        done = subprocess.run([sys.executable, *argv], cwd=work, env=env, capture_output=True, text=True)
        if done.returncode:
            raise RuntimeError(f"{tree}: {name} exited {done.returncode}: {done.stderr.strip()}")
        (work / f"{name}.out").write_text(done.stdout, encoding="utf-8")


def container_arrays(data: bytes) -> dict[str, np.ndarray]:
    """The named arrays of a model or dataset file: a magic line, a u32
    version, a u64 header length, the JSON header with its array manifest,
    then the little-endian payloads in manifest order."""
    offset = data.index(b"\n") + 1 + 4
    (length,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    manifest = json.loads(data[offset : offset + length])["arrays"]
    offset += length
    arrays = {}
    for entry in manifest:
        dtype, count = np.dtype(entry["dtype"]), math.prod(entry["shape"])
        arrays[entry["name"]] = np.frombuffer(data, dtype, count, offset).reshape(entry["shape"])
        offset += count * dtype.itemsize
    return arrays


def _bits(array: np.ndarray) -> np.ndarray:
    """Each element's bytes as one row."""
    return np.ascontiguousarray(array).reshape(-1).view(np.uint8).reshape(array.size, array.itemsize)


def _ordered(array: np.ndarray) -> list[int]:
    """Each element as an integer whose distance to another's is their
    distance in ulp: a float's bits, negatives mirrored below zero."""
    if array.dtype.kind != "f":
        return array.astype(object).tolist()
    bits = array.view(f"<i{array.itemsize}").astype(object).tolist()
    sign = 1 << (8 * array.itemsize - 1)
    return [b if b >= 0 else -(b + sign) for b in bits]


def array_differences(parent: bytes, change: bytes) -> list[str]:
    """What differs between the arrays of two container files, one line per
    array; [] when every array is identical."""
    old, new = container_arrays(parent), container_arrays(change)
    lines = [f"array {name}: only in one file" for name in sorted(set(old) ^ set(new))]
    for name in sorted(set(old) & set(new)):
        a, b = old[name], new[name]
        if a.dtype != b.dtype or a.shape != b.shape:
            lines.append(f"array {name}: {a.dtype} {a.shape} against {b.dtype} {b.shape}")
            continue
        differ = np.flatnonzero((_bits(a) != _bits(b)).any(axis=1))
        if differ.size:
            ulp = max(abs(x - y) for x, y in zip(_ordered(a.ravel()[differ]), _ordered(b.ravel()[differ])))
            lines.append(f"array {name}: {differ.size} of {a.size} elements differ, largest by {ulp} ulp")
    return lines


def compare(parent_dir: Path, change_dir: Path) -> list[tuple[str, str]]:
    """(relative path, verdict) of every output under either directory but
    ``*.meta.json``, in path order."""
    def outputs(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file() and not p.name.endswith(".meta.json")}

    found, lines = (outputs(parent_dir), outputs(change_dir)), []
    for name in sorted(found[0] | found[1]):
        if name not in found[0] or name not in found[1]:
            lines.append((name, f"only in {'change' if name in found[1] else 'parent'}"))
            continue
        old, new = (parent_dir / name).read_bytes(), (change_dir / name).read_bytes()
        if old == new:
            lines.append((name, "identical"))
        elif name.endswith((".tfmodel", ".tfds")):
            arrays = array_differences(old, new)
            lines.append((name, "differs; " + ("; ".join(arrays) if arrays else "arrays identical")))
        else:
            lines.append((name, "differs"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--profile", type=Path, default=TINY, help="synthesis profile (default: tiny.json)")
    parser.add_argument("--work", type=Path, default=None, help="keep the outputs here (default: a temp dir)")
    args = parser.parse_args(argv)
    profile = json.loads(args.profile.read_text(encoding="utf-8"))
    work = args.work or Path(tempfile.mkdtemp(prefix="compare-trees-"))
    try:
        sides = (work / "parent", work / "change")
        with ThreadPoolExecutor(2) as pool:
            list(pool.map(run_tree, (args.parent, args.change), sides, (profile, profile)))
        verdicts = compare(*sides)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if args.work is None:
            shutil.rmtree(work)
    for name, verdict in verdicts:
        print(f"{name}: {verdict}")
    same = sum(verdict == "identical" for _, verdict in verdicts)
    print(f"{same} of {len(verdicts)} outputs identical")
    return 0 if same == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
