#!/usr/bin/env python3
"""trafficflow benchmark: time one workload end to end, or per layer when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Workloads are ``ingest``, ``train-eval`` and ``simulate`` (see
perfbench/README.md).  The program is imported from ``src/`` of the
checkout, with BLAS pinned to one thread.  The run builds its inputs from
``--seed`` (three times, to time set-up), repeats the workload's operation
until ``--seconds`` of operations have been measured, checks every output,
and writes the full result to ``perfbench/out/<workload>-trace<k>.json``.
The last line on stdout is a JSON summary: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run in
which timing wrappers surround the program's public functions.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is first imported: on 2 cores, 2 BLAS threads made
# conv2 backward vary up to 3x between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROFILE = ROOT / "src" / "trafficflow" / "profiles" / "benchmark.json"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("ingest", "train-eval", "simulate")
MODULES = ("core", "ingestion", "serialization", "nn", "models", "training", "evaluation", "simulation")

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_s", "s", "lower"),
]


class ProgramMissing(RuntimeError):
    """The checkout holds no importable trafficflow sources."""


def import_program() -> None:
    """Import trafficflow from the checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "trafficflow" / "__init__.py").is_file():
        raise ProgramMissing(f"no trafficflow sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("trafficflow")
    for name in MODULES:
        importlib.import_module(f"trafficflow.{name}")
    if Path(package.__file__).resolve().parent != (src / "trafficflow").resolve():
        raise ProgramMissing(f"trafficflow imported from {package.__file__}, not from {src}")


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import trafficflow
for name in sys.argv[2:]:
    __import__("trafficflow." + name)
print(time.perf_counter() - started)
"""


def time_import() -> float:
    """Seconds a fresh interpreter takes to import trafficflow and numpy."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), *MODULES],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    # the ceiling keeps git from searching above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    """sha256 over the paths and contents of the program's sources."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "trafficflow"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    return {
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "seed": seed,
        "uncontrolled": "CPU frequency scaling and core isolation are not controlled; on a shared host both vary",
    }


def run(workload: str, seed: int, seconds: float, trace: bool, profile: Path) -> dict:
    """Set up, loop the operation for ``seconds``, check; returns the full result."""
    import layers
    from tracer import SpanSummary, Tracer
    from workloads import WORKLOADS, Checks, World

    world = World.load(profile)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    wl = WORKLOADS[workload](world, seed, workdir)
    checks = Checks()
    tracer = Tracer() if trace else None
    samples: list[dict] = []
    try:
        imports, builds = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(time_import())
            started = time.perf_counter()
            wl.setup()
            builds.append(time.perf_counter() - started)

        with layers.installed(tracer) if tracer else contextlib.nullcontext():
            measured = 0.0
            while measured < seconds or not samples:
                # a crash of the program, or output a check cannot read, is a failed operation
                with checks.operation():
                    try:
                        with tracer.operation() if tracer else contextlib.nullcontext():
                            times, outputs = wl.op()
                    except Exception as err:
                        checks.expect(f"{workload}.op", False, repr(err))
                        break
                    samples.append(times)
                    measured += times["op_s"]
                    try:
                        wl.check(outputs, checks)
                    except Exception as err:
                        checks.expect(f"{workload}.check", False, repr(err))
                    del outputs
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = {
        "setup_s": statistics.median(i + b for i, b in zip(imports, builds)),
        "peak_rss_mb": peak_rss_mb,
        "op_s": statistics.median(s["op_s"] for s in samples) if samples else 0.0,
    }
    counts = {"setup_s": len(builds), "peak_rss_mb": 1, "op_s": len(samples)}
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "profile": os.path.relpath(profile, ROOT),
        "trace": int(trace),
        "environment": environment(seed),
        "operations": len(samples),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "end_to_end": {
            name: {"value": values[name], "unit": unit, "better": better, "n": counts[name]}
            for name, unit, better in END_TO_END
        },
        "stages": {
            name: {"value": value, "unit": unit, "better": better, "n": len(samples)}
            for name, value, unit, better in (wl.stages(samples) if samples else [])
        },
        "setup_import_s": imports,
        "setup_build_s": builds,
        "op_samples": samples,
        "quality": wl.quality(),
    }
    if tracer:
        summary = SpanSummary(tracer)
        result["per_layer"] = {
            name: {"value": value, "unit": unit, "better": better}
            for (name, unit, better), value in zip(layers.PER_LAYER, layers.metrics(summary).values())
        }
        result["span_table"] = summary.table()
        result["spans_recorded"] = int(summary.dur.size)
    return result


def _comparable(result: dict) -> dict:
    """What two results must share for their figures to be compared."""
    return {
        "workload": result.get("workload"),
        "profile": result.get("profile"),
        "seconds": result.get("seconds"),
        "source_digest": result.get("environment", {}).get("source_digest"),
    }


def overhead(traced: dict, untraced_path: Path) -> dict:
    """Traced minus untraced value of every end-to-end and stage figure.

    The untraced result must come from the same workload, world, ``--seconds``
    and program sources; otherwise only a note is returned.
    """
    if not untraced_path.is_file():
        return {"note": f"no untraced result at {untraced_path.name}; run with --trace 0 first"}
    base = json.loads(untraced_path.read_text())
    mine, theirs = _comparable(traced), _comparable(base)
    differ = [key for key in mine if mine[key] != theirs[key]]
    if differ:
        return {"note": f"untraced result at {untraced_path.name} differs in {', '.join(differ)}; "
                        "run with --trace 0 and the same --seconds first"}
    out = {"untraced_seed": base["seed"]}
    for group in ("end_to_end", "stages"):
        for name, entry in traced[group].items():
            if name in base.get(group, {}):
                before = base[group][name]["value"]
                out[name] = {
                    "traced_minus_untraced": entry["value"] - before,
                    "relative": (entry["value"] - before) / before if before else None,
                    "unit": entry["unit"],
                }
    return out


def summary(result: dict) -> dict:
    """The last stdout line: end-to-end metrics, or per-layer ones when traced."""
    group = "per_layer" if result["trace"] else "end_to_end"
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": e["value"], "unit": e["unit"]} for name, e in result[group].items()},
    }


def print_report(result: dict) -> None:
    print(f"trafficflow benchmark  workload={result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}  operations={result['operations']}")
    env = result["environment"]
    print(f"  env: numpy {env['numpy']}, python {env['python']}, BLAS {env['blas'].get('name')} "
          f"{env['blas'].get('version')} x{env['blas_threads']} thread, nproc {env['nproc']}, "
          f"{env['cpu_model']}, git {env['git_sha'][:12]}")
    for group in ("end_to_end", "stages", "per_layer"):
        entries = result.get(group)
        if not entries:
            continue
        print(f"  {group}:")
        for name, e in entries.items():
            n = f"  n={e['n']}" if "n" in e else ""
            print(f"    {name:44s} {e['value']:14.6g} {e['unit']:12s} {e['better']}{n}")
    print(f"  operations checked: attempted {result['attempted']}, failed {result['failed']}")
    for failure in result["failures"]:
        print(f"    FAILED {failure}")
    if result["quality"]:
        print(f"  quality: {json.dumps(result['quality'])}")
    if "span_table" in result:
        print("  span table (top 20 by self time):")
        for row in result["span_table"][:20]:
            print(f"    {row['name']:44s} calls {row['calls']:8d}  self {row['self_ms']:10.1f} ms  "
                  f"total {row['total_ms']:10.1f} ms  p50 {row['p50_us']:9.1f} us")
    if "overhead" in result:
        print(f"  tracing overhead: {json.dumps(result['overhead'])}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), PROFILE)
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result["overhead"] = overhead(result, OUT / f"{args.workload}-trace0.json")
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print_report(result)
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
