"""Command-line entry point wiring ingest -> train -> evaluate -> simulate.

Every subcommand writes its outputs atomically and drops a config-echo JSON
next to them, so a run can be reproduced from its artifacts alone.  Wall
times live in a separate ``.meta.json`` file; all other outputs are byte
identical for identical inputs and seeds.

Config precedence: built-in defaults < ``--config-file`` JSON < flags.  A
train config file is a ``TrainConfig`` settings document, ``split`` nested;
``--split-axis``, ``--train-units`` and ``--test-units`` set its fields.  Each
echo reads back as input: ``train``'s less ``command``, ``dataset`` and ``out``,
and ``ingest``'s ``snapshot``.  ``evaluate`` lists the ``files`` it wrote, and
removes those of the previous run that it does not write again.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from datetime import date as date_type
from datetime import time as time_type
from pathlib import Path

from . import __version__, evaluation, ingestion, models, simulation, training
from .core import SnapshotConfig, from_json, json_object, read_json_object
from .nn import NonFiniteGradientError
from .serialization import atomic_write_text

# each documented data error, and a path that cannot be read or written, subclasses one of these
_DATA_ERRORS = (ValueError, KeyError, OSError, NonFiniteGradientError)


def _echo(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _parse_overrides(pairs: list[str]) -> dict[str, int]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"config override {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        try:
            overrides[key.strip()] = int(value)
        except ValueError:
            raise ValueError(f"config override {pair!r} is not an integer") from None
    return overrides


def _load_config_file(path: str | None, keys: tuple[str, ...]) -> dict:
    """The JSON object in ``path``, {} without one; ValueError names the first
    key that is not one of ``keys``."""
    return read_json_object(path, f"config file {path}", keys) if path else {}


def _cmd_ingest(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config_file, ("snapshot",))
    overrides = {**json_object(file_cfg.get("snapshot", {}), "snapshot"), **_parse_overrides(args.config)}
    cfg = from_json(SnapshotConfig, overrides, "snapshot")
    spec, raw_series = ingestion.read_detector_file(args.input, n_in=cfg.n_in, m_out=cfg.m_out)
    if not raw_series:
        print("error: input file contains no data rows", file=sys.stderr)
        return 1
    span_start = min(s.samples["time"][0] for s in raw_series).item()
    span_end = max(s.samples["time"][-1] for s in raw_series).item()
    cleaned = [ingestion.clean(s, cfg, span=(span_start, span_end)) for s in raw_series]
    dataset = ingestion.window(cleaned, spec, cfg)
    ingestion.save_dataset(dataset, args.out)
    _echo(
        Path(str(args.out) + ".config.json"),
        {
            "command": "ingest",
            "input": str(args.input),
            "snapshot": asdict(cfg),
            "out": str(args.out),
            "snapshots": dataset.z,
        },
    )
    print(f"ingested {dataset.z} snapshots from {len(raw_series)} detectors -> {args.out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    job = ingestion.load_profile(args.profile)
    series = ingestion.synth(job.profile, job.spec, job.days, args.seed, cfg=job.cfg, start=job.start)
    dataset = ingestion.window(series, job.spec, job.cfg)
    ingestion.save_dataset(dataset, args.out)
    _echo(
        Path(str(args.out) + ".config.json"),
        {
            "command": "synth",
            "profile": str(args.profile),
            "seed": args.seed,
            "out": str(args.out),
            "snapshots": dataset.z,
        },
    )
    print(f"synthesized {dataset.z} snapshots over {job.days} days -> {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    # flags override the config file field by field; what neither gives
    # keeps the defaults of TrainConfig and SplitSpec
    name = f"config file {args.config_file}"
    doc = _load_config_file(args.config_file, training.SETTINGS)
    doc.update({key: getattr(args, key) for key in training.SETTINGS if getattr(args, key, None) is not None})
    sides = {"axis": args.split_axis, "train": args.train_units, "test": args.test_units}
    sides = {side: value for side, value in sides.items() if value is not None}
    if sides:
        doc["split"] = {**json_object(doc.get("split", {}), f"{name}.split"), **sides}
    cfg = from_json(training.TrainConfig, doc, name)
    dataset = ingestion.load_dataset(args.dataset)
    params, report = training.train(dataset, cfg)
    models.save_file(params, args.out)
    _echo(Path(str(args.out) + ".report.json"), report.to_dict())
    atomic_write_text(
        Path(str(args.out) + ".meta.json"),
        json.dumps({"wall_time_s": report.wall_time_s}, sort_keys=True) + "\n",
    )
    _echo(
        Path(str(args.out) + ".config.json"),
        {"command": "train", "dataset": str(args.dataset), "out": str(args.out), **report.config},
    )
    print(
        f"trained {cfg.model} for {cfg.epochs} epochs "
        f"(final train loss {report.epoch_losses[-1]:.6f}, test rmse {report.final_test_rmse:.6f}) -> {args.out}"
    )
    return 0


# the names evaluate writes, the only ones a later evaluate removes
_EVALUATE_FILE = re.compile(r"(daily_rmse|boxplot|day_curve|slot_[0-9]{2}:[0-9]{2})\.csv")


def _listed_files(config: Path) -> list[str]:
    """The ``files`` an earlier evaluate's ``config`` lists, [] without the
    file or the key; ValueError naming ``config`` if it is not a JSON object
    whose ``files`` is a list of strings."""
    if not config.exists():
        return []
    files = read_json_object(config, str(config)).get("files", [])
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        raise ValueError(f"{config}: files must be a list of strings, got {files!r}")
    return files


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = Path(args.out_dir) / "config.json"
    listed = _listed_files(config)
    dataset = ingestion.load_dataset(args.dataset)
    predictors: dict[str, object] = {}
    first = models.build_predictor(models.load_file(args.model))
    predictors[first.kind] = first
    if args.model2:
        second = models.build_predictor(models.load_file(args.model2))
        name = second.kind if second.kind not in predictors else f"{second.kind}_2"
        predictors[name] = second
    if args.baseline:
        predictors["persistence"] = evaluation.PersistencePredictor(dataset.config)

    slots = [time_type.fromisoformat(s) for s in (args.slot or ["07:30", "12:00"])]
    point = None
    if args.point:
        matches = [p for p in dataset.spec.points if p.id == args.point]
        if not matches:
            raise evaluation.UnknownPointError(f"point {args.point!r} is not in the dataset")
        point = matches[0]
    curve_day = date_type.fromisoformat(args.date) if args.date else None
    report = evaluation.evaluate_models(predictors, dataset, slots=slots, point=point, curve_day=curve_day)
    if args.date and not any(report.curves.values()):
        raise ValueError(f"point {report.notes['point']} has no snapshot on {curve_day}")
    for label, by_model in report.slots.items():
        if args.slot and not any(by_model.values()):
            raise ValueError(f"point {report.notes['point']} has no snapshot at {label}")
    written = evaluation.write_report(report, args.out_dir)
    names = [path.name for path in written]
    for name in set(listed).difference(names):
        if _EVALUATE_FILE.fullmatch(name):
            (Path(args.out_dir) / name).unlink(missing_ok=True)
    _echo(
        config,
        {
            "command": "evaluate",
            "dataset": str(args.dataset),
            "files": names,
            "models": sorted(predictors),
            "slots": [s.strftime("%H:%M") for s in slots],
            **report.notes,
        },
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    dataset = ingestion.load_dataset(args.dataset)
    predictor = models.build_predictor(models.load_file(args.model))
    log = simulation.run(list(dataset.series), dataset.spec, dataset.config, predictor, ticks=args.ticks)
    lines = []
    for rec in log.records:
        if rec.prediction is None:
            lines.append(f"{rec.tick},{rec.point_id},SKIP,{rec.skip_reason}")
        else:
            lines.append(f"{rec.tick},{rec.point_id},{rec.prediction!r}")
    atomic_write_text(Path(args.out), "\n".join(lines) + "\n")
    _echo(
        Path(str(args.out) + ".config.json"),
        {
            "command": "simulate",
            "dataset": str(args.dataset),
            "model": str(args.model),
            "ticks": log.ticks,
            "subscriptions": log.subscriptions,
            "messages_delivered": log.messages_delivered,
            "messages_dropped": log.messages_dropped,
        },
    )
    print(
        f"simulated {log.ticks} ticks, {len(log.predictions())} predictions, "
        f"{log.messages_delivered} messages -> {args.out}"
    )
    return 0


def _cmd_version(_: argparse.Namespace) -> int:
    print(f"trafficflow {__version__}")
    print(f"model-format {models.MODEL_FORMAT_VERSION}")
    print(f"dataset-format {ingestion.DATASET_FORMAT_VERSION}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficflow",
        description="Decentralized short-term traffic congestion prediction pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, clean and window a detector-speed file")
    p.add_argument("--input", required=True, help="detector-speed file (documented CSV format)")
    p.add_argument("--config", nargs="*", default=[], metavar="KEY=VALUE",
                   help="snapshot config overrides (delta, n_in, m_out, step_minutes, horizon_steps)")
    p.add_argument("--config-file", default=None, help="JSON file with a 'snapshot' section")
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic dataset from a profile")
    p.add_argument("--profile", required=True, help="JSON synthesis profile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a predictor on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=tuple(models.KINDS), default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split-axis", choices=("point", "time"), default=None)
    p.add_argument("--train-units", type=int, default=None, help="count of train points/days")
    p.add_argument("--test-units", type=int, default=None, help="count of test points/days")
    p.add_argument("--config-file", default=None, help="JSON file of train settings")
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate model(s) on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--model2", default=None)
    p.add_argument("--baseline", action="store_true", help="include the persistence baseline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--slot", action="append", default=None, metavar="HH:MM")
    p.add_argument("--point", default=None, help="point id for series extracts")
    p.add_argument("--date", default=None, help="ISO date for the day curve")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="replay a dataset through decentralized nodes")
    p.add_argument("--dataset", required=True, help="dataset file")
    p.add_argument("--model", required=True)
    p.add_argument("--ticks", type=int, default=None)
    p.add_argument("--out", required=True, help="line-delimited prediction log")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("version", help="print artifact and file-format versions")
    p.set_defaults(func=_cmd_version)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
