"""Command-line entry point: train / eval / ood / attack / verify / compare.

Every command writes all artifacts into one run directory together with the
resolved config, the root seed and a content hash of the inputs, so a run is
reproducible from the directory alone. This module writes every artifact of
the run directory but the checkpoint, which network writes and reads: every
CSV through _write_csv and every JSON document through _write_json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, astuple
from itertools import starmap
from pathlib import Path

import numpy as np

from . import data, evaluation, network, training, verify
from .config import ConfigError, ExperimentConfig, parse_assignment
from .losses import LossConfig

log = logging.getLogger("iad.cli")


class UsageError(Exception):
    """A command line that cannot run: a missing, unreadable or mismatched
    checkpoint, or an output directory that is in use."""


def _setup_logging():
    level = os.environ.get("IAD_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s %(message)s")


def _load_config(args) -> ExperimentConfig:
    """The --config file under --set and --seed, each key given once."""
    items = [parse_assignment(item, "--set") for item in args.set or []]
    if args.seed is not None:
        items.append(("seed", args.seed))
    overrides = {}
    for key, val in items:
        if key in overrides:
            raise ConfigError(f"{key}: given twice on the command line (--set, --seed)")
        overrides[key] = val
    if args.config:
        return ExperimentConfig.from_file(args.config, overrides)
    return ExperimentConfig(overrides)


def _prepare_out_dir(args) -> Path:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise UsageError(f"output directory {out} is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_inputs(cfg: ExperimentConfig) -> dict[str, bytes]:
    """The bytes of each data file that data.kind reads, keyed and ordered by
    its config key, read once: the loaders parse them and inputs_sha256
    covers them. An empty key is refused before the next file is opened; a
    key that data.kind does not read is not opened."""
    kind = cfg["data.kind"]
    keys = {"csv": ["data.csv"], "idx": ["data.idx_images", "data.idx_labels"]}.get(kind, [])
    raw = {}
    for key in keys:
        if not cfg[key]:
            raise ConfigError(f"{key}: must name a file when data.kind = {kind}")
        with open(cfg[key], "rb") as fh:
            raw[key] = fh.read()
    return raw


def _input_hash(resolved: str, raw: dict[str, bytes]) -> str:
    """sha256 of the resolved config text, then of each data file's bytes."""
    h = hashlib.sha256(resolved.encode())
    for blob in raw.values():
        h.update(blob)
    return h.hexdigest()


def _write_json(path: Path, doc) -> None:
    """Every JSON artifact: two-space indent, sorted keys, a final newline."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8",
                    newline="")


def _write_csv(path: Path, header: str, line: str, rows) -> None:
    """Every CSV artifact: the header, then line.format(*row) per row, each
    ended by a newline, in one write. No field holds a comma, quote or
    newline, so these are the bytes of csv.writer(lineterminator="\n");
    floats go through {!r}, the shortest repr that reads back to the same
    float."""
    path.write_text(header + "\n" + "".join(starmap((line + "\n").format, rows)),
                    encoding="utf-8", newline="")


def _write_run_metadata(out: Path, cfg: ExperimentConfig, resolved: str,
                        inputs_sha256: str) -> None:
    (out / "config_resolved.txt").write_text(resolved, encoding="utf-8")
    _write_json(out / "run_meta.json", {"seed": cfg["seed"], "inputs_sha256": inputs_sha256})


def _rng_streams(cfg: ExperimentConfig) -> dict[str, np.random.Generator]:
    names = ["blobs", "split", "ood"]
    seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(names))
    return {n: np.random.default_rng(s) for n, s in zip(names, seeds)}


def build_datasets(cfg: ExperimentConfig, raw: dict[str, bytes],
                   keep) -> tuple[data.Dataset | None, data.Dataset | None]:
    """Deterministic (train, test) pair from the config, the root seed and
    the data files' bytes (from _read_inputs). Only the parts in keep (0 the
    training part, 1 the test part) are built, the other is None; the split
    is drawn and checked whole, so a part is the same whichever are kept.
    Every command that reads data needs labels, so a CSV without a label
    column is refused."""
    kind = cfg["data.kind"]
    rngs = _rng_streams(cfg)
    frac = cfg["data.test_fraction"]
    fractions, scale = [1.0 - frac, frac], cfg["data.scale_unit"]
    if kind == "idx":
        train_ds, test_ds = data.load_idx_split(
            cfg["data.idx_images"], cfg["data.idx_labels"], fractions, rngs["split"], scale,
            raw["data.idx_images"], raw["data.idx_labels"], keep)
        return train_ds, test_ds
    if kind == "blobs":
        centers = data.triangle_centers(cfg["data.side"])
        k = cfg["data.classes"]
        if k != 3:
            # equally spaced directions on the unit circle, scaled to the side
            ang = 2.0 * np.pi * np.arange(k) / k
            r = cfg["data.side"] / (2.0 * np.sin(np.pi / k))
            centers = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
        ds = data.make_blobs(k, cfg["data.per_class"], centers,
                             cfg["data.spread"], rngs["blobs"])
    else:
        ds = data.load_csv(cfg["data.csv"], raw["data.csv"])
        if ds.labels is None:
            raise data.CsvFormatError(f"{cfg['data.csv']}:1: the header has no 'label' "
                                      "column; training and evaluation need labels")
    split = data.split_scaled if scale else data.split
    train_ds, test_ds = split(ds, fractions, rngs["split"], keep)
    return train_ds, test_ds


def _load_net(args) -> network.NetworkParams:
    if not args.checkpoint:
        raise UsageError(f"{args.command} needs --checkpoint")
    path = Path(args.checkpoint)
    if not path.is_file():
        what = "is not a file" if path.exists() else "does not exist"
        raise UsageError(f"checkpoint {path} {what}")
    return network.load_checkpoint(path)


def _check_net_fits(net: network.NetworkParams, ds: data.Dataset, path) -> None:
    if net.layer_sizes[0] != ds.d or net.output_dim != ds.k:
        raise UsageError(f"checkpoint {path} has layer sizes {net.layer_sizes}, but the "
                         f"dataset has {ds.d} features and {ds.k} classes")


def _summary(cfg: ExperimentConfig, k: int, values) -> dict:
    """The summary of values against the threshold eval.threshold_fraction * ln k."""
    return asdict(evaluation.summarize(values, cfg["eval.threshold_fraction"] * np.log(k)))


def cmd_train(cfg: ExperimentConfig, out: Path, datasets, net) -> int:
    train_ds, _ = datasets
    net, record = training.train(train_ds, cfg["arch"], cfg.train_config(),
                                 loss=cfg["loss"])
    network.save_checkpoint(net, out / "checkpoint.json")
    _write_csv(out / "train_record.csv", "epoch,train_loss,val_loss,val_acc,lambda_t,seconds",
               "{},{!r},{!r},{!r},{!r},{:.3f}", map(astuple, record.rows))
    log.info("best epoch %d", record.best_epoch)
    return 0


def cmd_eval(cfg: ExperimentConfig, out: Path, datasets, net) -> int:
    _, test_ds = datasets
    reports = evaluation.evaluate(net, test_ds)
    # tolist() gives Python ints and floats, so {!r} writes a float's shortest repr
    _write_csv(out / "reports.csv", "pred_class,correct,entropy,mutual_info,max_prob,alpha0",
               "{},{},{!r},{!r},{!r},{!r}",
               zip(*(col.tolist() for col in (
                   reports.pred_class, reports.correct.astype(int), reports.entropy,
                   reports.mutual_info, reports.max_prob, reports.alpha0))))
    for name, keep in (("successes", reports.correct), ("errors", ~reports.correct)):
        if keep.any():
            _write_json(out / f"summary_{name}.json",
                        _summary(cfg, test_ds.k, reports.entropy[keep]))
    return 0


def cmd_ood(cfg: ExperimentConfig, out: Path, datasets, net) -> int:
    rngs = _rng_streams(cfg)
    train_ds, _ = datasets
    ood_ds = data.make_ood_ring(train_ds, cfg["ood.radius_factor"], cfg["ood.n"],
                                rngs["ood"])
    reports = evaluation.evaluate(net, ood_ds)
    _write_json(out / "ood_entropy.json", _summary(cfg, train_ds.k, reports.entropy))
    _write_json(out / "ood_mutual_info.json", _summary(cfg, train_ds.k, reports.mutual_info))
    return 0


def cmd_attack(cfg: ExperimentConfig, out: Path, datasets, net) -> int:
    _, test_ds = datasets
    swept = evaluation.attack_reports(net, test_ds, cfg["attack.epsilons"],
                                      LossConfig(p_norm=cfg["train.p_norm"]))
    _write_csv(out / "attack_sweep.csv", "epsilon,accuracy,mean_entropy,mean_mutual_info",
               "{!r},{!r},{!r},{!r}", (astuple(evaluation.sweep_row(eps, r)) for eps, r in swept))
    summaries = {
        repr(eps): {"entropy": _summary(cfg, test_ds.k, r.entropy),
                    "mutual_info": _summary(cfg, test_ds.k, r.mutual_info)}
        for eps, r in swept
    }
    _write_json(out / "attack_summaries.json", summaries)
    return 0


def cmd_verify(cfg: ExperimentConfig, out: Path, datasets, net) -> int:
    verdicts = verify.run_all(seed=cfg["seed"], trials=cfg["verify.trials"],
                              n_triples=cfg["verify.n_triples"])
    _write_json(out / "verify_evidence.json", {v.name: asdict(v) for v in verdicts})
    rng = np.random.default_rng(cfg["seed"])
    alpha = rng.uniform(5.0, 50.0, size=10)
    alpha[0] = 1.5  # correct class kept small, as in the dip illustration
    sweep = verify.theorem2_figure_sweep(alpha, 0, 2.0, verify.default_grid())
    _write_csv(out / "theorem2_figure.csv", "alpha_j,loss_exact,loss_approx", "{!r},{!r},{!r}",
               zip(sweep["grid"], sweep["exact"], sweep["approx"]))
    _write_json(out / "theorem2_figure.json", sweep)
    failed = [v.name for v in verdicts if not v.passed]
    for v in verdicts:
        print(f"{v.name}: {'PASS' if v.passed else 'FAIL'}")
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(cfg: ExperimentConfig, out: Path, datasets, net) -> int:
    train_ds, test_ds = datasets
    rows = []
    for sel in cfg["compare.losses"]:
        net, _ = training.train(train_ds, cfg["arch"], cfg.train_config(), loss=sel)
        network.save_checkpoint(net, out / f"checkpoint_{sel}.json")
        reports = evaluation.evaluate(net, test_ds)
        stats = [np.mean(reports.correct)] + [
            np.median(reports.entropy[keep]) if keep.any() else np.nan
            for keep in (reports.correct, ~reports.correct)]
        rows.append([sel] + [float(v) for v in stats])
    _write_csv(out / "compare.csv",
               "loss,accuracy,median_entropy_successes,median_entropy_errors",
               "{},{!r},{!r},{!r}", rows)
    return 0


# command: (body, the parts of the (train, test) split it reads, whether it
# reads a trained network from --checkpoint). Only the parts read are built;
# a command that reads none builds no data and opens no data file.
_COMMANDS = {
    "train": (cmd_train, (0,), False),
    "eval": (cmd_eval, (1,), True),
    "ood": (cmd_ood, (0,), True),
    "attack": (cmd_attack, (1,), True),
    "verify": (cmd_verify, (), False),
    "compare": (cmd_compare, (0, 1), False),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``iad`` parser: only the subparser of the command argv[0] names,
    or all of them (help, a missing or unknown command). The metavar keeps
    every command in the usage line of the top-level parser's errors."""
    parser = argparse.ArgumentParser(prog="iad",
                                     description="Information-aware Dirichlet networks")
    full = not (argv and argv[0] in _COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if full else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if full else argv[:1]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file (key = value lines)")
        p.add_argument("--seed", type=int, help="root seed override")
        p.add_argument("--out", default=f"runs/{name}", help="run output directory")
        p.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a single config key")
        if _COMMANDS[name][2]:
            p.add_argument("--checkpoint", help="model checkpoint path")
    return parser


def main(argv=None) -> int:
    """Run one command. Bad input, caught before the run directory is
    written, prints one ``error:`` line: a usage error exits with status 2
    through SystemExit, as argparse's own do; a bad config, or an input file
    that is missing, unreadable or malformed, returns 2. So does a dataset
    too small to fill every part of a split, even a part the command does
    not read: the train/test split is made before the run directory is
    written, training's validation split after."""
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    body, parts, reads_checkpoint = _COMMANDS[args.command]
    try:
        cfg = _load_config(args)
        net = _load_net(args) if reads_checkpoint else None
        raw = _read_inputs(cfg) if parts else {}
        datasets = build_datasets(cfg, raw, parts) if parts else None
        resolved = cfg.resolved_text()
        inputs_sha256 = _input_hash(resolved, raw)
        del raw  # not held through the command
        if net is not None:
            _check_net_fits(net, datasets[parts[0]], args.checkpoint)
        out = _prepare_out_dir(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except (ConfigError, network.CheckpointFormatError, data.CsvFormatError,
            data.IdxFormatError, data.FeatureRangeError, data.EmptySplitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a missing or unreadable --config or data file, or an --out that
        # cannot be created
        print(f"error: {exc.strerror}: {exc.filename!r}", file=sys.stderr)
        return 2
    _write_run_metadata(out, cfg, resolved, inputs_sha256)
    try:
        return body(cfg, out, datasets, net)
    except data.EmptySplitError as exc:
        # training's validation split, made by train and compare before the first epoch
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
