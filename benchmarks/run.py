"""iad benchmark: one workload, run as the real CLI stages, end to end or traced.

    python3 benchmarks/run.py --workload desk_iad --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
A closed loop in one process calls ``iad.cli.main([...])`` for
train -> eval -> ood -> attack -> verify, each stage starting after the
previous one returns, and repeats that pipeline until ``--seconds`` is used up.
Every pipeline is checked (exit codes, report invariants, byte-identical
artifacts across repeats). ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, with every stage wall divided by the time of the reference
kernel of ``reference.py`` measured around it; ``--trace 1`` reports the
per-layer ones: isolated calls at fixed shapes, plus self time per module from
pipelines run with the tracer of ``spans.py`` installed, alternated with
untraced ones to give the overhead.

The last line of standard output is one JSON object; the lines before it give
the environment and every metric with its unit. See README.md in this
directory for the metric list and why each workload exists.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the runner is single-threaded.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from reference import reference_s  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

STAGES = ("train", "eval", "ood", "attack", "verify")
SETUP_REPEATS = 3
# Input sets per run, cycled over its pipelines. Stage costs depend on the
# data and the trained model (e.g. the digamma recurrence on the alphas), by
# ~5% between seeds; several sets per run average that out.
DATA_VARIANTS = 4
MIN_PIPELINES = 3
LAYER_BUDGET_S = 0.1
# 0 <= MI <= H <= ln K is checked up to float64 rounding of the report values.
REPORT_TOL = 1e-12

# Modules each stage can reach, for the trace.<stage>.<module>.self_s metrics;
# "cli" is the stage wall minus the self time of the others.
STAGE_MODULES = {
    "train": ("specfun", "losses", "network", "training", "data", "cli"),
    "eval": ("specfun", "dirichlet", "network", "evaluation", "data", "cli"),
    "ood": ("specfun", "dirichlet", "network", "evaluation", "data", "cli"),
    "attack": ("specfun", "dirichlet", "losses", "network", "evaluation", "data", "cli"),
    "verify": ("specfun", "losses", "verify", "cli"),
}


@dataclass(frozen=True)
class Workload:
    """Config overrides for every stage, plus the generated IDX input, if any.

    Training runs exactly ``train.max_epochs`` epochs (patience is set equal),
    so early stopping cannot change the work."""

    config: dict
    idx_per_class: int = 0     # >0: write an MNIST-shaped 10-class IDX pair


def _config(loss: str, arch: list[int], batch: int, epochs: int, **extra) -> dict:
    # Every stage is sized to take 0.1-0.6 s, so that a run holds many
    # pipelines: see reference.py for why short samples measure steadier.
    # With t0 = 1 every epoch after the first trains with lambda_t > 0; the
    # learning rate is raised so that these few epochs reach full accuracy.
    return {"loss": loss, "arch": arch, "train.batch_size": batch,
            "train.max_epochs": epochs, "train.patience": epochs,
            "train.t0": 1, "train.t_rate": epochs, "train.learning_rate": 5e-3,
            "attack.epsilons": [0.0, 0.3],
            "verify.trials": 100, "verify.n_triples": 300_000, **extra}


WORKLOADS = {
    # the paper's desk configuration
    "desk_iad": Workload(_config("iad", [32, 32], 32, 3)),
    # same data and net without special functions in the step
    "desk_edl": Workload(_config("edl", [32, 32], 32, 15)),
    # K=10, D=784: matmuls, Adam over ~90k parameters, 2 MB checkpoints
    "wide_k10": Workload(_config("iad", [100, 100], 64, 3, **{"data.kind": "idx"}),
                         idx_per_class=200),
}

# Self-test sizes: the same stages and metric names on inputs small enough to
# run the whole harness in seconds.
TINY = {"data.per_class": 40, "train.max_epochs": 2, "train.patience": 2,
        "ood.n": 50, "verify.trials": 3, "verify.n_triples": 100}
TINY_IDX_PER_CLASS = 8


def write_idx(prefix: Path, seed: int, per_class: int = 300, k: int = 10,
              side: int = 28) -> tuple[Path, Path]:
    """A learnable MNIST-shaped IDX pair: each class has a random stroke mask
    (a fifth of the pixels); an image lights half its class's mask plus a tenth
    of all pixels at random, on a black background. Same seed, same bytes."""
    rng = np.random.default_rng(seed)
    masks = rng.random((k, side * side)) < 0.2
    labels = rng.permutation(np.repeat(np.arange(k, dtype=np.uint8), per_class))
    shape = (labels.size, side * side)
    lit = (masks[labels] & (rng.random(shape) < 0.5)) | (rng.random(shape) < 0.1)
    pixels = np.where(lit, rng.uniform(128.0, 255.0, shape), 0.0).astype(np.uint8)
    images_path = prefix.with_name(prefix.name + "-images.idx")
    labels_path = prefix.with_name(prefix.name + "-labels.idx")
    images_path.write_bytes(struct.pack(">4I", 0x803, labels.size, side, side)
                            + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">2I", 0x801, labels.size) + labels.tobytes())
    return images_path, labels_path


@dataclass
class Inputs:
    """What one run feeds the CLI, and the counts its checks expect."""

    config_path: Path
    values: dict      # the resolved config: package defaults plus overrides
    n_train: int
    n_test: int
    k: int


def _first_part(n: int, frac: float) -> int:
    """Rows per class in the first part when a class of n is split [1 - frac, frac]."""
    return math.floor((1.0 - frac) * n + 0.5)


def make_inputs(wl: Workload, seed: int, workdir: Path, tiny: bool) -> Inputs:
    """Write the config (and IDX pair) one run uses; return expected counts."""
    from iad.config import DEFAULTS

    workdir.mkdir(parents=True, exist_ok=True)
    overrides = dict(wl.config, **(TINY if tiny else {}))
    if wl.idx_per_class:
        per_class = TINY_IDX_PER_CLASS if tiny else wl.idx_per_class
        images, labels = write_idx(workdir / "wide", seed, per_class)
        overrides["data.idx_images"], overrides["data.idx_labels"] = str(images), str(labels)
        k = 10
    values = dict(DEFAULTS, **overrides)
    if not wl.idx_per_class:
        per_class, k = values["data.per_class"], values["data.classes"]
    fit = _first_part(per_class, values["data.test_fraction"])
    config_path = workdir / "config.txt"
    config_path.write_text("".join(f"{key} = {json.dumps(val)}\n"
                                   for key, val in sorted(overrides.items())),
                           encoding="utf-8")
    return Inputs(config_path, values, n_train=k * _first_part(fit, values["train.val_fraction"]),
                  n_test=k * (per_class - fit), k=k)


def fresh_import():
    """Import the package from ``src/`` anew (its import cost is set-up)."""
    for name in [m for m in sys.modules if m == "iad" or m.startswith("iad.")]:
        del sys.modules[name]
    cli = importlib.import_module("iad.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"iad imported from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# checks


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_train(d: Path, inp: Inputs) -> None:
    rows = _read_csv(d / "train_record.csv")
    _require(len(rows) == inp.values["train.max_epochs"],
             f"train_record.csv has {len(rows)} epochs")
    _require(all(math.isfinite(float(r[k])) for r in rows
                 for k in ("train_loss", "val_loss", "val_acc")), "non-finite train record")


def check_reports(d: Path, inp: Inputs) -> None:
    rows = _read_csv(d / "reports.csv")
    _require(len(rows) == inp.n_test, f"reports.csv has {len(rows)} rows, not {inp.n_test}")
    ln_k = math.log(inp.k)
    for i, r in enumerate(rows):
        h, mi = float(r["entropy"]), float(r["mutual_info"])
        _require(-REPORT_TOL <= mi <= h + REPORT_TOL and h <= ln_k + REPORT_TOL,
                 f"reports.csv row {i}: MI={mi!r} H={h!r} ln K={ln_k!r}")


def check_ood(d: Path, inp: Inputs) -> None:
    ent = json.loads((d / "ood_entropy.json").read_text(encoding="utf-8"))
    mi = json.loads((d / "ood_mutual_info.json").read_text(encoding="utf-8"))
    n = inp.values["ood.n"]
    _require(ent["count"] == n and mi["count"] == n, "ood summaries miss rows")
    # the summaries keep min and the upper whisker, not the maximum
    _require(-REPORT_TOL <= mi["min"] <= ent["min"]
             and ent["whisker_hi"] <= math.log(inp.k) + REPORT_TOL,
             "ood entropy or MI out of range")


def check_attack(d: Path, eval_dir: Path, inp: Inputs) -> None:
    rows = _read_csv(d / "attack_sweep.csv")
    eps = inp.values["attack.epsilons"]
    _require([float(r["epsilon"]) for r in rows] == [float(e) for e in eps],
             "attack_sweep.csv epsilons differ from the config")
    correct = [int(r["correct"]) for r in _read_csv(eval_dir / "reports.csv")]
    _require(float(rows[0]["accuracy"]) == sum(correct) / len(correct),
             "eps=0 accuracy differs from the eval accuracy")


def check_verify(d: Path, inp: Inputs) -> None:
    verdicts = json.loads((d / "verify_evidence.json").read_text(encoding="utf-8"))
    failed = [name for name, v in verdicts.items() if not v["passed"]]
    _require(len(verdicts) == 5 and not failed, f"verify verdicts not PASS: {failed}")


def artifact_digest(pipeline_dir: Path) -> dict[str, str]:
    """sha256 of every artifact; train_record.csv without its seconds column,
    the one field that is meant to vary."""
    out = {}
    for path in sorted(p for p in pipeline_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "train_record.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
        out[str(path.relative_to(pipeline_dir))] = hashlib.sha256(data).hexdigest()
    return out


def best_val_acc(train_dir: Path) -> float:
    """val_acc of the best epoch: the first with the lowest val_loss."""
    rows = _read_csv(train_dir / "train_record.csv")
    best = min(range(len(rows)), key=lambda i: (float(rows[i]["val_loss"]), i))
    return float(rows[best]["val_acc"])


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Ledger:
    """Operations attempted and failed: stage calls plus correctness checks."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # a failed check is counted, never fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


def run_stage(cli, argv: list[str], tracer=None) -> float:
    """Wall seconds of one ``iad`` command; raises if it does not exit 0.
    With a tracer, its wrappers are installed outside the timed call."""
    sink = io.StringIO()
    if tracer is not None:
        tracer.stage = argv[0]
        tracer.install()
    try:
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        wall = perf_counter() - t0
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        raise CheckFailed(f"iad {argv[0]} raised {type(exc).__name__}") from exc
    finally:
        if tracer is not None:
            tracer.uninstall()
    if rc != 0:
        raise CheckFailed(f"iad {argv[0]} exited {rc!r}")
    return wall


def run_pipeline(cli, inp: Inputs, seed: int, pdir: Path, ledger: Ledger,
                 walls: dict, after_stage=None, tracer=None, traced_walls=None,
                 traced_first: bool = False, refs: dict | None = None) -> None:
    """One pass of every stage into ``pdir``, then its checks. With a tracer,
    each stage also runs traced, into ``<pdir>-traced``, right before or after
    its untraced run, so that both see the same machine speed. With ``refs``,
    the reference kernel runs before the first stage and after every stage, and
    ``refs[stage]`` gets the mean of the two around each wall in ``walls``."""
    common = ["--config", str(inp.config_path), "--seed", str(seed)]
    ckpt = str(pdir / "train" / "checkpoint.json")
    argv = {
        "train": ["train", *common],
        "eval": ["eval", *common, "--checkpoint", ckpt],
        "ood": ["ood", *common, "--checkpoint", ckpt],
        "attack": ["attack", *common, "--checkpoint", ckpt],
        "verify": ["verify", *common],
    }
    traced_dir = pdir.with_name(pdir.name + "-traced")
    ref_before = reference_s() if refs is not None else 0.0
    for stage in STAGES:
        runs = [(pdir / stage, walls, None)]
        if tracer is not None:
            runs.insert(0 if traced_first else 1, (traced_dir / stage, traced_walls, tracer))
        for out, sink, tr in runs:
            ledger.record(f"stage {stage}", lambda out=out, sink=sink, tr=tr: sink.setdefault(
                stage, []).append(run_stage(cli, argv[stage] + ["--out", str(out)], tr)))
        if refs is not None:
            ref_after = reference_s()
            if len(walls.get(stage, ())) > len(refs.get(stage, ())):  # the stage succeeded
                refs.setdefault(stage, []).append((ref_before + ref_after) / 2.0)
            ref_before = ref_after
        if after_stage is not None:
            after_stage(stage, pdir / stage)
    ledger.record("train record", lambda: check_train(pdir / "train", inp))
    ledger.record("reports", lambda: check_reports(pdir / "eval", inp))
    ledger.record("ood summaries", lambda: check_ood(pdir / "ood", inp))
    ledger.record("attack sweep", lambda: check_attack(pdir / "attack", pdir / "eval", inp))
    ledger.record("verify verdicts", lambda: check_verify(pdir / "verify", inp))


def _median_or_nan(values) -> float:
    return statistics.median(values) if values else float("nan")


def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import iad
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "iad": iad.__version__,
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV},
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        after_stage=None, workroot: Path | None = None) -> tuple[dict, dict, Ledger]:
    """Run one workload. Returns (metrics by name, environment, ledger);
    ``after_stage(stage, out_dir)`` is called after every stage (self-tests)."""
    wl = WORKLOADS[workload]
    workroot = workroot or ROOT / ".bench_work"
    work = workroot / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(wl, workload, seed, seconds, trace, tiny, after_stage, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl, workload, seed, seconds, trace, tiny, after_stage, work):
    setups = []
    # the self-tests keep one set, so that their few pipelines repeat it
    data_seeds = [seed * DATA_VARIANTS + j for j in range(1 if tiny else DATA_VARIANTS)]

    def set_up(n: int):
        # Set-up runs at the start and again before every pipeline, so that
        # its median samples the machine's speed over the whole run. Each time
        # it writes the same bytes to the same paths as for the same set.
        t0 = perf_counter()
        cli = fresh_import()
        j = n % len(data_seeds)
        inp = make_inputs(wl, data_seeds[j], work / f"input{j}", tiny)
        setups.append(perf_counter() - t0)
        return cli, inp, data_seeds[j]

    for _ in range(SETUP_REPEATS):
        cli, inp, data_seed = set_up(0)
    env = environment(workload, seed, seconds, int(trace))
    env["data_seeds"] = data_seeds

    ledger = Ledger()
    metrics: dict[str, float] = {}
    start = perf_counter()
    if trace:
        metrics.update(_layer_metrics(seed, work, 0.0 if tiny else LAYER_BUDGET_S))
    # A traced run warms up with one untraced pipeline; every later pipeline
    # runs each stage twice, traced and untraced, in alternating order.
    min_pipelines = 2 if trace or tiny else MIN_PIPELINES
    walls: dict[str, list[float]] = {}
    refs: dict[str, list[float]] = {}
    ratios: dict[str, list[float]] = {}
    self_s: list[dict] = []
    counts: dict[str, float] = {}
    first_digest: dict[int, dict[str, str]] = {}   # by data seed
    val_accs: list[float] = []
    loop_start = perf_counter()
    n = 0
    while True:
        if n > 0:
            cli, inp, data_seed = set_up(n)
        pdir = work / f"pipeline{n}"
        dirs = [pdir]
        if trace and n > 0:
            import iad
            from spans import Tracer
            tracer = Tracer(iad)
            plain: dict[str, list[float]] = {}
            traced: dict[str, list[float]] = {}
            run_pipeline(cli, inp, data_seed, pdir, ledger, plain, after_stage, tracer, traced,
                         traced_first=n % 2 == 0)
            dirs.append(pdir.with_name(pdir.name + "-traced"))
            stage_walls = {s: traced.get(s, [float("nan")])[0] for s in STAGES}
            plain_walls = {s: plain.get(s, [float("nan")])[0] for s in STAGES}
            for stage in STAGES:
                ratios.setdefault(stage, []).append(stage_walls[stage] / plain_walls[stage])
            ratios.setdefault("all", []).append(
                sum(stage_walls.values()) / sum(plain_walls.values()))
            self_s.append(_self_times(tracer, stage_walls))
            counts = counts or _trace_counts(tracer, inp)
        else:
            run_pipeline(cli, inp, data_seed, pdir, ledger, {} if trace else walls,
                         after_stage, refs=None if trace else refs)
        if n == 0:
            # peak over set-up and one pipeline: later pipelines repeat the
            # same work, and only add allocator noise to the high-water mark
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for i, d in enumerate(dirs):
            digest = artifact_digest(d)
            reference = first_digest.setdefault(data_seed, digest)
            if reference is digest:
                try:
                    val_accs.append(best_val_acc(pdir / "train"))
                except (OSError, KeyError, ValueError):
                    pass  # the train checks have counted this failure
            else:
                differ = sorted(k for k in digest.keys() | reference.keys()
                                if digest.get(k) != reference.get(k))
                ledger.record(f"pipeline {n}{' traced' * i} artifacts equal the first "
                              f"of data seed {data_seed}",
                              lambda: _require(not differ, f"artifacts differ: {differ}"))
            shutil.rmtree(d, ignore_errors=True)
        n += 1
        now = perf_counter()
        next_end = now + (now - loop_start) / n
        if n >= min_pipelines and next_end - start > seconds:
            break

    env["pipelines"] = n
    env["walls"] = walls
    env["refs"] = refs
    if trace:
        metrics.update({name: statistics.median(d[name] for d in self_s)
                        for name in self_s[0]})
        for key, r in ratios.items():
            prefix = "trace" if key == "all" else f"trace.{key}"
            metrics[f"{prefix}.overhead_frac"] = statistics.median(r) - 1.0
        metrics.update(counts)
    else:
        eps = inp.values["attack.epsilons"]
        epochs = inp.values["train.max_epochs"]
        n_ood = inp.values["ood.n"]
        # stage walls in reference units: median over pipelines of wall / ref
        med = {s: _median_or_nan([w / r for w, r in zip(walls.get(s, []), refs.get(s, []))])
               for s in STAGES}
        metrics.update({
            "train_examples_per_ref": inp.n_train * epochs / med["train"],
            "eval_rows_per_ref": inp.n_test / med["eval"],
            "ood_rows_per_ref": n_ood / med["ood"],
            "attack_rows_per_ref": inp.n_test * len(eps) / med["attack"],
            "verify_ref": med["verify"],
            "val_acc": _median_or_nan(val_accs),
            "peak_rss_mb": peak_rss_mb,
            "ok_op_ratio": 1.0 - len(ledger.failures) / ledger.attempted,
            "setup_s": statistics.median(setups),
        })
    return metrics, env, ledger


def _layer_metrics(seed: int, work: Path, budget_s: float) -> dict[str, float]:
    import layers
    work.mkdir(parents=True, exist_ok=True)
    return layers.measure(seed, work, budget_s, write_idx)


def _self_times(tracer, stage_walls: dict[str, float]) -> dict[str, float]:
    out = {}
    for stage in STAGES:
        selfs = tracer.module_self_s(stage)
        for module in STAGE_MODULES[stage]:
            if module != "cli":
                out[f"trace.{stage}.{module}.self_s"] = selfs[module]
        out[f"trace.{stage}.cli.self_s"] = stage_walls[stage] - sum(selfs.values())
        out[f"trace.{stage}.wall_s"] = stage_walls[stage]
    return out


def _trace_counts(tracer, inp: Inputs) -> dict[str, float]:
    """Work counts of the first traced pipeline; they repeat exactly."""
    steps = tracer.count("train", "training", "adam_step")
    calls = tracer.count("train", "specfun")
    n_eps = sum(1 for e in inp.values["attack.epsilons"] if e != 0.0)
    elems = tracer.elems.get(("train", "specfun"), 0)

    def per(x, base):
        return x / base if base else 0.0

    return {
        "trace.train.specfun.calls_per_step": per(calls, steps),
        "trace.train.specfun.elems_per_call": per(elems, calls),
        "trace.train.specfun.log_gamma.calls_per_step":
            per(tracer.count("train", "specfun", "log_gamma"), steps),
        "trace.train.specfun.trigamma.calls_per_step":
            per(tracer.count("train", "specfun", "trigamma"), steps),
        "trace.train.losses.calls_per_step": per(tracer.count("train", "losses"), steps),
        "trace.attack.evaluation.fgsm_attack.calls_per_epsilon":
            per(tracer.count("attack", "evaluation", "fgsm_attack"), n_eps),
    }


def _declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: same stages and names, small inputs")
    args = parser.parse_args(argv)

    if not (SRC / "iad" / "cli.py").is_file():
        print(f"error: no iad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = _declared(bool(args.trace))
    metrics, env, ledger = run(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.tiny)

    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    ledger.record("every declared metric measured",
                  lambda: _require(not missing, f"not measured: {missing}"))
    result = {name: {"value": metrics.get(name, 0.0), "unit": unit}
              for name, unit in units.items()}
    bad = sorted(name for name, m in result.items() if not math.isfinite(m["value"]))
    ledger.record("every metric finite", lambda: _require(not bad, f"not finite: {bad}"))
    for name in bad:
        result[name]["value"] = 0.0
    print("ENV " + json.dumps(env, sort_keys=True))
    for name, m in result.items():
        print(f"METRIC {name} {m['value']!r} {m['unit']}")
    failed = len(ledger.failures)
    print(f"CHECKS attempted={ledger.attempted} failed={failed} "
          f"failed_op_ratio={failed / max(ledger.attempted, 1)!r}")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
