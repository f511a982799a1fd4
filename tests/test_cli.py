"""Config parsing and CLI command plumbing on tiny runs."""

import base64
import errno
import hashlib
import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import (csv_writer_file, json_dump_file, reference_backprop, reference_forward,
                     reference_scale_unit, reference_summarize, save_csv)
from test_data import assert_identical, reference_split, write_idx

from iad import cli, data, evaluation, network, training
from iad.cli import (_load_config, _read_inputs, _rng_streams, _write_csv, _write_json,
                     build_datasets, build_parser, main)
from iad.config import DEFAULTS, ConfigError, ExperimentConfig

TINY = ["--set", "data.per_class=40", "--set", "train.max_epochs=3",
        "--set", "train.t0=1", "--set", "train.t_rate=2",
        "--set", "arch=[8]"]


def tiny(*items):
    """TINY with each KEY=VALUE item given by --set in place of TINY's own
    setting of KEY, as the command line may give a key only once."""
    keys = {item.partition("=")[0] for item in items}
    kept = [item for item in TINY[1::2] if item.partition("=")[0] not in keys]
    return [arg for item in kept + list(items) for arg in ("--set", item)]


def run(argv):
    return main(argv)


# -------------------------------------------------------------------- config

def test_config_defaults_complete():
    cfg = ExperimentConfig()
    for key in DEFAULTS:
        assert cfg[key] == DEFAULTS[key]


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig({"no.such.key": 1})
    assert "no.such.key" in str(exc.value)


def test_config_from_file_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 17\ndata.spread = 1.25\nloss = edl\n"
                    "# a comment line\n\narch = [16, 16]\n")
    cfg = ExperimentConfig.from_file(path, {"seed": 3})
    assert cfg["seed"] == 3          # override wins
    assert cfg["data.spread"] == 1.25
    assert cfg["loss"] == "edl"
    assert cfg["arch"] == [16, 16]


def test_config_from_file_rejects_non_utf8(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"seed = 1\n# caf\xe9\nloss = edl\n")
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_file(path)
    assert f"{path}:2: byte 0xe9 is not UTF-8" in str(exc.value)


def test_cli_config_file_setting_a_key_twice_exits_2(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 1\nloss = edl\n\nseed = 2\n")
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--config", str(path)] + TINY) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {path}:4: seed is already set on line 1"]
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["--set", "seed=1", "--set", "seed=2"], "seed"),
    (["--set", "data.spread=0.5", "--set", "data.spread=0.7"], "data.spread"),
    (["--seed", "5", "--set", "seed=1"], "seed")],
    ids=["set-seed-twice", "set-key-twice", "seed-and-set-seed"])
def test_cli_key_given_twice_on_the_command_line_exits_2(tmp_path, capsys, argv, key):
    out = tmp_path / "run"
    assert run(["train", "--out", str(out)] + TINY + argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {key}: given twice on the command line (--set, --seed)"]
    assert not out.exists()


def test_config_rejects_bad_loss():
    with pytest.raises(ConfigError):
        ExperimentConfig({"loss": "made-up"})


def test_config_resolved_text_is_stable():
    a = ExperimentConfig({"seed": 5}).resolved_text()
    b = ExperimentConfig({"seed": 5}).resolved_text()
    assert a == b
    assert "seed = 5" in a


def test_train_config_projection():
    cfg = ExperimentConfig({"train.lambda_max": 0.9, "seed": 4})
    tc = cfg.train_config()
    assert tc.lambda_max == 0.9
    assert tc.seed == 4


# ----------------------------------------------------------------------- CLI

def test_cli_train_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--seed", "0"] + TINY) == 0
    for name in ("checkpoint.json", "checkpoint.f64", "train_record.csv",
                 "config_resolved.txt", "run_meta.json"):
        assert (out / name).exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["seed"] == 0
    assert len(meta["inputs_sha256"]) == 64
    lines = (out / "train_record.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_acc,lambda_t,seconds"
    assert len(lines) == 4  # one row per epoch of TINY's three


def test_cli_refuses_nonempty_out_without_force(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "stale.txt").write_text("x")
    with pytest.raises(SystemExit):
        run(["train", "--out", str(out)] + TINY)
    assert run(["train", "--out", str(out), "--force"] + TINY) == 0


def test_cli_eval_requires_checkpoint(tmp_path):
    with pytest.raises(SystemExit):
        run(["eval", "--out", str(tmp_path / "e")] + TINY)


def test_cli_eval_and_ood_and_attack(tmp_path):
    train_out = tmp_path / "t"
    assert run(["train", "--out", str(train_out), "--seed", "1"] + TINY) == 0
    ckpt = str(train_out / "checkpoint.json")

    eval_out = tmp_path / "e"
    eval_argv = ["eval", "--out", str(eval_out), "--seed", "1", "--checkpoint", ckpt] + TINY
    assert run(eval_argv) == 0
    cfg = _load_config(build_parser(eval_argv).parse_args(eval_argv))
    _, test_ds = build_datasets(cfg, _read_inputs(cfg), (1,))
    reports = evaluation.evaluate(network.load_checkpoint(ckpt), test_ds)
    lines = (eval_out / "reports.csv").read_text().splitlines()
    assert lines[0] == "pred_class,correct,entropy,mutual_info,max_prob,alpha0"
    assert len(lines) == test_ds.n + 1
    got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    want = np.stack([reports.pred_class, reports.correct, reports.entropy,
                     reports.mutual_info, reports.max_prob, reports.alpha0], axis=1)
    assert np.array_equal(got, want)
    successes = json.loads((eval_out / "summary_successes.json").read_text())
    assert successes["count"] == np.count_nonzero(reports.correct)

    ood_out = tmp_path / "o"
    assert run(["ood", "--out", str(ood_out), "--seed", "1",
                "--checkpoint", ckpt, "--set", "ood.n=50"] + TINY) == 0
    ent = json.loads((ood_out / "ood_entropy.json").read_text())
    assert ent["count"] == 50

    atk_out = tmp_path / "a"
    assert run(["attack", "--out", str(atk_out), "--seed", "1",
                "--checkpoint", ckpt,
                "--set", "attack.epsilons=[0.0,0.2]"] + TINY) == 0
    sweep = (atk_out / "attack_sweep.csv").read_text().splitlines()
    assert len(sweep) == 3


def test_cli_verify_small(tmp_path):
    out = tmp_path / "v"
    assert run(["verify", "--out", str(out),
                "--set", "verify.trials=5",
                "--set", "verify.n_triples=50"]) == 0
    evidence = json.loads((out / "verify_evidence.json").read_text())
    assert set(evidence) == {"lemma1", "lemma2", "theorem1", "theorem2", "theorem3"}
    assert all(v["passed"] for v in evidence.values())
    figure = json.loads((out / "theorem2_figure.json").read_text())
    lines = (out / "theorem2_figure.csv").read_text().splitlines()
    assert lines[0] == "alpha_j,loss_exact,loss_approx"
    assert len(lines) == len(figure["grid"]) + 1


def test_cli_compare_writes_table(tmp_path):
    out = tmp_path / "c"
    assert run(["compare", "--out", str(out), "--seed", "2",
                "--set", 'compare.losses=["iad","edl"]'] + TINY) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("loss,accuracy")
    assert len(lines) == 3
    for loss in ("iad", "edl"):
        assert (out / f"checkpoint_{loss}.json").exists()
        assert (out / f"checkpoint_{loss}.f64").exists()
        assert network.load_checkpoint(out / f"checkpoint_{loss}.json").layer_sizes[-1] == 3


# floats that csv.writer and json.dump spell in every form repr has: nan,
# infinities, a signed zero, the smallest subnormal, exponent notation
_AWKWARD_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16,
                   1e-7, 0.1, 2.0 / 3.0, -1.5]


def test_write_csv_matches_csv_writer(tmp_path):
    rows = [(loss, i - 3, x, y, 1234.5 * i + y) for i, (loss, x, y) in enumerate(zip(
        ["iad", "edl", "nll", "bayes_ce", "rkl"] * 2, _AWKWARD_FLOATS,
        reversed(_AWKWARD_FLOATS)))]
    _write_csv(tmp_path / "got.csv", "loss,n,x,y,seconds", "{},{},{!r},{!r},{:.3f}", rows)
    csv_writer_file(tmp_path / "want.csv", ["loss", "n", "x", "y", "seconds"],
                    [[loss, n, repr(x), repr(y), f"{s:.3f}"] for loss, n, x, y, s in rows])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_json_matches_json_dump(tmp_path):
    doc = {"floats": _AWKWARD_FLOATS, "ints": [0, -1, 2**53 + 1], "loss": "bayes_ce",
           "nested": {"b": {"passed": True, "knee": None}, "a": [1.5, "rkl"]}, "empty": {}}
    _write_json(tmp_path / "got.json", doc)
    json_dump_file(tmp_path / "want.json", doc)
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_cli_bad_config_key_exits_with_error(tmp_path, capsys):
    assert run(["train", "--out", str(tmp_path / "x"),
                "--set", "bogus.key=1"]) == 2
    assert "bogus.key" in capsys.readouterr().err


# settings that became constants, at their last defaults: Adam's beta1, beta2
# and eps, the reverse-KL target beta and the summary threshold fraction
_REMOVED_KEYS = {"train.adam_beta1": 0.9, "train.adam_beta2": 0.999, "train.adam_eps": 1e-8,
                 "train.kl_beta": 10.0, "eval.threshold_fraction": 0.95}


@pytest.mark.parametrize("where", ["set", "config"])
@pytest.mark.parametrize("key", sorted(_REMOVED_KEYS))
def test_cli_removed_key_at_its_old_default_exits_2(tmp_path, capsys, key, where):
    item = f"{key} = {_REMOVED_KEYS[key]!r}"
    argv = ["--set", item.replace(" ", "")]
    if where == "config":
        path = tmp_path / "exp.cfg"
        path.write_text(item + "\n")
        argv = ["--config", str(path)]
    out = tmp_path / "run"
    assert run(["train", "--out", str(out)] + argv + TINY) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: unknown config key {key!r}"]
    assert not out.exists()


@pytest.mark.parametrize("override", [
    'train.learning_rate="fast"', "train.batch_size=3.5", 'seed="abc"',
    'data.per_class="x"', "train.patience=2.5", "train.max_epochs=true"])
def test_cli_wrong_value_type_names_key(tmp_path, capsys, override):
    assert run(["train", "--out", str(tmp_path / "x"), "--set", override]) == 2
    err = capsys.readouterr().err
    assert override.partition("=")[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override", [
    "seed=-1", "data.classes=1", "data.per_class=0", "attack.epsilons=[0.3,0.1]",
    "attack.epsilons=[-0.1,0.2]", "attack.epsilons=[0.0,NaN]",
    "attack.epsilons=[0.0,Infinity]", "attack.epsilons=[]", "attack.epsilons=[0.0,0.2,0.2]",
    "compare.losses=[]", 'compare.losses=["edl","edl"]',
    "eval.threshold_fraction=2.0", "eval.threshold_fraction=0", "ood.n=0",
    "verify.trials=0", "verify.n_triples=0", "data.test_fraction=0",
    "data.test_fraction=1.0", "data.spread=0", "data.spread=Infinity",
    "data.spread=NaN", "data.side=NaN", "data.side=-Infinity",
    "ood.radius_factor=1.0", "ood.radius_factor=NaN"])
def test_cli_out_of_range_value_names_key(tmp_path, capsys, override):
    out = tmp_path / "x"
    assert run(["train", "--out", str(out)] + tiny(override)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert override.partition("=")[0] in err[0]
    assert not out.exists()


def test_config_int_accepted_for_float_key():
    assert ExperimentConfig({"train.learning_rate": 1}).train_config().learning_rate == 1
    assert ExperimentConfig({"attack.epsilons": [0, 0.5]})["attack.epsilons"] == [0, 0.5]
    with pytest.raises(ConfigError, match="attack.epsilons"):
        ExperimentConfig({"attack.epsilons": [0.0, "big"]})


def test_cli_attack_runs_one_fgsm_pass_per_nonzero_epsilon(tmp_path, monkeypatch):
    from iad import evaluation

    train_out = tmp_path / "t"
    assert run(["train", "--out", str(train_out), "--seed", "1"] + TINY) == 0
    calls = []
    real = evaluation.fgsm_attack

    def counting(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "fgsm_attack", counting)
    out = tmp_path / "a"
    assert run(["attack", "--out", str(out), "--seed", "1",
                "--checkpoint", str(train_out / "checkpoint.json"),
                "--set", "attack.epsilons=[0.0,0.2,0.3]"] + TINY) == 0
    assert calls == [0.2, 0.3]
    summaries = json.loads((out / "attack_summaries.json").read_text())
    assert sorted(summaries) == ["0.0", "0.2", "0.3"]


def _report_pipeline(root: Path) -> dict[str, bytes]:
    """`iad train`, then `eval`, `ood` and `attack` (the default six epsilons)
    on its checkpoint, at a small desk config: every artifact's bytes, keyed
    by its path under root."""
    sets = tiny("arch=[32,32]", "ood.n=200")
    assert run(["train", "--out", str(root / "train"), "--seed", "3"] + sets) == 0
    ckpt = str(root / "train" / "checkpoint.json")
    for command in ("eval", "ood", "attack"):
        assert run([command, "--out", str(root / command), "--seed", "3",
                    "--checkpoint", ckpt] + sets) == 0
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_reports_equal_the_oracle_pipeline_byte_for_byte(tmp_path, monkeypatch):
    """The one-sort summaries and the lean forward trace write the bytes that
    np.percentile's summaries and the trace of every pre-activation write,
    through training, evaluation, the OOD ring and the attack sweep."""
    # a fixed clock, so train_record.csv's seconds column is the same bytes too
    monkeypatch.setattr(training, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    library = _report_pipeline(tmp_path / "library")
    monkeypatch.setattr(network, "forward", reference_forward)
    monkeypatch.setattr(network, "_backprop", reference_backprop)
    monkeypatch.setattr(evaluation, "summarize", reference_summarize)
    oracle = _report_pipeline(tmp_path / "oracle")
    assert {"train/checkpoint.f64", "eval/summary_errors.json", "ood/ood_entropy.json",
            "attack/attack_summaries.json"} <= set(library)
    assert sorted(library) == sorted(oracle)
    for name, blob in library.items():
        assert blob == oracle[name], name


def test_cli_checkpoint_dataset_mismatch(tmp_path):
    train_out = tmp_path / "t"
    assert run(["train", "--out", str(train_out), "--seed", "3"] + TINY) == 0
    with pytest.raises(SystemExit):
        run(["eval", "--out", str(tmp_path / "e"), "--seed", "3",
             "--checkpoint", str(train_out / "checkpoint.json"),
             "--set", "data.classes=4"] + TINY)


def _ckpt_without_weights(tmp_path):
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(network.init([2, 8, 3], np.random.default_rng(0)), path)
    doc = json.loads(path.read_text())
    del doc["payload"]
    path.write_text(json.dumps(doc))
    return ["eval", "--checkpoint", str(path)]


def _ckpt_without_payload_file(tmp_path):
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(network.init([2, 8, 3], np.random.default_rng(0)), path)
    path.with_suffix(".f64").unlink()
    return ["eval", "--checkpoint", str(path)]


def _ckpt_version_true(tmp_path):
    # a well-formed version 3 checkpoint, so only the version's type is wrong
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(network.init([2, 8, 3], np.random.default_rng(0)), path)
    doc = json.loads(path.read_text())
    doc.update(version=True)
    path.write_text(json.dumps(doc))
    return ["eval", "--checkpoint", str(path)]


def _ckpt_version_2(tmp_path):
    # a well-formed version 2 document, base64 arrays inline; no longer read
    path = tmp_path / "ckpt.json"
    net = network.init([2, 8, 3], np.random.default_rng(0))
    b64 = [base64.b64encode(a.astype("<f8").tobytes()).decode()
           for a in net.weights + net.biases]
    path.write_text(json.dumps({
        "format": "iad-checkpoint", "version": 2, "layer_sizes": net.layer_sizes,
        "activation": "relu", "weights": b64[:2], "biases": b64[2:]}))
    return ["eval", "--checkpoint", str(path)]


def _csv_with_negative_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,label\n0.1,0.2,0\n0.3,0.4,-1\n")
    return ["train", "--set", "data.kind=csv", "--set", f"data.csv={path}"]


def _idx_without_header(tmp_path):
    (tmp_path / "images.idx").write_bytes(b"junk")
    (tmp_path / "labels.idx").write_bytes(b"junk")
    return ["train", "--set", "data.kind=idx",
            "--set", f"data.idx_images={tmp_path / 'images.idx'}",
            "--set", f"data.idx_labels={tmp_path / 'labels.idx'}"]


def _idx_longer_than_header(tmp_path):
    ip, lp = write_idx(tmp_path, np.zeros((60, 3, 3), dtype=np.uint8), list(np.arange(60) % 3))
    ip.write_bytes(ip.read_bytes() + bytes(9))
    return ["train", "--set", "data.kind=idx", "--set", f"data.idx_images={ip}",
            "--set", f"data.idx_labels={lp}"]


@pytest.mark.parametrize("make_args", [
    _ckpt_without_weights, _ckpt_without_payload_file, _ckpt_version_true,
    _ckpt_version_2, _csv_with_negative_label, _idx_without_header,
    _idx_longer_than_header])
def test_cli_malformed_input_file_exits_2(tmp_path, capsys, make_args):
    argv = make_args(tmp_path) + ["--out", str(tmp_path / "run")] + TINY
    assert run(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(tmp_path) in err[0]
    assert not (tmp_path / "run").exists()


def _no_checkpoint(tmp_path):
    return ["eval"]


def _missing_checkpoint(tmp_path):
    return ["ood", "--checkpoint", str(tmp_path / "missing.json")]


def _directory_checkpoint(tmp_path):
    (tmp_path / "ckpt_dir").mkdir()
    return ["eval", "--checkpoint", str(tmp_path / "ckpt_dir")]


def _mismatched_checkpoint(tmp_path):
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(network.init([2, 8, 3], np.random.default_rng(0)), path)
    return ["attack", "--checkpoint", str(path), "--set", "data.classes=4"]


def _nonempty_out(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "stale.txt").write_text("x")
    return ["train"]


@pytest.mark.parametrize("make_args", [
    _no_checkpoint, _missing_checkpoint, _directory_checkpoint,
    _mismatched_checkpoint, _nonempty_out])
def test_cli_usage_error_exits_2_before_writing(tmp_path, capsys, make_args):
    argv = make_args(tmp_path) + ["--out", str(tmp_path / "run")] + TINY
    before = sorted(p.name for p in tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


_COMMAND_NAMES = ["train", "eval", "ood", "attack", "verify", "compare"]
# help, a missing command, an unknown command and unknown or bad options:
# main builds only the named command's subparser, and each must print what
# the full parser prints
_PARSER_TEXT_CASES = ([["--help"], [], ["bogus"], ["--bogus"], ["--seed", "3", "train"]]
                      + [[c, "--help"] for c in _COMMAND_NAMES]
                      + [[c, "--bogus"] for c in _COMMAND_NAMES]
                      + [["eval", "--seed", "x"], ["train", "extra"], ["ood", "--set"]])


@pytest.mark.parametrize("argv", _PARSER_TEXT_CASES, ids=lambda a: " ".join(a) or "none")
def test_cli_parser_text_equals_full_parser(capsys, argv):
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return (exc.value.code,) + capsys.readouterr()

    full = outcome(lambda a: build_parser().parse_args(a))
    assert outcome(main) == full
    text = full[1] + full[2]
    assert text.startswith("usage: iad")
    if argv[1:2] == ["--bogus"]:
        # reported by the top-level parser, whose usage line lists every command
        assert "{train,eval,ood,attack,verify,compare}" in text.splitlines()[0]


def test_build_parser_builds_only_the_named_command():
    def commands(parser):
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        return list(sub.choices)

    assert commands(build_parser()) == _COMMAND_NAMES
    assert commands(build_parser(["--help"])) == _COMMAND_NAMES
    assert commands(build_parser(["bogus", "train"])) == _COMMAND_NAMES
    for name in _COMMAND_NAMES:
        assert commands(build_parser([name, "--seed", "1"])) == [name]


@pytest.mark.parametrize("override", [
    "train.adam_beta1=1.5", "train.adam_beta2=1.0", "train.adam_eps=-1.0",
    "train.max_epochs=0", "train.learning_rate=NaN", "train.learning_rate=Infinity"])
def test_cli_out_of_range_optimizer_value_names_key(tmp_path, capsys, override):
    out = tmp_path / "x"
    assert run(["train", "--out", str(out)] + tiny(override)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert override.partition("=")[0].removeprefix("train.") in err[0]
    assert not out.exists()


# ------------------------------------------------------------ build_datasets

# every part selection a command makes: both parts (compare, id without a
# suffix), the training part only (train, ood) and the test part only (eval,
# attack)
@pytest.mark.parametrize("kind, scale, keep", [
    pytest.param(kind, scale, keep,
                 id=f"{kind}-{scale}" + ("" if len(keep) == 2 else f"-part{keep[0]}"))
    for kind in ("blobs", "csv", "idx") for scale in (True, False)
    for keep in ((0, 1), (0,), (1,))])
def test_build_datasets_matches_reference_bits(tmp_path, kind, scale, keep):
    overrides = {"seed": 9, "data.kind": kind, "data.scale_unit": scale,
                 "data.per_class": 60}
    if kind == "csv":
        path = tmp_path / "d.csv"
        save_csv(data.make_blobs(3, 60, data.triangle_centers(4.0), 0.7,
                                 np.random.default_rng(1)), path)
        overrides["data.csv"] = str(path)
        source = data.load_csv(path)
    elif kind == "idx":
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(120, 7, 4), dtype=np.uint8)
        images[:, 0, 0] = 3
        labels = list(rng.integers(0, 10, size=120))
        ip, lp = write_idx(tmp_path, images, labels)
        overrides.update({"data.idx_images": str(ip), "data.idx_labels": str(lp)})
        source = data.Dataset(images.reshape(120, -1) / 255.0, np.eye(10)[labels],
                              provenance=f"idx({ip})", feature_range=(0.0, 1.0))
    cfg = ExperimentConfig(overrides)
    rngs = _rng_streams(cfg)
    if kind == "blobs":
        source = data.make_blobs(3, 60, data.triangle_centers(4.0), cfg["data.spread"],
                                 rngs["blobs"])
    if scale:
        source = reference_scale_unit(source)
    frac = cfg["data.test_fraction"]
    want = reference_split(source, [1.0 - frac, frac], rngs["split"])
    got = build_datasets(cfg, _read_inputs(cfg), keep)
    assert len(got) == 2
    for i, (g, w) in enumerate(zip(got, want)):
        if i in keep:
            assert_identical(g, w)
        else:
            assert g is None


# ----------------------------------------- missing and non-finite input files

def _assert_one_error_line(capsys, out, *parts):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    for part in parts:
        assert part in err[0]
    assert not out.exists()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(["--config", "data.csv", "data.idx_images", "data.idx_labels"]),
       name=st.text(alphabet="abcxyz019_-.", min_size=1, max_size=12),
       empty=st.booleans())
def test_cli_missing_input_file_exits_2(tmp_path, capsys, which, name, empty):
    # a data key left empty is named; an empty --config means no config file
    empty = empty and which != "--config"
    missing = "" if empty else tmp_path / "absent" / name
    ip, lp = write_idx(tmp_path, np.zeros((4, 2, 2), dtype=np.uint8), [0, 1, 0, 1])
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("x,label\n0,0\n1,1\n")
    # the keys of the other kind name files that exist
    argv = {
        "--config": ["--config", str(missing)],
        "data.csv": ["--set", "data.kind=csv", "--set", f"data.csv={missing}",
                     "--set", f"data.idx_images={ip}", "--set", f"data.idx_labels={lp}"],
        "data.idx_images": ["--set", "data.kind=idx", "--set", f"data.idx_images={missing}",
                            "--set", f"data.idx_labels={lp}", "--set", f"data.csv={csv_path}"],
        "data.idx_labels": ["--set", "data.kind=idx", "--set", f"data.idx_images={ip}",
                            "--set", f"data.idx_labels={missing}", "--set", f"data.csv={csv_path}"],
    }[which]
    out = tmp_path / "run"
    assert run(["train", "--out", str(out)] + TINY + argv) == 2
    if empty:
        _assert_one_error_line(capsys, out, f"error: {which}: must name a file")
    else:
        _assert_one_error_line(capsys, out, str(missing), "No such file")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_empty_idx_images_named_before_missing_labels_file(tmp_path, capsys, command):
    # the keys are checked in order, each before its file is opened
    out = tmp_path / "run"
    assert run([command, "--out", str(out), "--set", "data.kind=idx",
                "--set", "data.idx_images=",
                "--set", f"data.idx_labels={tmp_path / 'absent' / 'l.idx'}"]
               + TINY + _checkpoint_args(tmp_path, command)) == 2
    _assert_one_error_line(capsys, out, "error: data.idx_images: must name a file")


@pytest.mark.parametrize("kind, key", [
    ("csv", "data.csv"), ("idx", "data.idx_images"), ("idx", "data.idx_labels")])
def test_cli_verify_reads_no_data_path(tmp_path, kind, key):
    out = tmp_path / "v"
    assert run(["verify", "--out", str(out), "--set", "verify.trials=5",
                "--set", "verify.n_triples=50", "--set", f"data.kind={kind}",
                "--set", f"{key}="]) == 0
    assert (out / "verify_evidence.json").exists()


@pytest.mark.parametrize("command, kind", [
    ("train", "blobs"), ("verify", "blobs"), ("verify", "csv"), ("verify", "idx")])
def test_cli_opens_no_data_file_it_does_not_read(tmp_path, command, kind):
    # every data key names an absent file: a blobs run reads none of them,
    # and verify reads no data whatever data.kind is
    absent = tmp_path / "absent"
    out = tmp_path / "run"
    argv = [command, "--out", str(out), "--set", f"data.kind={kind}",
            "--set", f"data.csv={absent / 'd.csv'}",
            "--set", f"data.idx_images={absent / 'i.idx'}",
            "--set", f"data.idx_labels={absent / 'l.idx'}",
            "--set", "verify.trials=5", "--set", "verify.n_triples=50"] + TINY
    assert run(argv) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    cfg = _load_config(build_parser().parse_args(argv))
    assert meta["inputs_sha256"] == reference_input_hash(cfg, command != "verify")


def test_cli_renders_the_resolved_config_once_per_command(tmp_path, monkeypatch):
    # the input hash and config_resolved.txt take the same rendered text
    texts = []

    def counting(cfg, real=ExperimentConfig.resolved_text):
        texts.append(real(cfg))
        return texts[-1]

    monkeypatch.setattr(ExperimentConfig, "resolved_text", counting)
    out = tmp_path / "run"
    assert run(["train", "--out", str(out)] + TINY) == 0
    assert len(texts) == 1
    assert (out / "config_resolved.txt").read_text() == texts[0]
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["inputs_sha256"] == hashlib.sha256(texts[0].encode()).hexdigest()


def _checkpoint_args(tmp_path, command):
    """--checkpoint to a fresh 2-8-3 network for the commands that need one."""
    if command not in ("eval", "ood", "attack"):
        return []
    ckpt = tmp_path / "ckpt.json"
    network.save_checkpoint(network.init([2, 8, 3], np.random.default_rng(0)), ckpt)
    return ["--checkpoint", str(ckpt)]


def _label_only_csv(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("label\n" + "0\n1\n2\n" * 20)
    return ["--set", "data.kind=csv", "--set", f"data.csv={path}"], f"{path}:1: "


def _pixelless_idx(tmp_path):
    ip, lp = write_idx(tmp_path, np.zeros((60, 0, 0), dtype=np.uint8), [0, 1, 2] * 20)
    return (["--set", "data.kind=idx", "--set", f"data.idx_images={ip}",
             "--set", f"data.idx_labels={lp}"], f"{ip}: ")


def _one_class_csv(tmp_path):
    path = tmp_path / "one_class.csv"
    path.write_text("f0,f1,label\n" + "".join(f"{0.1 * i!r},0.5,0\n" for i in range(60)))
    return ["--set", "data.kind=csv", "--set", f"data.csv={path}"], f"{path}:1: "


def _one_class_idx(tmp_path):
    ip, lp = write_idx(tmp_path, np.arange(60 * 4).reshape(60, 2, 2) % 256, [0] * 60)
    return (["--set", "data.kind=idx", "--set", f"data.idx_images={ip}",
             "--set", f"data.idx_labels={lp}"], f"{lp}: ")


# each input either has no feature column or labels of one class
@pytest.mark.parametrize("command", ["train", "eval", "ood", "attack", "compare"])
@pytest.mark.parametrize("make_input", [_label_only_csv, _pixelless_idx, _one_class_csv,
                                        _one_class_idx])
def test_cli_zero_feature_input_exits_2_before_writing(tmp_path, capsys, make_input,
                                                       command):
    argv, where = make_input(tmp_path)
    out = tmp_path / "run"
    assert run([command, "--out", str(out)] + TINY + argv
               + _checkpoint_args(tmp_path, command)) == 2
    _assert_one_error_line(capsys, out, where)


@pytest.mark.parametrize("kind", ["csv", "idx"])
def test_cli_labels_that_leave_a_class_without_a_row_exit_2(tmp_path, capsys, kind):
    # a CSV label of 10**12 used to end in numpy's memory-error traceback
    if kind == "csv":
        where = tmp_path / "gap.csv"
        where.write_text("f0,f1,label\n0.5,0.25,0\n0.5,0.25,1\n0.5,0.25,1000000000000\n")
        argv = ["--set", "data.kind=csv", "--set", f"data.csv={where}"]
    else:
        ip, where = write_idx(tmp_path, np.zeros((60, 2, 2), dtype=np.uint8), [0, 1, 200] * 20)
        argv = ["--set", "data.kind=idx", "--set", f"data.idx_images={ip}",
                "--set", f"data.idx_labels={where}"]
    out = tmp_path / "run"
    assert run(["train", "--out", str(out)] + TINY + argv) == 2
    _assert_one_error_line(capsys, out, f"{where}", "no row has label 2")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_non_finite_csv_cell_exits_2(tmp_path, capsys, data):
    n_rows = data.draw(st.integers(1, 6), label="rows")
    row = data.draw(st.integers(0, n_rows - 1), label="row")
    col = data.draw(st.integers(0, 1), label="col")
    token = data.draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999",
                                       "-2e400"]), label="token")
    cells = [[repr(0.1 * i), repr(0.2 * i), str(i % 3)] for i in range(n_rows)]
    cells[row][col] = token
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n" + "".join(",".join(c) + "\n" for c in cells))
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--set", "data.kind=csv",
                "--set", f"data.csv={path}"] + TINY) == 2
    _assert_one_error_line(capsys, out, f"{path}:{row + 2}: ", repr(token))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_overflowing_csv_range_exits_2(tmp_path, capsys, data):
    # two finite values whose difference overflows float64
    high = data.draw(st.floats(9e307, 1.7e308), label="high")
    low = -data.draw(st.floats(9e307, 1.7e308), label="low")
    col = data.draw(st.integers(0, 2), label="col")
    n_rows = data.draw(st.integers(2, 6), label="rows")
    cells = [[0.5 * i, 1.0, 2.0 * i] for i in range(n_rows)]
    cells[0][col], cells[-1][col] = high, low
    path = tmp_path / "wide.csv"
    path.write_text("f0,f1,f2,label\n" + "".join(
        ",".join(map(repr, c)) + f",{i % 2}\n" for i, c in enumerate(cells)))
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--set", "data.kind=csv",
                "--set", f"data.csv={path}"] + TINY) == 2
    _assert_one_error_line(capsys, out, f"csv({path}): feature {col} spans")


def test_cli_blobs_that_overflow_exit_2_before_writing(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["train", "--out", str(out)] + tiny("data.spread=1e308")) == 2
    _assert_one_error_line(capsys, out, "spread=1e+308", "overflow float64")


def test_cli_ood_ring_that_overflows_exits_2(tmp_path, capsys):
    # the ring is made in the command body, after the run metadata is written
    out = tmp_path / "run"
    assert run(["ood", "--out", str(out), "--set", "data.scale_unit=false",
                "--set", "ood.radius_factor=1e308"] + TINY
               + _checkpoint_args(tmp_path, "ood")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: radius_factor 1e+308 "), err
    assert "overflow float64" in err[0]
    assert sorted(p.name for p in out.iterdir()) == ["config_resolved.txt", "run_meta.json"]


# probe: (command, its --set items, exit status, what the error line names;
# None for a run that succeeds)
_OVERFLOW_PROBES = {
    "blob_circle": ("train", ["data.side=1.7e308", "data.classes=10"], 2,
                    "error: data.side: 1.7e+308 "),
    "ood_support_radius": ("ood", ["data.scale_unit=false", "data.side=1e200"], 2,
                           "support radius"),
    "train_support_radius": ("train", ["data.scale_unit=false", "data.side=1e200",
                                       "train.ood_weight=1", "train.t0=0",
                                       "train.max_epochs=1"], 2, "support radius"),
    "eval_alpha": ("eval", ["data.scale_unit=false", "data.side=1.5e308"], 2,
                   "concentrations overflow float64"),
    "attack_alpha": ("attack", ["data.scale_unit=false", "attack.epsilons=[0.0,1e308]"], 2,
                     "at epsilon 1e+308: the network's concentrations overflow"),
    "log_gamma": ("ood", ["ood.radius_factor=1e306"], 0, None),
    # features of ~1e200 drive alpha_0 past the cap in the first step
    "train_alpha0_cap": ("train", ["data.scale_unit=false", "data.side=1e200",
                                   "train.max_epochs=1"], 2,
                         "alpha_0 is not finite or exceeds 1e+09 at epoch 1"),
    # alpha_0 - alpha_c rounds to 0 where one alpha_c ~ 3e305 dominates a row
    "attack_f_gradient": ("attack", ["data.scale_unit=false", "data.side=1e305"], 2,
                          "at epsilon 0.0: the network's concentrations are too large"),
    # a first step of ~1e308 per weight makes the next forward's alpha NaN
    "train_nan_alpha_iad": ("train", ["data.per_class=30", "train.max_epochs=2", "train.t0=0",
                                      "train.learning_rate=1e308"], 2,
                            "alpha_0 is not finite or exceeds"),
    "train_nan_alpha_bayes_ce": ("train", ["data.per_class=30", "train.max_epochs=2",
                                           "train.t0=0", "loss=bayes_ce",
                                           "train.learning_rate=1e300"], 2,
                                 "alpha_0 is not finite or exceeds"),
    # one step per epoch: the validation pass is the first to see the NaN
    "train_nan_alpha_validation": ("train", ["data.per_class=10", "train.max_epochs=2",
                                             "train.t0=0", "train.learning_rate=1e308"], 2,
                                   "non-finite validation loss at epoch 1"),
}


@pytest.mark.parametrize("probe", list(_OVERFLOW_PROBES))
def test_cli_float64_overflow_exits_without_warning_or_traceback(tmp_path, capsys, probe):
    command, items, status, names = _OVERFLOW_PROBES[probe]
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--out", str(out)] + tiny(*items)
                   + _checkpoint_args(tmp_path, command)) == status
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    if names is None:
        assert err == []
    else:
        assert len(err) == 1 and err[0].startswith("error: ") and names in err[0], err
    # the blob circle is refused before the run directory exists
    assert out.exists() == (probe != "blob_circle")


# --------------------------------------------------- one refusal path in main

def _raiser(cls):
    def raise_it(*args):
        if cls is OSError:
            raise OSError(errno.EACCES, "Permission denied", "some/file")
        raise cls("refused for the test")
    return raise_it


@pytest.mark.parametrize("where", ["setup", "body"])
@pytest.mark.parametrize("cls", list(cli._REFUSED) + [OSError], ids=lambda c: c.__name__)
def test_cli_maps_each_refusal_class_to_exit_2(tmp_path, capsys, monkeypatch, cls, where):
    # set-up raises before the run directory exists, the body after it is written
    if where == "setup":
        monkeypatch.setattr(cli, "_load_config", _raiser(cls))
    else:
        monkeypatch.setitem(cli._COMMANDS, "verify", (_raiser(cls), (), False))
    out = tmp_path / "run"
    assert run(["verify", "--out", str(out)]) == 2
    message = ("Permission denied: 'some/file'" if cls is OSError
               else "refused for the test")
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert out.exists() == (where == "body")


# ---------------------------------------- unlabeled and non-UTF-8 input files

@pytest.mark.parametrize("command", ["train", "eval", "ood", "attack", "compare"])
def test_cli_unlabeled_csv_exits_2_before_writing(tmp_path, capsys, command):
    path = tmp_path / "unlabeled.csv"
    path.write_text("f0,f1\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
    out = tmp_path / "run"
    argv = [command, "--out", str(out), "--set", "data.kind=csv",
            "--set", f"data.csv={path}"] + TINY + _checkpoint_args(tmp_path, command)
    assert run(argv) == 2
    _assert_one_error_line(capsys, out, f"{path}:1: ", "'label' column")


# per class: 1 row leaves the test part empty, before the run directory is
# written; 6 rows leave 5 to train on, whose validation part rounds to none
@pytest.mark.parametrize("per_class, written", [
    (1, None), (6, ["config_resolved.txt", "run_meta.json"])])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_cli_split_with_an_empty_part_exits_2(tmp_path, capsys, command, per_class, written):
    out = tmp_path / "run"
    assert run([command, "--out", str(out)] + tiny(f"data.per_class={per_class}")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: part 1 "), err
    assert "is empty" in err[0]
    assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == written


# every command draws and checks the whole train/test split, also the part
# it does not read: one row per class empties the test part (read by neither
# train nor ood), and at a test fraction of 0.6 the training part (read by
# neither eval nor attack)
@pytest.mark.parametrize("command, sets, part", [
    ("train", ["data.per_class=1"], 1), ("ood", ["data.per_class=1"], 1),
    ("eval", ["data.per_class=1", "data.test_fraction=0.6"], 0),
    ("attack", ["data.per_class=1", "data.test_fraction=0.6"], 0)])
def test_cli_unread_empty_part_exits_2_before_writing(tmp_path, capsys, command, sets,
                                                      part):
    out = tmp_path / "run"
    argv = [command, "--out", str(out)] + tiny(*sets) + _checkpoint_args(tmp_path, command)
    assert run(argv) == 2
    _assert_one_error_line(capsys, out, f"error: part {part} ", "is empty")


def test_cli_trains_at_seven_per_class(tmp_path):
    assert run(["train", "--out", str(tmp_path / "run")] + tiny("data.per_class=7")) == 0


@pytest.mark.parametrize("which, body, line", [
    ("--config", b"seed = 1\n# caf\xe9\n", 2),
    ("data.csv", b"f0,f1,label\n0.1,0.2,0\n0.3,\xff,1\n", 3)])
def test_cli_non_utf8_input_exits_2(tmp_path, capsys, which, body, line):
    path = tmp_path / "latin1.txt"
    path.write_bytes(body)
    argv = (["--config", str(path)] if which == "--config" else
            ["--set", "data.kind=csv", "--set", f"data.csv={path}"])
    out = tmp_path / "run"
    assert run(["train", "--out", str(out)] + TINY + argv) == 2
    _assert_one_error_line(capsys, out, f"{path}:{line}: ", "is not UTF-8")


# ----------------------------------------------------------- inputs_sha256

def reference_input_hash(cfg, reads_data=True) -> str:
    """inputs_sha256: the resolved config text, then, for a command that
    reads data, the bytes of each data file its data.kind reads, read anew,
    in key order."""
    h = hashlib.sha256(cfg.resolved_text().encode())
    files = {"csv": ("data.csv",), "idx": ("data.idx_images", "data.idx_labels")}
    for key in files.get(cfg["data.kind"], ()) if reads_data else ():
        h.update(Path(cfg[key]).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind", ["blobs", "csv", "idx"])
def test_cli_inputs_sha256_matches_reference(tmp_path, kind):
    csv_path = tmp_path / "d.csv"
    save_csv(data.make_blobs(3, 20, data.triangle_centers(4.0), 0.5,
                             np.random.default_rng(1)), csv_path)
    rng = np.random.default_rng(2)
    ip, lp = write_idx(tmp_path, rng.integers(0, 256, size=(60, 3, 3), dtype=np.uint8),
                       list(np.arange(60) % 3))
    # every data key names a file; the hash covers only those the data.kind
    # reads
    out = tmp_path / "run"
    argv = ["train", "--out", str(out), "--set", f"data.kind={kind}",
            "--set", f"data.csv={csv_path}", "--set", f"data.idx_images={ip}",
            "--set", f"data.idx_labels={lp}"] + TINY
    assert run(argv) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    want = reference_input_hash(_load_config(build_parser().parse_args(argv)))
    assert meta["inputs_sha256"] == want
