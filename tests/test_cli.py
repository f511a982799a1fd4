"""Config parsing and CLI command plumbing on tiny runs."""

import json

import numpy as np
import pytest

from iad import network
from iad.cli import main
from iad.config import DEFAULTS, ConfigError, ExperimentConfig

TINY = ["--set", "data.per_class=40", "--set", "train.max_epochs=3",
        "--set", "train.t0=1", "--set", "train.t_rate=2",
        "--set", "arch=[8]"]


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
    lc = cfg.loss_config()
    assert lc.p_norm == 4.0


# ----------------------------------------------------------------------- CLI

def test_cli_train_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--seed", "0"] + TINY) == 0
    for name in ("checkpoint.json", "train_record.csv",
                 "config_resolved.txt", "run_meta.json"):
        assert (out / name).exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["seed"] == 0
    assert len(meta["inputs_sha256"]) == 64


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
    assert run(["eval", "--out", str(eval_out), "--seed", "1",
                "--checkpoint", ckpt] + TINY) == 0
    assert (eval_out / "reports.csv").exists()
    assert (eval_out / "summary_successes.json").exists()

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
    assert all(v["passed"] for v in evidence.values())
    assert (out / "theorem2_figure.csv").exists()


def test_cli_compare_writes_table(tmp_path):
    out = tmp_path / "c"
    assert run(["compare", "--out", str(out), "--seed", "2",
                "--set", 'compare.losses=["iad","edl"]'] + TINY) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("loss,accuracy")
    assert len(lines) == 3
    assert (out / "checkpoint_iad.json").exists()
    assert (out / "checkpoint_edl.json").exists()


def test_cli_bad_config_key_exits_with_error(tmp_path, capsys):
    assert run(["train", "--out", str(tmp_path / "x"),
                "--set", "bogus.key=1"]) == 2
    assert "bogus.key" in capsys.readouterr().err


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
    "eval.threshold_fraction=2.0", "eval.threshold_fraction=0", "ood.n=0",
    "verify.trials=0", "verify.n_triples=0"])
def test_cli_out_of_range_value_names_key(tmp_path, capsys, override):
    out = tmp_path / "x"
    assert run(["train", "--out", str(out)] + TINY + ["--set", override]) == 2
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
    del doc["weights"]
    path.write_text(json.dumps(doc))
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


@pytest.mark.parametrize("make_args", [
    _ckpt_without_weights, _csv_with_negative_label, _idx_without_header])
def test_cli_malformed_input_file_exits_2(tmp_path, capsys, make_args):
    argv = make_args(tmp_path) + ["--out", str(tmp_path / "run")] + TINY
    assert run(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(tmp_path) in err[0]


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


@pytest.mark.parametrize("override", [
    "train.adam_beta1=1.5", "train.adam_beta2=1.0", "train.adam_eps=-1.0",
    "train.max_epochs=0"])
def test_cli_out_of_range_optimizer_value_names_key(tmp_path, capsys, override):
    out = tmp_path / "x"
    assert run(["train", "--out", str(out)] + TINY + ["--set", override]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert override.partition("=")[0].removeprefix("train.") in err[0]
    assert not out.exists()
