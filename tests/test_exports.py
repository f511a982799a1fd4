"""The public API: each module's __all__ names exactly its public functions
and classes, the library modules leave the run directory's file formats to
the CLI, every exception class is one that the CLI maps to exit 2 or an
internal one, every `iad.` name in the README exists, the README's Quick
start runs as written, and every setting is read by the code."""

import ast
import importlib
import inspect
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import pytest

import iad
from iad import cli, losses, specfun, training
from iad.config import DEFAULTS

MODULES = [importlib.import_module(f"iad.{m.name}")
           for m in pkgutil.iter_modules(iad.__path__)]


@pytest.mark.parametrize("mod", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(mod):
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == [], f"{mod.__name__}.__all__ names undefined {missing}"
    defined = {name for name, obj in vars(mod).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    unlisted = sorted(defined - set(mod.__all__))
    assert unlisted == [], f"{mod.__name__} defines public {unlisted} outside __all__"


@pytest.mark.parametrize("name", ["specfun", "dirichlet", "losses", "training",
                                  "evaluation", "verify"])
def test_library_module_imports_no_artifact_format(name):
    """cli writes every CSV and JSON artifact; these modules return values."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"iad.{name}")))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    assert not imported & {"csv", "json"}


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("dotted", sorted(set(re.findall(r"`(iad(?:\.\w+)+)`", README))))
def test_readme_name_resolves(dotted):
    """A backticked iad.<module>[.<name>...] in the README names something
    that exists, so a deletion cannot leave a stale reference behind."""
    _, module, *names = dotted.split(".")
    obj = importlib.import_module(f"iad.{module}")
    for name in names:
        assert hasattr(obj, name), f"README.md names {dotted}, which does not exist"
        obj = getattr(obj, name)


def test_readme_quick_start_runs(capsys):
    (block,) = re.findall(r"## Quick start\n\n```python\n(.*?)```", README, re.DOTALL)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    accuracy = float(capsys.readouterr().out.splitlines()[0])
    assert accuracy == scope["reports"].correct.mean() > 0.9


# exceptions that bad input cannot raise out of the library, so the CLI maps
# none of them. DomainError is a special function's argument check: callers
# check their own inputs first, and evaluation turns F's DomainError on a
# finite alpha it cannot take into ConcentrationOverflowError.
# LossOverflowError bounds log F. At an integer train.p_norm of 1..8, the
# default 4 among them, CLI input cannot raise it: the head gives alpha >= 1,
# and F >= s / alpha_0 >= 2^-53 while s = alpha_0 - alpha_c does not round to
# 0; where it does, log_rising's DomainError comes first (test_losses.py's
# test_head_concentrations_never_overflow_log_f_at_integer_p). At any other
# p, specfun.log_rising takes ln Gamma differences that cancel at large x, so
# the bound is not shown there, and whether CLI input at such a p can raise
# LossOverflowError is not verified.
_INTERNAL_ERRORS = {specfun.DomainError, losses.LossOverflowError}


def test_every_exception_class_is_refused_or_internal():
    """A refusal class the package defines reaches cli.main's one handler,
    so a new one cannot end in a traceback."""
    defined = {obj for mod in MODULES for obj in vars(mod).values()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == mod.__name__}
    assert len(set(cli._REFUSED)) == len(cli._REFUSED)
    assert training.TrainingDiverged in cli._REFUSED
    unmapped = defined - set(cli._REFUSED) - {cli.UsageError} - _INTERNAL_ERRORS
    assert unmapped == set(), f"exception classes cli.main does not map: {unmapped}"


# every module's source, TrainConfig's own definition cut out of training's
_SOURCE = "\n".join(inspect.getsource(m) for m in MODULES).replace(
    inspect.getsource(training.TrainConfig), "")


@pytest.mark.parametrize("name", [f.name for f in fields(training.TrainConfig)])
def test_every_train_config_field_is_read(name):
    """A TrainConfig field that no code reads as cfg.<field> does nothing."""
    assert re.search(rf"\bcfg\.{name}\b", _SOURCE), f"no code reads TrainConfig.{name}"


@pytest.mark.parametrize("key", [k for k in DEFAULTS if not k.startswith("train.")])
def test_every_config_key_outside_train_is_read_by_the_cli(key):
    """Every key but the train.* ones, which are TrainConfig's fields, is
    read by name in cli.py; a key that no code reads does nothing."""
    assert f'"{key}"' in inspect.getsource(cli), f"cli.py does not read {key}"
