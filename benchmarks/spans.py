"""Self-time spans around the calls into each ``iad`` module.

The tracer wraps every public function of a module, and the public methods and
``__post_init__`` of the classes it defines, without editing the package:

* a function is replaced wherever its name is looked up, not only where it is
  defined. ``from .specfun import digamma`` binds private copies in
  ``losses``, ``dirichlet`` and ``verify``; ``evaluation`` binds
  ``predictive_entropy``/``mutual_information`` itself; ``training.train``
  calls its module-global ``adam_step``. Every module attribute that *is* the
  original function gets the wrapper;
* a method is replaced on its class, where every instance looks it up.

A span's self time is its duration minus the durations of the wrapped calls
made inside it. Self time is summed per (stage, module); calls are counted
per (stage, module, function); for the special functions the number of
argument elements is summed too. Properties, classmethods and private helpers
are not wrapped: their time counts toward the nearest wrapped caller, which is
almost always in the same module.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# The layers, in the order the package builds them up. ``cli`` and ``config``
# are not wrapped: a stage's wall minus the self time of these modules is the
# ``cli`` residual (argument and config parsing, input hashing, run-dir writes).
MODULES = ("specfun", "dirichlet", "losses", "network", "data", "training",
           "evaluation", "verify")

# Functions whose first argument's size is recorded as work done.
_ELEMENTWISE = {("specfun", "log_gamma"), ("specfun", "digamma"),
                ("specfun", "trigamma"), ("specfun", "tetragamma")}


def _public_callables(mod):
    """(owner, attribute name, function, qualified name) for each wrapped
    callable that ``mod`` defines."""
    out = []
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            out.append((mod, name, obj, name))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (
                        attr == "__post_init__" or not attr.startswith("_")):
                    out.append((obj, attr, member, f"{name}.{attr}"))
    return out


class Tracer:
    """Installs and removes the wrappers; accumulates self time and counts."""

    def __init__(self, package):
        self._package = package
        self.stage = ""
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.elems: Counter = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, module: str, qualname: str, fn):
        stack = self._stack
        elementwise = (module, qualname) in _ELEMENTWISE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stage = self.stage
                self.self_s[(stage, module)] += dur - child
                self.calls[(stage, module, qualname)] += 1
                if elementwise and args:
                    self.elems[(stage, module)] += int(np.size(args[0]))

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: getattr(self._package, name)
                for name in MODULES + ("cli", "config")}
        for short in MODULES:
            for owner, attr, fn, qualname in _public_callables(mods[short]):
                wrapper = self._wrap(short, qualname, fn)
                if inspect.isclass(owner):
                    self._patches.append((owner, attr, fn, wrapper))
                    continue
                # every module-level binding of this function object
                for site in mods.values():
                    for name, val in list(vars(site).items()):
                        if val is fn:
                            self._patches.append((site, name, fn, wrapper))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def module_self_s(self, stage: str) -> dict[str, float]:
        return {m: self.self_s.get((stage, m), 0.0) for m in MODULES}

    def count(self, stage: str, module: str, qualname: str | None = None) -> int:
        """Calls made during ``stage`` to one function, or to all of a module."""
        return sum(n for (s, m, q), n in self.calls.items()
                   if s == stage and m == module and (qualname is None or q == qualname))
