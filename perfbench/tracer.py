"""Per-layer tracing of treemotion from outside the package.

A ``Tracer`` replaces chosen public functions and methods of
``treemotion`` with timing wrappers while it is installed.  Functions
are bound into several modules by ``from .x import name`` (for example
``forward_pass`` lives in ``tree`` and is bound into ``gradients``,
``rollout`` and ``fixtures``), so installing scans every loaded module
and replaces each binding of the original object; methods are replaced
on the class that defines them.  Uninstalling restores every binding.

Each wrapped call is a span.  The tracer keeps, per target, the call
count, the total span time and the time covered by direct child spans,
so ``self time = total - child``.  Everything stays in memory; nothing
is written until the caller asks for the numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "treemotion"


def _resolve(target):
    """``"maps.DiffeoChain.value_vjp"`` -> (owner, attribute, original).

    The owner is the module for functions and the defining class for
    methods; only plain functions are accepted so a typo or a renamed
    attribute fails loudly instead of tracing nothing.
    """
    module_name, _, rest = target.partition(".")
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    owner = module
    *classes, attr = rest.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    if classes:
        if attr not in vars(owner):
            raise LookupError(f"{target}: not defined on {owner.__name__}")
        original = vars(owner)[attr]
    else:
        original = getattr(owner, attr)
    if not hasattr(original, "__code__"):
        raise LookupError(f"{target}: not a plain function")
    if getattr(original, "_traced", False):
        raise RuntimeError(f"{target}: already traced by another tracer")
    return owner, attr, original


class Tracer:
    """Timing wrappers around ``targets`` (names relative to the package).

    ``durations`` names targets whose individual span durations are kept
    (for percentiles).  ``scopes`` names targets whose calls record, on
    exit, how many calls every target made inside them.  ``observers``
    maps a target to a callable that receives the call's arguments
    before it runs.
    """

    def __init__(self, targets, durations=(), scopes=(), observers=None):
        self.targets = list(targets)
        n = len(self.targets)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.child = [0.0] * n
        self.durations = {name: [] for name in durations}
        self.scoped = {name: [] for name in scopes}
        self._observers = dict(observers or {})
        self._stack = []
        self._patches = []
        self._originals = {}
        unknown = (set(durations) | set(scopes) | set(self._observers)) - set(self.targets)
        if unknown:
            raise LookupError(f"not traced: {sorted(unknown)}")

    # -- installation --------------------------------------------------------

    def _wrap(self, idx, name, fn):
        calls, total, child, stack = self.calls, self.total, self.child, self._stack
        kept = self.durations.get(name)
        scoped = self.scoped.get(name)
        observer = self._observers.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observer is not None:
                observer(*args, **kwargs)
            before = list(calls) if scoped is not None else None
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                calls[idx] += 1
                total[idx] += dt
                child[idx] += frame[0]
                if stack:
                    stack[-1][0] += dt
                if kept is not None:
                    kept.append(dt)
                if before is not None:
                    scoped.append([a - b for a, b in zip(calls, before)])

        wrapper._traced = True
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        replacements = {}
        self._originals = {}
        for idx, name in enumerate(self.targets):
            owner, attr, original = _resolve(name)
            self._originals[id(original)] = (original, name)
            wrapper = self._wrap(idx, name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                replacements[id(original)] = (original, wrapper)
        # Every module-level binding of a traced function, wherever it
        # was imported to, is replaced by the same wrapper.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def untraced_bindings(self):
        """Bindings of a traced target's original object that are still
        reachable from treemotion modules or their classes; empty when
        the installed wrappers cover every route into the target."""
        left = []
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            spaces = [(mod_name, vars(module))]
            spaces += [(f"{mod_name}.{k}", vars(v)) for k, v in vars(module).items()
                       if isinstance(v, type) and v.__module__ == mod_name]
            for where, namespace in spaces:
                for attr, value in namespace.items():
                    hit = self._originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        left.append(f"{where}.{attr} -> {hit[1]}")
        return left

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def count(self, name):
        return self.calls[self.targets.index(name)]

    def self_time(self, name):
        idx = self.targets.index(name)
        return self.total[idx] - self.child[idx]

    def scoped_counts(self, scope, name):
        """Calls of ``name`` made inside each call of ``scope``."""
        idx = self.targets.index(name)
        return [row[idx] for row in self.scoped[scope]]
