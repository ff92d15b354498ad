"""Span tracer for the wtomo benchmark.

It wraps named functions of the ``wtomo`` package from outside: the package
source is not edited. A target is ``"<module>.<function>"`` or
``"<module>.<Class>.<method>"``. Installing a target rebinds every reference
to the original function that a ``wtomo`` module or class holds (so
``pipeline.exact_probs`` and ``circuits.kron`` are traced as well as
``noise.exact_probs`` and ``linalg.kron``) and uninstalling restores them.

A target that no longer exists, or is no longer a plain function, is
recorded as missing and reports zero calls, so the benchmark keeps working
across refactors that remove or rename a function.

Per target the tracer keeps calls, inclusive time, self time (inclusive time
minus the time of traced calls made inside it), the duration of the first
call and the number of calls that raised. Aggregates are kept in memory;
there is no per-span log, because a run makes millions of spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter_ns

PACKAGE = "wtomo"


class Stat:
    __slots__ = ("calls", "ns", "self_ns", "failures", "first_ns")

    def __init__(self):
        self.calls = self.ns = self.self_ns = self.failures = 0
        self.first_ns = None


class Tracer:
    def __init__(self, targets, cli_target=None):
        """targets: function paths relative to the package.

        cli_target: path of a ``main(argv)`` entry point whose spans are named
        ``<module>.<argv[0]>``, one per subcommand.
        """
        self.targets = tuple(targets)
        self.cli_target = cli_target
        self.stats: dict[str, Stat] = {t: Stat() for t in self.targets}
        self.missing: list[str] = []
        self._children: list[int] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        """Zero the counters; first-call durations are kept."""
        for s in self.stats.values():
            s.calls = s.ns = s.self_ns = s.failures = 0

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _span(self, stat, fn, args, kwargs):
        children = self._children
        children.append(0)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stat.failures += 1
            raise
        finally:
            d = perf_counter_ns() - t0
            child = children.pop()
            if children:
                children[-1] += d
            stat.calls += 1
            stat.ns += d
            stat.self_ns += d - child
            if stat.first_ns is None:
                stat.first_ns = d

    def _wrap(self, name, fn):
        stat = self._stat(name)
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(stat, fn, args, kwargs)

        return traced

    def _wrap_cli(self, name, fn):
        module_name = name.partition(".")[0]
        span = self._span

        @functools.wraps(fn)
        def traced(argv=None, *args, **kwargs):
            sub = argv[0] if argv else "main"
            return span(self._stat(f"{module_name}.{sub}"), fn, (argv, *args), kwargs)

        return traced

    def _resolve(self, path):
        """(owner, attribute, function) for a target path, or None."""
        module_name, _, rest = path.partition(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return None
        *classes, attr = rest.split(".")
        for c in classes:
            owner = getattr(owner, c, None)
            if not isinstance(owner, type):
                return None
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)
            return (owner, attr, fn) if isinstance(fn, types.FunctionType) else None
        fn = getattr(owner, attr, None)
        if fn is None or isinstance(fn, type) or not callable(fn):
            return None
        return owner, attr, fn

    def _patch(self, owner, attr, fn, wrapped):
        if isinstance(owner, type):
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            return
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, wrapped)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module(PACKAGE)
        wrappers = [(path, self._wrap) for path in self.targets]
        if self.cli_target is not None:
            wrappers.append((self.cli_target, self._wrap_cli))
        for path, wrap in wrappers:
            found = self._resolve(path)
            if found is None:
                self.missing.append(path)
                continue
            owner, attr, fn = found
            self._patch(owner, attr, fn, wrap(path, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
