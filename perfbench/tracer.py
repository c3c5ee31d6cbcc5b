"""Call tracing for the traced benchmark run, installed from outside the package.

The package modules bind their collaborators with ``from .kernel import ...``,
so a function has to be replaced at every module that holds a reference to
it.  `Tracer.install` finds those bindings by identity and swaps in a wrapper
that times the call; `Tracer.uninstall` puts the originals back.

Hot inner functions run 10^5-10^6 times per round, so spans are not stored
one by one: each name keeps running totals of calls, busy time (outermost
activation only, so recursion is not double counted) and self time (busy
minus the time covered by traced callees, from an explicit span stack).
Only spans at the top two levels (``cli.main`` and the library calls it
makes) are kept individually, for the written trace and the coverage figure.
"""
from __future__ import annotations

import sys
import time


class Stat:
    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []       # [name, start, child_time]
        self._active: dict[str, int] = {}  # name -> open activations
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list, count: bool = True) -> None:
        end = time.perf_counter()
        name, start, child = frame
        dur = end - start
        self._stack.pop()
        depth = self._active[name] - 1
        self._active[name] = depth
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        if count:
            stat.calls += 1
        stat.self_s += dur - child
        if depth == 0:
            stat.busy_s += dur
        if self._stack:
            self._stack[-1][2] += dur
        if len(self._stack) <= 1:
            self.spans.append((name, start, end, len(self._stack)))

    def active(self, name: str) -> bool:
        return self._active.get(name, 0) > 0

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name: str, fn, scope: str | None = None,
             outside: str | None = None):
        """Timed stand-in for fn.  With scope given, calls made while the
        `scope` span is open are booked as `name`, all others as `outside`."""
        tracer = self

        def traced(*args, **kwargs):
            label = name if scope is None or tracer.active(scope) else outside
            frame = tracer._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return traced

    def wrap_generator(self, name: str, fn):
        """Stand-in for a generator function: one call per invocation, busy
        time summed over every resumption."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                it = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            while True:
                frame = tracer._open(name)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame, count=False)
                yield value

        return traced

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package: str, functions, single, scoped) -> None:
        """Wrap package functions at every module of `package` that binds them.

        functions: (module, attribute, is_generator), traced as "module.attr"
        single:    (module, attribute, name), patched at that binding only
        scoped:    (module, attribute, name, scope, outside), see `wrap`
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        for mod_name, attr, is_gen in functions:
            original = getattr(sys.modules[f"{package}.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            wrapper = (self.wrap_generator(name, original) if is_gen
                       else self.wrap(name, original))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for mod_name, attr, name in single:
            owner = sys.modules[mod_name]
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        for mod_name, attr, name, scope, outside in scoped:
            owner = sys.modules[mod_name]
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr),
                                               scope=scope, outside=outside))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s}
                for name, s in sorted(self.stats.items())}

    def top_level_busy(self) -> float:
        """Busy time of the spans opened directly under an outermost span."""
        return sum(end - start for name, start, end, depth in self.spans
                   if depth == 1)
