"""In-memory call tracing of the strand_reduce modules, from outside the package.

:class:`Tracer` replaces every public function of the given modules with a
timing wrapper, and also rebinds the names that other modules took with
``from ... import``, so a call is seen whichever name it goes through.
Each wrapped function accumulates calls, total time and self time (its
duration minus the time of wrapped callees).  Calls of functions outside the
``hot`` set are also kept as spans ``(name, start, end, parent span)``.
Nothing is written until :meth:`Tracer.dump`.
"""

import functools
import inspect
import json
import time

_STATS = ("calls", "total_s", "self_s", "depth", "bytes")


class Tracer:
    def __init__(self, modules, hot=(), byte_counters=None):
        """``modules`` maps a short layer name to a module object.

        ``hot`` names (``layer.function``) get counters only, no spans.
        ``byte_counters`` maps a name to ``fn(args, kwargs, result) -> bytes``,
        accumulated into ``bytes`` next to the call counters.
        """
        self.modules = modules
        self.hot = set(hot)
        self.byte_counters = byte_counters or {}
        self.stats = {}
        self.spans = []
        self._stack = []
        self._patches = []

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0, 0]
        self.spans = []

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in self._patches:
            setattr(mod, attr, obj)
        self._patches = []

    def _wrap(self, fn, name):
        # st = [calls, total_s, self_s, active depth, bytes]; the wrapper's
        # own cost lands in the caller's self time, so keep it short.
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        clock = time.perf_counter
        stack = self._stack
        count_bytes = self.byte_counters.get(name)

        if name in self.hot:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                st[3] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    st[3] -= 1
                    st[0] += 1
                    st[2] += dur - frame[0]
                    if not st[3]:
                        st[1] += dur
                    if stack:
                        stack[-1][0] += dur
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, span]
            stack.append(frame)
            st[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                st[3] -= 1
                st[0] += 1
                st[2] += dur - frame[0]
                if not st[3]:
                    st[1] += dur
                if stack:
                    stack[-1][0] += dur
                self.spans[span][1:3] = [t0, t1]
            if count_bytes is not None:
                st[4] += count_bytes(args, kwargs, result)
            return result

        return wrapper

    def get(self, name, stat):
        return self.stats.get(name, [0] * 5)[_STATS.index(stat)]

    def self_time_below(self, excluded_layer):
        """Summed self time of every traced function outside one layer."""
        return sum(st[2] for name, st in self.stats.items()
                   if name.split(".", 1)[0] != excluded_layer)

    def dump(self, path, extra=None):
        counters = {name: {k: st[i] for i, k in enumerate(_STATS) if k != "depth"}
                    for name, st in sorted(self.stats.items()) if st[0]}
        with open(path, "w") as fh:
            json.dump({"counters": counters,
                       "spans": [{"name": n, "start": a, "end": b, "parent": p}
                                 for n, a, b, p in self.spans],
                       **(extra or {})}, fh)
