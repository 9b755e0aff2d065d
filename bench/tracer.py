"""Out-of-program tracer for the qbayes modules on the `check` path.

qbayes binds names per module (`from .state import pullback`), so a
function is wrapped at every module attribute that holds it, and the two
`LinearMap` methods are wrapped on the class. Each wrapped call records a
span (name, start, end, parent span, request) in memory; a request is one
top-level call, normally `cli.main`. Self time is a call's duration minus
the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "cli": ("main",),
    "jsonio": ("problem_from_json", "canonical_dumps", "channel_to_json"),
    "linalg": ("hermitian_eigen", "pseudoinverse"),
    "state": ("pullback", "support"),
    "channel": (
        "from_hom",
        "from_kraus",
        "is_ucp",
        "compose",
        "ae_deterministic",
        "LinearMap.apply",
        "LinearMap.from_block_fn",
    ),
    "modular": (
        "corner_map",
        "ac_condition_algebraic",
        "ac_condition_sampled",
        "modular_flow",
    ),
    "bayesinv": ("battery", "existence", "verify_bayes"),
    "disint": (
        "factorize",
        "disintegrate",
        "build_disintegration",
        "verify_disintegration",
        "condexp_characterize",
        "takesaki_battery",
        "bayes_disint_bridge",
    ),
}
SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self._stack: list[list] = []  # [span index, seconds spent in wrapped children]
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            record = [name, 0.0, 0.0, parent, spans[parent][4] if stack else index]
            spans.append(record)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[1], record[2] = start, end
                calls[name] += 1
                self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start

        return traced

    def install(self) -> None:
        bindings = [
            module
            for module_name, module in list(sys.modules.items())
            if module_name == "qbayes" or module_name.startswith("qbayes.")
        ]
        for module_name, names in TRACED.items():
            home = sys.modules[f"qbayes.{module_name}"]
            for attr in names:
                name = f"{module_name}.{attr}"
                if "." in attr:
                    class_name, method = attr.split(".")
                    cls = getattr(home, class_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    setattr(cls, method, wrapped)
                    self._restore.append((cls, method, raw))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(name, original)
                for module in bindings:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, binding, wrapped)
                            self._restore.append((module, binding, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def module_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(TRACED, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def span_table(self) -> dict:
        """The spans as {"names": [...], "spans": [[name index, start, end,
        parent, request], ...]}, times in seconds from the first span."""
        index = {name: i for i, name in enumerate(SPAN_NAMES)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[name], round(start - origin, 9), round(end - origin, 9), parent, request]
            for name, start, end, parent, request in self.spans
        ]
        return {"names": list(SPAN_NAMES), "spans": rows}
