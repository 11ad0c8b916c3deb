"""Span tracing of meca's layers from outside the package.

``Tracer.install`` wraps each entry point in ``TRACED`` and patches the
wrapper into every ``meca`` module that holds the function, so that callers
which imported it by name (``trainer.covariance``, ``selection.train_run``)
are traced too.  Each call becomes a span (name, start, end, parent span);
spans stay in memory until ``write``.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Entry points per layer.  Output writers stay inside cli.main's self time.
TRACED = {
    "cli": ("main",),
    "data": ("read_csv",),
    "selection": ("sweep",),
    "trainer": ("train_run", "_epoch_metrics"),
    "network": ("forward", "backward"),
    "alignment": ("covariance", "penalty_value_and_grads"),
    "spd": ("sym_eig", "grad_dist_log_euclidean"),
}
PENALTY = "alignment.penalty_value_and_grads"
EIG = "spd.sym_eig"


def _columns(args, kwargs, result):
    inputs = args[1] if len(args) > 1 else kwargs["inputs"]
    return {"columns": inputs.shape[1]}


EXTRA_COUNTS = {
    "network.forward": _columns,
    "data.read_csv": lambda args, kwargs, result: {"rows": result.n},
    "selection.sweep": lambda args, kwargs, result: {"lanes": len(result.records)},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        extra = EXTRA_COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            counts[name + ".calls"] += 1
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "meca" or n.startswith("meca.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"meca.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name.lstrip('_')}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self, first: int = 0) -> dict[str, float]:
        """Self time per traced function and per layer over spans[first:],
        and sym_eig calls made inside a penalty evaluation per evaluation."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            self_s = end - start - child_time[i]
            out[name + ".self_s"] += self_s
            out[name.split(".")[0] + ".self_s"] += self_s
        penalty_calls = eig_in_penalty = 0
        for name, _, _, parent in spans:
            if name == PENALTY:
                penalty_calls += 1
            elif name == EIG:
                while parent >= first and self.spans[parent][0] != PENALTY:
                    parent = self.spans[parent][3]
                eig_in_penalty += parent >= first
        out["spd.eig_per_penalty"] = eig_in_penalty / penalty_calls if penalty_calls else 0.0
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
