"""Per-layer tracing of quatpath from outside the package.

install() replaces the public functions and methods listed in LAYERS with
wrappers.  Every wrapped call records one span: the function, its start
and end, the time the function itself was running (for a generator, only
while it is being advanced), the enclosing span, the op it served and an
outcome (a return summary, or -1 when it raised).  Spans are kept in flat
arrays and written out once, by write().  metrics() turns them into the
per-layer metrics: calls and self time per function, self time per module
and a few ratios of useful outcomes to attempts.

A layer is a module.  Self time is the time a function was running minus
the running time of the wrapped calls it made directly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

# module -> [(metric name, attribute path)]
LAYERS = {
    "arith": ["is_prime", "sqrt_mod"],
    "linalg": ["hnf", "inverse_fraction", "lattice_intersection"],
    "lattice": [
        ("GramForm.init", "GramForm.__init__"), "GramForm.transform", "lll_reduce",
        "sample_ellipsoid", "sample_ellipsoid_coset_dim2", "count_ellipsoid_dim2",
        "enumerate_ellipsoid_dim2", "enumerate_by_value",
    ],
    "qform": ["reduce_form", "compose", "compose_with_coords", "cornacchia",
              "class_group", "sample_prime_large"],
    "eqsolver": ["represent_in_O0", "equation_instance", "solve_master",
                 "sample_az_plus_bg", "genus_randomizer_B", "lift_genus_solution"],
    "quat": [
        "special_order", "QuatLattice.from_rows", "QuatLattice.contains",
        ("QuatElement.mul", "QuatElement.__mul__"), "left_order", "right_order",
        "equiv_from_element", "equiv_prime_large_nonresidue", "connecting_ideal",
        "ideal_equivalence_test",
    ],
    "klpt": ["random_walk", "ideal_class_representatives"],
}

# outcome recorded for a returned value; other functions record 0
_OUTCOMES = {
    "arith.is_prime": lambda r: int(bool(r)),
    "quat.ideal_equivalence_test": lambda r: int(r is not None),
    "klpt.ideal_class_representatives": len,
}

RATIOS = [
    # name, numerator, denominator, better
    ("eqsolver.solve_master.attempts_per_solve",
     ("calls", "eqsolver.sample_az_plus_bg"), ("ok", "eqsolver.solve_master"), "lower"),
    ("qform.sample_prime_large.draws_per_prime",
     ("calls", "lattice.sample_ellipsoid"), ("ok", "qform.sample_prime_large"), "lower"),
    ("quat.ideal_equivalence_test.hit_share",
     ("outcome", "quat.ideal_equivalence_test"), ("calls", "quat.ideal_equivalence_test"),
     "higher"),
    ("klpt.ideal_class_representatives.tests_per_class",
     ("calls", "quat.ideal_equivalence_test"), ("outcome", "klpt.ideal_class_representatives"),
     "lower"),
    ("arith.is_prime.true_share",
     ("outcome", "arith.is_prime"), ("calls", "arith.is_prime"), "higher"),
]


def _specs():
    for mod, entries in LAYERS.items():
        for e in entries:
            metric, attr = e if isinstance(e, tuple) else (e, e)
            yield mod, f"{mod}.{metric}", attr


def metric_names():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    out = []
    for _, name, _ in _specs():
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
    out += [(f"{mod}.self_ms", "ms", "lower") for mod in LAYERS]
    out += [(name, "ratio", better) for name, _, _, better in RATIOS]
    return out


class Tracer:
    def __init__(self):
        self.names = []  # span name id -> "module.function"
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.outcome = array("q")
        self.stack = []
        self.current_op = -1

    # --- installing wrappers ---

    def install(self):
        for mod_name, name, attr in _specs():
            mod = importlib.import_module(f"quatpath.{mod_name}")
            owner, _, leaf = attr.rpartition(".")
            target = getattr(mod, owner) if owner else mod
            raw = inspect.getattr_static(target, leaf)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            self.names.append(name)
            nid = len(self.names) - 1
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_generator(fn, nid)
            else:
                wrapped = self._wrap(fn, nid, _OUTCOMES.get(name))
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(target, leaf, wrapped)

    def _open(self, nid: int) -> int:
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.busy.append(0.0)
        self.outcome.append(0)
        self.stack.append(sid)
        return sid

    def _wrap(self, fn, nid, outcome):
        stack, start, end, busy, out = self.stack, self.start, self.end, self.busy, self.outcome
        open_span, clock = self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_span(nid)
            t0 = clock()
            start[sid] = t0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                out[sid] = -1
                raise
            finally:
                t1 = clock()
                end[sid] = t1
                busy[sid] = t1 - t0
                stack.pop()
            if outcome is not None:
                out[sid] = outcome(result)
            return result

        return wrapper

    def _wrap_generator(self, fn, nid):
        stack, start, end, busy, out = self.stack, self.start, self.end, self.busy, self.outcome
        open_span, clock = self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_span(nid)
            stack.pop()
            start[sid] = clock()
            gen = fn(*args, **kwargs)
            try:
                while True:
                    # the span is on the stack only while the generator
                    # runs; the consumer's calls between items are not its own
                    stack.append(sid)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        out[sid] = -1
                        raise
                    finally:
                        busy[sid] += clock() - t0
                        stack.pop()
                    yield item
            finally:
                gen.close()
                end[sid] = clock()

        return wrapper

    # --- output ---

    def write(self, path: Path, meta: dict):
        """All spans as raw arrays in one file, preceded by a JSON header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = ("name_id", "parent", "op", "start", "end", "busy", "outcome")
        header = dict(meta, names=self.names, spans=len(self.name_id),
                      columns=[[c, getattr(self, c).typecode] for c in cols])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in cols:
                getattr(self, c).tofile(fh)

    def metrics(self) -> dict:
        k = len(self.names)
        calls, ok, outcome = [0] * k, [0] * k, [0] * k
        self_s = [0.0] * k
        nid, parent, busy, out = self.name_id, self.parent, self.busy, self.outcome
        for sid in range(len(nid)):
            n = nid[sid]
            calls[n] += 1
            self_s[n] += busy[sid]
            if out[sid] >= 0:
                ok[n] += 1
                outcome[n] += out[sid]
            if parent[sid] >= 0:
                self_s[nid[parent[sid]]] -= busy[sid]
        index = {name: i for i, name in enumerate(self.names)}
        values = {}
        module_ms = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            values[f"{name}.calls"] = calls[i]
            values[f"{name}.self_ms"] = self_s[i] * 1e3
            module_ms[name.split(".", 1)[0]] += self_s[i] * 1e3
        for mod, ms in module_ms.items():
            values[f"{mod}.self_ms"] = ms
        table = {"calls": calls, "ok": ok, "outcome": outcome}
        for name, (kn, fn_num), (kd, fn_den), _ in RATIOS:
            den = table[kd][index[fn_den]]
            values[name] = table[kn][index[fn_num]] / den if den else 0.0
        units = {name: unit for name, unit, _ in metric_names()}
        return {name: {"value": values[name], "unit": units[name]} for name in units}
