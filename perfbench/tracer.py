"""Spans around the program's layers, recorded from outside the program.

`Tracer.install()` wraps the public functions of each traced module and
patches every module attribute that holds one of them, so a call such as
`bounds.grid_minimize` or `cli.grid_minimize` goes through the wrapper as
well as `grid.grid_minimize`.  A span is (name, start, end, parent, op id);
spans are kept in flat arrays and written out when the benchmark ends.

`combin` is not wrapped: its primitives run once per grid point or per
Stirling term, where a span would cost more than the work it measures.  Its
enumeration rate is measured by `enumeration_rate` instead.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import defaultdict

import simplex_grid_opt
from simplex_grid_opt import bounds, cli, combin, grid, hypergeom, identities, poly, rational, stableset

LAYERS = {
    "poly": poly,
    "grid": grid,
    "bounds": bounds,
    "hypergeom": hypergeom,
    "identities": identities,
    "stableset": stableset,
    "rational": rational,
}
OP_SPAN = "cli.main"
SWEEP_FAMILIES = (
    "stirling_sum", "stirling_multi", "integer_point_identities", "kmr",
    "sigma", "phi", "a_beta", "moment_decomposition",
)
GRID_SWEEPS = ("grid.grid_minimize", "grid.grid_maximize")


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not name.startswith("_")
            and not inspect.isgeneratorfunction(value)
        ):
            yield name, value


class Tracer:
    """In-memory span recorder; spans are only recorded inside an op span."""

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: "list[int]" = []
        self._op_id = -1
        self._patches: "list[tuple[object, str, object]]" = []
        # per op: grid sweep keys (direction, polynomial, r) of the top-level sweeps
        self.sweep_keys: "dict[int, list[tuple]]" = defaultdict(list)
        self.sweep_points = 0
        self.identity_checks = 0

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id` under a root span."""
        self._op_id = op_id
        i = self._open(self._id(OP_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(i)
            self._op_id = -1

    def _wrap(self, label: str, fn, on_return=None):
        nid = self._id(label)
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:  # outside an op, e.g. in the oracle
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_return is not None:
                on_return(i, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _hooks(self):
        def sweep(i, args, kwargs, result):
            parent = self.parent[i]
            if parent >= 0 and self.names[self.name_id[parent]] in GRID_SWEEPS:
                return  # grid_maximize's inner grid_minimize is part of one sweep
            f = args[0] if args else kwargs["f"]
            key = (self.names[self.name_id[i]], f.n, tuple(f.coeffs.items()), result.r)
            self.sweep_keys[self.op[i]].append(key)
            self.sweep_points += result.evaluations

        def checks(i, args, kwargs, result):
            self.identity_checks += len(result)

        return {
            "grid.grid_minimize": sweep,
            "grid.grid_maximize": sweep,
            "identities.run_default_sweeps": checks,
        }

    def install(self) -> None:
        """Patch every reference to a traced function in the package's modules."""
        hooks = self._hooks()
        wrappers = {}
        for layer, module in LAYERS.items():
            for name, fn in _public_functions(module):
                label = f"{layer}.{name}"
                wrappers[fn] = self._wrap(label, fn, hooks.get(label))
        for module in (simplex_grid_opt, cli, *LAYERS.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # --- reporting ----------------------------------------------------------------

    def summary(self, stdout_bytes: int, scales: "dict[int, float]") -> "tuple[dict[str, float], dict[str, float]]":
        """Per-layer metrics over every recorded span, and the self time of each layer.

        Span times are converted to reference seconds with each op's scale.
        """
        count = len(self.start)
        names = [self.names[k] for k in self.name_id]
        dur = [(self.end[k] - self.start[k]) * scales[self.op[k]] for k in range(count)]
        child = [0.0] * count
        for k in range(count):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        calls: "dict[str, int]" = defaultdict(int)
        total: "dict[str, float]" = defaultdict(float)
        layer_self: "dict[str, float]" = defaultdict(float)
        for k in range(count):
            calls[names[k]] += 1
            total[names[k]] += dur[k]
            layer_self[names[k].split(".", 1)[0]] += dur[k] - child[k]

        def outer_time(group) -> float:
            """Time inside spans of `group`, counting nested ones once."""
            inside = [False] * count
            out = 0.0
            for k in range(count):
                p = self.parent[k]
                nested = p >= 0 and inside[p]
                inside[k] = nested or names[k] in group
                if inside[k] and not nested:
                    out += dur[k]
            return out

        op_s = total[OP_SPAN]
        sweeps = sum(len(keys) for keys in self.sweep_keys.values())
        distinct = sum(len(set(keys)) for keys in self.sweep_keys.values())
        grid_s = layer_self["grid"]
        bernstein = ("poly.bernstein_table", "poly.elevate", "poly.bernstein_enclosure")
        render = ("rational.fraction_str", "rational.decimal_str")
        out = {
            "grid.sweeps": sweeps,
            "grid.distinct_sweeps": distinct,
            "grid.distinct_sweep_ratio": distinct / sweeps if sweeps else 1.0,
            "grid.points": self.sweep_points,
            "grid.self_s": grid_s,
            "grid.points_per_s": self.sweep_points / grid_s if grid_s else 0.0,
            "grid.share": grid_s / op_s if op_s else 0.0,
            "poly.load_s": outer_time(("poly.load_polynomial",)),
            "poly.bernstein_calls": sum(calls[name] for name in bernstein),
            "poly.bernstein_s": outer_time(bernstein),
            "bounds.calls": sum(v for k, v in calls.items() if k.startswith("bounds.")),
            "bounds.check_bound_calls": calls["bounds.check_bound"],
            "bounds.self_s": layer_self["bounds"],
            "hypergeom.moment_calls": calls["hypergeom.moment"],
            "hypergeom.self_s": layer_self["hypergeom"],
            "identities.checks": self.identity_checks,
            "identities.a_beta_calls": calls["identities.a_beta"],
            "identities.a_beta_s": total["identities.a_beta"],
            **{
                f"identities.sweep_s.{family}": total[f"identities.sweep_{family}"]
                for family in SWEEP_FAMILIES
            },
            "stableset.form_s": total["stableset.motzkin_straus_form"],
            "rational.render_calls": sum(calls[name] for name in render),
            "rational.render_s": outer_time(render),
            "cli.self_s": layer_self["cli"],
            "cli.stdout_bytes": stdout_bytes,
        }
        return out, dict(layer_self)

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            fp.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for k in range(len(self.start)):
                fp.write(
                    f"{k}\t{self.names[self.name_id[k]]}\t{self.start[k]:.7f}\t"
                    f"{self.end[k]:.7f}\t{self.parent[k]}\t{self.op[k]}\n"
                )


def enumeration_rate(shapes, scale, min_seconds: float = 0.5) -> float:
    """Points per second of iterating `combin.compositions(n, r)` over the given shapes.

    `scale()` converts the measured seconds to reference seconds.
    """
    points = 0
    started = time.perf_counter()
    while True:
        for n, r in shapes:
            for _ in combin.compositions(n, r):
                points += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return points / (elapsed * scale())
