"""Span tracer that wraps the package's public functions from outside.

`Tracer.patch` replaces, on the module objects, every public function of
the five layers (`exact`, `fans`, `conormal`, `algorithms`, `cli`), every
name another module bound to one of them at import, and the public
methods of `StackyFan` (its constructor included), and puts each
original back when the `with` block ends, even if it raised.  Each call
records a span (name, start, end, parent) in flat arrays; self time is a
span's duration minus the durations of its children, which run one
after another inside it.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

LAYERS = ("exact", "fans", "conormal", "algorithms", "cli")

# Sort keys run millions of times inside `sorted`; a span each would
# swamp the time they are meant to explain.
_SKIP = {"fans.cone_key"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        # Work counts observed on return values.
        self.points = 0
        self.relint_queries = 0
        self.relint_nonempty = 0

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording one span per call under `name`."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock, stack = self.clock, self._stack
        spans_name, spans_start = self.name, self.start
        spans_end, spans_parent = self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(nid)
            spans_parent.append(stack[-1] if stack else -1)
            spans_start.append(0.0)
            spans_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans_start[idx] = t0
                spans_end[idx] = t1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self, modules: dict, stacky_fan):
        """Wrap the layers' public functions and `StackyFan`'s methods.

        `modules` maps layer name to module object; the package object
        itself may be given under any other key so that its re-exports
        are wrapped too."""
        saved: list[tuple[object, str, object]] = []
        try:
            wrapped: dict[int, object] = {}
            for layer in LAYERS:
                mod = modules[layer]
                for attr, value in list(vars(mod).items()):
                    if attr.startswith("_") or not callable(value) \
                            or isinstance(value, type) \
                            or getattr(value, "__module__", None) != mod.__name__:
                        continue
                    name = f"{layer}.{attr}"
                    if name not in _SKIP:
                        wrapped[id(value)] = self.wrap(name, value)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrapped:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped[id(value)])
            for attr, value in list(vars(stacky_fan).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                name = f"fans.StackyFan.{attr}"
                observe = _OBSERVERS.get(attr)
                if isinstance(value, classmethod):
                    new = classmethod(self.wrap(name, value.__func__))
                elif callable(value) and not isinstance(value, type):
                    new = self.wrap(name, value, observe)
                else:
                    continue
                saved.append((stacky_fan, attr, value))
                setattr(stacky_fan, attr, new)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # analysis

    def __len__(self) -> int:
        return len(self.name)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children."""
        dur = self.durations()
        out = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def inclusive(self, names) -> float:
        """Total duration of spans named in `names` that have no ancestor
        also named there, so recursion is not counted twice."""
        ids = {self._ids[n] for n in names if n in self._ids}
        inside = [False] * len(self.name)
        total = 0.0
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            above = p >= 0 and (inside[p] or self.name[p] in ids)
            inside[i] = above
            if nid in ids and not above:
                total += self.end[i] - self.start[i]
        return total

    def by_name(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        calls = [0] * len(self.names)
        selfs = [0.0] * len(self.names)
        for nid, s in zip(self.name, self.self_times()):
            calls[nid] += 1
            selfs[nid] += s
        return {n: (calls[i], selfs[i]) for i, n in enumerate(self.names)}

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self.name)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                          f"{self.parent[i]}\n")


def _observe_points(tracer: Tracer, args, kwargs, result) -> None:
    tracer.points += len(result)
    relint = kwargs.get("relative_interior", args[2] if len(args) > 2
                        else False)
    if relint:
        tracer.relint_queries += 1
        tracer.relint_nonempty += bool(result)


_OBSERVERS = {
    "parallelotope_points": _observe_points,
    "parallelotope_lambdas": _observe_points,
}


# ----------------------------------------------------------------------
# per-layer metrics

_SNF = ("smith_normal_form",)
_HNF = ("hnf_columns", "kernel_columns", "hnf_solve", "hnf_pivots")
_GROUP = ("cokernel_of_rows", "subgroup_generated", "subgroup_as_group",
          "relation_lattice", "canonical_presentation",
          "intersect_subgroups", "quotient_by")
_MODIFY = ("stacky_star_subdivision", "root_construction", "with_ray_label")
_PARA = ("parallelotope_points", "parallelotope_lambdas")
_INVARIANTS = ("independency_index", "toroidal_index", "divisorial_index",
               "divisorial_index_along", "divisorial_type",
               "relative_generic_order", "is_divisorial", "dominates")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced pass.

    `*_s` figures are self time, except `conormal.incl_s`,
    `algorithms.max_locus_s`, `algorithms.certify_s`, `cli.parse_s` and
    `cli.emit_s`, which are inclusive durations of the outermost spans.
    """
    table = tracer.by_name()

    def calls(layer, names):
        return sum(table.get(f"{layer}.{n}", (0, 0.0))[0] for n in names)

    def self_s(layer, names):
        return sum(table.get(f"{layer}.{n}", (0, 0.0))[1] for n in names)

    def layer_self(layer):
        return sum(s for n, (_, s) in table.items()
                   if n.startswith(layer + "."))

    fan = "StackyFan."
    return {
        "exact.snf_calls": calls("exact", _SNF),
        "exact.snf_s": self_s("exact", _SNF),
        "exact.hnf_calls": calls("exact", _HNF),
        "exact.hnf_s": self_s("exact", _HNF),
        "exact.group_s": self_s("exact", _GROUP),
        "exact.self_s": layer_self("exact"),
        "fans.builds": calls("fans", [fan + "__init__"]),
        "fans.build_s": self_s("fans", [fan + "__init__"]),
        "fans.has_cone_calls": calls("fans", [fan + "has_cone"]),
        "fans.has_cone_s": self_s("fans", [fan + "has_cone"]),
        "fans.modify_s": self_s("fans", [fan + n for n in _MODIFY]),
        "fans.parallelotope_calls": calls("fans", [fan + n for n in _PARA]),
        "fans.parallelotope_s": self_s("fans", [fan + n for n in _PARA]),
        "fans.parallelotope_points": tracer.points,
        "fans.relint_nonempty_ratio":
            tracer.relint_nonempty / tracer.relint_queries
            if tracer.relint_queries else 0.0,
        "fans.multiplicity_calls": calls("fans", [fan + "multiplicity"]),
        "fans.multiplicity_s": self_s("fans", [fan + "multiplicity"]),
        "fans.self_s": layer_self("fans"),
        "conormal.conormal_at_calls": calls("conormal", ["conormal_at"]),
        "conormal.invariant_calls": calls("conormal", _INVARIANTS),
        "conormal.incl_s": tracer.inclusive(
            [n for n in table if n.startswith("conormal.")]),
        "conormal.self_s": layer_self("conormal"),
        "algorithms.self_s": layer_self("algorithms"),
        "algorithms.max_locus_calls": calls("algorithms", ["max_locus"]),
        "algorithms.max_locus_s": tracer.inclusive(["algorithms.max_locus"]),
        "algorithms.certify_s": tracer.inclusive(["algorithms.certify"]),
        "cli.parse_s": tracer.inclusive(["cli.parse_fan"]),
        "cli.emit_s": tracer.inclusive(["cli.emit_trace"]),
        "cli.self_s": layer_self("cli"),
        "trace.spans": len(tracer),
    }
