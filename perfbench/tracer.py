"""Per-layer tracing of xjoin from outside the package.

``install()`` wraps the public functions of each layer module and rebinds
every ``xjoin.*`` name that refers to one of them, including names other
modules imported with ``from ... import``.  Two kinds of wrapper exist:

* span wrappers, for stage-level calls: each call records a span (name,
  parent, start, end) kept in memory, and its self time (duration minus the
  time of the spans and counted calls beneath it) is charged to its layer;
* counted wrappers, for per-element calls (``BisAlgebra`` operations,
  ``hull_mul``, ``right_lcm``, ``is_cover`` and the like): no span, only a
  call count, with the duration of the outermost such call charged to its
  own layer.  Calls nested inside a counted call are only counted, so
  ``hull_mul`` time under ``suites.hull_suite`` lands in ``lcmhull``.

Nothing under ``src/`` changes; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "suites", "semilattice", "boolalg", "invsgp", "groupoid", "bisection", "lcmhull")

# per-element functions and methods: counted, never a span
COUNTED = {
    "semilattice": ("is_cover", "dense_in", "char_satisfies", "char_evaluate", "relation",
                    "relation_sort_key"),
    "invsgp": ("natural_leq", "compatible", "conjugate", "act", "idempotent_semilattice"),
    "groupoid": ("germ_of", "is_local_bisection", "theta"),
    "bisection": ("difference", "skew_join"),
    "lcmhull": ("hull_mul", "hull_inv", "hull_element", "hull_identity", "hull_idem_leq",
                "parse_hull", "hull_relation_sort_key"),
}
BIS_OPS = ("mul", "inv", "d", "r", "diff", "skew", "join", "compatible")
# counted calls whose own summed time is reported even when nested
TIMED = {"lcmhull.right_lcm"}
RELGEN = ("semilattice.x_tight", "semilattice.x_prime")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)      # inclusive seconds
        self.self_s: dict[str, float] = defaultdict(float)    # per layer
        self.sizes: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)        # open spans per name
        self.stack: list[list] = []                           # [span id, child seconds]
        self.spans: list[tuple] = []                          # (id, parent, name, start, end)
        self.counted_depth = 0

    # --- wrappers -------------------------------------------------------------

    def span(self, fn, layer: str, name: str, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if self.counted_depth:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            self.spans.append(None)
            frame = [sid, 0.0]
            self.stack.append(frame)
            self.active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.active[name] -= 1
                dur = t1 - t0
                self.self_s[layer] += dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
                if not self.active[name]:
                    self.incl[name] += dur
                self.spans[sid] = (sid, parent, name, t0, t1)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def counted(self, fn, layer: str, name: str):
        timed = name in TIMED
        under_relgen = name == "semilattice.is_cover"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if under_relgen and (self.active[RELGEN[0]] or self.active[RELGEN[1]]):
                self.calls["semilattice.is_cover@relgen"] += 1
            if self.counted_depth and not timed:
                return fn(*args, **kwargs)
            outer = not self.counted_depth
            self.counted_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.counted_depth -= 1
                if timed:
                    self.incl[name] += dur
                if outer:
                    self.self_s[layer] += dur
                    if self.stack:
                        self.stack[-1][1] += dur

        return wrapper

    # --- output ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "sizes": dict(self.sizes),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def _add(metric: str, value_of):
    def hook(tr: Tracer, args, result):
        tr.sizes[metric] += value_of(args, result)
    return hook


def _relgen_hook(tr: Tracer, args, result):
    tr.sizes["semilattice.relations"] += len(result)
    tr.sizes["semilattice.relgen_relations"] += len(result)


def _groupoid_hook(tr: Tracer, args, result):
    tr.sizes["groupoid.units"] += result.groupoid.n_units
    tr.sizes["groupoid.arrows"] += result.groupoid.n_arrows


HOOKS = {
    "semilattice.x_tight": _relgen_hook,
    "semilattice.x_prime": _relgen_hook,
    "semilattice.x_core": _add("semilattice.relations", lambda a, r: len(r)),
    "boolalg.x_pi": _add("boolalg.x_pi.relations", lambda a, r: len(r)),
    "boolalg.booleanization": _add("boolalg.booleanization.atoms", lambda a, r: r[0].m),
    "invsgp.validate": _add("invsgp.validate.elements", lambda a, r: r.n),
    "groupoid.germ_groupoid": _groupoid_hook,
    "bisection.BisAlgebra": _add("bisection.elements", lambda a, r: len(a[0])),
    "bisection.check_variety_identities": _add("bisection.variety_triples", lambda a, r: r.checked),
    "lcmhull.gen_xa": _add("lcmhull.relations", lambda a, r: len(r)),
    "lcmhull.gen_xu": _add("lcmhull.relations", lambda a, r: len(r)),
}


def _public_callables(mod):
    for attr, val in vars(mod).items():
        if attr.startswith("_") or isinstance(val, type) or not callable(val):
            continue
        if getattr(val, "__module__", None) == mod.__name__:
            yield attr, val


def install() -> Tracer:
    """Wrap every layer of xjoin and return the tracer collecting the data."""
    tr = Tracer()
    mods = {layer: importlib.import_module(f"xjoin.{layer}") for layer in LAYERS}
    replace: dict[int, object] = {}
    for layer, mod in mods.items():
        counted = COUNTED.get(layer, ())
        for attr, fn in _public_callables(mod):
            name = f"{layer}.{attr}"
            if attr in counted:
                replace[id(fn)] = tr.counted(fn, layer, name)
            else:
                replace[id(fn)] = tr.span(fn, layer, name, HOOKS.get(name))
    # rebind in every xjoin namespace, including names imported by others
    for mod in [importlib.import_module("xjoin"), *mods.values()]:
        for attr, val in list(vars(mod).items()):
            if id(val) in replace:
                setattr(mod, attr, replace[id(val)])
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if id(v) in replace:
                        val[k] = replace[id(v)]
    bis = mods["bisection"].BisAlgebra
    bis.__init__ = tr.span(bis.__init__, "bisection", "bisection.BisAlgebra",
                           HOOKS["bisection.BisAlgebra"])
    for op in BIS_OPS:
        setattr(bis, op, tr.counted(getattr(bis, op), "bisection", f"bisection.BisAlgebra.{op}"))
    for cls in vars(mods["lcmhull"]).values():
        if isinstance(cls, type) and "right_lcm" in vars(cls):
            cls.right_lcm = tr.counted(cls.right_lcm, "lcmhull", "lcmhull.right_lcm")
    return tr
