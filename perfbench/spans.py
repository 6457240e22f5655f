"""Per-layer tracing from outside the program.

Every public function of each traced layer module is replaced by a wrapper
at every binding the package holds: the defining module, each module that
copied it with a from-import, `theorems.ALL_CHECKS`, and the method
`GradedRingMap.apply`.  Spans are kept in memory and written out at the end.

`core` is not wrapped: its field and monomial helpers run millions of times,
so a wrapper would mostly measure itself.  Their cost lands in the self time
of the calling layer.
"""

import importlib
import time
from fractions import Fraction

LAYERS = (
    "groebner", "modules", "hilbert", "resolution", "constructions",
    "toric", "theorems", "dsl", "cli",
)

# Functions whose calls are also counted by distinct canonical input.
DISTINCT = {
    "resolution.minimal_free_resolution",
    "groebner.groebner_basis",
    "hilbert.hilbert_series",
    "hilbert.hilbert_numerator",
}

# The method GradedRingMap.apply is reported under a flat function name.
ALIASES = {"groebner.GradedRingMap.apply": "groebner.ring_map_apply"}


def _span_name(layer, fname):
    full = "%s.%s" % (layer, fname)
    if layer == "theorems" and fname.startswith("check_"):
        return "theorems.checks"
    return ALIASES.get(full, full)


def _coeff(c):
    return (c.numerator, c.denominator) if isinstance(c, Fraction) else c


def _ring_key(ring):
    return (ring.field.characteristic, ring.names, ring.weights)


def _poly_key(f):
    return tuple(sorted((m, _coeff(c)) for m, c in f.terms.items()))


def _ideal_key(ring, gens):
    return (_ring_key(ring), tuple(sorted(_poly_key(g) for g in gens)))


def _order_key(order):
    return (order.kind, order.weights, order.block)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def distinct_key(gi, name, args, kwargs):
    """Canonical input: ring, generator terms (as a set) and monomial order.

    The order defaults to degrevlex, as it does in every traced function.
    """
    if name == "groebner.groebner_basis":
        gens = [g for g in _arg(args, kwargs, 0, "generators") if not g.is_zero()]
        ring = gens[0].ring if gens else None
        key = _ideal_key(ring, gens) if ring else ()
        return key, _order_key(_arg(args, kwargs, 1, "order", gi.DEGREVLEX))
    if name == "hilbert.hilbert_numerator":
        monos = _arg(args, kwargs, 0, "monomials")
        return tuple(sorted(monos)), tuple(_arg(args, kwargs, 1, "weights"))
    A = args[0] if args else kwargs["A"]
    order = _arg(args, kwargs, 1, "order", None) or gi.DEGREVLEX
    return _ideal_key(A.ring, A.ideal_gens), _order_key(order)


def _out_size(name, result):
    if name == "groebner.groebner_basis":
        return len(result)
    if name == "resolution.minimal_free_resolution":
        return sum(result.betti_table().entries.values())
    return None


class Tracer:
    """Wraps the layers of one imported `gradedinv` and records spans."""

    def __init__(self, gi, pass_id):
        self.gi = gi
        self.pass_id = pass_id
        self.spans = []  # (id, name, start, end, parent id or None, pass id)
        self.stats = {}  # span name -> [calls, self seconds, output size]
        self.keys = {}  # name -> set of canonical inputs
        self.bookkeeping_s = 0.0
        self._stack = []  # [span id, time covered by children]
        self._restore = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Replace every binding of every traced function; return the count."""
        modules = {
            layer: importlib.import_module("gradedinv." + layer) for layer in LAYERS
        }
        modules["gradedinv"] = importlib.import_module("gradedinv")
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            if layer == "gradedinv":
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(_span_name(layer, attr), obj)
                    self.stats.setdefault(_span_name(layer, attr), [0, 0.0, 0])
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, w)
        checks = modules["theorems"].ALL_CHECKS
        for tid, fn in list(checks.items()):
            w = wrappers.get(id(fn))
            if w is not None:
                self._restore.append((checks, tid, fn))
                checks[tid] = w
        cls = modules["groebner"].GradedRingMap
        original = cls.apply
        self._restore.append((cls, "apply", original))
        name = _span_name("groebner", "GradedRingMap.apply")
        cls.apply = self._wrap(name, original)
        self.stats[name] = [0, 0.0, 0]
        return len(wrappers) + 1

    def uninstall(self):
        for holder, attr, obj in reversed(self._restore):
            if isinstance(holder, dict):
                holder[attr] = obj
            else:
                setattr(holder, attr, obj)
        self._restore.clear()

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent[0] if parent else None, self.pass_id)
            st = self.stats[name]
            st[0] += 1
            st[1] += (end - start) - frame[1]
            if parent is not None:
                parent[1] += end - start
        # Canonical keys and output sizes are computed outside the span and
        # charged to bookkeeping, not to any layer.
        if name in DISTINCT:
            self.keys.setdefault(name, set()).add(distinct_key(self.gi, name, args, kwargs))
        size = _out_size(name, result)
        if size is not None:
            st[2] += size
        done = time.perf_counter()
        self.bookkeeping_s += done - end
        if parent is not None:
            parent[1] += done - end
        return result

    def summary(self, wall_s):
        """Per-function and per-layer metrics for one traced pass."""
        out = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (calls, self_s, size) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            layer_self[name.split(".")[0]] += self_s
            if name in DISTINCT:
                out[name + ".distinct"] = len(self.keys.get(name, ()))
            if name == "groebner.groebner_basis":
                out[name + ".out_gens"] = size
            if name == "resolution.minimal_free_resolution":
                out[name + ".betti_sum"] = size
        for layer, s in layer_self.items():
            out[layer + ".self_s"] = s
        out["trace.wall_s"] = wall_s
        out["trace.bookkeeping_s"] = self.bookkeeping_s
        out["trace.unspanned_s"] = wall_s - sum(layer_self.values()) - self.bookkeeping_s
        out["trace.spans"] = len(self.spans)
        return out
