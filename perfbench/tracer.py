"""Per-layer tracing of okmod from outside the program.

A ``Tracer`` replaces each public function of every okmod module, and the
public methods listed in ``METHODS``, by a timing wrapper: where the
function is defined, and wherever another module (or the package) bound the
same function object by name, e.g. ``okmod.ideals.hnf_with_modulus`` or
``okmod.numberfield.dixon_solve_left``.  ``restore`` puts every original
back.

Each call is a span with an inclusive wall time; a span's self time is its
duration minus that of the spans it directly caused.  A module's ``self_s``
is the sum of the self times of its spans, i.e. its wrapped time minus the
time of wrapped calls into other modules.  The self times of all modules add
up to the time spent inside top-level okmod calls.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("zlinalg", "numeric", "numberfield", "twoelt", "ideals", "lattice",
           "reduction", "residues", "determinant", "pseudo_hnf", "pseudo_snf",
           "cli")

# (module, class, method, metric name) of the wrapped methods.  Element
# arithmetic (FieldElement, NumberField.mul/add) is left unwrapped: it runs
# millions of times per pass and its time counts as self time of the caller.
METHODS = (
    ("numberfield", "NumberField", "inv", "inv"),
    ("numberfield", "NumberField", "norm", "norm"),
    ("numberfield", "NumberField", "regular_representation", "regular_representation"),
    ("ideals", "FractionalIdeal", "__add__", "add"),
    ("ideals", "FractionalIdeal", "__mul__", "mul"),
    ("ideals", "FractionalIdeal", "inverse", "inverse"),
    ("ideals", "FractionalIdeal", "elt_mul", "elt_mul"),
    ("ideals", "FractionalIdeal", "int_mul", "int_mul"),
    ("ideals", "FractionalIdeal", "contains", "contains"),
    ("ideals", "FractionalIdeal", "is_subset", "is_subset"),
    ("ideals", "FractionalIdeal", "from_generators", "from_generators"),
    ("ideals", "FractionalIdeal", "from_row_lattice", "from_row_lattice"),
    ("reduction", "ReducedBasisCache", "reduced_basis", "reduced_basis"),
    ("pseudo_hnf", "PseudoMatrix", "module_in_ring_power", "module_in_ring_power"),
    ("pseudo_snf", "BiPseudoMatrix", "integrality_violation", "integrality_violation"),
)

# Public helpers too small and too frequent to wrap: a wrapper would cost
# more than their body.  Their time counts as self time of the caller.
UNWRAPPED = {
    "zlinalg": {"shape", "identity", "zero_matrix", "mat_copy", "transpose",
                "stack", "mat_mul", "vec_mat", "mat_eq", "content", "ext_gcd"},
    "numeric": {"mpf_to_fraction", "frac_up", "isqrt_up", "frac_sqrt_ub",
                "frac_sqrt_lb", "iroot_floor", "frac_nth_root_ub", "log2_ub",
                "eval_at_root"},
    "residues": {"poly_trim", "poly_add", "poly_sub", "poly_mul", "poly_divmod",
                 "poly_mod", "poly_gcd", "poly_pow_mod", "poly_inverse_mod",
                 "symmetric_lift", "primes_below"},
}

# Function-name prefixes whose outermost spans are also summed as one key:
# cli.parse_* -> "cli.parse", cli.format_* -> "cli.format".
GROUPS = {"cli": ("parse", "format")}


class Tracer:
    """Wraps okmod's public functions; collects calls, times and counters."""

    def __init__(self):
        self._saved = []          # (namespace, attribute, original value)
        self._stack = []          # child-time accumulators of the open spans
        self._active = defaultdict(int)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)

    def reset(self):
        self.calls.clear()
        self.incl.clear()
        self.self_s.clear()
        self.counters.clear()

    # -- installation ---------------------------------------------------------

    def _wrap(self, module, name, fn, observe=None):
        key = f"{module}.{name}"
        # inclusive time is counted at the outermost span of a key, so that
        # recursion or nesting within a group is not counted twice
        keys = (key,) + tuple(f"{module}.{g}" for g in GROUPS.get(module, ())
                              if name.startswith(g + "_"))
        stack, active = self._stack, self._active
        calls, incl, self_s = self.calls, self.incl, self.self_s

        def wrapper(*args, **kwargs):
            calls[key] += 1
            for k in keys:
                active[k] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                child = stack.pop()
                for k in keys:
                    active[k] -= 1
                    if not active[k]:
                        incl[k] += dur
                self_s[module] += dur - child
                if stack:
                    stack[-1] += dur
            if observe is not None:
                observe(self, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, namespace, attr, value):
        self._saved.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"okmod.{m}") for m in MODULES}
        replaced = {}             # id(original function) -> wrapper
        for m, mod in mods.items():
            skip = UNWRAPPED.get(m, set())
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                observe = _count_primes if (m, attr) == ("residues", "plan_primes") else None
                wrapper = self._wrap(m, attr, fn, observe)
                replaced[id(fn)] = (fn, wrapper)
        for m, cls_name, meth, metric in METHODS:
            cls = getattr(mods[m], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self._wrap(m, metric, raw.__func__)))
            else:
                self._set(cls, meth, self._wrap(m, metric, raw))
        # every binding of a wrapped function, where it is defined and where
        # another module (or the package) imported it by name
        namespaces = [sys.modules[n] for n in list(sys.modules)
                      if n == "okmod" or n.startswith("okmod.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(ns, attr, hit[1])

    def restore(self):
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        out = {}
        for key, n in self.calls.items():
            out[f"{key}.calls"] = n
        for key, t in self.incl.items():
            out[f"{key}.s"] = t
        for m in MODULES:
            out[f"{m}.self_s"] = self.self_s.get(m, 0.0)
        for key, n in self.counters.items():
            out[key] = n
        return out


def _count_primes(tracer, plan):
    tracer.counters["residues.primes_used"] += len(plan.primes)
