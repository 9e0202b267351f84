"""Per-layer spans and work counters, installed from outside the program.

The tracer wraps public functions of each ``clusteralg`` layer.  A
wrapped call records a span: its duration, minus the time its direct
child spans cover, is the layer's self time.  Counters (tuples
evaluated, violations reported, bytes parsed or written) are taken at
the same boundaries from the call's arguments and result, so they are
exact and machine-independent.  A call count includes nested entries of
the same span name (``Matrix.inverse`` enters ``Matrix.solve``).

``cli`` and ``operators`` import names directly (``from .core import
check_axioms``) and ``cli`` keeps checkers in dispatch tables, so a
function is rebound wherever the same object is bound: every module
attribute and every module-level dict value (or tuple inside one).
Methods are patched on the class.  ``uninstall`` restores everything.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

_CLOCK = time.perf_counter


def _violations(_args, result) -> int:
    return len(result.violations)


def _axiom_tuples(args, _result) -> int:
    a = args[0]
    return len(sys.modules["clusteralg.core"].AXIOMS[int(a.level)]) * a.dim ** 3


def _file_bytes(args, _result) -> int:
    return os.path.getsize(args[0])


def _text_bytes(_args, result) -> int:
    return len(result.encode("utf-8"))


# (layer span name, module, attribute or "Class.method", {counter: fn})
SPANS = (
    ("linalg.matmul", "linalg", "Matrix.__matmul__", {}),
    ("linalg.solve", "linalg", "Matrix.inverse", {}),
    ("linalg.solve", "linalg", "Matrix.solve", {}),
    ("linalg.solve", "linalg", "solve_consistent", {}),
    ("linalg.solve", "linalg", "row_echelon_pivots", {}),
    ("core.check_axioms", "core", "check_axioms",
     {"tuples": _axiom_tuples, "violations": _violations}),
    ("core.derived_op", "core", "derived_op", {}),
    ("bimodules.check_bimodule", "bimodules", "check_bimodule",
     {"violations": _violations}),
    ("bimodules.construct", "bimodules", "regular_bimodule", {}),
    ("bimodules.construct", "bimodules", "dual_bimodule", {}),
    ("bimodules.construct", "bimodules", "restrict_bimodule", {}),
    ("bimodules.construct", "bimodules", "octo_depth_bimodule", {}),
    ("bimodules.construct", "bimodules", "semidirect_sum", {}),
    ("operators.is_o_operator", "operators", "is_o_operator",
     {"violations": _violations}),
    ("operators.induce", "operators", "induce_on_module", {}),
    ("operators.induce", "operators", "rb_finer", {}),
    ("operators.induce", "operators", "rb_pair_quadri", {}),
    ("operators.induce", "operators", "rb_triple_octo", {}),
    ("operators.induce", "operators", "compatible_from_invertible", {}),
    ("yangbaxter.slot_product", "yangbaxter", "slot_product", {}),
    ("yangbaxter.lift", "yangbaxter", "lift_o_operator", {}),
    ("yangbaxter.lift", "yangbaxter", "canonical_double_solution", {}),
    ("forms.classify", "forms", "classify_form", {}),
    ("forms.finer", "forms", "finer_from_form", {}),
    ("forms.finer", "forms", "finer_form_identities", {}),
    ("bundle.parse", "bundle", "load_bundle", {"bytes": _file_bytes}),
    ("bundle.parse", "bundle", "parse_bundle", {}),
    ("bundle.dumps", "bundle", "dumps", {"bytes": _text_bytes}),
    ("cli.main", "cli", "main", {}),
    ("catalog.build", "catalog", "_build", {}),
) + tuple(
    ("yangbaxter.equation", "yangbaxter", name, {"violations": _violations})
    for name in ("check_aybe", "check_d_equation", "check_q_equation",
                 "check_q_dual_forms", "check_o_equation"))

# Calls counted without a span: Matrix construction is too frequent to time.
COUNTED = (("linalg.matrix_new", "linalg", "Matrix.__init__"),)


def rebind(old, new, undo: list) -> None:
    """Bind `new` wherever a clusteralg module binds the object `old`.

    Covers module attributes and module-level dict values, including a
    tuple held as a dict value.  Each change is appended to `undo`.
    """
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "clusteralg" or mod_name.startswith("clusteralg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                undo.append((setattr, mod, attr, value))
                setattr(mod, attr, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is old:
                        repl = new
                    elif isinstance(item, tuple) and any(x is old for x in item):
                        repl = tuple(new if x is old else x for x in item)
                    else:
                        continue
                    undo.append((dict.__setitem__, value, key, item))
                    value[key] = repl


def restore(undo: list) -> None:
    while undo:
        setter, target, key, value = undo.pop()
        setter(target, key, value)


def _resolve(module: str, path: str):
    mod = sys.modules[f"clusteralg.{module}"]
    if "." in path:
        cls_name, meth = path.split(".")
        return getattr(mod, cls_name), meth
    return mod, path


class Tracer:
    """Span and counter recorder; wraps the layers on `install`.

    Recording happens only while `active` is true, so benchmark
    bookkeeping between operations stays out of the figures.
    """

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._undo: list = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def _span(self, name: str, fn, counters: dict):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            child = [0.0]
            tracer._stack.append(child)
            start = _CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _CLOCK() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - child[0]
            for counter, measure in counters.items():
                tracer.counts[f"{name}.{counter}"] += measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module, path, counters in SPANS:
            self._wrap(module, path, lambda fn, n=name, c=counters: self._span(n, fn, c))
        for name, module, path in COUNTED:
            self._wrap(module, path, lambda fn, n=name: self._counted(n, fn))

    def _wrap(self, module: str, path: str, make) -> None:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapped = make(original)
        if isinstance(owner, type):
            self._undo.append((setattr, owner, attr, original))
            setattr(owner, attr, wrapped)
        else:
            rebind(original, wrapped, self._undo)

    def uninstall(self) -> None:
        restore(self._undo)
