"""Command-line front end.

    clusteralg check BUNDLE NAME [--kind ...] [--algebra A] [--bimodule M]
                     [--equation EQ] [--require FLAGS] [--json]
    clusteralg classify BUNDLE ALGEBRA FORM [--json]
    clusteralg derive BUNDLE CONSTRUCTION ARGS... [--variant V] [--symmetry S]
                     [--target T] [--name N] [--out FILE] [--no-verify] [--json]
    clusteralg selftest [--seed N] [--json]

BUNDLE is a path to a bundle document, or the literal "catalog" for the
shipped catalog (override the directory with CLUSTERALG_CATALOG).  Exit
codes: 0 all checks passed, 1 a check reported violations, 2 usage,
parse or schema errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import bundle as bundle_mod
from . import catalog
from .bimodules import (PreconditionFailed, check_bimodule, dual_bimodule,
                        regular_bimodule, semidirect_sum)
from .bundle import Bundle, BundleError, dumps
from .core import LevelError, Report, check_axioms, project, projection_targets
from .forms import classify_form, finer_from_form
from .linalg import DimensionMismatch, Singular, format_rational
from .operators import (NotCommuting, NotRotaBaxter, VerificationFailed,
                        compatible_from_invertible, induce_on_module,
                        is_o_operator, is_rota_baxter, rb_finer,
                        rb_pair_quadri, rb_triple_octo)
from .yangbaxter import (canonical_double_solution, check_aybe,
                         check_d_equation, check_o_equation, check_q_dual_forms,
                         check_q_equation, double_product, induce_dual_product,
                         lift_o_operator)

_USER_ERRORS = (BundleError, LevelError, DimensionMismatch, Singular,
                ValueError, KeyError)


def _report_doc(report: Report) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"identity": v.identity_id, "witness": list(v.witness),
             "discrepancy": [format_rational(x) for x in v.discrepancy]}
            for v in report.violations
        ],
    }


def _print_report(name: str, report: Report, as_json: bool) -> int:
    if as_json:
        sys.stdout.write(dumps(_report_doc(report)))
    elif report.ok:
        print(f"ok: {name}")
    else:
        for v in report.violations:
            disc = ", ".join(format_rational(x) for x in v.discrepancy)
            print(f"violated {v.identity_id} at {v.witness}: [{disc}]")
        print(f"FAIL: {name}: {len(report.violations)} violation(s)")
    return 0 if report.ok else 1


def _resolve_bundle(spec: str) -> Bundle:
    if spec == "catalog":
        override = os.environ.get("CLUSTERALG_CATALOG")
        if override:
            return bundle_mod.load_bundle(Path(override) / "catalog.json")
        data = resources.files("clusteralg").joinpath("data/catalog.json")
        return bundle_mod.parse_bundle(json.loads(data.read_text(encoding="utf-8")))
    return bundle_mod.load_bundle(spec)


def _context_algebra(bundle: Bundle, kind: str, name: str, flag: str | None):
    ref = flag or bundle.ref(kind, name, "algebra")
    if ref is None:
        raise BundleError(f"{kind}/{name} needs an algebra: pass --algebra or "
                          "embed an \"algebra\" reference")
    return bundle.find(ref, "algebras")[1]


_EQ_CHECKERS = {"aybe": (1, check_aybe), "d": (2, check_d_equation),
                "q": (4, check_q_equation), "q-dual": (4, check_q_dual_forms),
                "o": (8, check_o_equation)}


def _cmd_check(args) -> int:
    bundle = _resolve_bundle(args.bundle)
    kind, obj = bundle.find(args.name, args.kind)
    if kind == "algebras":
        return _print_report(args.name, check_axioms(obj), args.json)
    if kind == "bimodules":
        alg = _context_algebra(bundle, kind, args.name, args.algebra)
        return _print_report(args.name, check_bimodule(alg, obj), args.json)
    if kind == "maps":
        alg = _context_algebra(bundle, kind, args.name, args.algebra)
        bim_name = args.bimodule or bundle.ref(kind, args.name, "bimodule")
        if bim_name:
            rep = is_o_operator(alg, bundle.find(bim_name, "bimodules")[1], obj)
        else:
            rep = is_rota_baxter(alg, obj)
        return _print_report(args.name, rep, args.json)
    if kind == "tensors":
        alg = _context_algebra(bundle, kind, args.name, args.algebra)
        if args.equation == "auto":
            checker = {1: check_aybe, 2: check_d_equation, 4: check_q_equation,
                       8: check_o_equation}[int(alg.level)]
        else:
            _, checker = _EQ_CHECKERS[args.equation]
        return _print_report(args.name, checker(alg, obj), args.json)
    # forms: check the requested classification flags
    alg = _context_algebra(bundle, kind, args.name, args.algebra)
    wanted = [f.strip() for f in (args.require or "").split(",") if f.strip()]
    if not wanted:
        raise BundleError("checking a form needs --require FLAG[,FLAG...]")
    cls = classify_form(alg, obj)
    known = {"symmetric": cls.symmetric, "skew": cls.skew,
             "nondegenerate": cls.nondegenerate, **cls.flags}
    missing = [f for f in wanted if f not in known]
    if missing:
        raise BundleError(f"unknown form flags {missing}; known: {sorted(known)}")
    results = {f: known[f] for f in wanted}
    if args.json:
        sys.stdout.write(dumps({"ok": all(results.values()), "flags": results}))
    else:
        for f, val in results.items():
            print(f"{f}: {'true' if val else 'false'}")
    return 0 if all(results.values()) else 1


def _cmd_classify(args) -> int:
    bundle = _resolve_bundle(args.bundle)
    _, alg = bundle.find(args.algebra, "algebras")
    _, form = bundle.find(args.form, "forms")
    cls = classify_form(alg, form)
    doc = {"symmetric": cls.symmetric, "skew": cls.skew,
           "nondegenerate": cls.nondegenerate,
           "flags": dict(sorted(cls.flags.items()))}
    if args.json:
        sys.stdout.write(dumps(doc))
    else:
        for key in ("symmetric", "skew", "nondegenerate"):
            print(f"{key}: {'true' if doc[key] else 'false'}")
        for name, val in doc["flags"].items():
            print(f"{name}: {'true' if val else 'false'}")
    return 0


def _resolve_bimodule(bundle: Bundle, alg, spec: str):
    if spec == "regular":
        return regular_bimodule(alg)
    if spec == "dual-regular":
        return dual_bimodule(alg, regular_bimodule(alg))
    return bundle.find(spec, "bimodules")[1]


def _write_atomic(path: Path, text: str) -> None:
    """Write a temporary file next to path, then rename it over path, so
    that a reader sees the old bundle or the new one and never a part."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise BundleError(f"cannot write bundle: {exc}") from exc
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise BundleError(f"cannot write bundle: {exc}") from exc


def _cmd_derive(args) -> int:
    bundle = _resolve_bundle(args.bundle)
    verify = not args.no_verify
    name = args.name or f"derived_{args.construction.replace('-', '_')}"
    construction = args.construction
    extra = list(args.args)

    def need(n: int) -> list[str]:
        if len(extra) != n:
            raise BundleError(f"{construction} takes {n} argument(s), got {len(extra)}")
        return extra

    def get(section: str, obj_name: str):
        return bundle.find(obj_name, section)[1]

    out: dict[str, dict] = {}
    if construction == "project":
        a_name, target = need(2)
        alg = get("algebras", a_name)
        if target not in projection_targets(int(alg.level)):
            raise LevelError(f"no projection {target!r} from level {int(alg.level)}; "
                             f"valid: {projection_targets(int(alg.level))}")
        result = project(alg, target)
        if verify:
            rep = check_axioms(result)
            if not rep.ok:
                raise VerificationFailed("projection fails its axioms", rep)
    elif construction == "dual-bimodule":
        a_name, m_name = need(2)
        alg = get("algebras", a_name)
        result = dual_bimodule(alg, _resolve_bimodule(bundle, alg, m_name))
        if verify:
            rep = check_bimodule(alg, result)
            if not rep.ok:
                raise VerificationFailed("dual bimodule fails its identities", rep)
        doc = bundle_mod.serialize_bimodule(result)
        doc["algebra"] = a_name
        out["bimodules"] = {name: doc}
    elif construction == "semidirect":
        a_name, m_name = need(2)
        alg = get("algebras", a_name)
        result = semidirect_sum(alg, _resolve_bimodule(bundle, alg, m_name),
                                check=verify)
    elif construction == "induce":
        a_name, m_name, t_name = need(3)
        alg = get("algebras", a_name)
        result = induce_on_module(alg, _resolve_bimodule(bundle, alg, m_name),
                                  get("maps", t_name), check=True, verify=verify)
    elif construction == "rb-finer":
        a_name, r_name = need(2)
        result = rb_finer(get("algebras", a_name), get("maps", r_name),
                          verify=verify)
    elif construction == "rb-pair":
        a_name, r1, r2 = need(3)
        result = rb_pair_quadri(get("algebras", a_name), get("maps", r1),
                                get("maps", r2), verify=verify)
    elif construction == "rb-triple":
        a_name, r1, r2, r3 = need(4)
        result = rb_triple_octo(get("algebras", a_name), get("maps", r1),
                                get("maps", r2), get("maps", r3), verify=verify)
    elif construction == "compatible":
        a_name, m_name, t_name = need(3)
        alg = get("algebras", a_name)
        result = compatible_from_invertible(
            alg, _resolve_bimodule(bundle, alg, m_name), get("maps", t_name),
            verify=verify)
    elif construction == "finer-from-form":
        a_name, f_name = need(2)
        result = finer_from_form(get("algebras", a_name), get("forms", f_name),
                                 verify=verify)
    elif construction == "dual-product":
        a_name, r_name = need(2)
        result = induce_dual_product(get("algebras", a_name),
                                     get("tensors", r_name), verify=verify)
    elif construction == "double-product":
        a_name, dual_name = need(2)
        result = double_product(get("algebras", a_name),
                                get("algebras", dual_name),
                                args.variant or "frobenius", verify=verify)
    elif construction == "canonical-solution":
        (a_name,) = need(1)
        if not args.variant:
            raise BundleError("canonical-solution needs --variant")
        lift = canonical_double_solution(get("algebras", a_name), args.variant)
        if verify and not lift.equation_report.ok:
            raise VerificationFailed("canonical tensor fails its equation",
                                     lift.equation_report)
        sym = "sym" if args.variant in ("Cor3.3.8", "Prop3.4.12") else "skew"
        tensor_doc = bundle_mod.serialize_tensor2(lift.tensor, symmetry=sym)
        tensor_doc["algebra"] = f"{name}_double"
        out["algebras"] = {f"{name}_double": bundle_mod.serialize_algebra(lift.double)}
        out["tensors"] = {f"{name}_tensor": tensor_doc}
    elif construction == "lift":
        a_name, m_name, t_name = need(3)
        if args.symmetry not in ("skew", "sym"):
            raise BundleError("lift needs --symmetry skew|sym")
        alg = get("algebras", a_name)
        lift = lift_o_operator(alg, _resolve_bimodule(bundle, alg, m_name),
                               get("maps", t_name), args.symmetry)
        if verify and not (lift.equation_report.ok and lift.operator_report.ok):
            rep = Report(lift.equation_report.violations
                         + lift.operator_report.violations)
            raise VerificationFailed("lifted tensor fails its equation", rep)
        tensor_doc = bundle_mod.serialize_tensor2(lift.tensor, symmetry=args.symmetry)
        tensor_doc["algebra"] = f"{name}_double"
        out["algebras"] = {f"{name}_double": bundle_mod.serialize_algebra(lift.double)}
        out["tensors"] = {f"{name}_tensor": tensor_doc}
    else:
        raise BundleError(f"unknown construction {construction!r}")
    if not out:  # the construction built one algebra
        out["algebras"] = {name: bundle_mod.serialize_algebra(result)}

    if args.out:
        path = Path(args.out)
        # an existing file is read as a bundle: a broken one is refused
        doc = bundle_mod.load_bundle(path).raw if path.exists() else {"field": "Q"}
        for section, objects in out.items():
            doc.setdefault(section, {}).update(objects)
        bundle_mod.parse_bundle(doc)  # round-trip check before writing
        _write_atomic(path, dumps(doc))
        if not args.json:
            print(f"wrote {sum(len(v) for v in out.values())} object(s) to {path}")
    if args.json or not args.out:
        sys.stdout.write(dumps({"field": "Q", **out}))
    return 0


def _cmd_selftest(args) -> int:
    failures = 0
    for entry_name in catalog.names():
        entry = catalog.load(entry_name)
        print(f"ok: catalog entry {entry_name}")
    rng_seeds = range(args.seed, args.seed + 5)
    quadri = catalog.load("quadri_from_int3_pair").value
    for seed in rng_seeds:
        r = catalog.random_tensor2(quadri.dim, "skew", seed)
        primal = check_q_equation(quadri, r)
        dual = check_q_dual_forms(quadri, r)
        agree = primal.ok == dual.ok
        print(f"{'ok' if agree else 'FAIL'}: seed {seed} quadri equation pairing")
        failures += 0 if agree else 1
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(prog="clusteralg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify one bundle object")
    p_check.add_argument("bundle")
    p_check.add_argument("name")
    p_check.add_argument("--kind", choices=bundle_mod.SECTIONS)
    p_check.add_argument("--algebra")
    p_check.add_argument("--bimodule")
    p_check.add_argument("--equation", default="auto",
                         choices=["auto", "aybe", "d", "q", "q-dual", "o"])
    p_check.add_argument("--require", help="comma-separated form flags")
    p_check.add_argument("--json", action="store_true")

    p_classify = sub.add_parser("classify", help="classify a bilinear form")
    p_classify.add_argument("bundle")
    p_classify.add_argument("algebra")
    p_classify.add_argument("form")
    p_classify.add_argument("--json", action="store_true")

    p_derive = sub.add_parser("derive", help="run a construction")
    p_derive.add_argument("bundle")
    p_derive.add_argument("construction")
    p_derive.add_argument("args", nargs="*")
    p_derive.add_argument("--variant")
    p_derive.add_argument("--symmetry")
    p_derive.add_argument("--name")
    p_derive.add_argument("--out")
    p_derive.add_argument("--no-verify", action="store_true")
    p_derive.add_argument("--json", action="store_true")

    p_self = sub.add_parser("selftest", help="re-verify the catalog")
    p_self.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = {"check": _cmd_check, "classify": _cmd_classify,
               "derive": _cmd_derive, "selftest": _cmd_selftest}[args.command]
    try:
        return handler(args)
    except (PreconditionFailed, NotRotaBaxter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(exc, "report", None) is not None:
            for v in exc.report.violations[:8]:
                print(f"  violated {v.identity_id} at {v.witness}", file=sys.stderr)
        return 1
    except (VerificationFailed, NotCommuting) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
