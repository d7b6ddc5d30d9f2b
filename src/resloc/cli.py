"""Command-line interface: dataset validation, residue evaluation, and the
kernel theorem checks, with deterministic JSON or text reports.

Commands:
    resloc validate <dataset>
    resloc residue <expression-file>
    resloc kernel <dataset> (--circle <csv-ints> | --full | --nonabelian)

A dataset argument is either a bundled name (see ``resloc.datasets.BUNDLED``)
or a path to a schema-conforming JSON file.  Reports are canonical: sorted
keys, rationals as "p/q" strings, graded-lexicographic monomial order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from importlib import resources

from . import kernels
from .datasets import BUNDLED, Dataset, SchemaError, load_dataset
from .residues import VariableOrdering, res_x_plus
from .spaces import (
    CircleDirection,
    NonGenericError,
    circle_integral,
    find_generic_direction,
    generator_products,
    localization_sum,
    torus_integral,
)
from .symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    LinearForm,
    Q,
    RationalSection,
    ValidationError,
    Variables,
)

__all__ = ["main"]


def _digest(source: str) -> str:
    if source not in BUNDLED:
        return _file_digest(source)
    raw = resources.files("resloc").joinpath("data", f"{source}.json").read_bytes()
    return hashlib.sha256(raw).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _fs(q) -> str:
    return str(Fraction(q))


def _matrix(rows) -> list[list[str]]:
    return [[_fs(v) for v in row] for row in rows]


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}",
             f"input: {report['input']['source']} sha256={report['input']['sha256']}"]
    lines.append("parameters:")
    for k in sorted(report["parameters"]):
        lines.append(f"  {k}: {json.dumps(report['parameters'][k], sort_keys=True)}")
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    for chk in report["checks"]:
        status = "PASS" if chk["pass"] else "FAIL"
        lines.append(f"check {chk['name']}: {status} ({chk['detail']})")
    lines.append(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> int:
    if args.format == "text":
        text = _render_text(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


def _report(command: str, source: str, parameters: dict) -> dict:
    return {"command": command,
            "input": {"source": source, "sha256": _digest(source)},
            "parameters": parameters, "results": {}, "warnings": [],
            "checks": [], "pass": True}


def _add_check(report: dict, name: str, ok: bool, detail: str):
    report["checks"].append({"name": name, "pass": bool(ok), "detail": detail})
    if not ok:
        report["pass"] = False


# -- validate ------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        ds = load_dataset(args.dataset)
    except (SchemaError, ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    max_degree = args.max_degree if args.max_degree is not None else ds.space.dim
    if max_degree < 0:
        sys.stderr.write(f"error: --max-degree: must be >= 0, got {max_degree}\n")
        return 2
    report = _report("validate", args.dataset, {"max_degree": max_degree})
    _add_check(report, "schema", True,
               f"{len(ds.space.components)} components, "
               f"{len(ds.generators)} generators")
    try:
        xi = find_generic_direction(ds.space)
        _add_check(report, "generic-direction", True, f"found {list(xi.vector)}")
    except NonGenericError:
        _add_check(report, "generic-direction", False, "no generic direction in range")

    names = [name for name, cls in ds.generators if cls.degree > 0]
    failures = []
    checked = 0
    for exps, cls in generator_products(ds.space, ds.generators, max_degree):
        label = "*".join(names[i] for i, e in enumerate(exps) for _ in range(e)) or "one"
        total = localization_sum(ds.space, cls)
        if not total.is_polynomial():
            failures.append(f"{label}: localization sum has a pole: {total}")
            continue
        checked += 1
        if cls.degree < ds.space.dim:
            value = total.as_polynomial()
            if not value.is_zero():
                failures.append(f"{label}: below-top-degree sum is {value}, not 0")
    _add_check(report, "abbv-polynomiality", not failures,
               f"{checked} products through degree {max_degree}"
               + ("" if not failures else "; " + "; ".join(failures)))
    report["results"]["products_checked"] = checked
    report["results"]["failures"] = failures
    return _emit(report, args)


# -- residue -------------------------------------------------------------------


def _parse_expression(path: str):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    names = obj.get("variables")
    if not isinstance(names, list) or not names:
        raise SchemaError("$.variables: expected a nonempty array of names")
    vars = Variables(tuple(names))
    terms = {}
    for t, term in enumerate(obj.get("numerator", [])):
        coeff = Fraction(term["coeff"])
        exps = tuple(term["exponents"])
        if len(exps) != vars.count:
            raise SchemaError(f"$.numerator[{t}]: expected {vars.count} exponents")
        terms[(exps, 0)] = terms.get((exps, 0), Q(0)) + coeff
    numer = EquivariantPolynomial(vars, POINT_ALGEBRA, terms)
    denom: dict[LinearForm, int] = {}
    for d, factor in enumerate(obj.get("denominator", [])):
        coeffs = [Fraction(v) for v in factor["form"]]
        if len(coeffs) != vars.count:
            raise SchemaError(f"$.denominator[{d}].form: expected {vars.count} entries")
        form = LinearForm.make(coeffs)
        if form.is_zero():
            raise SchemaError(f"$.denominator[{d}].form: zero form")
        mult = int(factor.get("multiplicity", 1))
        if mult < 1:
            raise SchemaError(f"$.denominator[{d}].multiplicity: must be >= 1")
        denom[form] = denom.get(form, 0) + mult
    section = RationalSection(numer, denom)
    var_name = obj.get("variable", names[0])
    if var_name not in names:
        raise SchemaError(f"$.variable: unknown variable {var_name!r}")
    return section, names.index(var_name), var_name


def cmd_residue(args) -> int:
    try:
        section, var, var_name = _parse_expression(args.expression)
    except (SchemaError, KeyError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    report = {"command": "residue",
              "input": {"source": args.expression,
                        "sha256": _file_digest(args.expression)},
              "parameters": {"variable": var_name},
              "results": {}, "warnings": [], "checks": [], "pass": True}
    by_poles = res_x_plus(section, var, method="poles")
    by_series = res_x_plus(section, var, method="series")
    report["results"]["input"] = str(section)
    report["results"]["poles"] = str(by_poles)
    report["results"]["series"] = str(by_series)
    _add_check(report, "methods-agree", by_poles == by_series,
               f"poles={by_poles} series={by_series}")
    return _emit(report, args)


# -- kernel --------------------------------------------------------------------


def _subspace_json(model, sub: kernels.Subspace) -> dict:
    return {"degree": sub.degree,
            "model_basis": [el.label for el in model.basis_by_degree[sub.degree]],
            "basis": _matrix(sub.coeffs)}


def _build_model(ds: Dataset, max_degree: int):
    build_to = max(max_degree, ds.space.dim - 2)
    return kernels.build_model(ds.space, ds.generators, build_to)


def _degrees(args) -> list[int]:
    """The checked degrees; the model may be built further than these."""
    return list(range(0, args.max_degree + 1, 2))


def _kernel_circle(ds: Dataset, args, report: dict) -> None:
    try:
        xi = CircleDirection(tuple(int(v) for v in args.circle.split(",")))
    except ValueError:
        raise SchemaError(f"--circle: expected comma-separated integers, "
                          f"got {args.circle!r}")
    if len(xi.vector) != ds.space.vars.count:
        raise SchemaError(f"--circle: expected {ds.space.vars.count} integers")
    report["parameters"]["xi"] = list(xi.vector)
    model = _build_model(ds, args.max_degree)
    rows = kernels.check_circle_kernel_split(model, xi, degrees=_degrees(args))
    report["results"]["degrees"] = [
        {"degree": r.degree,
         "residue_kernel": _subspace_json(model, r.kernel),
         "one_sided_minus": _subspace_json(model, r.minus),
         "one_sided_plus": _subspace_json(model, r.plus),
         "sum_direct": r.sum_direct, "equal": r.equal}
        for r in rows]
    for r in rows:
        _add_check(report, f"circle-split-degree-{r.degree}", r.ok,
                   f"kernel dim {r.kernel_dim} vs {r.minus_dim}+{r.plus_dim}, "
                   f"direct={r.sum_direct}")
    integral = circle_integral(ds.space, xi)
    report["results"]["calibration"] = {
        "class": args.calibrate,
        "value": str(integral(ds.generator(args.calibrate)))}


def _kernel_full(ds: Dataset, args, report: dict) -> None:
    model = _build_model(ds, args.max_degree)
    ordering = _parse_ordering(args, ds.space.vars.count)
    integral = torus_integral(ds.space, ordering=ordering)
    report["parameters"]["xi"] = list(integral.adapted.xi.vector)
    rows, chambers = kernels.check_full_kernel(model, degrees=_degrees(args),
                                               chamber_box=args.chamber_box,
                                               integral=integral)
    if not chambers.complete:
        report["warnings"].append(
            "chamber enumeration may be incomplete (ambient rank > 3); "
            f"lattice box {args.chamber_box}")
    report["results"]["chambers"] = {
        "count": len(chambers.chambers),
        "expected": chambers.expected,
        "complete": chambers.complete,
        "representatives": [list(c.representative.vector) for c in chambers.chambers]}
    report["results"]["degrees"] = [
        {"degree": r.degree, "kernel": _subspace_json(model, r.kernel),
         "chamber_sum_dim": r.chamber_sum_dim, "equal": r.equal}
        for r in rows]
    for r in rows:
        _add_check(report, f"full-kernel-degree-{r.degree}", r.equal,
                   f"kernel dim {r.kernel_dim} vs chamber sum "
                   f"dim {r.chamber_sum_dim}")
    report["results"]["calibration"] = {
        "class": args.calibrate,
        "value": _fs(integral(ds.generator(args.calibrate)))}


def _kernel_nonabelian(ds: Dataset, args, report: dict) -> None:
    from . import weylgrp

    if ds.weyl is None:
        raise SchemaError("--nonabelian requires a dataset with a weyl section")
    model = _build_model(ds, args.max_degree)
    ordering = _parse_ordering(args, ds.space.vars.count)
    integral = torus_integral(ds.space, ordering=ordering)
    report["parameters"]["xi"] = list(integral.adapted.xi.vector)
    rows = weylgrp.check_nonabelian_kernels(model, ds.weyl, _degrees(args), integral)
    report["results"]["degrees"] = [
        {"degree": r.degree, "invariant_dim": r.invariant_dim,
         "pairing_kernel_dim": r.pairing_kernel_dim,
         "once_divided_dim": r.once_divided_dim,
         "twice_divided_dim": r.twice_divided_dim, "equal": r.equal}
        for r in rows]
    for r in rows:
        _add_check(report, f"nonabelian-degree-{r.degree}", r.equal,
                   f"invariant dim {r.invariant_dim}: pairing {r.pairing_kernel_dim}, "
                   f"once {r.once_divided_dim}, twice {r.twice_divided_dim}")
    spans = []
    two_r = 2 * len(ds.weyl.positive_roots)
    for src in range(two_r, args.max_degree + 1, 2):
        row = weylgrp.check_antisymmetrized_span(model, ds.weyl, src, integral)
        spans.append({"source_degree": row.source_degree,
                      "target_degree": row.target_degree,
                      "span_dim": row.span_dim, "kernel_dim": row.kernel_dim,
                      "equal": row.equal})
        _add_check(report, f"antisymmetrized-span-{row.source_degree}", row.equal,
                   f"span dim {row.span_dim} vs kernel dim {row.kernel_dim} "
                   f"at degree {row.target_degree}")
    report["results"]["antisymmetrized_spans"] = spans
    dcls = ds.weyl.d_class()
    report["results"]["calibration"] = {
        "class": args.calibrate,
        "value": _fs(integral(ds.generator(args.calibrate) * dcls * dcls))}


def _parse_ordering(args, nvars: int) -> VariableOrdering | None:
    if args.ordering is None and args.delta is None:
        return None
    try:
        order = (tuple(int(v) for v in args.ordering.split(","))
                 if args.ordering is not None else tuple(range(nvars)))
    except ValueError:
        raise SchemaError(f"--ordering: expected comma-separated integers, "
                          f"got {args.ordering!r}")
    try:
        delta = Fraction(args.delta) if args.delta is not None else Q(1)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"--delta: expected a rational p/q, got {args.delta!r}")
    try:
        return VariableOrdering(order, delta).validated(nvars)
    except ValidationError as exc:
        flag = "--ordering" if sorted(order) != list(range(nvars)) else "--delta"
        raise SchemaError(f"{flag}: {exc}") from exc


def cmd_kernel(args) -> int:
    modes = [m for m, on in (("circle", args.circle is not None),
                             ("full", args.full),
                             ("nonabelian", args.nonabelian)) if on]
    if len(modes) != 1:
        sys.stderr.write("error: exactly one of --circle/--full/--nonabelian "
                         "is required\n")
        return 2
    try:
        ds = load_dataset(args.dataset)
    except (SchemaError, ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.max_degree is None:
        args.max_degree = ds.space.dim
    if args.max_degree < 0:
        sys.stderr.write(f"error: --max-degree: must be >= 0, got {args.max_degree}\n")
        return 2
    report = _report("kernel", args.dataset,
                     {"mode": modes[0], "max_degree": args.max_degree,
                      "ordering": args.ordering, "delta": args.delta,
                      "calibrate": args.calibrate,
                      "chamber_box": args.chamber_box})
    try:
        if modes[0] == "circle":
            _kernel_circle(ds, args, report)
        elif modes[0] == "full":
            _kernel_full(ds, args, report)
        else:
            _kernel_nonabelian(ds, args, report)
    except NonGenericError as exc:
        names = ", ".join(f"{kind}:{what}" for kind, what in exc.violations)
        sys.stderr.write(f"error: {exc.args[0]}; violated by {names}\n")
        return 2
    except (SchemaError, ValidationError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return _emit(report, args)


# -- entry point ---------------------------------------------------------------


def _common_output_flags(p):
    p.add_argument("--output", help="write the report to this path")
    p.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resloc",
        description="Exact equivariant localization: residues, Kirwan integrals, "
                    "and kernel checks on fixed-point data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema and localization-identity checks")
    p.add_argument("dataset", help="bundled name or JSON path")
    p.add_argument("--max-degree", type=int, default=None,
                   help="check generator products through this degree "
                        "(default: dim_M)")
    _common_output_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("residue", help="positive-part residue of an expression file")
    p.add_argument("expression", help="JSON expression file")
    _common_output_flags(p)
    p.set_defaults(func=cmd_residue)

    p = sub.add_parser("kernel", help="kernel subspace theorem checks")
    p.add_argument("dataset", help="bundled name or JSON path")
    p.add_argument("--circle", metavar="XI",
                   help="circle-level check for this direction (csv integers)")
    p.add_argument("--full", action="store_true",
                   help="torus-level kernel against all chambers")
    p.add_argument("--nonabelian", action="store_true",
                   help="invariant-slice kernel comparisons (needs weyl data)")
    p.add_argument("--max-degree", type=int, default=None,
                   help="largest cohomological degree (default: dim_M)")
    p.add_argument("--ordering", help="iterated-residue variable order (csv)")
    p.add_argument("--delta", help="basis-change scale factor p/q")
    p.add_argument("--calibrate", default="one",
                   help="reference generator for reported integral values")
    p.add_argument("--chamber-box", type=int, default=8,
                   help="lattice radius for chamber sweeps above rank 3")
    _common_output_flags(p)
    p.set_defaults(func=cmd_kernel)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
