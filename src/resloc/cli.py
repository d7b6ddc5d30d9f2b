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
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import kernels, weylgrp
from .datasets import Dataset, SchemaError, _fs, load_dataset, load_expression
from .residues import VariableOrdering, res_x_plus
from .spaces import (
    CircleDirection,
    KirwanIntegral,
    NonGenericError,
    RestrictedClass,
    circle_integral,
    find_generic_direction,
    generator_products,
    localization_failures,
    torus_integral,
)
from .symcore import Q, ValidationError

__all__ = ["main"]


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}",
             f"input: {report['input']['source']} sha256={report['input']['sha256']}"]
    lines.append("parameters:")
    for k in sorted(report["parameters"]):
        lines.append(f"  {k}: {json.dumps(report['parameters'][k], sort_keys=True)}")
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
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: --output: {exc}\n")
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


def _report(command: str, source: str, digest: str, parameters: dict) -> dict:
    return {"command": command,
            "input": {"source": source, "sha256": digest},
            "parameters": parameters, "results": {}, "warnings": [],
            "checks": [], "pass": True}


def _add_check(report: dict, name: str, ok: bool, detail: str):
    report["checks"].append({"name": name, "pass": bool(ok), "detail": detail})
    if not ok:
        report["pass"] = False


# -- validate ------------------------------------------------------------------


def _nongeneric(exc: NonGenericError) -> str:
    names = ", ".join(f"{kind}:{what}" for kind, what in exc.violations)
    return f"{exc.args[0]}; violated by {names}"


def _load(args) -> Dataset | None:
    """The dataset, with --max-degree defaulted to its dimension and checked;
    None once the error is written, for exit 2."""
    try:
        ds = load_dataset(args.dataset)
    except (SchemaError, ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return None
    if args.max_degree is None:
        args.max_degree = ds.space.dim
    if args.max_degree < 0:
        sys.stderr.write(f"error: --max-degree: must be >= 0, got {args.max_degree}\n")
        return None
    return ds


def cmd_validate(args) -> int:
    if (ds := _load(args)) is None:
        return 2
    report = _report("validate", args.dataset, ds.sha256,
                     {"max_degree": args.max_degree})
    _add_check(report, "schema", True,
               f"{len(ds.space.components)} components, "
               f"{len(ds.generators)} generators")
    try:
        xi = find_generic_direction(ds.space)
        _add_check(report, "generic-direction", True, f"found {list(xi.vector)}")
    except NonGenericError as exc:
        _add_check(report, "generic-direction", False, _nongeneric(exc))

    products = generator_products(ds.space, ds.generators, args.max_degree)
    checked, failures = localization_failures(ds.space, ds.generators, products,
                                              args.max_degree)
    _add_check(report, "abbv-polynomiality", not failures,
               f"{checked} products through degree {args.max_degree}"
               + ("" if not failures else "; " + "; ".join(failures)))
    report["results"]["products_checked"] = checked
    report["results"]["failures"] = failures
    return _emit(report, args)


# -- residue -------------------------------------------------------------------


def cmd_residue(args) -> int:
    try:
        section, var, var_name, digest = load_expression(args.expression)
    except (SchemaError, KeyError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    report = _report("residue", args.expression, digest,
                     {"variable": var_name})
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
    labels = [el.label for el in model.basis_by_degree[sub.degree]]
    return {"degree": sub.degree, "model_basis": labels,
            "basis": [[_fs(vec.get(i, 0)) for i in range(len(labels))]
                      for vec in sub.coeffs]}


# each kernel mode fills the report and returns its integral and the class it calibrates
Calibrated = tuple[KirwanIntegral, RestrictedClass]


def _kernel_circle(ds: Dataset, args, report: dict, calibration: RestrictedClass,
                   model: kernels.DegreeTruncatedModel) -> Calibrated:
    try:
        xi = CircleDirection(tuple(int(v) for v in args.circle.split(",")))
    except ValueError:
        raise SchemaError(f"--circle: expected comma-separated integers, "
                          f"got {args.circle!r}")
    if len(xi.vector) != ds.space.vars.count:
        raise SchemaError(f"--circle: expected {ds.space.vars.count} integers")
    report["parameters"]["xi"] = list(xi.vector)
    integral = circle_integral(ds.space, xi)  # raises if xi is not generic
    rows = kernels.check_circle_kernel_split(model, integral)
    report["results"]["degrees"] = [
        {"degree": r.degree,
         "residue_kernel": _subspace_json(model, r.kernel),
         "one_sided_minus": _subspace_json(model, r.minus),
         "one_sided_plus": _subspace_json(model, r.plus),
         "sum_direct": r.sum_direct, "equal": r.equal}
        for r in rows]
    for r in rows:
        _add_check(report, f"circle-split-degree-{r.degree}", r.ok,
                   f"kernel dim {r.kernel.dim} vs {r.minus.dim}+{r.plus.dim}, "
                   f"direct={r.sum_direct}")
    return integral, calibration


def _torus_integral(ds: Dataset, args, report: dict) -> KirwanIntegral:
    """The torus integral in the ordering of --ordering and --delta, its
    direction recorded as the parameter xi; raises if it is not generic."""
    integral = torus_integral(ds.space, ordering=_parse_ordering(args, ds.space.vars.count))
    report["parameters"]["xi"] = list(integral.xi.vector)
    return integral


def _kernel_full(ds: Dataset, args, report: dict, calibration: RestrictedClass,
                 model: kernels.DegreeTruncatedModel) -> Calibrated:
    integral = _torus_integral(ds, args, report)
    rows, chambers = kernels.check_full_kernel(model, integral)
    report["results"]["chambers"] = {
        "count": len(chambers.chambers),
        "expected": chambers.expected,
        "representatives": [list(c.representative.vector) for c in chambers.chambers]}
    report["results"]["degrees"] = [
        {"degree": r.degree, "kernel": _subspace_json(model, r.kernel),
         "chamber_sum_dim": r.chamber_sum_dim, "equal": r.equal}
        for r in rows]
    for r in rows:
        _add_check(report, f"full-kernel-degree-{r.degree}", r.equal,
                   f"kernel dim {r.kernel.dim} vs chamber sum "
                   f"dim {r.chamber_sum_dim}")
    return integral, calibration


def _kernel_nonabelian(ds: Dataset, args, report: dict, calibration: RestrictedClass,
                       model: kernels.DegreeTruncatedModel) -> Calibrated:
    if ds.weyl is None:
        raise SchemaError("--nonabelian requires a dataset with a weyl section")
    integral = _torus_integral(ds, args, report)
    rows, span_rows = weylgrp.check_nonabelian_kernels(model, ds.weyl, integral)
    report["results"]["degrees"] = [asdict(r) for r in rows]
    report["results"]["antisymmetrized_spans"] = [asdict(r) for r in span_rows]
    for r in rows:
        _add_check(report, f"nonabelian-degree-{r.degree}", r.equal,
                   f"invariant dim {r.invariant_dim}: pairing {r.pairing_kernel_dim}, "
                   f"once {r.once_divided_dim}, twice {r.twice_divided_dim}")
    for r in span_rows:
        _add_check(report, f"antisymmetrized-span-{r.source_degree}", r.equal,
                   f"span dim {r.span_dim} vs kernel dim {r.kernel_dim} "
                   f"at degree {r.target_degree}")
    dpoly = ds.weyl.d_polynomial()
    return integral, calibration.mul_pure(dpoly * dpoly)


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
    if modes == ["circle"] and (args.ordering, args.delta) != (None, None):
        sys.stderr.write("error: --ordering and --delta apply to --full and --nonabelian only\n")
        return 2
    if (ds := _load(args)) is None:
        return 2
    try:
        calibration = ds.generator(args.calibrate)
    except KeyError as exc:
        sys.stderr.write(f"error: --calibrate: {exc.args[0]}\n")
        return 2
    report = _report("kernel", args.dataset, ds.sha256,
                     {"mode": modes[0], "max_degree": args.max_degree,
                      "ordering": args.ordering, "delta": args.delta,
                      "calibrate": args.calibrate})
    try:
        # the model refuses inconsistent data before any other check
        model = kernels.build_model(ds.space, ds.generators, args.max_degree)
        mode = {"circle": _kernel_circle, "full": _kernel_full,
                "nonabelian": _kernel_nonabelian}[modes[0]]
        integral, cls = mode(ds, args, report, calibration, model)
        # str of an int or a Fraction is its "p/q" string
        report["results"]["calibration"] = {"class": args.calibrate,
                                            "value": str(integral(cls))}
    except NonGenericError as exc:
        sys.stderr.write(f"error: {_nongeneric(exc)}\n")
        return 2
    except (SchemaError, ValidationError) as exc:
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
    _common_output_flags(p)
    p.set_defaults(func=cmd_kernel)
    return parser


# argparse reads a value that starts with "-" and is not a plain number, such
# as "--delta -3/2" or "--circle -1,2", as a flag with its value missing
_SIGNED_VALUE_FLAGS = ("--circle", "--ordering", "--delta")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "FLAG -VALUE" as "FLAG=-VALUE" for the flags above, where
    VALUE starts with a digit, so that no other flag is taken as a value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUE_FLAGS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_signed_values(argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
