"""Batch command-line front end.

Subcommands: construct-primitive, verify-primitive, classify-gl, census,
check-bounds, selftest. Reports go to stdout as JSON (or aligned text with
--format text); exit code 0 when every claim holds, 2 when a claim outside
the known-discrepancy registry is violated, 1 on usage or input errors.
Identical invocations produce byte-identical reports; wall-clock timing is
recorded only under --timing so the default output stays reproducible.
A well-formed command line is parsed from the option table alone; argparse,
built from the same table, parses the rest and prints the help and every
usage error.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from types import SimpleNamespace

# The engine layers are imported here, not inside the command handlers that
# use them, although that would save a command the import of the others:
# perfbench's tracer wraps only the modules loaded before cli.main runs, and
# its job runner hooks _build_parser, so a lazy import would take that work
# out of the trace. What no traced layer needs loads where it is used:
# argparse (with gettext and locale) only when the strict parse declines a
# command line, and selftest (with random) inside its own handler.
from . import bounds as bnd
from . import census, construct, matgrp, report
from .cayley import VarietyParams
from .errors import EngineError, InvalidParams, LimitExceeded
from .gf import FIELD_TABLE_LIMIT, PRINTED_DIGITS, field_make, multiplicative_order, prime_factors
from .perm import PermGroup, parse_cycles, permgroup_from_json, permgroup_to_json


def _field_from_s(s: int):
    # before any factoring: trial division of a huge s would not end
    if s > FIELD_TABLE_LIMIT:
        raise LimitExceeded(f"s = {s} exceeds the field table limit {FIELD_TABLE_LIMIT}")
    factors = prime_factors(s) if s > 1 else {}
    if len(factors) != 1:
        raise EngineError(f"s = {s} is not a prime power")
    t, k = next(iter(factors.items()))
    return field_make(t, k)


def _checks_to_claims(verification: dict) -> list[dict]:
    failed = [c["name"] for c in verification["checks"] if not c["passed"]]
    notes = "failed checks: " + ", ".join(failed) if failed else "; ".join(verification["notes"])
    witness = {"checks": verification["checks"]}
    return [report.verdict("primitive-structure", not failed, notes, witness)]


def _cmd_construct_primitive(args) -> dict:
    spec, group = construct.primitive_aqar_group(args.q, args.r, args.case, args.max_degree)
    verification = construct.verify_theorem_b(group, args.q, args.r)
    results = {
        "provenance": spec.provenance(),
        "group": permgroup_to_json(group),
        "order": group.order,
        "degree": group.degree,
        "verification": verification,
    }
    return report.build_report(
        "construct-primitive",
        {"q": args.q, "r": args.r, "case": args.case},
        results,
        _checks_to_claims(verification),
    )


def _load_group(args) -> PermGroup:
    try:
        if args.file:
            with open(args.file, "r", encoding="utf-8") as handle:
                return permgroup_from_json(json.load(handle))
        if not args.gens:
            raise EngineError("need --file or --gens")
        degree = args.degree
        gens = [parse_cycles(text, degree) for text in args.gens.split(";")]
        if degree is None:
            degree = max(map(len, gens))
            gens = [parse_cycles(text, degree) for text in args.gens.split(";")]
        return PermGroup(degree, gens)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise EngineError(f"cannot load the group: {exc}") from exc


def _cmd_verify_primitive(args) -> dict:
    group = _load_group(args)
    verification = construct.verify_theorem_b(group, args.q, args.r)
    results = {
        "order": group.order,
        "degree": group.degree,
        "verification": verification,
    }
    return report.build_report(
        "verify-primitive",
        {"q": args.q, "r": args.r},
        results,
        _checks_to_claims(verification),
    )


def _cmd_classify_gl(args) -> dict:
    spec = _field_from_s(args.s)
    alpha, r = args.alpha, args.r
    reps = matgrp.classify_elem_abelian_r(alpha, spec, r, args.max_order)
    irreducible = matgrp.irreducible_elem_abelian_r_classes(alpha, spec, r, args.max_order)
    built = matgrp.maximal_ar_subgroup(alpha, spec, r)
    d = multiplicative_order(spec.s, r)

    claims = [
        report.verdict(
            "gl-maximal-single-class",
            len(reps) <= 1,
            f"{len(reps)} classes found",
            [matgrp.matgroup_to_json(g) for g in reps],
        ),
        report.verdict(
            "gl-irreducible-single-class",
            len(irreducible) <= 1,
            f"{len(irreducible)} irreducible classes found",
            [matgrp.matgroup_to_json(g) for g in irreducible],
        ),
    ]
    if alpha % d != 0:
        claims.append(
            report.verdict(
                "gl-nonexistence-when-dimension-indivisible",
                not reps,
                f"order of s mod r is {d}, alpha = {alpha}, yet classes exist"
                " (known discrepancy; the oracle is ground truth)"
                if reps
                else f"no elementary abelian {r}-subgroups, d = {d}",
                matgrp.matgroup_to_json(reps[0]) if reps else None,
            )
        )

    count_bound = bnd.remark43_gl_bound(spec.s, alpha)
    verdict = bnd.compare_count(len(reps), count_bound)
    claims.append(
        report.verdict(
            "gl-class-count-bound",
            verdict == "LE",
            f"{len(reps)} classes vs the explicit count bound",
            {"classes": len(reps)},
        )
    )

    results = {
        "classes": len(reps),
        "irreducible_classes": len(irreducible),
        "class_orders": [g.order for g in reps],
        "representatives": [matgrp.matgroup_to_json(g) for g in reps],
        "constructed": None if built is None else matgrp.matgroup_to_json(built),
        "constructed_in_classes": None
        if built is None
        else any(
            matgrp.conjugate_in_gl(built, rep, args.max_order) is not None for rep in reps
        ),
        "order_of_s_mod_r": d,
    }
    bound_checks = [
        {
            "name": "gl-class-count",
            "bound": count_bound.to_json(),
            "count": len(reps),
            "verdict": verdict,
        }
    ]
    return report.build_report(
        "classify-gl",
        {"alpha": alpha, "s": args.s, "r": r},
        results,
        claims,
        bound_checks,
    )


def _cmd_census(args) -> dict:
    params = VarietyParams(args.p, args.q, args.r, args.alpha, args.beta, args.gamma)
    cen = census.enumerate_variety_groups(params, "forward")
    bound = bnd.theorem_a_bound(params)
    verdict = bnd.compare_count(cen.count, bound)
    if params.n == 1:
        claim = report.claim(
            "census-count-bound",
            report.STATUS_OUT_OF_SCOPE,
            notes="n = 1 lies outside the claim: the bound's factor 2^(alpha-1) makes it"
            " 1/2 there, below the one trivial group",
        )
    else:
        claim = report.verdict(
            "census-count-bound",
            verdict == "LE",
            f"count {cen.count} vs the isomorphism-count bound",
            {"count": cen.count},
        )
    claims = [claim]
    notes = []
    if params.alpha == 0:
        notes.append("alpha = 0: the alpha log alpha term is taken as 0 (degenerate input)")
    results = {
        "count": cen.count,
        "orders": [g.order for g in cen.groups],
        "fingerprints": [g.fingerprint() for g in cen.groups],
        "census": cen.to_json() if args.emit_tables else None,
        "notes": notes,
    }
    bound_checks = [
        {"name": "census-count", "bound": bound.to_json(), "count": cen.count, "verdict": verdict}
    ]
    return report.build_report(
        "census", params.to_json(), results, claims, bound_checks
    )


# each formula's bound function and the flags it reads, in its argument order
# (theorem A's go to VarietyParams, whose exponents default to 0)
_FORMULAS = {
    "theorem-a": (bnd.theorem_a_bound, ("--p", "--q", "--r")),
    "gl-classes": (bnd.remark43_gl_bound, ("--s", "--alpha")),
    "transitive-count": (bnd.remark43_transitive_bound, ("--n",)),
    "gl-order": (bnd.prop41_bound, ("--alpha", "--q", "--r", "--s")),
    "soluble-order": (bnd.soluble_sn_bound, ("--n",)),
}


def _cmd_check_bounds(args) -> dict:
    name = args.formula
    formula, flags = _FORMULAS[name]
    values = [getattr(args, flag[2:]) for flag in flags]
    missing = [flag for flag, value in zip(flags, values) if value is None]
    if missing:
        raise InvalidParams(f"formula {name} needs {', '.join(missing)}")
    if name == "theorem-a":
        params = VarietyParams(args.p, args.q, args.r, args.alpha or 0, args.beta, args.gamma)
        # n is a term base of the bound when beta + gamma > 0: one too long
        # to print is refused from its bit-lengths, before it is formed
        if params.beta + params.gamma and params.printable_n() is None:
            raise LimitExceeded(
                f"a term base of the bound, n = {args.p}^{params.alpha}*{args.q}^{args.beta}"
                f"*{args.r}^{args.gamma}, has over PRINTED_DIGITS = {PRINTED_DIGITS} decimal digits"
            )
        bound = formula(params)
        parameters = params.to_json()
    else:
        bound = formula(*values)
        parameters = {flag[2:]: value for flag, value in zip(flags, values)}
    parameters["formula"] = name

    results = {"bound": bound.to_json()}
    bound_checks = []
    claims = [
        report.claim(
            "maximal-class-count-asymptotic",
            report.STATUS_OUT_OF_SCOPE,
            notes="constants are non-explicit; the explicit-remark bounds stand in"
            " (note: related internal statements disagree on an alpha factor in one"
            " exponent; nothing numeric rests on either form)",
        )
    ]
    if args.count is not None:
        verdict = bnd.compare_count(args.count, bound)
        bound_checks.append(
            {"name": name, "bound": bound.to_json(), "count": args.count, "verdict": verdict}
        )
        results["verdict"] = verdict
    return report.build_report("check-bounds", parameters, results, claims, bound_checks)


_CRITERION_CLAIMS = {
    "criterion-1": ["primitive-structure", "primitive-single-class"],
    "criterion-2": ["primitive-prime-degree"],
    "criterion-3": ["gl-maximal-single-class", "gl-irreducible-single-class"],
    "criterion-4": ["census-count-bound"],
    "criterion-5": [
        "gl-order-bound",
        "gl-primitive-fitting-part",
        "soluble-order-bound",
        "transitive-count-bound",
    ],
    "criterion-6": ["engine-consistency"],
}


def _cmd_selftest(args) -> dict:
    from . import selftest

    outcomes = selftest.run_selftest(args.scale, gl_limit=args.max_order)
    claims = []
    for outcome in outcomes:
        status = {
            selftest.PASS: report.STATUS_VERIFIED,
            selftest.FAIL: report.STATUS_VIOLATED,
            selftest.SKIP: report.STATUS_OUT_OF_SCOPE,
        }[outcome.status]
        for claim_id in _CRITERION_CLAIMS[outcome.cid]:
            claims.append(
                report.claim(
                    claim_id,
                    status,
                    notes=f"{outcome.cid}: {outcome.status}",
                    witness=outcome.details if outcome.status == selftest.FAIL else None,
                )
            )
    results = {
        "scale": args.scale,
        "criteria": [o.to_json(include_elapsed=args.timing) for o in outcomes],
        "all_passed": all(o.status == selftest.PASS for o in outcomes),
        "skipped": [o.cid for o in outcomes if o.status == selftest.SKIP],
    }
    return report.build_report("selftest", {"scale": args.scale}, results, claims)


# The command line, described once: the global options, then each command's
# handler, help and options. An option is its flag and the keywords that
# argparse's add_argument takes for it; the dest is the flag without its
# dashes, '-' read as '_'. Both parsers below are built from this table.
_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_INT_OR_ZERO = {"type": int, "default": 0}
_FLAG = {"action": "store_true", "default": False}
_CASES = (construct.CASE_AFFINE, construct.CASE_CYCLIC_R, construct.CASE_CYCLIC_Q)
_GLOBAL_OPTIONS = (
    ("--format", {"choices": ("json", "text"), "default": "json"}),
    ("--timing", {**_FLAG, "help": "record wall-clock seconds"}),
    ("--max-order", {"type": int, "default": matgrp.GL_BRUTE_LIMIT}),
    ("--max-degree", {"type": int, "default": construct.DEGREE_LIMIT_DEFAULT}),
)
_COMMANDS = {
    "construct-primitive": (_cmd_construct_primitive, "build a primitive two-prime-variety group", (
        ("--q", _REQUIRED_INT),
        ("--r", _REQUIRED_INT),
        ("--case", {"choices": _CASES, "default": construct.CASE_AFFINE}),
    )),
    "verify-primitive": (_cmd_verify_primitive, "verify the structure of a primitive group", (
        ("--q", _REQUIRED_INT),
        ("--r", _REQUIRED_INT),
        ("--file", {"help": "permutation group JSON file"}),
        ("--gens", {"help": "semicolon-separated cycle notation, e.g. '(1 2 3);(1 2)'"}),
        ("--degree", _INT),
    )),
    "classify-gl": (_cmd_classify_gl, "classify maximal elementary abelian r-subgroups", (
        ("--alpha", _REQUIRED_INT),
        ("--s", {**_REQUIRED_INT, "help": "field size (prime power)"}),
        ("--r", _REQUIRED_INT),
    )),
    "census": (_cmd_census, "exact census of the three-prime variety at one order", (
        *((flag, {**_REQUIRED_INT, "default": 0}) for flag in ("--p", "--q", "--r")),
        *((flag, _INT_OR_ZERO) for flag in ("--alpha", "--beta", "--gamma")),
        ("--emit-tables", {**_FLAG, "help": "include full multiplication tables"}),
    )),
    "check-bounds": (_cmd_check_bounds, "evaluate a bound formula, optionally against a count", (
        ("--formula", {"choices": tuple(_FORMULAS), "required": True}),
        ("--count", _INT),
        *((flag, _INT) for flag in ("--p", "--q", "--r", "--alpha")),
        *((flag, _INT_OR_ZERO) for flag in ("--beta", "--gamma")),
        ("--s", _INT),
        ("--n", _INT),
    )),
    "selftest": (_cmd_selftest, "run the acceptance suite", (
        ("--scale", {"choices": ("quick", "full"), "default": "quick"}),
    )),
}


def _strict_parse(argv: list) -> SimpleNamespace | None:
    """The namespace argparse makes of argv, when argv has the strict shape:
    global options, the command, then its options; each option spelled in
    full and given at most once; each value the next token, not empty and
    not starting with '-', converted and checked against the choices as
    argparse would; every required option present. None for any other argv
    (abbreviations, --flag=value, repeats, negative numbers, help and every
    usage error), which is argparse's to parse."""
    values = {}
    options, command = dict(_GLOBAL_OPTIONS), None
    tokens = iter(argv)
    for token in tokens:
        kwargs = options.get(token)
        if kwargs is None:
            if command is not None or token not in _COMMANDS:
                return None
            command, options = token, dict(_COMMANDS[token][2])
            continue
        dest = token[2:].replace("-", "_")
        if dest in values:
            return None
        if kwargs.get("action") == "store_true":
            values[dest] = True
            continue
        text = next(tokens, "")
        if not text or text[0] == "-":
            return None
        try:
            value = kwargs.get("type", str)(text)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        values[dest] = value
    if command is None:
        return None
    run, _, own = _COMMANDS[command]
    for flag, kwargs in (*_GLOBAL_OPTIONS, *own):
        dest = flag[2:].replace("-", "_")
        if dest not in values:
            if kwargs.get("required"):
                return None
            values[dest] = kwargs.get("default")
    return SimpleNamespace(command=command, run=run, **values)


def _argparse_parser():
    """argparse's parser of the whole grammar, built from the table: it
    parses what the strict parse declines, and prints the help and every
    usage error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # exit code 2 is reserved for violated claims; usage errors exit 1
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(1)

    parser = _Parser(
        prog="agroups",
        description="constructions, exhaustive oracles and exact bound checks"
        " for soluble A-groups in products of abelian varieties",
    )
    for flag, kwargs in _GLOBAL_OPTIONS:
        parser.add_argument(flag, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(run=run)
    return parser


def _parse_args(args=None, namespace=None):
    argv = sys.argv[1:] if args is None else list(args)
    parsed = _strict_parse(argv) if namespace is None else None
    return parsed if parsed is not None else _argparse_parser().parse_args(argv, namespace)


def _build_parser() -> SimpleNamespace:
    """The parser main uses: parse_args(args=None, namespace=None), with the
    strict parse first and argparse for whatever it declines."""
    return SimpleNamespace(parse_args=_parse_args)


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        start = time.monotonic()
        try:
            result = args.run(args)
        except EngineError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        if args.timing:
            result["timing"] = round(time.monotonic() - start, 3)
        if args.format == "json":
            print(report.render_json(result))
        else:
            print(report.render_text(result))
        return report.exit_code(result)
    finally:
        # The output is written: freeze the heap, so that interpreter shutdown
        # skips collecting what the command built or imported (exit takes
        # about 3 ms instead of about 10 on Python 3.10-3.13, 2-core guest).
        # Not gc.disable(): callers that embed main still collect what they
        # allocate later. Not os._exit: atexit and the stdout flush must run.
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
