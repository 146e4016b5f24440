"""The acceptance suite: one runner per criterion, shared by the CLI
selftest subcommand and the test suite.

Each runner re-derives its expectations from independent routes (exhaustive
closure, brute-force block partitions, definitional variety searches) and
compares them with the engine's primary implementations, so a pass means the
two routes agree, not that one path returned something plausible.
"""

from __future__ import annotations

import itertools
import random
import time

from . import bounds as bnd
from . import census, construct, matgrp
from .cayley import VarietyParams, are_isomorphic, in_variety, in_variety_exhaustive, subgroup_closure
from .errors import LimitExceeded
from .gf import field_make
from .perm import PermGroup, perm_ops, subgroup_conjugate

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class CriterionOutcome:
    __slots__ = ("cid", "description", "status", "details", "elapsed")

    def __init__(self, cid: str, description: str, status: str = PASS, details=None, elapsed=0.0):
        self.cid, self.description, self.status = cid, description, status
        self.details: list[str] = [] if details is None else details
        self.elapsed = elapsed

    def note(self, line: str):
        self.details.append(line)

    def fail(self, line: str):
        self.details.append("FAIL: " + line)
        self.status = FAIL

    def to_json(self, include_elapsed: bool = False) -> dict:
        out = {
            "criterion": self.cid,
            "description": self.description,
            "status": self.status,
            "details": self.details,
        }
        if include_elapsed:
            out["elapsed"] = round(self.elapsed, 3)
        return out


def _timed(fn):
    def wrapper(*args, **kwargs) -> CriterionOutcome:
        start = time.monotonic()
        try:
            outcome = fn(*args, **kwargs)
        except LimitExceeded as exc:
            outcome = CriterionOutcome(fn.__name__, "", SKIP, [f"skipped: {exc}"])
        outcome.elapsed = time.monotonic() - start
        return outcome

    return wrapper


# -- criterion 1: primitive classification and single classes -------------------


@_timed
def criterion_primitive_classification(full: bool = True) -> CriterionOutcome:
    out = CriterionOutcome(
        "criterion-1",
        "primitive two-prime inventories match the constructions, one class per signature",
    )
    grid = [(3, 2), (2, 3), (5, 2)]
    for q, r in grid:
        for n in (3, 4, 5):
            inv = census.enumerate_primitive_classes(n, q, r)
            sigs = [e.signature for e in inv.classes]
            if len(sigs) != len(set(sigs)):
                out.fail(f"S{n} ({q},{r}): repeated signature in {sigs}")
                continue
            for entry in inv.classes:
                a, b = entry.signature
                if a >= 1 and b >= 1:
                    spec, built = construct.primitive_aqar_group(q, r)
                    if entry.order != spec.n * r or n != spec.n:
                        out.fail(f"S{n} ({q},{r}): affine class order {entry.order}")
                    if subgroup_conjugate(entry.representative, built) is None:
                        out.fail(f"S{n} ({q},{r}): affine class not conjugate to construction")
                else:
                    case, name = (construct.CASE_CYCLIC_Q, "q") if b == 0 else (construct.CASE_CYCLIC_R, "r")
                    _, built = construct.primitive_aqar_group(q, r, case)
                    if entry.order != n or subgroup_conjugate(entry.representative, built) is None:
                        out.fail(f"S{n} ({q},{r}): cyclic {name}-class mismatch")
            expected_degrees = {q, r, q ** construct.multiplicative_order(q, r)}
            if inv.count and n not in expected_degrees:
                out.fail(f"S{n} ({q},{r}): unexpected nonempty inventory")
            out.note(f"S{n} ({q},{r}): {inv.count} classes, signatures {sigs}")
    if full:
        spec, built = construct.primitive_aqar_group(2, 7)
        if built.order != 56:
            out.fail(f"degree-8 construction order {built.order}")
        inv8 = census.enumerate_primitive_classes(8, 2, 7)
        if inv8.count != 1 or inv8.classes[0].order != 56:
            out.fail(f"degree-8 oracle found {[(e.order, e.signature) for e in inv8.classes]}")
        elif subgroup_conjugate(inv8.classes[0].representative, built) is None:
            out.fail("degree-8 class not conjugate to the construction")
        else:
            out.note("S8 (2,7): single class of order 56, conjugate to the construction")
    else:
        out.note("S8 (2,7) oracle: run at full scale only")
    return out


# -- criterion 2: prime-degree classification ---------------------------------------


@_timed
def criterion_prime_degree() -> CriterionOutcome:
    out = CriterionOutcome(
        "criterion-2",
        "primitive single-prime inventories: one class iff the degree equals the prime",
    )
    for n in range(2, 8):
        for r in (2, 3, 5, 7):
            inv = census.enumerate_primitive_ar_classes(n, r)
            expected = 1 if n == r else 0
            if inv.count != expected:
                out.fail(f"S{n}, prime {r}: {inv.count} classes, expected {expected}")
            elif expected == 1 and inv.classes[0].order != r:
                out.fail(f"S{n}, prime {r}: class order {inv.classes[0].order}")
    out.note("grid n in 2..7, r in {2,3,5,7} checked")
    return out


# -- criterion 3: GL classifications -----------------------------------------------


@_timed
def criterion_gl_classes(full: bool = True, gl_limit: int | None = None) -> CriterionOutcome:
    out = CriterionOutcome(
        "criterion-3",
        "maximal elementary abelian classes in small GL, with the indivisible-dimension flag",
    )
    limit = gl_limit if gl_limit is not None else matgrp.GL_BRUTE_LIMIT
    gf2, gf3 = field_make(2, 1), field_make(3, 1)
    cases = [(2, gf2, 3, 1), (2, gf3, 2, 1)]
    if full:
        cases += [(3, gf2, 7, 1), (3, gf2, 3, 1)]
    flagged = False
    for alpha, spec, r, expected in cases:
        reps = matgrp.classify_elem_abelian_r(alpha, spec, r, limit)
        if len(reps) != expected:
            out.fail(f"GL({alpha},{spec.s}) r={r}: {len(reps)} classes, expected {expected}")
            continue
        d = construct.multiplicative_order(spec.s, r)
        if alpha % d != 0 and reps:
            flagged = True
            out.note(
                f"GL({alpha},{spec.s}) r={r}: nonexistence claim violated,"
                f" witness subgroup of order {reps[0].order} (d = {d} does not divide {alpha})"
            )
        else:
            out.note(f"GL({alpha},{spec.s}) r={r}: {len(reps)} class of order {reps[0].order}")
        irr = matgrp.irreducible_elem_abelian_r_classes(alpha, spec, r, limit)
        if len(irr) > 1:
            out.fail(f"GL({alpha},{spec.s}) r={r}: {len(irr)} irreducible classes")
        built = matgrp.maximal_ar_subgroup(alpha, spec, r)
        if built is not None and not any(
            matgrp.conjugate_in_gl(built, rep, limit) is not None for rep in reps
        ):
            out.fail(f"GL({alpha},{spec.s}) r={r}: construction missing from the classes")
    if full and not flagged:
        out.fail("expected the GL(3,2) r=3 indivisible-dimension flag to fire")
    return out


# -- criterion 4: censuses against the isomorphism-count bound ------------------------


CENSUS_CASES = [
    (VarietyParams(3, 2, 5, 1, 1, 0), 2),
    (VarietyParams(5, 2, 3, 0, 1, 1), 1),
    (VarietyParams(2, 3, 5, 2, 1, 0), 2),
    (VarietyParams(3, 2, 5, 1, 1, 1), 2),
    (VarietyParams(2, 3, 5, 2, 1, 1), 2),
]


@_timed
def criterion_census_bounds() -> CriterionOutcome:
    out = CriterionOutcome(
        "criterion-4", "exact censuses match and sit below the isomorphism-count bound"
    )
    for params, expected in CENSUS_CASES:
        cen = census.enumerate_variety_groups(params)
        if cen.count != expected:
            out.fail(f"census n={params.n} {params.to_json()}: {cen.count} != {expected}")
            continue
        bound = bnd.theorem_a_bound(params)
        verdict = bnd.compare_count(cen.count, bound)
        if verdict != "LE":
            out.fail(f"census n={params.n}: count {cen.count} above the bound")
        out.note(f"n={params.n}: count {cen.count}, bound 2^{bound.approx_log2():.3f} -> {verdict}")
    return out


# -- criterion 5: order bounds ---------------------------------------------------------


def _prime_pairs():
    primes = (2, 3, 5, 7)
    return [(q, r) for q in primes for r in primes if q != r]


@_timed
def criterion_order_bounds() -> CriterionOutcome:
    out = CriterionOutcome(
        "criterion-5",
        "order bounds for variety subgroups of small GL and S_n, and transitive class counts",
    )
    for alpha, spec in [(2, field_make(2, 1)), (2, field_make(3, 1))]:
        for q, r in _prime_pairs():
            details = census.gl_variety_subgroup_details(alpha, spec, q, r)
            bound = bnd.prop41_bound(alpha, q, r, spec.s)
            # squared-integer route: order <= bound iff exact_cmp <= 0
            bad = [d["order"] for d in details if bound.exact_cmp_count(d["order"]) > 0]
            if bad:
                out.fail(f"GL({alpha},{spec.s}) ({q},{r}): orders {bad} above the bound")
            # the Fitting order of an irreducible member, checked permissively
            # against {q, r, qr} (primitive members are a subset)
            bad_fitting = [
                d["fitting_order"]
                for d in details
                if d["irreducible"] and d["order"] > 1 and d["fitting_order"] not in (q, r, q * r)
            ]
            if bad_fitting:
                out.fail(
                    f"GL({alpha},{spec.s}) ({q},{r}): irreducible Fitting orders {bad_fitting}"
                    " outside the allowed set"
                )
        out.note(f"GL({alpha},{spec.s}): all variety subgroup orders within the bound")
    for n in range(2, 6):
        soluble = bnd.soluble_sn_bound(n)
        count_bound = bnd.remark43_transitive_bound(n)
        for q, r in _prime_pairs():
            inv = census.enumerate_transitive_classes(n, q, r)
            for entry in inv.classes:
                if soluble.exact_cmp_count(entry.order) > 0:
                    out.fail(f"S{n} ({q},{r}): transitive order {entry.order} above the bound")
            total = sum(e.class_size for e in inv.classes)
            if count_bound.exact_cmp_count(total) > 0:
                out.fail(f"S{n} ({q},{r}): {total} transitive subgroups above the count bound")
        out.note(f"S{n}: transitive orders and counts within the bounds")
    return out


# -- criterion 6: engine property suites ----------------------------------------------


def equal_size_partitions(points, size):
    """All partitions of the point list into blocks of the given size."""
    points = list(points)
    if not points:
        yield []
        return
    first = points[0]
    for rest in itertools.combinations(points[1:], size - 1):
        block = (first,) + rest
        remaining = [p for p in points[1:] if p not in rest]
        for tail in equal_size_partitions(remaining, size):
            yield [block] + tail


def naive_is_primitive(degree: int, gens) -> bool:
    """A transitive group, given by generator codes, is primitive iff no
    partition into equal blocks of size strictly between 1 and the degree is
    invariant. The brute-force oracle for PermGroup's block search, with which
    it shares no code; the tests import it too."""
    for size in range(2, degree):
        if degree % size:
            continue
        for partition in equal_size_partitions(range(degree), size):
            blocks = {frozenset(b) for b in partition}
            if all(frozenset(g[p] for p in b) in blocks for b in blocks for g in gens):
                return False
    return True


@_timed
def criterion_engine_properties() -> CriterionOutcome:
    out = CriterionOutcome("criterion-6", "engine cross-checks: chain orders, blocks, varieties, dedup")

    # (a) chain order equals exhaustive closure size on seeded random subgroups
    rng = random.Random(608)
    for i in range(30):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            code = list(range(6))
            rng.shuffle(code)
            gens.append(tuple(code))
        G = PermGroup(6, gens)
        closure = subgroup_closure(perm_ops(6), gens)
        if G.order != len(closure):
            out.fail(f"random subgroup {i}: chain order {G.order} != closure {len(closure)}")
    out.note("30 seeded random subgroups of S6: chain order == closure size")

    # (b) primitivity equals brute-force block enumeration on transitive groups
    checked = 0
    cases = [(n, 2, 3, f"S{n}") for n in range(2, 7)]
    cases += [(5, q, r, f"S5 ({q},{r})") for q, r in [(5, 2), (3, 2)]]
    for n, q, r, label in cases:
        for entry in census.enumerate_transitive_classes(n, q, r).classes:
            G = entry.representative
            if G.is_primitive() != naive_is_primitive(G.degree, G.generators):
                out.fail(f"{label}: primitivity mismatch on order-{G.order} group")
            checked += 1
    out.note(f"primitivity cross-checked against block enumeration on {checked} transitive groups")

    # (c) verbal variety test equals the definitional normal-witness search
    census_groups = []
    for params, _ in CENSUS_CASES:
        cen = census.enumerate_variety_groups(params)
        for table in cen.groups:
            if table.order <= 24:
                census_groups.append((params, table))
    for params, table in census_groups:
        chain = params.chain()
        if in_variety(table, chain) != in_variety_exhaustive(table, chain):
            out.fail(f"variety test mismatch at order {table.order}, chain {chain}")
    out.note(f"verbal vs exhaustive variety membership on {len(census_groups)} census groups")

    # (d) censuses are duplicate-free and traversal-invariant
    for params, _ in CENSUS_CASES:
        fwd = census.enumerate_variety_groups(params, "forward")
        rev = census.enumerate_variety_groups(params, "reverse")
        if fwd.count != rev.count:
            out.fail(f"census n={params.n}: traversal changed the count")
        for i, t in enumerate(fwd.groups):
            for u in fwd.groups[i + 1 :]:
                if are_isomorphic(t, u):
                    out.fail(f"census n={params.n}: duplicate representatives")
    out.note("census determinism and pairwise non-isomorphism confirmed")
    return out


def run_selftest(scale: str = "quick", gl_limit: int | None = None) -> list[CriterionOutcome]:
    """Run the acceptance criteria; scale "full" includes the degree-8 and
    GL(3,2) oracles, "quick" replaces them with their small-scale parts.
    Criteria whose inputs exceed a lowered gl_limit are reported skipped."""
    full = scale == "full"
    runs = [
        ("criterion-1", lambda: criterion_primitive_classification(full)),
        ("criterion-2", criterion_prime_degree),
        ("criterion-3", lambda: criterion_gl_classes(full, gl_limit)),
        ("criterion-4", criterion_census_bounds),
        ("criterion-5", criterion_order_bounds),
        ("criterion-6", criterion_engine_properties),
    ]
    outcomes = []
    for cid, runner in runs:
        outcome = runner()
        outcome.cid = cid
        outcomes.append(outcome)
    return outcomes
