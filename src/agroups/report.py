"""Task reports and the claim registry.

Every verification the CLI performs is tied to a claim id from the fixed
registry below. A claim marked known_discrepancy may be reported violated
without failing the process: the engine's job is faithful verification,
negative findings included.
"""

from __future__ import annotations

import json

VERSION = "0.1.0"

STATUS_VERIFIED = "verified"
STATUS_VIOLATED = "violated"
STATUS_OUT_OF_SCOPE = "out_of_scope"

CLAIM_REGISTRY: dict[str, dict] = {
    "primitive-structure": {
        "result": "B",
        "statement": "a primitive group in the two-prime variety is a prime cycle"
        " or a regular elementary abelian q-group extended by C_r, of order n*r",
        "known_discrepancy": False,
    },
    "primitive-single-class": {
        "result": "C",
        "statement": "primitive two-prime-variety subgroups of one order signature"
        " form a single conjugacy class",
        "known_discrepancy": False,
    },
    "primitive-prime-degree": {
        "result": "supporting",
        "statement": "a primitive single-prime-variety subgroup exists iff the degree"
        " equals the prime, and then it is one class of cyclic groups",
        "known_discrepancy": False,
    },
    "gl-irreducible-single-class": {
        "result": "supporting",
        "statement": "irreducible elementary abelian r-subgroups of GL(alpha, s)"
        " form at most one conjugacy class",
        "known_discrepancy": False,
    },
    "gl-maximal-single-class": {
        "result": "supporting",
        "statement": "subgroups maximal among elementary abelian r-subgroups of"
        " GL(alpha, s) form at most one conjugacy class",
        "known_discrepancy": False,
    },
    "gl-nonexistence-when-dimension-indivisible": {
        "result": "supporting",
        "statement": "if the order of s mod r does not divide alpha, GL(alpha, s)"
        " has no elementary abelian r-subgroup",
        "known_discrepancy": True,
    },
    "gl-order-bound": {
        "result": "supporting",
        "statement": "a two-prime-variety subgroup of GL(alpha, s) has order at most"
        " (6^(1/2))^(alpha-1) d^alpha with d = min(qr, s)",
        "known_discrepancy": False,
    },
    "gl-primitive-fitting-part": {
        "result": "supporting",
        "statement": "for a primitive two-prime-variety subgroup of GL(alpha, s),"
        " the Fitting subgroup order lies in {r, q, qr}",
        "known_discrepancy": False,
    },
    "transitive-count-bound": {
        "result": "explicit-remark",
        "statement": "transitive two-prime-variety subgroups of S_n number at most"
        " 6^(n(n-1)/4) 2^((n+2) log n)",
        "known_discrepancy": False,
    },
    "gl-class-count-bound": {
        "result": "explicit-remark",
        "statement": "maximal two-prime-variety subgroup classes of GL(alpha, s)"
        " number at most s^(5 alpha^2) 6^(alpha(alpha-1)/4)"
        " 2^(alpha-1+(23/6) alpha log alpha + alpha log 6)",
        "known_discrepancy": False,
    },
    "census-count-bound": {
        "result": "A",
        "statement": "the three-prime-variety census count at order n is at most"
        " p^(6 alpha^2) 2^(alpha-1+(23/6) alpha log alpha + alpha log 6)"
        " (6^(1/2))^((alpha+gamma)beta+(alpha+beta)gamma+alpha(alpha-1)/2) n^(beta+gamma)",
        "known_discrepancy": False,
    },
    "soluble-order-bound": {
        "result": "imported",
        "statement": "a soluble A-subgroup of S_n has order at most (6^(1/2))^(n-1)",
        "known_discrepancy": False,
    },
    "maximal-class-count-asymptotic": {
        "result": "D",
        "statement": "class-count bound with non-explicit constants; not numerically"
        " evaluable, subsumed by the explicit-remark bounds",
        "known_discrepancy": False,
    },
    "engine-consistency": {
        "result": "internal",
        "statement": "engine cross-checks: chain order vs closure, block search vs"
        " partition enumeration, verbal vs definitional variety membership,"
        " census determinism",
        "known_discrepancy": False,
    },
}


def claim(claim_id: str, status: str, notes: str = "", witness=None) -> dict:
    if claim_id not in CLAIM_REGISTRY:
        raise KeyError(f"unknown claim id {claim_id!r}")
    if status not in (STATUS_VERIFIED, STATUS_VIOLATED, STATUS_OUT_OF_SCOPE):
        raise ValueError(f"unknown status {status!r}")
    entry = {
        "claim": claim_id,
        "result": CLAIM_REGISTRY[claim_id]["result"],
        "status": status,
        "notes": notes,
    }
    if status == STATUS_VIOLATED:
        if witness is None:
            raise ValueError("a violated claim must carry a witness")
        entry["witness"] = witness
    elif witness is not None:
        entry["witness"] = witness
    return entry


def verdict(claim_id: str, holds: bool, notes: str, witness) -> dict:
    """A pass/fail claim: verified when it holds, else violated with the
    witness."""
    if holds:
        return claim(claim_id, STATUS_VERIFIED, notes)
    return claim(claim_id, STATUS_VIOLATED, notes, witness)


def build_report(task: str, parameters: dict, results: dict, claims: list[dict],
                 bound_checks: list[dict] | None = None) -> dict:
    """The report of one task; the CLI sets "timing" itself under --timing."""
    return {
        "version": VERSION,
        "task": task,
        "parameters": parameters,
        "results": results,
        "bounds": bound_checks or [],
        "claims": claims,
        "timing": None,
    }


def exit_code(report: dict) -> int:
    """0 when all claims hold (known discrepancies excepted), 2 otherwise."""
    for entry in report["claims"]:
        if entry["status"] == STATUS_VIOLATED and not CLAIM_REGISTRY[entry["claim"]]["known_discrepancy"]:
            return 2
    return 0


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def render_text(report: dict) -> str:
    lines = [f"task: {report['task']}"]
    if report["parameters"]:
        lines.append("parameters: " + json.dumps(report["parameters"], sort_keys=True))
    for key, value in sorted(report["results"].items()):
        if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            lines.append(f"  {key}:")
            for v in value:
                if "criterion" in v and "status" in v:
                    lines.append(f"    {v['criterion']} [{v['status']}]: {v.get('description', '')}")
                    for detail in v.get("details", []):
                        lines.append(f"      {detail}")
                else:
                    lines.append("    " + json.dumps(v, sort_keys=True))
            continue
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"  {key}: {value}")
    for bc in report["bounds"]:
        approx = bc["bound"]["log2"]["approx"]
        lines.append(
            f"  bound {bc['name']}: count {bc['count']} vs 2^{approx} -> {bc['verdict']}"
        )
    for entry in report["claims"]:
        mark = {"verified": "ok", "violated": "VIOLATED", "out_of_scope": "out of scope"}[
            entry["status"]
        ]
        note = f" ({entry['notes']})" if entry.get("notes") else ""
        lines.append(f"  claim {entry['claim']} [{entry['result']}]: {mark}{note}")
    if report.get("timing") is not None:
        lines.append(f"  timing: {report['timing']:.3f}s")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# published report schema (validated in the test suite)

REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "task", "parameters", "results", "bounds", "claims", "timing"],
    "properties": {
        "version": {"type": "string"},
        "task": {"type": "string"},
        "parameters": {"type": "object"},
        "results": {"type": "object"},
        "bounds": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "bound", "count", "verdict"],
                "properties": {
                    "name": {"type": "string"},
                    "bound": {"type": "object"},
                    "count": {"type": "integer"},
                    "verdict": {"type": "string", "enum": ["LE", "GT"]},
                },
            },
        },
        "claims": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["claim", "result", "status", "notes"],
                "properties": {
                    "claim": {"type": "string", "enum": sorted(CLAIM_REGISTRY)},
                    "result": {"type": "string"},
                    "status": {
                        "type": "string",
                        "enum": [STATUS_VERIFIED, STATUS_VIOLATED, STATUS_OUT_OF_SCOPE],
                    },
                    "notes": {"type": "string"},
                },
            },
        },
        "timing": {"type": ["number", "null"]},
    },
}
