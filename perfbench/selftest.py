"""Self-test of the benchmark and its tracer.

    python3 perfbench/selftest.py

Runs every workload once untraced and twice traced, then checks:

* outputs: every job matches expected.json, traced or not;
* determinism: both traced batches give identical per-layer counts;
* coverage: in every traced job, the layers' self times fit in its traced
  wall time minus set-up (the remainder is reported as other.self_s);
* import-site wrapping: names imported with `from .x import y` are traced,
  so construct.split_extensions > 0 on census-split and perm.extend_set > 0
  on sn-lattice;
* bypasses: perm counts are 0 on census-split and gl-classify,
  cayley.tables_built is 0 on gl-classify, and gf.elem_mul is 0 in the
  sn-lattice inventory (API) jobs.

The seed is fixed: run.py checks the relabelled outputs of other seeds
against expected.json on every run. It prints each workload's self-time
shares by layer. Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

import run

PERM_COUNTS = ("perm.products", "perm.extend_set", "perm.chains_built", "perm.conjugacy_scans")
INVENTORY_JOBS = ("primitive-", "transitive-")
SEED = 1


def check_workload(workload: str) -> list[str]:
    plain, traced = run.collect(workload, SEED, seconds=0, trace=1)
    failures = [f"{r['name']}: {r['error']}" for b in plain + traced for r in b if not r["ok"]]
    metrics, problems = run.per_layer(plain, traced)
    failures += problems
    count = {name: m["value"] for name, m in metrics.items()}

    def require(name: str, holds: bool, rule: str):
        if not holds:
            failures.append(f"expected {name} {rule}, got {count[name]}")

    if workload == "census-split":
        require("construct.split_extensions", count["construct.split_extensions"] > 0, "> 0")
    if workload in ("census-split", "gl-classify"):
        for name in PERM_COUNTS:
            require(name, count[name] == 0, "== 0")
    if workload == "gl-classify":
        require("cayley.tables_built", count["cayley.tables_built"] == 0, "== 0")
    if workload == "sn-lattice":
        require("perm.extend_set", count["perm.extend_set"] > 0, "> 0")
        inventory = [r for r in traced[0] if r["name"].startswith(INVENTORY_JOBS)]
        construct = [r for r in traced[0] if r["name"].startswith("construct-")]
        inventory_mul = run.layer_profile(inventory)[0]["gf.elem_mul"]
        construct_mul = run.layer_profile(construct)[0]["gf.elem_mul"]
        if inventory_mul != 0:
            failures.append(f"expected gf.elem_mul == 0 in the inventory jobs, got {inventory_mul}")
        print(f"{workload}: gf.elem_mul {inventory_mul} in inventory jobs, {construct_mul} in construct jobs")

    selfs = {k[: -len(".self_s")]: m["value"] for k, m in metrics.items() if k.endswith(".self_s")}
    total = sum(selfs.values())
    ranked = sorted(selfs.items(), key=lambda kv: -kv[1])
    shares = ", ".join(f"{k} {v / total:.0%}" for k, v in ranked if v >= 0.005 * total)
    overhead = metrics["trace_overhead_s"]["value"]
    print(f"{workload}: traced self time {total:.2f} s: {shares}; trace overhead {overhead:.2f} s")
    return [f"{workload}: {f}" for f in failures]


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    failures = []
    for workload in run.WORKLOADS:
        failures += check_workload(workload)
    for line in failures:
        print("FAIL", line)
    print("ok" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
