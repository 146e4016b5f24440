"""Benchmark of the agroups engine: cold CLI and API jobs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the root of a checkout. Each workload is a closed loop with one
client: its jobs run one after another, each in a fresh interpreter, and the
next starts when the previous one exits. No job starts threads or processes
of its own. A run repeats the workload's batch of jobs until the next batch
would end after S seconds (at least one batch) and reports the median over
batches. Job times are scaled to a fixed machine speed, measured by a
reference process run before and after every job (see REFERENCE_NOMINAL_S).
Every job's exit code and stdout SHA-256 are checked against `expected.json`,
recorded with `--record` at the commit that defined the benchmark.

With `--trace 1` a run alternates untraced and traced batches (at least two
of each). Traced jobs wrap every layer's public callables from outside the
engine (see tracer.py); the per-layer metrics are the median over traced
batches, and `trace_overhead_s` is the traced minus the untraced median wall
time. Traced outputs are checked against expected.json like untraced ones,
so they equal them. The run also checks that the traced batches agree on
every count, and that no job's layer self times exceed its traced wall time
minus set-up.

The last line of stdout is the result object. The line before it records
the machine (nproc, Python version, load average before and after the run,
the unscaled times and the reference time), failed jobs by name, and tracer
problems.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import random
import select
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB_PY = os.path.join(HERE, "job.py")
REFERENCE_PY = os.path.join(HERE, "reference.py")
EXPECTED = os.path.join(HERE, "expected.json")
WORK = os.path.join(HERE, ".work")

JOB_TIMEOUT_S = 60
RUN_DEADLINE_S = 150  # no job runs past this, so a run ends within 180 s
# Job times are reported in reference-speed seconds: each is scaled by
# REFERENCE_NOMINAL_S / (the mean wall time of the reference processes run
# just before and just after it). On the 2-core Xeon (Sapphire Rapids) KVM
# guest where the benchmark was defined, other tenants slowed pure-Python
# code by up to 60% for tens of seconds at a time, and unscaled wall times
# of identical runs spread by 10-25%. The constant, about one unloaded
# reference run there, only sets the scale.
REFERENCE_NOMINAL_S = 0.1


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli" or "api"
    args: tuple[str, ...]


# Census and GL inputs are parameter tuples that the engine treats
# canonically, so a seed cannot vary them without changing the work; the
# seed sets the job order, and the relabelling of the verify-primitive inputs.
CENSUS = ((2, 3, 5, 2, 1, 1), (3, 2, 5, 2, 1, 1), (5, 3, 2, 1, 2, 1), (3, 2, 5, 1, 2, 1))
GL = ((2, 4, 3), (3, 2, 3), (3, 2, 7), (2, 5, 3), (2, 3, 2))
INVENTORIES = (("enumerate_primitive_classes", (8, 2, 7)), ("enumerate_transitive_classes", (6, 3, 5)))
# degree: (q, r, generators printed by `construct-primitive --q q --r r`)
PRIMITIVE = {
    4: (2, 3, ((1, 4, 2, 3), (2, 1, 4, 3), (3, 4, 1, 2))),
    7: (7, 3, ((1, 3, 5, 7, 2, 4, 6), (2, 3, 4, 5, 6, 7, 1))),
    8: (2, 7, ((1, 4, 7, 6, 2, 3, 8, 5), (2, 1, 4, 3, 6, 5, 8, 7), (3, 4, 1, 2, 7, 8, 5, 6), (5, 6, 7, 8, 1, 2, 3, 4))),
}
WORKLOADS = ("census-split", "gl-classify", "sn-lattice")


def _cycles(images) -> str:
    """Cycle notation of a 1-based image tuple, fixed points omitted."""
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cycle, point = [], start
        while point not in seen:
            seen.add(point)
            cycle.append(str(point))
            point = images[point - 1]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "()"


def _relabel(images, sigma):
    """The conjugate sigma^-1 g sigma: point sigma(i) goes to sigma(g(i))."""
    out = [0] * len(images)
    for i, image in enumerate(images, start=1):
        out[sigma[i - 1] - 1] = sigma[image - 1]
    return tuple(out)


def workload_jobs(workload: str, rng: random.Random | None) -> list[Job]:
    """The workload's jobs; with rng, relabelled and shuffled by it."""
    jobs: list[Job] = []
    if workload == "census-split":
        for p, q, r, a, b, c in CENSUS:
            args = ("census", "--p", p, "--q", q, "--r", r, "--alpha", a, "--beta", b, "--gamma", c)
            jobs.append(Job(f"census-{p}.{q}.{r}-{a}.{b}.{c}", "cli", tuple(map(str, args))))
    elif workload == "gl-classify":
        for alpha, s, r in GL:
            args = ("classify-gl", "--alpha", alpha, "--s", s, "--r", r)
            jobs.append(Job(f"gl-{alpha}.{s}-r{r}", "cli", tuple(map(str, args))))
    elif workload == "sn-lattice":
        for fn, params in INVENTORIES:
            name = fn.split("_")[1] + "-" + ".".join(map(str, params))
            jobs.append(Job(name, "api", (fn, *map(str, params))))
        for n, (q, r, gens) in PRIMITIVE.items():
            common = ("--q", str(q), "--r", str(r))
            jobs.append(Job(f"construct-{n}", "cli", ("construct-primitive", *common)))
            sigma = list(range(1, n + 1))
            if rng is not None:
                rng.shuffle(sigma)
            cycles = ";".join(_cycles(_relabel(g, sigma)) for g in gens)
            args = ("verify-primitive", *common, "--gens", cycles, "--degree", str(n))
            jobs.append(Job(f"verify-{n}", "cli", args))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if rng is not None:
        rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# running one job


def _job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # fixed set and dict order, so counts repeat exactly
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(argv: list[str], out_path: str, timeout_s: float):
    """Run argv with stdout to out_path; returns (wall_s, exit code or None on timeout, rusage, t0_ns)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(WORK, "stderr"), flags, 0o644),
    ]
    t0 = time.monotonic_ns()
    pid = os.posix_spawn(sys.executable, argv, _job_env(), file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout_s)
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    wall_s = (time.monotonic_ns() - t0) / 1e9
    return wall_s, os.waitstatus_to_exitcode(status) if ready else None, usage, t0


def run_reference() -> float:
    """Wall time of one reference process: the machine's current speed."""
    wall_s, code, _, _ = _spawn([sys.executable, REFERENCE_PY], os.path.join(WORK, "reference"), JOB_TIMEOUT_S)
    if code != 0:
        raise SystemExit(f"error: the reference process failed with exit {code}")
    return wall_s


def run_job(job: Job, job_id: str, trace: int, deadline_ns: int) -> dict:
    """Spawn one job, wait for it and read its record; never raises on job failure."""
    out_path = os.path.join(WORK, "stdout")
    record_path = os.path.join(WORK, "record.marshal")
    for path in (out_path, record_path):
        if os.path.exists(path):
            os.remove(path)
    result = {"name": job.name, "ok": False}
    remaining_s = (deadline_ns - time.monotonic_ns()) / 1e9
    if remaining_s <= 0:
        result["error"] = "not started: run deadline passed"
        return result
    timeout_s = min(JOB_TIMEOUT_S, remaining_s)
    argv = [sys.executable, JOB_PY, record_path, job_id, str(trace), job.kind, *job.args]
    wall_s, code, usage, t0 = _spawn(argv, out_path, timeout_s)
    result.update(
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        exit=code,
    )
    with open(out_path, "rb") as handle:
        result["sha256"] = hashlib.sha256(handle.read()).hexdigest()
    if code is None:
        result["error"] = f"timed out after {timeout_s:.1f} s"
        return result
    try:
        with open(record_path, "rb") as handle:
            record = marshal.load(handle)  # written by job.py, never by anyone else
    except (OSError, EOFError, ValueError, TypeError):
        with open(os.path.join(WORK, "stderr"), encoding="utf-8", errors="replace") as handle:
            lines = handle.read().strip().splitlines() or ["(no stderr)"]
        result["error"] = f"exit {code} without a job record: {lines[-1]}"
        return result
    if record["setup_end_ns"] is None:
        result["error"] = f"exit {code} before reaching the engine"
        return result
    result["setup_s"] = (record["setup_end_ns"] - t0) / 1e9
    # Not wait4's ru_maxrss: posix_spawn shares this process's memory until
    # exec, and Linux carries that high-water mark over into the child's.
    result["rss_mb"] = record["peak_rss_kb"] / 1024
    if trace:
        result["trace"] = record
    return result


def check_output(result: dict, expected: dict) -> None:
    if "error" in result:
        return
    want = expected.get(result["name"])
    if want is None:
        result["error"] = "no expected output recorded"
    elif (result["exit"], result["sha256"]) != (want["exit"], want["sha256"]):
        result["error"] = (
            f"exit {result['exit']} sha256 {result['sha256'][:12]}, "
            f"expected exit {want['exit']} sha256 {want['sha256'][:12]}"
        )
    else:
        result["ok"] = True


def run_batch(jobs, label: str, trace: int, expected: dict, deadline_ns: int) -> list[dict]:
    """Run the jobs back to back, each between two reference processes."""
    results = []
    before = run_reference()
    for job in jobs:
        result = run_job(job, f"{label}/{job.name}", trace, deadline_ns)
        after = run_reference()
        result["reference_s"] = (before + after) / 2
        before = after
        check_output(result, expected)
        results.append(result)
    return results


def warm_up() -> None:
    """Compile and page in the engine once; users do not pay that per run."""
    paths = [os.path.join(ROOT, "src"), HERE]
    code = f"import sys; sys.path[:0] = {paths!r}; import agroups.cli, tracer"
    _, exit_code, _, _ = _spawn([sys.executable, "-c", code], os.path.join(WORK, "warm-up"), JOB_TIMEOUT_S)
    if exit_code != 0:
        raise SystemExit("error: cannot import the engine from src/")


# ---------------------------------------------------------------------------
# metrics


def batch_metrics(results: list[dict], scaled: bool = True) -> dict:
    """Sums over one batch; scaled times are in reference-speed seconds."""
    done = [r for r in results if "wall_s" in r]

    def total(key):
        return sum(
            r.get(key, 0.0) * (REFERENCE_NOMINAL_S / r["reference_s"] if scaled else 1.0)
            for r in done
        )

    return {
        "wall_s": total("wall_s"),
        "setup_s": total("setup_s"),
        "cpu_s": total("cpu_s"),
        "peak_rss_mb": max((r["rss_mb"] for r in done if "rss_mb" in r), default=0.0),
    }


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_profile(results: list[dict]) -> tuple[dict, dict, list[str]]:
    """Per-layer counts and self times of one traced batch.

    Returns (counts, self_s, problems). Counts are exact integers; self_s
    holds every layer plus "other", the part of each job's traced wall time
    after set-up that no layer span covers.
    """
    spans_by_name: dict[str, int] = defaultdict(int)
    ops_by_name: dict[str, int] = defaultdict(int)
    extras: dict[str, int] = defaultdict(int)
    compare_children: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    other_s = 0.0
    problems = []
    for result in results:
        record = result.get("trace")
        if record is None:
            continue
        job_self_ns = 0
        spans = record["spans"]
        names = {0: None}
        for sid, parent, name, _start, _end, own, ops, extra in spans:
            names[sid] = name
            spans_by_name[name] += 1
            if extra is not None:
                extras[name] += extra
            if names.get(parent) == "bounds.compare_count":
                compare_children[name] += 1
            self_ns[_layer(name)] += own
            job_self_ns += own
            for op, (calls, op_ns) in ops.items():
                ops_by_name[op] += calls
                self_ns[_layer(op)] += op_ns
                job_self_ns += op_ns
        for op, (calls, op_ns) in record["loose_ops"].items():
            ops_by_name[op] += calls
            self_ns[_layer(op)] += op_ns
            job_self_ns += op_ns
        if not spans:
            problems.append(f"{result['name']}: no spans recorded")
        remainder = result["wall_s"] - result["setup_s"] - job_self_ns / 1e9
        if remainder < 0:
            problems.append(f"{result['name']}: layer self times exceed traced wall minus set-up")
        other_s += remainder

    splits = spans_by_name["construct.semidirect_product"]
    counts = {
        "gf.elem_mul": ops_by_name["gf.FieldElem.__mul__"],
        "gf.elem_add": sum(ops_by_name[f"gf.FieldElem.{op}"] for op in ("__add__", "__sub__", "__neg__")),
        "gf.elem_inverse": ops_by_name["gf.FieldElem.inverse"],
        "perm.products": ops_by_name["perm.Perm.__mul__"],
        "perm.extend_set": spans_by_name["perm.extend_set"],
        "perm.chains_built": spans_by_name["perm.PermGroup.__init__"],
        "perm.conjugacy_scans": spans_by_name["perm.subgroup_conjugate"],
        "matgrp.products": ops_by_name["matgrp.Mat.__mul__"],
        "matgrp.applies": ops_by_name["matgrp.Mat.apply"],
        "matgrp.closures": spans_by_name["matgrp.closure"],
        "matgrp.gl_conjugacy_scans": spans_by_name["matgrp.conjugate_in_gl"],
        "matgrp.irreducibility_tests": spans_by_name["matgrp.is_irreducible"],
        "cayley.tables_built": spans_by_name["cayley.CayleyGroup.__post_init__"],
        "cayley.table_cells": extras["cayley.CayleyGroup.__post_init__"],
        "cayley.iso_tests": spans_by_name["cayley.are_isomorphic"],
        "cayley.hom_searches": spans_by_name["cayley.homomorphisms_to_mats"],
        "cayley.homs_found": extras["cayley.homomorphisms_to_mats"],
        "cayley.lattice_subgroups": extras["cayley.all_subgroups"],
        "cayley.subgroup_extends": spans_by_name["cayley.extend_subgroup"],
        "construct.split_extensions": splits,
        "construct.verifications": spans_by_name["construct.verify_theorem_b"],
        # useful outcomes per attempt: census groups kept per table built
        "census.survivor_ratio": extras["census.enumerate_variety_groups"] / splits if splits else 0.0,
        "bounds.compares": spans_by_name["bounds.compare_count"],
        "bounds.interval_rounds": compare_children["bounds.LogBound.log2_interval"],
        "bounds.exact_fallbacks": compare_children["bounds.LogBound.exact_cmp_count"],
    }
    selfs = {layer: self_ns[layer] / 1e9 for layer in LAYERS}
    selfs["other"] = other_s
    return counts, selfs, problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(batches: list[list[dict]]) -> dict:
    per_batch = [batch_metrics(b) for b in batches]
    attempted = sum(len(b) for b in batches)
    ok = sum(r["ok"] for b in batches for r in b)
    return {
        "wall_s": metric(statistics.median([m["wall_s"] for m in per_batch]), "s"),
        "setup_s": metric(statistics.median([m["setup_s"] for m in per_batch]), "s"),
        "cpu_s": metric(statistics.median([m["cpu_s"] for m in per_batch]), "s"),
        "peak_rss_mb": metric(statistics.median([m["peak_rss_mb"] for m in per_batch]), "MB"),
        "ops_ok": metric(ok / attempted, "share"),
    }


def unscaled(batches: list[list[dict]]) -> dict:
    """Medians of the plain measured times, for the machine record."""
    per_batch = [batch_metrics(b, scaled=False) for b in batches]
    out = {key: statistics.median([m[key] for m in per_batch]) for key in ("wall_s", "setup_s", "cpu_s")}
    out["reference_s"] = statistics.median([r["reference_s"] for b in batches for r in b if "reference_s" in r])
    return out


def per_layer(plain: list[list[dict]], traced: list[list[dict]]) -> tuple[dict, list[str]]:
    """Per-layer metrics: counts from the first traced batch, medians of self times.

    Traced batches must agree on every count. That traced outputs equal the
    untraced ones needs no check here: run_batch checks every traced and
    untraced job against the same expected.json.
    """
    profiles = [layer_profile(b) for b in traced]
    problems = [p for _, _, batch_problems in profiles for p in batch_problems]
    counts = profiles[0][0]
    for other_counts, _, _ in profiles[1:]:
        if other_counts != counts:
            changed = sorted(k for k in counts if counts[k] != other_counts[k])
            problems.append("traced batches disagree on counts: " + ", ".join(changed))
    metrics = {
        name: metric(value, "ratio" if name == "census.survivor_ratio" else "count")
        for name, value in counts.items()
    }
    for layer in LAYERS + ("other",):
        metrics[f"{layer}.self_s"] = metric(statistics.median([p[1][layer] for p in profiles]), "s")
    traced_wall = statistics.median([batch_metrics(b)["wall_s"] for b in traced])
    plain_wall = statistics.median([batch_metrics(b)["wall_s"] for b in plain])
    metrics["trace_overhead_s"] = metric(traced_wall - plain_wall, "s")
    return metrics, problems


# ---------------------------------------------------------------------------
# runs


def _machine(load_before) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }


def collect(workload: str, seed: int, seconds: int, trace: int):
    """Run batches for about `seconds`; returns (untraced batches, traced batches)."""
    expected = _load_expected()
    jobs = workload_jobs(workload, random.Random(seed))
    warm_up()
    start = time.monotonic_ns()
    deadline = start + RUN_DEADLINE_S * 10**9
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    while True:
        round_start = time.monotonic_ns()
        label = f"{workload}/{len(plain)}"
        plain.append(run_batch(jobs, label, 0, expected, deadline))
        if trace:
            traced.append(run_batch(jobs, label + "/traced", 1, expected, deadline))
        now = time.monotonic_ns()
        if now >= deadline:
            break
        next_end = now + (now - round_start)
        if next_end > start + seconds * 10**9 and len(plain) >= (2 if trace else 1):
            break
    return plain, traced


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    load_before = list(os.getloadavg())
    plain, traced = collect(workload, seed, seconds, trace)
    batches = plain + traced
    failures = [f"{r['name']}: {r['error']}" for b in batches for r in b if not r["ok"]]
    if trace:
        metrics, problems = per_layer(plain, traced)
    else:
        metrics, problems = end_to_end(plain), []
    machine = _machine(load_before)
    machine["unscaled"] = unscaled(plain)
    print(json.dumps({"machine": machine, "failures": failures, "problems": problems}))
    return {
        "correct": not failures and not problems,
        "attempted": sum(len(b) for b in batches),
        "failed": len(failures),
        "metrics": metrics,
    }


def _load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def record_expected() -> None:
    """Run every job once, unrelabelled, and store its exit code and digest."""
    warm_up()
    expected = {}
    deadline = time.monotonic_ns() + 3600 * 10**9
    for workload in WORKLOADS:
        for job in workload_jobs(workload, None):
            result = run_job(job, f"record/{job.name}", 0, deadline)
            if "error" in result:
                raise SystemExit(f"error: {job.name}: {result['error']}")
            expected[job.name] = {"exit": result["exit"], "sha256": result["sha256"]}
            print(f"{job.name}: exit {result['exit']} {result['wall_s']:.2f} s", file=sys.stderr)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json from this checkout")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_job kills and reaps its job first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "agroups", "__init__.py")):
        print("error: no engine at src/agroups; run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.record:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
