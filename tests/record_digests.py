"""Record the byte-identity digest corpus, tests/digests.tsv.

    PYTHONPATH=src python tests/record_digests.py > tests/digests.tsv

One line per input, tab-separated. A command line is the word cli, its
argument vector joined by spaces, the sha256 of its stdout, the sha256 of
its stderr and its exit code, from cli.main run in process. An inventory is
the word api, the call (the function name and its integer arguments joined
by spaces), and the sha256 of its to_json() as one sorted-key JSON line.
Lines starting with # are comments. The corpus is recorded before an engine
change and compared after it; tests/test_digests.py re-runs a subset.

The inputs: classify-gl at alpha = 1 with s in {2, 3, 4, 5, 7, 8, 9, 16,
1024}, alpha = 2 with s in {2, 3, 4, 5, 7, 8, 9, 11, 13}, alpha = 3 with s in
{2, 3, 4} and alpha = 4 with s = 2, each with r in {2, 3, 5, 7, 13},
refusals included; census --emit-tables on every ordering of {2, 3, 5} with
alpha, beta, gamma <= 2 and order at most 200, and five larger inputs;
selftest --scale full; construct-primitive on the 12 ordered pairs of
{2, 3, 5, 7}; every primitive two-prime inventory (degree <= 8),
transitive inventory (degree <= 7) and single-prime inventory (degree <= 8)
over those primes. No input prints help, usage or --timing, which differ
across Python versions.
"""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import sys

PRIMES = (2, 3, 5, 7)
GL_FIELDS = {1: (2, 3, 4, 5, 7, 8, 9, 16, 1024), 2: (2, 3, 4, 5, 7, 8, 9, 11, 13), 3: (2, 3, 4), 4: (2,)}
GL_PRIMES = (2, 3, 5, 7, 13)
CENSUS_EXTRA = [(2, 7, 3, 4, 1, 1), (2, 7, 3, 1, 2, 1), (3, 2, 7, 1, 3, 1), (2, 3, 5, 4, 1, 1), (2, 3, 5, 1, 4, 0)]
INVENTORIES = {
    "enumerate_primitive_classes": 8,
    "enumerate_transitive_classes": 7,
    "enumerate_primitive_ar_classes": 8,
}


def census_argv(p, q, r, alpha, beta, gamma):
    flags = zip(("--p", "--q", "--r", "--alpha", "--beta", "--gamma"), (p, q, r, alpha, beta, gamma))
    return ["census", *(str(x) for pair in flags for x in pair), "--emit-tables"]


def inputs():
    """Every input of the corpus, in its line order: ("cli", argv) or
    ("api", [function name, *integer arguments])."""
    for alpha, fields in GL_FIELDS.items():
        for s, r in itertools.product(fields, GL_PRIMES):
            yield "cli", ["classify-gl", "--alpha", str(alpha), "--s", str(s), "--r", str(r)]
    for p, q, r in itertools.permutations((2, 3, 5)):
        for a, b, g in itertools.product(range(3), repeat=3):
            if p**a * q**b * r**g <= 200:
                yield "cli", census_argv(p, q, r, a, b, g)
    for params in CENSUS_EXTRA:
        yield "cli", census_argv(*params)
    yield "cli", ["selftest", "--scale", "full"]
    for q, r in itertools.permutations(PRIMES, 2):
        yield "cli", ["construct-primitive", "--q", str(q), "--r", str(r)]
    for name, top in INVENTORIES.items():
        for n in range(1, top + 1):
            if name == "enumerate_primitive_ar_classes":
                yield from (("api", [name, n, r]) for r in PRIMES)
            else:
                yield from (("api", [name, n, q, r]) for q, r in itertools.permutations(PRIMES, 2))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(item) -> str:
    """The corpus line of one input."""
    kind, call = item
    if kind == "api":
        from agroups import census

        inventory = getattr(census, call[0])(*call[1:])
        line = json.dumps(inventory.to_json(), sort_keys=True) + "\n"
        return "\t".join(["api", " ".join(map(str, call)), sha(line)])
    from agroups import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(call)
    gc.unfreeze()  # cli.main freezes the heap on its way out
    return "\t".join(["cli", " ".join(call), sha(out.getvalue()), sha(err.getvalue()), str(code)])


def main():
    workers = min(2, os.cpu_count() or 1)
    print("# kind\tcall\tsha256(stdout or sorted to_json)\tsha256(stderr)\texit code")
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        for line in pool.imap(record, list(inputs())):
            print(line, flush=True)


if __name__ == "__main__":
    sys.exit(main())
