"""Fixed reference work, run as its own process between benchmark jobs.

Its wall time tracks how fast this machine runs pure-Python code at that
moment; run.py scales job times by it. The work is close in kind to the
engine's: permutation products on tuples, set and dict traffic,
small-integer arithmetic. It must never change, or figures taken before
and after the change stop being comparable.
"""

import itertools


def main() -> None:
    perms = list(itertools.islice(itertools.permutations(range(8)), 0, 28000, 7))
    seen = set()
    acc = 0
    for a, b in zip(perms, perms[1:]):
        c = tuple(b[i] for i in a)
        seen.add(c)
        acc = (acc * 31 + c[3] * c[5]) % 1000003
    counts = {}
    for i in range(150000):
        k = (i * 7919) % 4099
        counts[k] = counts.get(k, 0) + (i & 7)
    print(acc, len(seen), len(counts))


if __name__ == "__main__":
    main()
