"""The byte-identity digest corpus (tests/digests.tsv, written by
tests/record_digests.py): a subset chosen by a rule on the inputs alone
runs again and must give its recorded line."""

import functools
import math
from pathlib import Path

import pytest

from record_digests import inputs, record

CORPUS = Path(__file__).with_name("digests.tsv")


@functools.cache
def _recorded() -> dict:
    """The corpus lines by call."""
    lines = [line for line in CORPUS.read_text().splitlines() if not line.startswith("#")]
    return {line.split("\t")[1]: line for line in lines}


def _flags(argv):
    return {flag[2:]: int(value) for flag, value in zip(argv[1::2], argv[2::2]) if value.isdigit()}


def _in_subset(kind, call) -> bool:
    """Census orders up to 120, classify-gl with |GL(alpha, s)| up to 1,000,
    every construction and inventory up to degree 7; no selftest."""
    if kind == "api":
        return call[1] <= 7
    flags = _flags(call)
    if call[0] == "census":
        return flags["p"] ** flags["alpha"] * flags["q"] ** flags["beta"] * flags["r"] ** flags["gamma"] <= 120
    if call[0] == "classify-gl":
        s, alpha = flags["s"], flags["alpha"]
        return math.prod(s**alpha - s**i for i in range(alpha)) <= 1000
    return call[0] == "construct-primitive"


def test_the_corpus_lists_every_input_once_in_order():
    calls = [" ".join(map(str, call)) for _, call in inputs()]
    assert list(_recorded()) == calls and len(set(calls)) == len(calls) == 478


@pytest.mark.parametrize(
    "kind, call",
    [pytest.param(*item, id="_".join(map(str, item[1]))) for item in inputs() if _in_subset(*item)],
)
def test_subset_matches_the_recorded_digest(kind, call):
    assert record((kind, call)) == _recorded()[" ".join(map(str, call))]
