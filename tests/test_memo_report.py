"""The memo report: which memos it finds, and what clearing them frees."""

import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import memo_report  # noqa: E402
import workloads  # noqa: E402  (put on the path by memo_report)

from edgeideals import betti, graphs, monomials  # noqa: E402


def test_finds_every_memo_once_under_its_own_module():
    named = dict(memo_report.memos())
    assert named["edgeideals.monomials._packed_power"] is (
        monomials._packed_power)
    assert named["edgeideals.betti.regularity"] is betti.regularity
    assert named["edgeideals.graphs._canonical_memo"] is (
        graphs._canonical_memo)
    # verify imports regularity from betti; it is listed once.
    assert not any(name.startswith("edgeideals.verify.") for name in named)
    assert len({id(memo) for memo in named.values()}) == len(named)


def test_one_packed_power_call_per_instance_and_clearing_empties():
    corpus = workloads.build_corpus(
        "ideal_arith", 1, workloads.load_reference(), limit=8)
    named = memo_report.memos()
    for _, memo in named:
        memo.cache_clear()
    tracemalloc.start()
    try:
        verdicts = memo_report.run_pass(corpus)
        info = monomials._packed_power.cache_info()
        freed = memo_report.clear_memos(named)
    finally:
        tracemalloc.stop()
    assert verdicts == {"pass": 8}
    # Each colon and each power reads the packed memo exactly once.
    assert info.hits + info.misses == 8 and info.currsize > 0
    assert freed["edgeideals.monomials._packed_power"] > 0
    assert all(memo.cache_info().currsize == 0 for _, memo in named)
