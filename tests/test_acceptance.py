"""The acceptance gate: one test per stated criterion, each printing a
pass/fail line with its wall time.  Every check is exact; the time budgets
are generous and asserted as stated.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time

from hookpaths import characters as ch
from hookpaths import pierimaps as pm
from hookpaths import verify
from hookpaths.fixtures import load_fixture
from hookpaths.schur import (
    SchurExpansion,
    psi,
    specialize2,
    ssyt_specialize_oracle,
)
from hookpaths.shapes import partitions_of

s = SchurExpansion.term


def _finish(number, label, start, budget):
    elapsed = time.perf_counter() - start
    print(f"criterion {number:>2} PASS  {elapsed:8.3f}s  (budget {budget:g}s)  {label}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _assert_all_pass(reports):
    failed = [r for r in reports if r.status == "fail"]
    assert not failed, "\n".join(r.line() for r in failed)


def test_criterion_1_fixture_reproduction():
    expected = {
        (1, 1, 1, 1): s((6,)) + s((4, 1)) + s((3, 1)) + s((1, 1, 1)),
        (3, 1): s((1,)) + s((2,)) + s((3,)),
        (4,): s(()),
    }
    ch.hook_formula(4, 1, (1, 1, 1, 1))  # warm the caches before timing
    start = time.perf_counter()
    for mu, want in expected.items():
        single = time.perf_counter()
        got = ch.hook_formula(4, 1, mu).expansion
        assert time.perf_counter() - single < 0.001, f"mu={mu} over 1ms"
        assert got == want, mu
    table = load_fixture()
    for mu, want in expected.items():
        assert table[mu] == want
    _finish(1, "fixture reproduction", start, 1.0)


def test_criterion_2_generating_functions():
    start = time.perf_counter()
    _assert_all_pass(verify.run_suite("gf", 14))
    _finish(2, "generating-function identities (n <= 14)", start, 5.0)


def test_criterion_3_alternating_sums():
    start = time.perf_counter()
    _assert_all_pass(verify.run_suite("alternating", 12))
    _finish(3, "alternating-sum identities (n <= 12, c in -2..2)", start, 10.0)


def test_criterion_4_two_variable_consistency():
    start = time.perf_counter()
    _assert_all_pass(verify.run_suite("restriction2", 9))
    _finish(4, "two-variable consistency on hooks (n <= 9)", start, 30.0)


def test_criterion_5_t0_oracle():
    start = time.perf_counter()
    _assert_all_pass(verify.run_suite("hrs-t0", 8))
    _finish(5, "t=0 oracle over all shapes (n <= 8)", start, 60.0)


def test_criterion_6_pieri_equivalence():
    start = time.perf_counter()
    _assert_all_pass(verify.run_suite("pieri-paths", 9))
    _finish(6, "path Pieri rule equals the operator (n <= 9)", start, 30.0)


def test_criterion_7_bijections():
    start = time.perf_counter()
    _assert_all_pass(verify.run_suite("bijections", 10))
    _finish(7, "map bijectivity and statistic laws (n <= 10)", start, 60.0)


def test_criterion_8_two_column():
    start = time.perf_counter()
    _assert_all_pass(verify.run_suite("two-column", 9))
    for n in range(3, 11):
        assert not pm.build_sets(n, n - 2).w, n
    _finish(8, "two-column forms agree (5 <= n <= 9), top W empty (n <= 10)", start, 30.0)


def test_criterion_9_oracle_gates():
    start = time.perf_counter()
    for n in range(0, 9):
        for lam in partitions_of(n):
            assert specialize2(s(lam)) == ssyt_specialize_oracle(lam, 2), lam
    rng = random.Random(2024)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 10)):
            a = rng.randint(1, 9)
            k = rng.randint(0, 9)
            terms[(a,) + (1,) * k] = terms.get((a,) + (1,) * k, 0) + rng.randint(1, 5)
        G = SchurExpansion(terms)
        depth = max(len(lam) for lam in G.support()) + 2
        assert ch.lift_hooks(ch.one_part_fingerprints(G, depth)) == psi(G)
    _finish(9, "oracle gates (SSYT <= 8 exhaustive; 100 random lifts)", start, 30.0)


def test_criterion_10_difference_comparison():
    start = time.perf_counter()
    for n in range(3, 9):
        sets = pm.build_sets(n, 1)
        direct = pm.difference_W(n, 1, "direct")
        assert direct == pm.hook_sum(sets.tminus) - pm.hook_sum(sets.v), n
        report = pm.compare_difference(n, 1, direct)
        # the display's agreement is reported, never asserted
        status = "agrees" if report["agree_k1"] else "DISAGREES"
        print(f"    difference display (k=1, n={n}): {status}")
    elapsed = time.perf_counter() - start
    print(f"criterion 10 PASS  {elapsed:8.3f}s  (budget 60s)  difference-W comparison (k=1, n <= 8)")
    assert elapsed < 60.0
