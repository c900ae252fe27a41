import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from hookpaths.shapes import (
    SYT_SIZE_BOUND,
    StdTableau,
    _descent_classes,
    check_partition,
    conjugate,
    descent_classes,
    enumerate_SYT,
    hook_tableau_from_descents,
    is_hook,
    make_hook,
    normalize_shape,
    parse_partition,
    partition_str,
    partitions_of,
)
from hookpaths.characters import hook_formula
from hookpaths.qpoly import LaurentPoly, gauss_binomial, q_factorial, q_int, q_power
from hookpaths.schur import SchurExpansion


def hook_length_count(shape):
    """Independent tableau count via the hook-length product."""
    n = sum(shape)
    cols = conjugate(shape)
    product = 1
    for i, row in enumerate(shape):
        for j in range(row):
            product *= (row - j) + (cols[j] - i) - 1
    return math.factorial(n) // product


def test_conjugate_examples():
    assert conjugate((4, 2, 2, 1, 1)) == (5, 3, 1, 1)
    assert conjugate((7,)) == (1,) * 7
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


@given(st.integers(min_value=0, max_value=9))
def test_conjugate_involution(n):
    for lam in partitions_of(n):
        assert conjugate(conjugate(lam)) == lam


def test_partition_validation():
    with pytest.raises(ValueError):
        check_partition((2, 3))
    with pytest.raises(ValueError):
        check_partition((3, 0))
    assert check_partition([5, 5, 1]) == (5, 5, 1)


def test_normalize_shape():
    assert normalize_shape((3, 1, 0, 0)) == (3, 1)
    assert normalize_shape((0,)) == ()
    assert normalize_shape((0, 1)) is None
    assert normalize_shape((-1,)) is None
    assert normalize_shape((2, 3)) is None


def test_hooks():
    assert is_hook((4, 1, 1))
    assert not is_hook((3, 2))
    assert is_hook((6,))
    assert is_hook(())
    assert make_hook(1, 2) == (1, 1, 1)
    assert make_hook(4, 0) == (4,)
    with pytest.raises(ValueError):
        make_hook(0, 3)


def test_partition_text():
    assert parse_partition("4,2,2,1,1") == (4, 2, 2, 1, 1)
    assert partition_str((4, 2, 2, 1, 1)) == "4,2,2,1,1"
    assert parse_partition("empty") == ()


def test_fig3_tableau_statistics():
    tau = StdTableau.parse("1,2,4,8/3,7/5,10/6/9")
    assert tau.shape == (4, 2, 2, 1, 1)
    assert tau.descent_set() == frozenset({2, 4, 5, 8})
    assert tau.des() == 4
    assert tau.maj() == 19
    conj = tau.conjugate()
    assert conj.shape == (5, 3, 1, 1)
    assert conj.descent_set() == frozenset({1, 3, 6, 7, 9})
    assert conj.conjugate() == tau


def test_row_and_column_tableaux():
    row = StdTableau([(1, 2, 3, 4, 5)])
    assert row.descent_set() == frozenset()
    assert row.maj() == 0
    col = row.conjugate()
    assert col.shape == (1,) * 5
    assert col.descent_set() == frozenset({1, 2, 3, 4})
    assert col.maj() == 10


def test_tableau_validation():
    with pytest.raises(ValueError):
        StdTableau([(1, 2), (4, 3)])  # row must increase
    with pytest.raises(ValueError):
        StdTableau([(2, 1)])
    with pytest.raises(ValueError):
        StdTableau([(1, 2), (2,)])  # duplicate entry
    with pytest.raises(ValueError):
        StdTableau([(2, 3), (1, 4)])  # column must increase upward


@pytest.mark.parametrize("build", [
    lambda: check_partition((2.9, 1)),
    lambda: hook_formula(3, 1, (2.9, 1)),
    lambda: SchurExpansion({(2.5, 1): 1}),
    lambda: descent_classes((2.2, 1.9)),
    lambda: hook_tableau_from_descents({1.0}, 3),
    lambda: StdTableau([[1.5, 2], [3]]),
], ids=["check_partition", "hook_formula", "SchurExpansion", "descent_classes",
        "hook_tableau_from_descents", "StdTableau"])
def test_parts_entries_and_descents_must_be_ints(build):
    # a float raises rather than truncating to a nearby shape or tableau
    with pytest.raises(TypeError):
        build()


def test_enumerate_syt_counts():
    assert len(enumerate_SYT((3, 1))) == 3
    for n in range(1, 8):
        assert len(enumerate_SYT((1,) * n)) == 1
    for n in range(2, 9):
        for k in range(n):
            shape = (k + 1,) + (1,) * (n - k - 1)
            assert len(enumerate_SYT(shape)) == math.comb(n - 1, k)
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert len(enumerate_SYT(lam)) == hook_length_count(lam)


def test_enumerate_syt_distinct_and_bounded():
    tableaux = enumerate_SYT((3, 2, 1))
    assert len(set(tableaux)) == len(tableaux)
    with pytest.raises(ValueError):
        enumerate_SYT((SYT_SIZE_BOUND + 1,))
    assert len(enumerate_SYT((SYT_SIZE_BOUND,))) == 1


def assert_equals_validated_rebuild(tau):
    """A tableau built by a trusted constructor matches the validating one."""
    rebuilt = StdTableau(tau.rows)
    assert rebuilt == tau
    assert (rebuilt.shape, rebuilt.n, rebuilt._row_of) == (tau.shape, tau.n, tau._row_of)


def test_descent_complement_invariants():
    for n in range(0, 9):
        full = frozenset(range(1, n))
        for lam in partitions_of(n):
            for tau in enumerate_SYT(lam):
                conj = tau.conjugate()
                assert_equals_validated_rebuild(tau)
                assert_equals_validated_rebuild(conj)
                assert conj.descent_set() == full - tau.descent_set()
                assert tau.maj() + conj.maj() == n * (n - 1) // 2
                assert tau.des() == max(n - 1, 0) - conj.des()


@given(st.data())
def test_conjugate_property(data):
    n = data.draw(st.integers(min_value=0, max_value=10))
    lam = data.draw(st.sampled_from(list(partitions_of(n))))
    tau = data.draw(st.sampled_from(enumerate_SYT(lam)))
    conj = tau.conjugate()
    assert_equals_validated_rebuild(conj)
    assert conj.shape == conjugate(lam)
    assert conj.descent_set() == frozenset(range(1, n)) - tau.descent_set()
    assert conj.conjugate() == tau


def test_descent_tally_obeys_the_q_hook_length_formula():
    # sum over SYT(lam) of q^maj, times the product of [h(c)]_q over the
    # cells, is q^b(lam) [n]_q! with b(lam) = sum (i-1) lam_i
    for n in range(0, 11):
        for lam in partitions_of(n):
            cols = conjugate(lam)
            majs = LaurentPoly.sum(
                c * q_power(maj)
                for _, by_maj in descent_classes(lam)
                for maj, c in by_maj
            )
            for i, row in enumerate(lam):
                for j in range(row):
                    majs = majs * q_int((row - j) + (cols[j] - i) - 1)
            b = sum(i * part for i, part in enumerate(lam))
            assert majs == q_power(b) * q_factorial(n), lam


def test_descent_tally_of_the_conjugate_is_the_complement():
    # Des(tau') is Des(tau) complemented in 1..n-1, and transposition is a
    # bijection SYT(lam) -> SYT(lam')
    for n in range(0, 11):
        for lam in partitions_of(n):
            complement = {
                max(n - 1, 0) - des: {n * (n - 1) // 2 - maj: c for maj, c in by_maj}
                for des, by_maj in descent_classes(lam)
            }
            conj = {des: dict(by_maj) for des, by_maj in descent_classes(conjugate(lam))}
            assert conj == complement, lam


def class_dict(classes):
    """descent_classes' frozen tuples as {(des, maj): count}."""
    return {(des, maj): c for des, by_maj in classes for maj, c in by_maj}


def test_descent_classes_match_the_enumerated_tableaux():
    # the subshape walk against SYT(lam) listed one by one
    for n in range(0, 11):
        for lam in partitions_of(n):
            enumerated = Counter((len(d), sum(d)) for d in map(StdTableau.descent_set, enumerate_SYT(lam)))
            assert class_dict(descent_classes(lam)) == enumerated, lam


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def hook_content(lam, k):
    """s_lam(1, q, ..., q^k) as a list of coefficients in q, by the
    hook-content formula q^b(lam) prod_u (1 - q^(k+1+c(u))) / (1 - q^h(u))."""
    if len(lam) > k + 1:  # a cell of content -(k+1): the factor 1 - q^0
        return [0]
    cols = conjugate(lam)
    poly = [0] * sum(i * part for i, part in enumerate(lam)) + [1]
    hooks = []
    for i, row in enumerate(lam):
        for j in range(row):
            poly = _times(poly, [1] + [0] * (k + j - i) + [-1])
            hooks.append((row - j) + (cols[j] - i) - 1)
    for h in hooks:  # divide by 1 - q^h; every quotient is a polynomial
        for e in range(h, len(poly)):
            poly[e] += poly[e - h]
    return poly


def stanley_tally(lam):
    """{(des, maj): count} over SYT(lam) from Stanley's identity: the
    coefficients of t^0..t^(n-1) in prod_{i=0}^{n} (1 - t q^i) times
    sum_k s_lam(1, q, ..., q^k) t^k (EC2 7.19.11)."""
    n = sum(lam)
    series = Counter()
    for k in range(n):
        for e, c in enumerate(hook_content(lam, k)):
            series[k, e] += c
    for i in range(n + 1):
        nxt = Counter(series)
        for (d, e), c in series.items():
            if d + 1 < n:
                nxt[d + 1, e + i] -= c
        series = nxt
    return {key: c for key, c in series.items() if c}


def test_descent_classes_match_stanleys_hook_content_form():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert class_dict(descent_classes(lam)) == stanley_tally(lam), lam


def test_hook_descent_classes_are_gaussian_binomials():
    # a hook tableau's descents are its leg entries less one: any k-subset
    # of 1..n-1, so maj runs over q^binom(k+1, 2) [n-1 k]_q
    for n in range(1, 12):
        for k in range(0, n):
            ((des, by_maj),) = descent_classes((n - k,) + (1,) * k)
            majs = LaurentPoly.sum(c * q_power(maj) for maj, c in by_maj)
            assert des == k and majs == q_power(k * (k + 1) // 2) * gauss_binomial(n - 1, k), (n, k)


def test_descent_classes_reach_past_the_enumeration_bound():
    # the memo itself has no bound: the n = 21 staircase has f = 1,100,742,656
    staircase = (6, 5, 4, 3, 2, 1)
    total = sum(c for _, by_maj in _descent_classes(staircase) for _, c in by_maj)
    assert total == hook_length_count(staircase) == 1_100_742_656


def test_descent_class_memo_is_checked_and_shared():
    classes = descent_classes([3, 2, 1])  # a list still works
    assert classes is descent_classes((3, 2, 1))
    assert sum(c for _, by_maj in classes for _, c in by_maj) == 16
    with pytest.raises(ValueError, match="weakly decrease"):
        descent_classes((1, 2))
    with pytest.raises(ValueError, match=f"exceeds the enumeration bound {SYT_SIZE_BOUND}"):
        descent_classes((SYT_SIZE_BOUND + 1,))


def test_hook_tableau_from_descents():
    tau = hook_tableau_from_descents({1, 2, 4, 5}, 7)
    assert tau.shape == (3, 1, 1, 1, 1)
    assert tau.rows[0] == (1, 4, 7)
    assert [row[0] for row in tau.rows[1:]] == [2, 3, 5, 6]
    assert tau.descent_set() == frozenset({1, 2, 4, 5})
    assert hook_tableau_from_descents(set(), 5).shape == (5,)
    with pytest.raises(ValueError):
        hook_tableau_from_descents({5}, 5)
    with pytest.raises(ValueError):
        hook_tableau_from_descents(set(), 0)


def test_hook_descent_bijection_exhaustive():
    for n in range(1, 10):
        seen = set()
        for k in range(n):
            for subset in combinations(range(1, n), k):
                tau = hook_tableau_from_descents(subset, n)
                assert_equals_validated_rebuild(tau)
                assert tau.descent_set() == frozenset(subset)
                seen.add(tau)
        hook_count = sum(
            len(enumerate_SYT((a,) + (1,) * (n - a))) for a in range(1, n + 1)
        )
        assert len(seen) == 2 ** (n - 1) == hook_count


def test_tableau_text_round_trip():
    tau = StdTableau.parse("1,2,4,8/3,7/5,10/6/9")
    assert StdTableau.parse(str(tau)) == tau
