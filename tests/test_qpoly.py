import itertools

import pytest
from hypothesis import given, strategies as st

from hookpaths.qpoly import (
    LaurentPoly,
    ONE,
    ZERO,
    gauss_binomial,
    gauss_binomial_qinv,
    q,
    q_factorial,
    q_int,
    q_pochhammer,
    q_power,
    t,
    z,
)

exponents = st.integers(min_value=-6, max_value=6)
coeffs = st.integers(min_value=-50, max_value=50)
term_maps = st.dictionaries(
    st.tuples(exponents, exponents, exponents), coeffs, max_size=6
)
polys = term_maps.map(LaurentPoly)


def test_ring_examples():
    assert (ONE + q * z) * (ONE + q**2 * z) == ONE + q * z + q**2 * z + q**3 * z**2
    p = 3 * q**2 * t - z
    assert (p + (-p)).is_zero()
    assert q ** -1 * q == ONE


def test_canonical_form_drops_zeros():
    p = LaurentPoly({(1, 0, 0): 2, (0, 1, 0): 0})
    assert p.items() == [((1, 0, 0), 2)]
    assert p - 2 * q == ZERO
    assert LaurentPoly.const(0).items() == [] and LaurentPoly.term(0, 1, 2, 3).items() == []
    assert LaurentPoly.term(True, eq=True).items() == [((1, 0, 0), 1)]
    assert LaurentPoly.sum([q, 2 * z, -q]).items() == [((0, 0, 1), 2)]


# each of these once truncated: 1.5 read 1, 2.7 read 2, 0.5 read 0 and the
# exponent 1.9 read as q; a string was parsed
@pytest.mark.parametrize("build", [
    lambda: LaurentPoly({(0, 0, 0): 1.5}),
    lambda: LaurentPoly({(0, 0, 0): 0.5}),
    lambda: LaurentPoly({(1.9, 0, 0): 1}),
    lambda: LaurentPoly({(0, 0, 0): "3"}),
    lambda: LaurentPoly.const(2.7),
    lambda: LaurentPoly.const(0.5),
    lambda: LaurentPoly.term(0.5, eq=1),
    lambda: LaurentPoly.term(1, eq=1.9),
    lambda: LaurentPoly.term(1, et=2.0),
    lambda: LaurentPoly.term("3", eq=2),
], ids=[
    "init-coeff-1.5", "init-coeff-0.5", "init-exponent-1.9", "init-coeff-str",
    "const-2.7", "const-0.5", "term-coeff-0.5", "term-eq-1.9", "term-et-2.0", "term-coeff-str",
])
def test_public_constructors_refuse_non_integers(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("key, error", [((0.5, 0, 0), TypeError), ((0, 0), ValueError)], ids=["float", "short"])
def test_init_checks_a_key_before_it_skips_a_zero_term(key, error):
    # a zero coefficient once let its key through unread
    for coeff in (1, 0):
        with pytest.raises(error):
            LaurentPoly({key: coeff})


def test_public_constructors_keep_every_int_input():
    assert LaurentPoly({(-1, 2, 3): True}).items() == [((-1, 2, 3), 1)]
    assert LaurentPoly.const(-4) == -4 and LaurentPoly.term(7, -1, 0, 2).items() == [((-1, 0, 2), 7)]
    assert LaurentPoly.term(2 ** 70, ez=-3).coeff(ez=-3) == 2 ** 70
    assert LaurentPoly.from_json_obj([{"q": "1", "t": 0, "z": 2, "c": "-5"}]).items() == [((1, 0, 2), -5)]


def _term_by_term_product(a, b):
    out = {}
    for (a1, b1, c1), x in a.items():
        for (a2, b2, c2), y in b.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + x * y
    return LaurentPoly(out)


monomials = st.builds(LaurentPoly.term, st.one_of(st.just(1), coeffs), exponents, exponents, exponents)


@given(polys, monomials)
def test_products_with_one_term_match_the_term_by_term_product(p, m):
    for a, b in ((p, m), (m, p), (m, m), (ZERO, m), (m, ZERO)):
        product = a * b
        assert product == _term_by_term_product(a, b)
        assert all(c for _, c in product.items())


shifted_terms = st.lists(st.tuples(polys, coeffs, exponents, exponents, exponents), max_size=5)


@given(shifted_terms)
def test_shifted_sum_matches_the_sum_of_shifted_products(terms):
    want = ZERO
    for poly, c, eq, et, ez in terms:
        want = want + LaurentPoly.term(c, eq, et, ez) * poly
    got = LaurentPoly.shifted_sum(iter(terms))
    assert got == want
    assert all(c for _, c in got.items())
    # every term next to its negative: the sum cancels to zero
    cancelling = terms + [(poly, -c, eq, et, ez) for poly, c, eq, et, ez in terms]
    assert LaurentPoly.shifted_sum(cancelling).is_zero()


def _shifted_product(other, c, eq, et, ez):
    return c * LaurentPoly.term(1, eq, et, ez) * other


def test_equals_shifted_matches_the_built_product_exhaustively():
    # every polynomial on three keys with coefficients -1, 0, 2, against
    # shifts that move one key onto another
    keys = ((0, 0, 0), (1, 0, 0), (0, -1, 1))
    small = [LaurentPoly(dict(zip(keys, cs))) for cs in itertools.product((-1, 0, 2), repeat=3)]
    shifts = ((0, 0, 0), (1, 0, 0), (0, 1, -1))
    for a, b in itertools.product(small, repeat=2):
        for c in (-2, -1, 0, 1, 2):
            for shift in shifts:
                assert a.equals_shifted(b, c, *shift) is (a == _shifted_product(b, c, *shift)), (a, b, c, shift)


@given(st.one_of(st.just(ZERO), polys), st.one_of(st.just(ZERO), polys),
       st.sampled_from((-2, -1, 1, 2)), exponents, exponents, exponents)
def test_equals_shifted_matches_the_built_product(p, other, c, eq, et, ez):
    product = _shifted_product(other, c, eq, et, ez)
    assert p.equals_shifted(other, c, eq, et, ez) is (p == product)
    assert product.equals_shifted(other, c, eq, et, ez)
    # a term added, changed or removed breaks the equality
    assert not (product + LaurentPoly.term(1, eq, et, ez)).equals_shifted(other, c, eq, et, ez)
    if not other.is_zero():
        assert not LaurentPoly(dict(product.items()[1:])).equals_shifted(other, c, eq, et, ez)
    assert p.equals_shifted(other, 0, eq, et, ez) is p.is_zero()


def test_shifted_sum_examples():
    assert LaurentPoly.shifted_sum([]) == ZERO
    assert LaurentPoly.shifted_sum([(q + t, 2, 1, 0, -1), (q**2, -2, -1, 1, -1)]) == 2 * q**2 * z**-1
    assert LaurentPoly.shifted_sum([(ONE + z, 3, 0, 0, 0), (z, -3, 0, 0, 0)]) == 3


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert LaurentPoly.sum([a, b, c]) == a + b + c
    assert LaurentPoly.sum([a, -a]).is_zero() and LaurentPoly.sum([]) == ZERO


@given(polys)
def test_zero_insertion_is_identity(p):
    rebuilt = LaurentPoly(dict(p.items()) | {(9, 9, 9): 0})
    assert rebuilt == p


def test_q_analogues():
    assert q_int(4) == ONE + q + q**2 + q**3
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert gauss_binomial(4, 2) == ONE + q + 2 * q**2 + q**3 + q**4
    assert gauss_binomial(7, 9) == ZERO
    assert gauss_binomial(7, -1) == ZERO
    for n in range(11):
        for k in range(n + 1):
            # at q = 1: the sum of the coefficients
            assert sum(c for _, c in gauss_binomial(n, k).items()) == _binom(n, k)


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_gauss_binomial_matches_division_definition():
    for n in range(9):
        for k in range(n + 1):
            lhs = gauss_binomial(n, k) * q_factorial(n - k) * q_factorial(k)
            assert lhs == q_factorial(n)


def test_gauss_symmetry_pascal_reversal():
    for n in range(13):
        for k in range(n + 1):
            assert gauss_binomial(n, k) == gauss_binomial(n, n - k)
            # palindromic: reversing the q-coefficients about the degree k(n-k) fixes it
            p, d = gauss_binomial(n, k), k * (n - k)
            assert LaurentPoly({(d - eq, 0, 0): c for (eq, _, _), c in p.items()}) == p
            if n and 0 <= k:
                expected = gauss_binomial(n - 1, k - 1) + q_power(k) * gauss_binomial(n - 1, k)
                assert gauss_binomial(n, k) == expected


def test_q_binomial_theorem():
    for m in range(13):
        product = q_pochhammer(z, m)
        total = ZERO
        for j in range(m + 1):
            total = total + q_power(j * (j + 1) // 2) * gauss_binomial(m, j) * z**j
        assert product == total


def test_pochhammer_examples():
    assert q_pochhammer(z, 0) == ONE
    assert q_pochhammer(z, 2) == ONE + q * z + q**2 * z + q**3 * z**2
    expected = (
        ONE
        + (q + q**2 + q**3) * z
        + (q**3 + q**4 + q**5) * z**2
        + q**6 * z**3
    )
    assert q_pochhammer(z, 3) == expected


def test_qinv_binomial_is_laurent():
    p = gauss_binomial_qinv(3, 1)
    assert p == ONE + q**-1 + q**-2
    assert q_power(5) * p == q**5 + q**4 + q**3
    # [n k] at q -> 1/q, term by term, including the out-of-range k that give 0
    for n in range(13):
        for k in range(-1, n + 2):
            flipped = {(-eq, et, ez): c for (eq, et, ez), c in gauss_binomial(n, k).items()}
            assert gauss_binomial_qinv(n, k) == LaurentPoly(flipped), (n, k)


def test_text_rendering():
    assert str(ZERO) == "0"
    assert str(ONE + q * z + q**2 * z + q**3 * z**2) == "1 + q*z + q^2*z + q^3*z^2"
    assert str(q**-2) == "q^-2"
    assert str(ONE - q * z) == "1 - q*z"
    assert str(-2 * q) == "-2q" or str(-2 * q) == "-2*q"


def reference_str(p):
    """LaurentPoly.__str__ as first written: a loop over the variables for
    every term, and the first term's sign told apart while rendering, over
    the (exponent triple, coefficient) pairs sorted as pairs."""
    if not p._terms:
        return "0"
    pieces = []
    for expo, c in sorted(p._terms.items()):
        factors = []
        for name, e in zip(("q", "t", "z"), expo):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def test_text_rendering_matches_reference():
    # every monomial with exponents -3..3 and coefficient +-1 or +-2, alone
    # and in runs of up to three terms with mixed signs, and zero
    expos = list(itertools.product(range(-3, 4), repeat=3))
    cases = [ZERO]
    for c in (1, -1, 2, -2):
        cases += [LaurentPoly({e: c}) for e in expos]
        for i in range(len(expos) - 2):
            cases.append(LaurentPoly({expos[i]: c, expos[i + 1]: -1, expos[i + 2]: 2}))
    for p in cases:
        assert str(p) == reference_str(p), p._terms


@given(st.dictionaries(st.tuples(exponents, exponents, exponents), coeffs, max_size=40).map(LaurentPoly))
def test_rendering_sorts_the_keys_as_the_pairs_sort(p):
    # items() and str() sort the exponent triples alone: distinct keys put
    # the pairs in the same order, negative exponents and coefficients too
    assert p.items() == sorted(p._terms.items())
    assert str(p) == reference_str(p)


@given(polys)
def test_json_round_trip(p):
    assert LaurentPoly.from_json_obj(p.to_json_obj()) == p


def test_coefficient_slicing():
    p = q_pochhammer(z, 3)
    assert p.coefficient_of("z", 1) == q + q**2 + q**3
    assert p.coefficient_of("z", 5) == ZERO


@given(polys, exponents)
def test_coefficient_of_matches_the_validated_construction(p, power):
    for name, i in (("q", 0), ("t", 1), ("z", 2)):
        want = LaurentPoly({
            tuple(0 if v == i else e for v, e in enumerate(expo)): c
            for expo, c in p.items() if expo[i] == power
        })
        got = p.coefficient_of(name, power)
        assert got == want, (name, power)
        assert all(c for _, c in got.items())



def test_at_zero():
    # the t = 0 evaluation that the t = 0 oracles read: the t^0 coefficient
    p = ONE + q * t + q**2
    assert p.coefficient_of("t", 0) == ONE + q**2
    assert (q * t**-1 + z).coefficient_of("t", 0) == z
