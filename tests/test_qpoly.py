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
    assert LaurentPoly.term("3", eq=2.0).items() == LaurentPoly({(2.0, 0, 0): "3"}).items() == [((2, 0, 0), 3)]
    assert LaurentPoly.const(0.5).items() == LaurentPoly({(0, 0, 0): 0.5}).items() == []
    assert LaurentPoly.sum([q, 2 * z, -q]).items() == [((0, 0, 1), 2)]


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


def test_substitute_examples():
    assert (q * z).substitute({"z": q * z}) == q**2 * z
    assert (q**2 * t).substitute({"t": z**-1}) == q**2 * z**-1
    # terms that land on one exponent add up
    assert (q + z - q**2 * z).substitute({"z": q}) == 2 * q - q**3
    # frozen from expanding the (4, 0) family then substituting z -> qz
    p = ONE + q * z + q**2 * z + q**3 * z**2
    assert p.substitute({"z": q * z}) == ONE + q**2 * z + q**3 * z + q**5 * z**2


def test_substitute_rejects_non_monomial():
    with pytest.raises(ValueError):
        q.substitute({"q": ONE + q})


def test_substitute_negative_exponent_through_sign():
    # z -> -z/q turns the rising product into the falling one
    rising = q_pochhammer(z, 3, rising=True)
    falling = q_pochhammer(z, 3, rising=False)
    assert rising.substitute({"z": LaurentPoly.term(-1, eq=-1, ez=1)}) == falling


def test_rev_q():
    p = ONE + 2 * q + q**3
    assert p.rev_q() == q**3 + 2 * q**2 + ONE
    assert LaurentPoly.const(5).rev_q() == LaurentPoly.const(5)
    with pytest.raises(ValueError):
        (q * t).rev_q()
    with pytest.raises(ValueError):
        (q**-1).rev_q()


@given(st.dictionaries(st.integers(min_value=0, max_value=8), coeffs, max_size=5))
def test_rev_q_involution_on_nonzero_constant_term(coeff_map):
    coeff_map[0] = coeff_map.get(0, 0) or 1
    p = LaurentPoly({(e, 0, 0): c for e, c in coeff_map.items()})
    assert p.rev_q().rev_q() == p


def test_q_analogues():
    assert q_int(4) == ONE + q + q**2 + q**3
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert gauss_binomial(4, 2) == ONE + q + 2 * q**2 + q**3 + q**4
    assert gauss_binomial(7, 9) == ZERO
    assert gauss_binomial(7, -1) == ZERO
    for n in range(11):
        for k in range(n + 1):
            assert gauss_binomial(n, k).substitute({"q": 1}).constant_value() == _binom(n, k)


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
            assert gauss_binomial(n, k).rev_q() == gauss_binomial(n, k)
            if n and 0 <= k:
                expected = gauss_binomial(n - 1, k - 1) + q_power(k) * gauss_binomial(n - 1, k)
                assert gauss_binomial(n, k) == expected


def test_q_binomial_theorem():
    for m in range(13):
        product = q_pochhammer(z, m, rising=True)
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


def test_text_rendering():
    assert str(ZERO) == "0"
    assert str(ONE + q * z + q**2 * z + q**3 * z**2) == "1 + q*z + q^2*z + q^3*z^2"
    assert str(q**-2) == "q^-2"
    assert str(ONE - q * z) == "1 - q*z"
    assert str(-2 * q) == "-2q" or str(-2 * q) == "-2*q"


def reference_str(p):
    """LaurentPoly.__str__ as first written: a loop over the variables for
    every term, and the first term's sign told apart while rendering."""
    if not p._terms:
        return "0"
    pieces = []
    for expo, c in p.items():
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


@given(polys)
def test_json_round_trip(p):
    assert LaurentPoly.from_json_obj(p.to_json_obj()) == p


def test_coefficient_slicing():
    p = q_pochhammer(z, 3)
    assert p.coefficient_of("z", 1) == q + q**2 + q**3
    assert p.coefficient_of("z", 5) == ZERO


def test_at_zero():
    p = ONE + q * t + q**2
    assert p.at_zero("t") == ONE + q**2
    with pytest.raises(ValueError):
        (t**-1).at_zero("t")
