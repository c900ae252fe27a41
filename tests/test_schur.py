import random

import pytest
from hypothesis import given, settings, strategies as st

from hookpaths.qpoly import ONE, ZERO, q, t, z
from hookpaths.schur import (
    SchurExpansion,
    e_perp,
    e_perp_by_k,
    first_row_fingerprint,
    omega,
    psi,
    psi_inverse_hooks,
    restrict,
    specialize2,
    ssyt_specialize_oracle,
    strips_by_size,
    two_row_part,
)
from hookpaths.shapes import normalize_shape, partitions_of

s = SchurExpansion.term


def test_expansion_canonical_form():
    f = s((3, 1)) + s((3, 1)) - s((3, 1)).scale(2)
    assert f.is_zero()
    g = SchurExpansion({(2,): ZERO, (1, 1): ONE})
    assert g.support() == [(1, 1)]


def test_trusted_expansion_drops_zeros_like_the_checked_constructor():
    terms = {(2,): 0, (1,): ZERO, (1, 1): 3, (): q - q, (3, 1): t}
    trusted = SchurExpansion._trusted(terms)
    assert trusted == SchurExpansion(terms)
    assert trusted.support() == [(3, 1), (1, 1)]
    assert trusted.coefficient((1, 1)) == 3 * ONE


@pytest.mark.parametrize("coeff", [2.5, 0.0, "3", None], ids=["float", "float-zero", "str", "none"])
def test_checked_expansion_names_a_coefficient_that_is_no_int_or_polynomial(coeff):
    # a float once failed with "'float' object has no attribute 'is_zero'"
    with pytest.raises(TypeError, match=f"coefficient {coeff!r} of s\\(2, 1\\)"):
        SchurExpansion({(2, 1): coeff})


def test_checked_expansion_keeps_every_int_input():
    assert SchurExpansion({(2, 1): 2, (1,): True, (3,): 0}) == SchurExpansion({(2, 1): 2 * ONE, (1,): ONE})
    assert SchurExpansion({(): -1}).coefficient(()) == -1


def test_trusted_constants_shared_between_terms_stay_apart_under_arithmetic():
    # equal counts share one constant; every operation builds new
    # coefficients, so no term of an operand or of the result moves another
    terms = {(3,): 2, (2, 1): 2, (1, 1, 1): 2, (1,): 0, (2,): 5}
    f = SchurExpansion._trusted(terms)
    assert f.coefficient((3,)) is f.coefficient((2, 1)) is f.coefficient((1, 1, 1))
    assert f.support() == [(3,), (2, 1), (1, 1, 1), (2,)]  # the zero count is dropped
    before = str(f)
    g = SchurExpansion.term((3,), 1)
    assert (f + g).coefficient((3,)) == 3 and (f - g).coefficient((3,)) == 1
    assert (f + g).coefficient((2, 1)) == 2 and (f - g).coefficient((1, 1, 1)) == 2
    assert (f - f.scale(1)).is_zero() and f.scale(q).coefficient((2, 1)) == 2 * q
    assert f.scale(3).coefficient((2,)) == 15 and f.scale(3).coefficient((3,)) == 6
    assert (-f).coefficient((3,)) == -2 and f.coefficient((2, 1)) == 2
    assert str(f) == before and f == SchurExpansion(terms)
    # distinct counts keep distinct constants
    assert {str(c) for _, c in SchurExpansion._trusted({(1,): 1, (2,): -1, (3,): 7}).items()} == {"1", "-1", "7"}


def test_e_perp_figure_example():
    image = e_perp(2, s((4, 3, 1, 1)))
    assert image == s((3, 2, 1, 1)) + s((3, 3, 1)) + s((4, 2, 1)) + s((4, 3))


def test_e_perp_on_columns_and_hooks():
    for n in range(1, 9):
        for k in range(n + 1):
            image = e_perp(k, s((1,) * n))
            assert image == s((1,) * (n - k))
    # a hook splits into at most two hooks: keep or shorten the arm
    for a in range(2, 6):
        for leg in range(0, 5):
            lam = (a,) + (1,) * leg
            for i in range(0, leg + 3):
                expected = SchurExpansion.zero()
                if leg - i >= 0:
                    expected = expected + s((a,) + (1,) * (leg - i))
                if i >= 1 and leg - i + 1 >= 0:
                    expected = expected + s((a - 1,) + (1,) * (leg - i + 1))
                assert e_perp(i, s(lam)) == expected, (lam, i)


def test_e_perp_degree_drop():
    f = s((4, 2, 1)) + s((3, 3, 1))
    for k in range(0, 4):
        for lam in e_perp(k, f).support():
            assert sum(lam) == 7 - k


def test_vertical_strips_only_one_box_per_row():
    assert set(strips_by_size((2, 2), 2)[2]) == {(1, 1)}
    assert set(strips_by_size((2, 2), 1)[1]) == {(2, 1)}
    assert strips_by_size((1, 1), 2)[2] == [()]
    assert strips_by_size((2, 2), 3)[3] == []


def vertical_strips_by_rows(lam, k):
    """Every way to take 0 or 1 box from each row, kept when k boxes went
    and the rows still weakly decrease: 2^rows choices."""
    rows = len(lam)
    out = []

    def rec(i, removed, prev, acc):
        if removed > k:
            return
        if i == rows:
            if removed == k:
                shape = normalize_shape(acc)
                if shape is not None:
                    out.append(shape)
            return
        for delta in (0, 1):
            part = lam[i] - delta
            if part < 0 or part > prev:
                continue
            acc.append(part)
            rec(i + 1, removed + delta, part, acc)
            acc.pop()

    rec(0, 0, lam[0] if lam else 0, [])
    return out


def test_vertical_strips_by_runs_match_the_row_by_row_reference():
    # the same strips, in the same order
    for n in range(0, 12):
        for lam in partitions_of(n):
            for k in range(0, n + 2):
                assert strips_by_size(lam, k)[k] == vertical_strips_by_rows(lam, k), (lam, k)


def fold_e_perp(k, f):
    """e_perp at one k, folded over the row-by-row strips: the reference
    for e_perp_by_k."""
    out = SchurExpansion()
    for lam, coeff in f.items():
        for mu in vertical_strips_by_rows(lam, k):
            out = out + s(mu, coeff)
    return out


def test_e_perp_by_k_matches_the_per_k_fold():
    # every partition of size <= 8, alone and all of a size together with
    # distinct coefficients, so strips of different indices land together
    for n in range(0, 9):
        shapes = partitions_of(n)
        together = SchurExpansion({lam: q ** i + t for i, lam in enumerate(shapes)})
        for f in [s(lam) for lam in shapes] + [together]:
            images = e_perp_by_k(f, n + 1)
            assert len(images) == n + 2
            for k, image in enumerate(images):
                assert image == fold_e_perp(k, f) == e_perp(k, f), (f, k)
    with pytest.raises(ValueError):
        e_perp_by_k(s((2, 1)), -1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([lam for n in range(9) for lam in partitions_of(n)]),
                  st.integers(-3, 3), st.integers(0, 2)),
        max_size=6,
    ),
    st.integers(0, 9),
)
def test_e_perp_by_k_matches_the_per_k_fold_property(terms, top):
    f = SchurExpansion()
    for lam, c, j in terms:
        f = f + s(lam, c * q ** j)
    assert e_perp_by_k(f, top) == [fold_e_perp(k, f) for k in range(top + 1)]


def test_omega():
    assert omega(s((3, 1))) == s((2, 1, 1))
    f = s((6,)) + s((4, 1))
    assert omega(f) == s((1,) * 6) + s((2, 1, 1, 1))
    for n in range(0, 8):
        for lam in partitions_of(n):
            assert omega(omega(s(lam))) == s(lam)


def test_restrict_worked_example():
    f = (
        s((1, 1, 1)).scale(5)
        + s((3, 1)).scale(5)
        + s((4, 1))
        + s((6,)).scale(2 * q**6)
    )
    kept = restrict(f, [(1, 1, 1), (3, 2), (6,)])
    assert kept == s((1, 1, 1)).scale(5) + s((6,)).scale(2 * q**6)


def test_restrict_named_classes():
    f = s(()) + s((4,)) + s((4, 1)) + s((4, 2)) + s((4, 2, 1)) + s((3, 2, 2))
    assert restrict(f, "hooks") == s(()) + s((4,)) + s((4, 1))
    assert restrict(f, "one_part") == s(()) + s((4,))
    assert restrict(f, "V1") == s((4, 1))
    assert restrict(f, "V2") == s((4, 2)) + s((4, 2, 1))
    assert restrict(f, "two_columns") == restrict(f, "V2")
    # hooks split as one-part plus the legged hooks
    hooky = s(()) + s((5,)) + s((2, 1, 1)) + s((1, 1))
    assert restrict(hooky, "hooks") == restrict(hooky, "one_part") + restrict(hooky, "V1")
    with pytest.raises(ValueError):
        restrict(f, "V0")
    with pytest.raises(ValueError):
        restrict(f, "nonsense")


def test_psi():
    assert psi(s((4, 1))) == q**4 * t
    assert psi(s((7,))) == q**7
    assert psi(s(())) == ONE


def test_psi_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            a = rng.randint(1, 9)
            k = rng.randint(0, 9)
            terms[(a,) + (1,) * k] = rng.randint(-5, 5) or 1
        f = SchurExpansion(terms)
        assert psi_inverse_hooks(psi(f)) == f
    with pytest.raises(ValueError):
        psi_inverse_hooks(t**2)  # a = 0 monomial
    with pytest.raises(ValueError):
        psi_inverse_hooks(q * z)


def test_psi_injective_on_hooks():
    seen = {}
    for a in range(1, 7):
        for k in range(0, 7):
            key = psi(s((a,) + (1,) * k))
            fingerprint = tuple(key.items())
            assert fingerprint not in seen
            seen[fingerprint] = (a, k)


def test_specialize2_examples():
    assert specialize2(s((1, 1, 1))) == ZERO
    assert specialize2(s((2, 1))) == q**2 * t + q * t**2
    assert specialize2(s((2,))) == q**2 + q * t + t**2
    assert specialize2(s(())) == ONE
    with pytest.raises(ValueError, match="exceeds the bound of 262144 monomials"):
        specialize2(s((2 ** 18,)))


def test_two_row_part_reads_the_empty_and_one_row_indices_as_two_rows():
    f = s(()) + s((3,)).scale(2) + s((2, 1)) + s((2, 1, 1)) + s((1, 1, 1))
    assert two_row_part(f) == {(0, 0): ONE, (3, 0): 2 * ONE, (2, 1): ONE}


PARTITIONS = [lam for n in range(9) for lam in partitions_of(n)]


def _expansions(shapes, size):
    return st.dictionaries(st.sampled_from(shapes), st.integers(-3, 3), max_size=size).map(SchurExpansion)


@given(
    _expansions(PARTITIONS, 8),
    # a change of f off its two-row part, or anywhere
    st.one_of(_expansions([lam for lam in PARTITIONS if len(lam) > 2], 4), _expansions(PARTITIONS, 4)),
)
def test_two_row_parts_agree_exactly_when_the_two_variable_evaluations_do(f, change):
    g = f + change
    assert (two_row_part(f) == two_row_part(g)) == (specialize2(f) == specialize2(g))


def test_ssyt_oracle_examples():
    expected = (
        q**2 * t + q**2 * z + q * t**2 + q * z**2 + t**2 * z + t * z**2
        + 2 * q * t * z
    )
    assert ssyt_specialize_oracle((2, 1), 3) == expected
    assert ssyt_specialize_oracle((1,), 2) == q + t
    assert ssyt_specialize_oracle((1, 1, 1), 2) == ZERO
    with pytest.raises(ValueError):
        ssyt_specialize_oracle((11,), 2)
    with pytest.raises(ValueError):
        ssyt_specialize_oracle((2,), 4)


def test_specialize2_matches_oracle_exhaustively():
    # and the first-row reading is its t = 0 evaluation: psi of the one-part terms
    for n in range(0, 9):
        for lam in partitions_of(n):
            assert specialize2(s(lam)) == ssyt_specialize_oracle(lam, 2), lam
            assert first_row_fingerprint(s(lam)) == specialize2(s(lam)).coefficient_of("t", 0), lam
            assert first_row_fingerprint(s(lam)) == psi(restrict(s(lam), "one_part")), lam


def test_expansion_rendering():
    f = s((6,)) + s((4, 1)) + s((3, 1)) + s((1, 1, 1))
    assert str(f) == "s[6] + s[4,1] + s[3,1] + s[1,1,1]"
    assert str(s(())) == "1"
    assert str(s((3, 1)).scale(q**2 + q * t)) == "(q*t + q^2) s[3,1]"
    assert str(SchurExpansion.zero()) == "0"


@given(
    st.dictionaries(
        st.lists(st.integers(min_value=1, max_value=6), max_size=4)
        .map(lambda xs: tuple(sorted(xs, reverse=True))),
        st.integers(min_value=-9, max_value=9),
        max_size=5,
    )
)
@settings(max_examples=60)
def test_expansion_json_round_trip(terms):
    f = SchurExpansion({lam: c for lam, c in terms.items()})
    assert SchurExpansion.from_json_obj(f.to_json_obj()) == f


def test_omega_does_not_commute_with_e_perp():
    # removing a 2-box vertical strip kills a row but not a column
    assert omega(e_perp(2, s((2,)))) != e_perp(2, omega(s((2,))))
    assert e_perp(2, omega(s((2,)))) == s(())


def _horizontal_strips(lam, k):
    """Partitions mu <= lam with lam/mu a horizontal strip of k boxes:
    interleaving lam_i >= mu_i >= lam_{i+1}."""
    lam = tuple(lam)
    out = []

    def rec(i, removed, prev, acc):
        if removed > k:
            return
        if i == len(lam):
            if removed == k:
                out.append(tuple(p for p in acc if p))
            return
        lo = lam[i + 1] if i + 1 < len(lam) else 0
        for part in range(lam[i], lo - 1, -1):
            if part > prev:
                continue
            acc.append(part)
            rec(i + 1, removed + (lam[i] - part), part, acc)
            acc.pop()

    rec(0, 0, lam[0] if lam else 0, [])
    return out


def test_e_perp_by_conjugation_duality():
    # vertical strips of lam correspond to horizontal strips of its
    # conjugate: a second, independent route to the same operator
    from hookpaths.shapes import conjugate, partitions_of

    for n in range(0, 9):
        for lam in partitions_of(n):
            for k in range(0, n + 1):
                via_conjugate = sorted(
                    conjugate(mu) for mu in _horizontal_strips(conjugate(lam), k)
                )
                assert sorted(strips_by_size(lam, k)[k]) == via_conjugate, (lam, k)
