import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hookpaths import characters as ch
from hookpaths.paths import LatticePath, add_shifted, binom2, enumerate_T, family_counts, gf_T, path_hook
from hookpaths.qpoly import ONE, ZERO, LaurentPoly, gauss_binomial, q, q_power
from hookpaths.schur import SchurExpansion, e_perp, first_row_fingerprint, psi, restrict, specialize2
from hookpaths.shapes import (
    check_partition,
    conjugate,
    descent_classes,
    enumerate_SYT,
    hook_index,
    is_hook,
    make_hook,
    normalize_shape,
    partitions_of,
)

s = SchurExpansion.term


def test_hook_formula_published_values():
    assert ch.hook_formula(4, 1, (1, 1, 1, 1)).expansion == (
        s((6,)) + s((4, 1)) + s((3, 1)) + s((1, 1, 1))
    )
    assert ch.hook_formula(4, 1, (3, 1)).expansion == s((3,)) + s((2,)) + s((1,))
    assert ch.hook_formula(4, 1, (4,)).expansion == s(())
    assert ch.hook_formula(4, 1, (2, 2)).expansion == s((4,)) + s((2, 1)) + s((2,))
    assert ch.hook_formula(4, 1, (2, 1, 1)).expansion == (
        s((5,)) + s((4,)) + s((3,)) + s((3, 1)) + s((2, 1)) + s((1, 1))
    )


def test_hook_formula_flags():
    for mu in ((4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)):
        assert ch.hook_formula(4, 1, mu).proven
    assert not ch.hook_formula(4, 1, (2, 2)).proven
    assert not ch.hook_formula(4, 2, (1, 1, 1, 1)).proven
    assert "conjectural" in ch.hook_formula(4, 2, (1, 1, 1, 1)).banner()
    assert "proven" in ch.hook_formula(4, 1, (4,)).banner()


def test_hook_result_is_an_immutable_record():
    result = ch.hook_formula(4, 1, (3, 1))
    assert (result.n, result.r, result.mu, result.proven) == (4, 1, (3, 1), True)
    assert result.expansion == s((3,)) + s((2,)) + s((1,))
    assert result.banner() == "n=4 r=1 mu=3,1: proven"
    assert result == ch.hook_formula(4, 1, (3, 1)) != ch.hook_formula(4, 2, (3, 1))
    assert repr(result).startswith("HookResult(n=4, r=1, mu=(3, 1), expansion=SchurExpansion(")
    with pytest.raises(AttributeError):
        result.proven = False
    assert result.proven


def test_hook_formula_validation(monkeypatch):
    with pytest.raises(ValueError):
        ch.hook_formula(4, 1, (3, 2))  # not a partition of 4
    with pytest.raises(ValueError):
        ch.hook_formula(4, 0, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        ch.hook_formula(1, 1, (1,))
    # an oversized shape is refused before a tuple as long as one of its
    # parts (mu's conjugate, the leg of (n-k, 1^k), the conjugate of (n,))
    # is built
    monkeypatch.setattr(ch, "conjugate", lambda lam: pytest.fail("conjugate built"))
    for formula in (
        lambda: ch.hook_formula(13, 1, (13,)),
        lambda: ch.gl2_nabla_hooks(13, 1, (13,)),
        lambda: ch.gl2_delta_mu(13, 2, (13,)),
        lambda: ch.gl2_delta_en(10 ** 12, 10 ** 12 - 1),
        lambda: ch.hrs_t0(10 ** 9, 0),
    ):
        with pytest.raises(ValueError, match="exceeds the enumeration bound 12"):
            formula()


def test_alternant_examples():
    assert ch.alternant_formula(4, 1) == s((6,)) + s((4, 1)) + s((3, 1)) + s((1, 1, 1))
    assert ch.alternant_formula(4, 2) == (
        s((12,)) + s((10, 1)) + s((9, 1)) + s((7, 1, 1))
    )
    assert ch.alternant_formula(2, 1) == s((1,))


def test_alternant_equals_hook_formula_on_columns():
    for n in range(2, 13):
        assert ch.alternant_formula(n, 1) == ch.hook_formula(n, 1, (1,) * n).expansion
    for r in (2, 3):
        for n in range(2, 8):
            assert ch.alternant_formula(n, r) == ch.hook_formula(n, r, (1,) * n).expansion


def test_gl2_nabla_examples():
    assert ch.gl2_nabla_hooks(4, 1, (1, 1, 1, 1)) == s((6,)) + s((4, 1)) + s((3, 1))
    assert ch.gl2_nabla_hooks(4, 1, (4,)) == s(())
    with pytest.raises(ValueError):
        ch.gl2_nabla_hooks(5, 1, (3, 2))


def test_gl2_nabla_hooks_refuses_r_below_one():
    for r in (0, -1):
        with pytest.raises(ValueError, match="gl2_nabla_hooks needs r >= 1"):
            ch.gl2_nabla_hooks(3, r, (3,))


def test_gl2_matches_specialized_hook_formula():
    for n in range(3, 10):
        for d in range(1, n + 1):
            mu = make_hook(d, n - d)
            lhs = specialize2(ch.hook_formula(n, 1, mu).expansion)
            rhs = specialize2(ch.gl2_nabla_hooks(n, 1, mu))
            assert lhs == rhs, (n, mu)


def test_gl2_delta_en():
    assert ch.gl2_delta_en(4, 1) == s((1,)) + s((2,)) + s((3,))
    assert ch.gl2_delta_en(5, 0) == s(())
    # the top case collapses to the column formula
    for n in range(3, 9):
        assert ch.gl2_delta_en(n, n - 1) == ch.gl2_nabla_hooks(n, 1, (1,) * n)


def test_gl2_delta_mu_consistency():
    for n in range(3, 9):
        assert ch.gl2_delta_mu(n, n - 1, (1,) * n) == ch.gl2_nabla_hooks(n, 1, (1,) * n)
    # degenerate single-path shape
    for n in range(3, 7):
        for k in range(0, n):
            result = ch.gl2_delta_mu(n, k, (n,))  # only the empty-grid path
            assert all(len(lam) <= 2 for lam in result.support())


def test_gl2_delta_mu_is_pieri_image_of_hook_formula():
    # (e_{n-k-1}-perp of the hook component, then two rows) matches the
    # height-filtered display for the proven shapes
    proven = lambda n: [(n,), (n - 1, 1), (n - 2, 1, 1), (1,) * n]
    for n in range(4, 9):
        for mu in proven(n):
            G = ch.hook_formula(n, 1, mu).expansion
            for k in range(0, n):
                lhs = specialize2(restrict(e_perp(n - k - 1, G), "hooks"))
                rhs = specialize2(ch.gl2_delta_mu(n, k, mu))
                assert lhs == rhs, (n, k, mu)


def test_hrs_t0_against_hook_formula():
    for n in range(3, 9):
        table = ch.hrs_t0(n, 0)
        for mu in partitions_of(n):
            lhs = specialize2(ch.hook_formula(n, 1, mu).expansion).coefficient_of("t", 0)
            assert lhs == table.coefficient(mu), (n, mu)


def test_hrs_t0_general_k_pairing():
    for n in range(3, 8):
        for k_pieri in range(0, n):
            table = ch.hrs_t0(n, n - 1 - k_pieri)
            for mu in partitions_of(n):
                lhs = specialize2(ch.gl2_delta_mu(n, k_pieri, mu)).coefficient_of("t", 0)
                assert lhs == table.coefficient(mu), (n, k_pieri, mu)


def test_hrs_t0_bound_and_gauss_cutoff():
    with pytest.raises(ValueError, match="shape size 13 exceeds the enumeration bound 12"):
        ch.hrs_t0(13, 0)
    # [des k] = 0 when k > des kills the term: k = n-1 leaves the column only
    for n in range(3, 7):
        table = ch.hrs_t0(n, n - 1)
        assert table.support() == [(1,) * n]


def test_gl2_delta_mu_refuses_in_order(monkeypatch):
    # partition, then sum, then k range, then the size bound before any
    # conjugate: each input below breaks every later check as well
    monkeypatch.setattr(ch, "conjugate", lambda lam: pytest.fail("conjugate built"))
    monkeypatch.setattr(ch, "gl2_delta_mu_by_k", lambda n, mu: pytest.fail("kernel called"))
    for args, message in (
        ((13, 99, (3, 4)), "partition parts must weakly decrease"),
        ((13, 99, (3,)), r"mu=\(3,\) is not a partition of n=13"),
        ((13, 99, (13,)), "k=99 outside 0..12"),
        ((3, -1, (2, 1)), "k=-1 outside 0..2"),
    ):
        with pytest.raises(ValueError, match=message):
            ch.gl2_delta_mu(*args)
    monkeypatch.undo()
    monkeypatch.setattr(ch, "conjugate", lambda lam: pytest.fail("conjugate built"))
    with pytest.raises(ValueError, match="exceeds the enumeration bound 12"):
        ch.gl2_delta_mu(13, 2, (13,))


def test_hrs_t0_past_the_last_table_builds_nothing(monkeypatch):
    # every [des k]_q is 0 once k > n-1, so the wrapper answers 0 without
    # reading a table; the size bound still comes first
    monkeypatch.setattr(ch, "hrs_t0_by_k", lambda n: pytest.fail("tables built"))
    for n, k in ((5, 5), (5, 10 ** 9), (1, 1), (0, 1)):
        assert ch.hrs_t0(n, k).is_zero(), (n, k)
    with pytest.raises(ValueError, match="exceeds the enumeration bound 12"):
        ch.hrs_t0(13, 10 ** 9)
    with pytest.raises(ValueError, match="k >= 0"):
        ch.hrs_t0(10 ** 9, -1)
    monkeypatch.undo()
    assert ch.hrs_t0(0, 0) == s(()) and ch.hrs_t0(1, 0) == s((1,))
    assert len(ch.hrs_t0_by_k(0)) == len(ch.hrs_t0_by_k(1)) == 1 and len(ch.hrs_t0_by_k(6)) == 6


def test_f_one_part():
    assert ch.f_one_part(4, 1, 0) == q_power(6)
    assert ch.f_one_part(4, 1, 1) == q**5 + q**4 + q**3
    assert ch.f_one_part(4, 1, 3) == ONE
    assert ch.f_one_part(4, 2, 3) == q_power(6)
    assert ch.f_one_part(4, 1, 4) == ZERO
    assert ch.f_one_part(4, 1, -1) == ZERO
    # always a genuine polynomial
    for n in range(2, 10):
        for r in (1, 2):
            for j in range(n):
                assert all(eq >= 0 for (eq, _, _), _ in ch.f_one_part(n, r, j).items())


def test_f_one_part_matches_pieri_fingerprints():
    for n in range(2, 10):
        G = ch.alternant_formula(n, 1)
        fs = ch.one_part_fingerprints(G, n - 1)
        for j in range(n):
            expected = ch.f_one_part(n, 1, j) if j <= n - 1 else ZERO
            assert fs[j] == expected, (n, j)


def test_lift_hooks_trivial_and_frozen():
    assert ch.lift_hooks([q**3]) == q**3
    # frozen from the n=4 alternant: fingerprints against the hook target
    G = ch.alternant_formula(4, 1)
    fs = ch.one_part_fingerprints(G, 3)
    assert fs == [
        q_power(6),
        q**5 + q**4 + q**3,
        q**3 + q**2 + q,
        ONE,
    ]
    assert ch.lift_hooks(fs) == psi(G)


def test_lift_hooks_random_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 10)):
            a = rng.randint(1, 9)
            k = rng.randint(0, 9)
            terms[(a,) + (1,) * k] = terms.get((a,) + (1,) * k, 0) + rng.randint(1, 4)
        G = SchurExpansion(terms)
        depth = max(len(lam) for lam in G.support()) + 2
        assert ch.lift_hooks(ch.one_part_fingerprints(G, depth)) == psi(G)


def test_lift_hooks_from_closed_one_part_data():
    for n in range(2, 10):
        fs = [ch.f_one_part(n, 1, j) for j in range(n)]
        assert ch.lift_hooks(fs) == psi(ch.hook_formula(n, 1, (1,) * n).expansion)


def test_lift_next_column():
    hooks_only = SchurExpansion({(5, 1, 1): 1, (3,): 2, (1, 1, 1, 1): 1})
    assert ch.lift_next_column(hooks_only, 1) == ZERO

    rng = random.Random(23)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            a = rng.randint(2, 7)
            k = rng.randint(0, 5)
            terms[(a, 2) + (1,) * k] = rng.randint(1, 3)
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(1, 7)
            k = rng.randint(0, 6)
            terms[(a,) + (1,) * k] = rng.randint(1, 3)
        G = SchurExpansion(terms)
        assert ch.lift_next_column(G, 1) == psi(restrict(G, "V2"))

    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(3, 7)
            k = rng.randint(0, 4)
            terms[(a, 3) + (1,) * k] = rng.randint(1, 3)
        for _ in range(rng.randint(0, 3)):
            a = rng.randint(2, 7)
            k = rng.randint(0, 4)
            terms[(a, 2) + (1,) * k] = rng.randint(1, 3)
        G = SchurExpansion(terms)
        assert ch.lift_next_column(G, 2) == psi(restrict(G, "V3"))


@given(
    st.dictionaries(
        st.lists(st.integers(min_value=1, max_value=7), max_size=5)
        .map(lambda xs: tuple(sorted(xs, reverse=True))),
        st.integers(min_value=-9, max_value=9),
        max_size=8,
    ),
    st.integers(min_value=1, max_value=5),
)
def test_v_class_holds_every_two_row_part(terms, b):
    # so lift_next_column's 0-th datum vanishes for every G
    G = SchurExpansion(terms)
    assert first_row_fingerprint(G, (b,)) == first_row_fingerprint(restrict(G, f"V{b}"), (b,))


def test_lift_next_column_round_trip_with_two_column_output():
    for n in range(5, 8):
        G = ch.hook_formula(n, 1, (1,) * n).expansion + ch.two_column_formula(n, "path")
        assert ch.lift_next_column(G, 1) == psi(restrict(G, "V2"))


def test_alternating_identities():
    for n in range(3, 13):
        for c in range(-2, 3):
            assert ch.alternating_identity_check(n, c)


def test_default_families_meet_the_difference_and_base_conditions():
    # the two families are the only ones the identities need (see
    # _default_g): differences j + k, and base shift exactly c over
    # binom(j, 2) ("plain") or binom(j+1, 2) ("area_ht") for 1 <= j < n;
    # and g(j, k) - k = g(j, 0) - binom(j, 2) + binom(j+k, 2), on which
    # every per-j sum being one shift of T_j rests
    for variant, base in (("plain", binom2), ("area_ht", lambda j: binom2(j + 1))):
        for n in range(2, 13):
            for c in range(-2, 3):
                g = ch._default_g(variant, c)
                for j in range(n):
                    for k in range(1, n + 1):
                        assert g(j, k) - g(j, k - 1) == j + k, (variant, n, c, j, k)
                    for k in range(n - j):
                        assert g(j, k) - k == g(j, 0) - binom2(j) + binom2(j + k), (variant, n, c, j, k)
                assert {g(j, 0) - base(j) for j in range(1, n)} == {c}, (variant, n, c)


def _alt_sum(n, j, g):
    """The oracle for the j-th per-j sum, (-1)^j q^(g(j,0) - binom(j,2))
    T_j: sum_k (-1)^k [n-1 j+k]_q q^(g(j,k)-k) over k = 0..n-1-j, term by
    term."""
    return LaurentPoly.shifted_sum(
        (gauss_binomial(n - 1, j + k), -1 if k % 2 else 1, g(j, k) - k, 0, 0)
        for k in range(n - j)
    )


def _alt_sums_match_the_oracle(n, c):
    # every per-j sum alternating_identities_by_c reads is a unit times T_j,
    # built here as a product
    tails = ch._suffix_sums(n)
    assert len(tails) == n
    for variant in ("plain", "area_ht"):
        g = ch._default_g(variant, c)
        sums = [LaurentPoly.term(-1 if j % 2 else 1, g(j, 0) - binom2(j)) * tail for j, tail in enumerate(tails)]
        assert sums == [_alt_sum(n, j, g) for j in range(n)], (variant, n, c)


def test_suffix_sums_match_the_per_j_oracle():
    for n in range(2, 13):
        for c in range(-2, 3):
            _alt_sums_match_the_oracle(n, c)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=-10, max_value=10))
def test_suffix_sums_match_the_per_j_oracle_property(n, c):
    _alt_sums_match_the_oracle(n, c)


def test_suffix_sums_are_the_q_pascal_tails():
    # T_j = sum_(m >= j) (-1)^m q^binom(m,2) [n-1 m]_q; the whole sum T_0
    # is (1; q)_(n-1) = 0, and the last T_(n-1) a single signed monomial
    for n in range(2, 10):
        tails = ch._suffix_sums(n)
        assert tails[0] == ZERO
        assert tails[-1] == LaurentPoly.term(-1 if (n - 1) % 2 else 1, binom2(n - 1))


def _identity_by_oracle(n, c):
    """alternating_identity_check(n, c) with every per-j sum from _alt_sum,
    the generating function from gf_T's level walk and z -> qz by exponents."""
    gf = gf_T(n, 0)
    gf_qz = LaurentPoly({(eq + ez, et, ez): x for (eq, et, ez), x in gf.items()})
    for variant, want in (("plain", gf * q_power(c)), ("area_ht", gf_qz * q_power(c + 1))):
        g = ch._default_g(variant, c)
        sums = [_alt_sum(n, j, g) for j in range(n)]
        if any(sums[j] != gauss_binomial(n - 2, j - 1) * q_power(g(j, 0)) for j in range(n)):
            return False
        if LaurentPoly.sum(sums[j] * LaurentPoly.term(1, ez=j - 1) for j in range(1, n)) != want:
            return False
    return True


def _by_c_matches_the_oracle(n, cs):
    expected = {c: _identity_by_oracle(n, c) for c in cs}
    assert all(expected.values()), (n, cs)  # the identities hold, so the oracle is no constant False
    assert ch.alternating_identities_by_c(n, cs) == expected, (n, cs)
    for c in cs:
        assert ch.alternating_identity_check(n, c) is expected[c], (n, c)


def test_by_c_kernel_matches_the_per_j_oracle():
    for n in range(2, 13):
        _by_c_matches_the_oracle(n, range(-2, 3))


def test_a_perturbed_tail_or_gf_fails_every_c(monkeypatch):
    # the per-j collapses are checked once for every c, and each (c, family)
    # compares its z-sum with the generating function shifted in place
    cs = range(-2, 3)
    suffix_sums = ch._suffix_sums
    for n in range(3, 9):
        for j in range(n):
            def perturbed(m, j=j):
                tails = suffix_sums(m)
                tails[j] = tails[j] + LaurentPoly.term(1, j)
                return tails

            monkeypatch.setattr(ch, "_suffix_sums", perturbed)
            assert ch.alternating_identities_by_c(n, cs) == dict.fromkeys(cs, False), (n, j)
    monkeypatch.setattr(ch, "_suffix_sums", suffix_sums)
    closed = ch.gf_closed
    monkeypatch.setattr(ch, "gf_closed", lambda m, s: closed(m, s) * q)
    for n in range(3, 9):
        assert ch.alternating_identities_by_c(n, cs) == dict.fromkeys(cs, False), n


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.lists(st.integers(min_value=-10, max_value=10), min_size=1, max_size=5, unique=True),
)
def test_by_c_kernel_matches_the_per_j_oracle_property(n, cs):
    _by_c_matches_the_oracle(n, cs)


def test_nulle_identity_small_case():
    # the vanishing alternating sum at the bottom level, written out for n=3
    g = lambda j, k: binom2(j + k + 1)
    total = ZERO
    from hookpaths.qpoly import gauss_binomial

    for k in range(3):
        sign = -1 if k % 2 else 1
        total = total + sign * gauss_binomial(2, k) * q_power(g(0, k) - k)
    assert total == ZERO


def test_two_column_forms():
    assert ch.two_column_formula(4, "lifted").is_zero()
    assert ch.two_column_formula(4, "path").is_zero()
    assert ch.two_column_formula(5, "path") == s((6, 2)) + s((4, 2))
    # the enumerated path form is the oracle up to n = 12; past it the class
    # form answers to the lifted form alone
    for n in (*range(5, 10), 15, 18, 22):
        lifted = ch.two_column_formula(n, "lifted")
        path = ch.two_column_formula(n, "path")
        assert lifted == path, n
        assert all(lam[1] == 2 for lam in path.support())
    with pytest.raises(ValueError):
        ch.two_column_formula(6, "sideways")


def test_near_row_shapes_stay_short():
    # for the three widest proven shapes no index exceeds two rows, which is
    # why nothing is lost in the two-variable restriction
    for n in range(3, 10):
        for mu in ((n,), (n - 1, 1), (n - 2, 1, 1)):
            result = ch.hook_formula(n, 1, mu)
            assert all(len(lam) <= 2 for lam in result.expansion.support()), mu


# -- reference folds: the formulas as first written, building each conjugate
# tableau and adding one term at a time --------------------------------------


def reference_hook_formula(n, r, mu):
    base = (r - 1) * binom2(n)
    out = SchurExpansion.zero()
    for tau in enumerate_SYT(mu):
        conj = tau.conjugate()
        majp = conj.maj()
        for gamma in enumerate_T(n, conj.des()):
            arm = base + gamma.area() + gamma.ht() - majp + 1
            leg = n - 2 - gamma.ht()
            out = out + s(hook_index(arm, leg, "reference"))
    return out


def reference_add_shape(expansion, raw):
    shape = normalize_shape(raw)
    return expansion if shape is None else expansion + s(shape)


def reference_gl2_nabla_hooks(n, r, mu):
    out = SchurExpansion.zero()
    for tau in enumerate_SYT(mu):
        m = r * binom2(n) - tau.conjugate().maj()
        out = reference_add_shape(out, (m,))
        for i in range(2, tau.des() + 1):
            out = reference_add_shape(out, (m - i, 1))
    return out


def reference_gl2_delta_en(n, k):
    out = SchurExpansion.zero()
    for tau in enumerate_SYT((n - k,) + (1,) * k):
        m = tau.maj()
        out = reference_add_shape(out, (m,))
        for i in range(2, k + 1):
            out = reference_add_shape(out, (m - i, 1))
    return out


def reference_gl2_delta_mu(n, k, mu):
    two_row_heights = {k - 2} if k == n - 1 else {k - 2, k - 1}
    one_row_heights = {k - 1} if k == n - 1 else {k - 1, k}
    out = SchurExpansion.zero()
    for tau in enumerate_SYT(mu):
        conj = tau.conjugate()
        majp = conj.maj()
        for gamma in enumerate_T(n, conj.des()):
            h = gamma.ht()
            if h in two_row_heights:
                out = reference_add_shape(out, (k - 1 + gamma.area() - majp, 1))
            if h in one_row_heights:
                out = reference_add_shape(out, (k + gamma.area() - majp,))
    return out


def reference_alternant_formula(n, r):
    base = (r - 1) * binom2(n)
    out = SchurExpansion.zero()
    for gamma in enumerate_T(n, 0):
        ht = gamma.ht()
        out = out + s(hook_index(base + gamma.area() + ht + 1, n - 2 - ht, "reference"))
    return out


def reference_two_column_path(n):
    out = SchurExpansion.zero()
    for gamma in enumerate_T(n, 0):
        h = gamma.ht()
        if h > n - 3:
            continue
        for i in range(2, h + 1):
            if gamma.word.startswith("N") and gamma.trailing_run("N") >= i - 1:
                continue
            out = out + s(check_partition((gamma.area() + h + 1 - i, 2) + (1,) * (n - 3 - h)))
    return out


def reference_two_column_lifted(n):
    # every descent set of size n-k-1 containing 1, one at a time
    out = SchurExpansion.zero()
    for k in range(1, n - 3):
        for descents in combinations(range(1, n), n - k - 1):
            d = set(descents)
            if 1 not in d:
                continue
            for i in range(2, n - k - 1):
                if set(range(1, i + 1)) | {n - 1} <= d:
                    continue
                out = out + s(check_partition((sum(d) - i, 2) + (1,) * (k - 1)))
    return out


def reference_hrs_t0(n, k):
    out = SchurExpansion.zero()
    for mu in partitions_of(n):
        coeff = reference_hrs_t0_coefficient(n, k, mu)
        if not coeff.is_zero():
            out = out + SchurExpansion.term(mu, coeff)
    return out


def reference_hrs_t0_coefficient(n, k, mu):
    coeff = ZERO
    for tau in enumerate_SYT(mu):
        binom_factor = gauss_binomial(tau.des(), k)
        if binom_factor.is_zero():
            continue
        conj = tau.conjugate()
        expo = k * conj.des() + binom2(n - k) - conj.maj()
        coeff = coeff + q_power(expo) * binom_factor
    return coeff


# -- per-k folds: one k at a time over the same class tallies, as the formulas
# ran before their per-shape kernels -----------------------------------------


def fold_gl2_delta_mu(n, k, mu):
    two_row_heights = {k - 2} if k == n - 1 else {k - 2, k - 1}
    one_row_heights = {k - 1} if k == n - 1 else {k - 1, k}
    tally = Counter()
    for (m, start), shifts in ch._syt_families(n, mu, 0).items():
        near = {cls: c for cls, c in family_counts(m, start).items() if k - 2 <= cls[1] <= k}
        add_shifted(tally, near, shifts)
    counts = Counter()
    for (d, h), c in tally.items():
        if h in two_row_heights and k - 1 + d >= 1:
            counts[k - 1 + d, 1] += c
        if h in one_row_heights and k + d >= 0:
            counts[(k + d,) if k + d else ()] += c
    return SchurExpansion(counts)


def fold_hrs_t0(n, k):
    terms = {}
    for mu in partitions_of(n):
        coeff = {}
        for desp, majps in descent_classes(conjugate(mu)):
            des = max(n - 1, 0) - desp
            if des < k:  # [des k]_q = 0
                continue
            for majp, count in majps:
                expo = k * desp + binom2(n - k) - majp
                for (eq, et, ez), c in gauss_binomial(des, k)._terms.items():
                    key = (eq + expo, et, ez)
                    coeff[key] = coeff.get(key, 0) + count * c
        terms[mu] = LaurentPoly(coeff)
    return SchurExpansion(terms)


def test_per_shape_kernels_match_the_per_k_folds():
    for n in range(0, 11):
        for mu in partitions_of(n):
            assert ch.gl2_delta_mu_by_k(n, mu) == [fold_gl2_delta_mu(n, k, mu) for k in range(n)], mu
        assert ch.hrs_t0_by_k(n) == [fold_hrs_t0(n, k) for k in range(max(n, 1))], n


_SHAPES = st.integers(0, 8).flatmap(lambda n: st.sampled_from(list(partitions_of(n))))


@settings(max_examples=60, deadline=None)
@given(_SHAPES)
def test_delta_mu_kernel_matches_enumeration(mu):
    n = sum(mu)
    assert ch.gl2_delta_mu_by_k(n, mu) == [reference_gl2_delta_mu(n, k, mu) for k in range(n)]


@settings(max_examples=60, deadline=None)
@given(_SHAPES)
def test_t0_kernel_matches_enumeration(mu):
    n = sum(mu)
    tables = ch.hrs_t0_by_k(n)
    assert [table.coefficient(mu) for table in tables] == [
        reference_hrs_t0_coefficient(n, k, mu) for k in range(len(tables))
    ]


def test_formulas_match_reference_folds():
    for n in range(0, 8):
        for k in range(0, n + 2):
            assert ch.hrs_t0(n, k) == reference_hrs_t0(n, k), (n, k)
        for k in range(0, n):
            assert ch.gl2_delta_en(n, k) == reference_gl2_delta_en(n, k), (n, k)
        for mu in partitions_of(n):
            for k in range(0, n):
                assert ch.gl2_delta_mu(n, k, mu) == reference_gl2_delta_mu(n, k, mu)
            if is_hook(mu):
                for r in (1, 2):
                    assert ch.gl2_nabla_hooks(n, r, mu) == reference_gl2_nabla_hooks(n, r, mu)
            if n >= 2:
                for r in (1, 2):
                    assert ch.hook_formula(n, r, mu).expansion == reference_hook_formula(n, r, mu)


def test_single_family_formulas_match_reference_folds():
    for n in range(2, 13):
        for r in (1, 2):
            assert ch.alternant_formula(n, r) == reference_alternant_formula(n, r), (n, r)
        assert ch.two_column_formula(n, "path") == reference_two_column_path(n), n


def test_lifted_two_column_matches_descent_set_enumeration():
    for n in range(2, 15):
        assert ch.two_column_formula(n, "lifted") == reference_two_column_lifted(n), n


def test_hook_index_guard_names_context():
    with pytest.raises(ValueError, match="somewhere"):
        hook_index(-1, 0, "somewhere")
    with pytest.raises(ValueError):
        hook_index(0, 2, "zero arm with legs")
    with pytest.raises(ValueError, match="for NE$"):
        hook_index(-2, 1, LatticePath(4, 0, "NE"))  # context formatted on raise
    assert hook_index(0, 0, "unit") == ()
    assert hook_index(0, 0) == ()
    assert hook_index(3, 2) == (3, 1, 1) == make_hook(3, 2)
    assert hook_index(1, 0) == (1,)
    # the hook a path labels: arm a + ht + 1, leg n - 2 - ht
    assert path_hook(6, 1, 2) == (4, 1, 1) == hook_index(4, 2)
    assert path_hook(4, -3, 2) == ()
    with pytest.raises(ValueError, match="for n=6$"):
        path_hook(6, -5, 2, "n=6")
    with pytest.raises(ValueError, match="for NE$"):
        path_hook(4, -4, 1, LatticePath(4, 0, "NE"))  # context formatted on raise


def test_hook_formula_reproduces_whole_fixture_table():
    # at n = 4 every index is a hook, so the hooks-component is the whole
    # stored character and even the conjectural shapes land exactly on it
    from hookpaths.fixtures import load_fixture

    table = load_fixture()
    for mu, expected in table.items():
        assert ch.hook_formula(4, 1, mu).expansion == expected, mu


def test_trusted_expansions_match_the_checked_constructor(monkeypatch):
    # every map tally_hooks, gl2_delta_mu and e_perp hand to _trusted for
    # n <= 8 builds the same expansion through __init__
    trusted = SchurExpansion._trusted
    handed = []

    def recording(terms):
        handed.append(dict(terms))
        return trusted(terms)

    monkeypatch.setattr(SchurExpansion, "_trusted", recording)
    for n in range(2, 9):
        for mu in partitions_of(n):
            expansion = ch.hook_formula(n, 1, mu).expansion
            for k in range(0, n):
                ch.gl2_delta_mu(n, k, mu)
                e_perp(k + 1, expansion)
    assert len(handed) > 500
    for terms in handed:
        assert trusted(terms) == SchurExpansion(terms)
