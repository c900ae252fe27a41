import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from hookpaths import characters as ch
from hookpaths.paths import LatticePath, binom2, enumerate_T, path_hook
from hookpaths.qpoly import ONE, ZERO, gauss_binomial, q, q_power
from hookpaths.schur import SchurExpansion, e_perp, first_row_fingerprint, psi, restrict, specialize2
from hookpaths.shapes import (
    check_partition,
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


def test_hook_formula_validation():
    with pytest.raises(ValueError):
        ch.hook_formula(4, 1, (3, 2))  # not a partition of 4
    with pytest.raises(ValueError):
        ch.hook_formula(4, 0, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        ch.hook_formula(1, 1, (1,))


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
            lhs = specialize2(ch.hook_formula(n, 1, mu).expansion).at_zero("t")
            assert lhs == table.coefficient(mu), (n, mu)


def test_hrs_t0_general_k_pairing():
    for n in range(3, 8):
        for k_pieri in range(0, n):
            table = ch.hrs_t0(n, n - 1 - k_pieri)
            for mu in partitions_of(n):
                lhs = specialize2(ch.gl2_delta_mu(n, k_pieri, mu)).at_zero("t")
                assert lhs == table.coefficient(mu), (n, k_pieri, mu)


def test_hrs_t0_bound_and_gauss_cutoff():
    with pytest.raises(ValueError):
        ch.hrs_t0(10, 0)
    # [des k] = 0 when k > des kills the term: k = n-1 leaves the column only
    for n in range(3, 7):
        table = ch.hrs_t0(n, n - 1)
        assert table.support() == [(1,) * n]


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
                assert ch.f_one_part(n, r, j).min_deg("q") >= 0


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
    # binom(j, 2) ("plain") or binom(j+1, 2) ("area_ht") for 1 <= j < n
    for variant, base in (("plain", binom2), ("area_ht", lambda j: binom2(j + 1))):
        for n in range(2, 13):
            for c in range(-2, 3):
                g = ch._default_g(variant, c)
                for j in range(n):
                    for k in range(1, n + 1):
                        assert g(j, k) - g(j, k - 1) == j + k, (variant, n, c, j, k)
                assert {g(j, 0) - base(j) for j in range(1, n)} == {c}, (variant, n, c)


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
    for n in range(5, 10):
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
        coeff = ZERO
        for tau in enumerate_SYT(mu):
            binom_factor = gauss_binomial(tau.des(), k)
            if binom_factor.is_zero():
                continue
            conj = tau.conjugate()
            expo = k * conj.des() + binom2(n - k) - conj.maj()
            coeff = coeff + q_power(expo) * binom_factor
        if not coeff.is_zero():
            out = out + SchurExpansion.term(mu, coeff)
    return out


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
