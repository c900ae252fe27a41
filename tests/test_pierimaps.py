import math
from collections import Counter
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hookpaths import characters as ch
from hookpaths import pierimaps as pm
from hookpaths.paths import LatticePath, enumerate_T, filter_paths
from hookpaths.pierimaps import minus_domain, plus_domain
from hookpaths.schur import SchurExpansion, e_perp
from hookpaths.shapes import hook_index, hook_tableau_from_descents

s = SchurExpansion.term


def test_path_stats():
    stats = pm.path_stats(LatticePath(10, 0, "NENEENEE"))
    assert stats.p == (1, 2, 2, 3, 3)
    assert stats.h == 0
    assert stats.n_steps == (0, 1, 3)
    all_east = pm.path_stats(LatticePath(7, 0, "EEEEE"))
    assert all_east.p == (0, 0, 0, 0, 0)
    assert all_east.h == 5
    assert all_east.n_steps == ()
    assert pm.path_stats(LatticePath(7, 0, "ENNEN")).n_steps == (1, 1, 2)
    assert pm.path_stats(LatticePath(7, 0, "ENNEN")).h == 1


def test_tagged_paths_are_values():
    a = pm.TaggedPath(frozenset({2}), LatticePath(5, 1, "EN"))
    b = pm.TaggedPath(frozenset({2}), LatticePath(5, 1, "EN"))
    c = pm.TaggedPath(frozenset({3}), LatticePath(5, 1, "EN"))
    d = pm.TaggedPath(frozenset({2}), LatticePath(5, 1, "NE"))
    assert a == b and hash(a) == hash(b) and a != c and a != d
    assert {a, b, c, d} == {a, c, d} and len({a, b, c, d}) == 3
    assert a != (a.descents, a.path)
    assert repr(a) == "TaggedPath(descents=frozenset({2}), path=LatticePath(n=5, s=1, EN))"
    with pytest.raises(AttributeError):
        a.descents = frozenset({3})
    with pytest.raises(AttributeError):
        del a.path
    assert a.descents == frozenset({2})


def test_path_stats_and_pieri_sets_are_plain_bundles():
    stats = pm.PathStats((1, 0), 0, ())
    assert (stats.p, stats.h, stats.n_steps) == ((1, 0), 0, ())
    sets = pm.PieriSets(frozenset({1}), frozenset({2}), frozenset({3}), frozenset())
    assert (sets.tplus, sets.tminus, sets.v, sets.w) == tuple(map(frozenset, ({1}, {2}, {3}, ())))
    with pytest.raises(AttributeError):
        stats.h = 1


def test_a_wrapped_tagged_path_init_sees_every_build(monkeypatch):
    # the benchmark's tracer counts tagged paths by wrapping the
    # constructor found in the class's own namespace
    built = []
    init = pm.TaggedPath.__dict__["__init__"]

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(pm.TaggedPath, "__init__", counting_init)
    sets = pm.build_sets(6, 2)
    assert len(built) == len(sets.tplus) + len(sets.tminus) == math.comb(5, 2) * 4


def test_e_plus_figure_example():
    gamma = LatticePath(10, 0, "NENEENEE")
    tagged = pm.e_plus_map(2, gamma)
    assert sorted(tagged.descents) == [6, 8]
    assert tagged.path.word == "NNENEE"
    assert tagged.path.s == 2


def test_e_minus_figure_example():
    gamma = LatticePath(10, 0, "NENEENEE")
    tagged = pm.e_minus_map(2, gamma)
    assert sorted(tagged.descents) == [1, 8]
    assert tagged.path.word == "NEENEE"
    assert tagged.path.s == 2


def test_e_plus_k0_is_identity_tagging():
    for gamma in enumerate_T(6, 0):
        tagged = pm.e_plus_map(0, gamma)
        assert tagged.descents == frozenset()
        assert tagged.tableau.shape == (1,) * 6
        assert tagged.path == gamma


def test_e_plus_hook_law():
    for n in range(3, 11):
        for k in range(0, n - 1):
            for gamma in enumerate_T(n, 0):
                if not plus_domain(k, gamma):
                    continue
                want = (gamma.area() + gamma.ht() + 1,) + (1,) * (
                    n - 2 - gamma.ht() - k
                )
                assert pm.hook_of(pm.e_plus_map(k, gamma)) == want


def test_e_minus_hook_law_and_east_start_branch():
    for n in range(3, 11):
        for k in range(1, n - 1):
            for gamma in enumerate_T(n, 0):
                if not minus_domain(k, gamma):
                    continue
                tagged = pm.e_minus_map(k, gamma)
                arm = gamma.area() + gamma.ht()
                leg = n - 1 - gamma.ht() - k
                want = (arm,) + (1,) * leg if arm else ()
                assert pm.hook_of(tagged) == want
                h = gamma.leading_run("E")
                if h > k - 1:
                    assert h - k + 2 in tagged.descents


def _defined(pieri_map, k, path):
    try:
        pieri_map(k, path)
    except ValueError:
        return False
    return True


def test_domain_predicates_match_the_maps():
    for n in range(2, 10):
        for gamma in enumerate_T(n, 0):
            for k in range(0, n - 1):
                assert plus_domain(k, gamma) == _defined(pm.e_plus_map, k, gamma), (k, gamma)
            for k in range(1, n - 1):
                assert minus_domain(k, gamma) == _defined(pm.e_minus_map, k, gamma), (k, gamma)
    assert not minus_domain(0, LatticePath(6, 0, "NNEE"))  # the minus map needs k >= 1


def test_map_domain_errors():
    with pytest.raises(ValueError):
        pm.e_plus_map(3, LatticePath(6, 0, "NNNE"))  # too few easts
    with pytest.raises(ValueError):
        pm.e_minus_map(1, LatticePath(6, 0, "EEEE"))  # all-east excluded
    with pytest.raises(ValueError):
        pm.e_minus_map(0, LatticePath(6, 0, "NNEE"))
    with pytest.raises(ValueError):
        pm.e_plus_map(1, LatticePath(6, 2, "NE"))  # wrong start height
    with pytest.raises(ValueError):
        pm._tag(5, {5}, "")  # descents outside 1..n-1


def test_build_sets_structure():
    for n in range(3, 10):
        for k in range(0, n - 1):
            sets = pm.build_sets(n, k)
            assert not (sets.tplus & sets.tminus)
            assert sets.v <= sets.tminus
            assert sets.w == sets.tminus - sets.v
            total = len(sets.tplus) + len(sets.tminus)
            assert total == math.comb(n - 1, k) * 2 ** (n - k - 2)
            if n <= 7:
                for tp in sets.tplus | sets.tminus:
                    tableau = tp.tableau
                    assert tableau.shape == (k + 1,) + (1,) * (n - k - 1)
                    assert tableau.conjugate().descent_set() == tp.descents
    # the top k leaves no gap
    for n in range(3, 11):
        assert not pm.build_sets(n, n - 2).w


def test_build_sets_small_case_by_hand():
    # n=5, k=1: conjugate descent sets {m}; the gap holds NE at m=2, EN at m=3
    sets = pm.build_sets(5, 1)
    w_items = {
        (tuple(sorted(tp.descents)), tp.path.word) for tp in sets.w
    }
    assert w_items == {((2,), "NE"), ((3,), "EN")}
    assert pm.hook_sum(sets.w) == s((6, 1)) + s((4, 1))


def tagged_tally(tagged_paths):
    """(area - maj', ht) -> number of tagged paths, read path by path."""
    return Counter((tp.path.area() - sum(tp.descents), tp.path.ht()) for tp in tagged_paths)


def test_tallies_and_built_sets_match_the_oracle():
    for n in range(2, 11):
        for k in range(0, n - 1):
            sets = pm.build_sets(n, k)
            tallies = pm.pieri_tallies(n, k)
            assert tallies["tplus"] == tagged_tally(sets.tplus), (n, k)
            assert tallies["tminus"] == tagged_tally(sets.tminus), (n, k)
            assert tallies["v"] == tagged_tally(sets.v), (n, k)
            assert tallies["w"] == tagged_tally(sets.w), (n, k)
            assert tallies["v_plus"] == tagged_tally(sets.v & sets.tplus) == Counter(), (n, k)
            assert pm.plus_set(n, k) == sets.tplus, (n, k)
            assert pm.v_set(n, k) == sets.v, (n, k)


def test_thresholds_by_hand():
    # n=5: the k=1 families have 2 steps; T+ needs a north run of 4 - min(d)
    assert pm.thresholds(5, (1,)) == (3, 0, math.inf)
    assert pm.thresholds(5, (3,)) == (1, math.inf, 2)
    assert pm.thresholds(5, ()) == (0, math.inf, math.inf)
    assert pm.thresholds(5, (1, 3)) == (2, 0, math.inf)
    assert pm.thresholds(5, (2, 4)) == (1, math.inf, 1)
    assert pm.thresholds(5, (2, 3)) == (1, math.inf, math.inf)


def _lowered_plus(n, combo, thresholds=pm.thresholds):
    plus_north, v_north, v_east = thresholds(n, combo)
    return max(plus_north - 1, 0), v_north, v_east


# memberships where V meets T+: T+ one leading north step short, and T+ the
# north-start paths with V those that start NN
@pytest.mark.parametrize(
    "membership", [_lowered_plus, lambda n, combo: (1, 2, math.inf)], ids=["plus-short", "north-starts"]
)
def test_tallies_follow_the_oracle_where_v_meets_tplus(monkeypatch, membership):
    # W is still T- \ V, which the tally of T- less the tally of V is not
    monkeypatch.setattr(pm, "thresholds", membership)
    for n in range(3, 9):
        for k in range(1, n - 1):
            sets = pm.build_sets(n, k)
            tallies = pm.pieri_tallies(n, k)
            assert tallies["v_plus"] == tagged_tally(sets.v & sets.tplus), (n, k)
            assert tallies["tminus"] == tagged_tally(sets.tminus), (n, k)
            assert tallies["v"] == tagged_tally(sets.v), (n, k)
            assert tallies["w"] == tagged_tally(sets.w), (n, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=11).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n - 2))
))
def test_tallies_match_the_built_sets_property(nk):
    n, k = nk
    tallies = pm.pieri_tallies(n, k)
    assert tallies["tplus"] == tagged_tally(pm.plus_set(n, k))
    assert tallies["v"] == tagged_tally(pm.v_set(n, k))
    assert not tallies["v_plus"]
    assert tallies["tminus"] == tallies["v"] + tallies["w"]


def test_tallies_past_the_oracle():
    for n in range(12, 19):
        for k in range(0, n - 1):
            tallies = pm.pieri_tallies(n, k)
            size = {name: sum(tally.values()) for name, tally in tallies.items()}
            # T+ and V are the images of the plus and minus domains
            assert size["tplus"] == sum(math.comb(n - 2, e) for e in range(k, n - 1)), (n, k)
            minus = sum(math.comb(n - 2, e) for e in range(k - 1, n - 2)) if k else 0
            assert size["v"] == minus, (n, k)
            assert size["tplus"] + size["tminus"] == math.comb(n - 1, k) * 2 ** (n - k - 2)
            assert not tallies["v_plus"], (n, k)
        assert not pm.pieri_tallies(n, n - 2)["w"], n


def test_bijectivity_onto_plus_and_v():
    for n in range(3, 10):
        for k in range(0, n - 1):
            sets = pm.build_sets(n, k)
            family = enumerate_T(n, 0)
            domain_plus = [g for g in family if plus_domain(k, g)]
            image_plus = {pm.e_plus_map(k, g) for g in domain_plus}
            assert len(image_plus) == len(domain_plus)
            assert image_plus == set(sets.tplus)
            if k >= 1:
                domain_minus = [g for g in family if minus_domain(k, g)]
                image_minus = {pm.e_minus_map(k, g) for g in domain_minus}
                assert len(image_minus) == len(domain_minus)
                assert image_minus == set(sets.v)


def test_perp_via_paths_equals_operator():
    for n in range(3, 10):
        alternant = ch.alternant_formula(n, 1)
        for k in range(0, n - 1):
            assert pm.perp_via_paths(n, k) == e_perp(k, alternant), (n, k)


def test_perp_k0_is_alternant():
    for n in range(3, 9):
        assert pm.perp_via_paths(n, 0) == ch.alternant_formula(n, 1)


def test_schur_positive_gap():
    for n in range(3, 10):
        for k in range(0, n - 1):
            sets = pm.build_sets(n, k)
            gap = pm.hook_sum(sets.tplus | sets.tminus) - (
                pm.hook_sum(sets.tplus) + pm.hook_sum(sets.v)
            )
            assert gap.is_schur_positive(), (n, k)
            assert gap == pm.hook_sum(sets.w)


def test_difference_direct_equals_set_difference():
    for n in range(3, 10):
        for k in range(1, n - 1):
            sets = pm.build_sets(n, k)
            direct = pm.difference_W(n, k, "direct")
            assert direct == pm.hook_sum(sets.tminus) - pm.hook_sum(sets.v)
    for n in range(3, 11):
        assert pm.difference_W(n, n - 2, "direct").is_zero()


def test_difference_display_agreement():
    # the printed display, with its Des(tau) conditions complemented onto
    # the conjugate, reproduces the direct sum; the literal reading does not
    for n in range(3, 9):
        for k in range(1, n - 1):
            report = pm.compare_difference(n, k)
            assert report["agree_conjugate"], (n, k)
            if k == 1:
                assert report["agree_k1"], n
    assert not pm.compare_difference(5, 1)["agree_literal"]


# The re-indexed W displays as first written: one path at a time, read
# through area() and ht().


def reference_family_hooks(n, m, start, shift):
    out = SchurExpansion.zero()
    for gamma in enumerate_T(m, start):
        ht = gamma.ht()
        out = out + s(hook_index(gamma.area() + ht + 1 + shift, n - 2 - ht, "reference"))
    return out


def reference_reindexed_W(n, k, reading):
    out = SchurExpansion.zero()
    for combo in combinations(range(1, n), k):
        d = frozenset(combo)
        majp, min_d = sum(d), min(d)
        first_two = (1 not in d) if reading == "conjugate" else (1 in d)
        if first_two:
            if min_d < n - k:
                for r in range(1, min_d - 1):
                    out = out + reference_family_hooks(n, n - r, k + 1, k * r - majp)
                for j in range(1, n - k - min_d):
                    out = out + reference_family_hooks(n, n - 1, j + k, j + k - majp)
            if not set(range(n - k + 1, n)) <= d:
                for r in range(min_d - 1, n - k - 1):
                    out = out + reference_family_hooks(n, n - r, k + 1, k * r - majp)
        elif d - {1}:
            for j in range(0, n - k - min(d - {1})):
                out = out + reference_family_hooks(n, n - 1, k + j, j + k - majp)
    return out


def reference_k1_W(n):
    out = SchurExpansion.zero()
    for m in range(2, n - 1):
        for r in range(1, m - 1):
            out = out + reference_family_hooks(n, n - r, 2, r - m)
        for j in range(1, n - 1 - m):
            out = out + reference_family_hooks(n, n - 1, j + 1, j + 1 - m)
    return out


def test_difference_forms_match_reference_folds():
    for n in range(3, 10):
        for k in range(1, n - 1):
            for reading in ("conjugate", "literal"):
                expected = reference_reindexed_W(n, k, reading)
                assert pm.difference_W(n, k, "reindexed", reading) == expected, (n, k, reading)
        assert pm.difference_W(n, 1, "k1") == reference_k1_W(n), n


def test_difference_validation():
    with pytest.raises(ValueError):
        pm.difference_W(6, 0, "direct")
    with pytest.raises(ValueError):
        pm.difference_W(6, 2, "k1")
    with pytest.raises(ValueError):
        pm.difference_W(6, 1, "upside-down")
    # the reading is checked whichever form is asked for
    for form in ("direct", "k1", "reindexed"):
        with pytest.raises(ValueError, match="unknown reading 'bogus'"):
            pm.difference_W(5, 1, form, "bogus")


# The tableau-valued bijections as first written, kept as references for the
# descent-set forms: each builds or reads a hook tableau of shape
# (k+1, 1^(n-k-1)).


def ref_path_from_east_counts(n, east_counts, total_easts):
    word = []
    prev = 0
    for count in east_counts:
        assert count >= prev
        word.append("E" * (count - prev) + "N")
        prev = count
    assert prev <= total_easts
    return LatticePath(n, 0, "".join(word) + "E" * (total_easts - prev))


def ref_phi_map(k, path):
    n = path.n
    stats = pm.path_stats(path)
    descents = {n - i - stats.n_steps[i - 1] + 1 for i in range(1, path.ht() + 1)}
    return hook_tableau_from_descents(descents | {1, 2}, n)


def ref_phi_inverse(k, tableau):
    n = tableau.n
    assert tableau.shape == (k + 1,) + (1,) * (n - k - 1)
    created = sorted(tableau.descent_set() - {1, 2}, reverse=True)
    return ref_path_from_east_counts(
        n, [n - i - d + 1 for i, d in enumerate(created, start=1)], k + 1
    )


def ref_omega_map(k, j, path):
    n = path.n
    stats = pm.path_stats(path)
    descents = {n - i - stats.n_steps[i - 1] for i in range(1, path.ht() + 1)}
    assert j + 2 not in descents
    return hook_tableau_from_descents(descents | {1, j + 2}, n)


def ref_omega_inverse(k, j, tableau):
    n = tableau.n
    assert tableau.shape == (k + 1,) + (1,) * (n - k - 1)
    created = sorted(tableau.descent_set() - {1, j + 2}, reverse=True)
    return ref_path_from_east_counts(
        n, [n - i - d for i, d in enumerate(created, start=1)], k + 1
    )


def ref_beta_map(d, tableau):
    n = tableau.n
    assert tableau.shape == (d + 1,) + (1,) * (n - d - 1)
    rs = sorted(tableau.descent_set() - {1}, reverse=True)
    return ref_path_from_east_counts(n, [n - i - r for i, r in enumerate(rs, start=1)], d)


def ref_beta_inverse(d, path):
    n = path.n
    stats = pm.path_stats(path)
    row_areas = [n - 1 - i - stats.n_steps[i - 1] for i in range(1, path.ht() + 1)]
    return hook_tableau_from_descents({a + 1 for a in row_areas} | {1}, n)


def test_phi_figure_example_and_statistic():
    gamma = LatticePath(7, 0, "ENNEN")
    des = pm.phi_map(1, gamma)
    assert sorted(des) == [1, 2, 3, 5, 6]
    assert gamma.area() + gamma.ht() + 1 == 12 == sum(des) - len(des)
    assert pm.phi_inverse(1, 7, des) == gamma


def test_omega_figure_example_and_statistic():
    gamma = LatticePath(7, 0, "NNEEN")
    des = pm.omega_map(1, 1, gamma)
    assert sorted(des) == [1, 2, 3, 5, 6]
    assert gamma.area() + gamma.ht() + 1 == sum(des) - 3
    assert pm.omega_inverse(1, 1, 7, des) == gamma


def test_beta_figure_example_and_statistic():
    des = frozenset({1, 2, 4, 5})
    gamma = pm.beta_map(2, 7, des)
    assert gamma.word == "ENNEN"
    assert sum(des) == 12 == gamma.area() + gamma.ht() + 1
    assert pm.beta_inverse(2, gamma) == des


def test_descent_encoding_round_trip():
    # one rule, both shifts: the bijections' inverse undoes their encoding
    for n in range(2, 10):
        for gamma in enumerate_T(n, 0):
            counts = pm.path_stats(gamma).n_steps
            for shift in (0, 1):
                descents = pm._row_descents(n, counts, shift)
                assert len(descents) == len(counts)
                assert pm._path_from_descents(n, descents, shift, gamma.east_count()) == gamma


def test_phi_round_trip_exhaustive():
    for n in range(4, 11):
        for k in range(0, n - 2):
            for gamma in filter_paths(n, 0, "height_eq", h=n - k - 3):
                if not gamma.word.startswith("E"):
                    continue
                des = pm.phi_map(k, gamma)
                tab = ref_phi_map(k, gamma)
                assert des == tab.descent_set() and {1, 2} <= des
                assert pm.phi_inverse(k, n, des) == gamma == ref_phi_inverse(k, tab)
                assert gamma.area() + gamma.ht() + 1 == sum(des) - len(des)


def test_omega_round_trip_exhaustive():
    for n in range(4, 11):
        for k in range(0, n - 2):
            h = n - k - 3
            for j in range(0, h):
                for gamma in filter_paths(
                    n, 0, "starts_north_ends_exact_norths", j=j
                ):
                    if gamma.ht() != h:
                        continue
                    des = pm.omega_map(k, j, gamma)
                    tab = ref_omega_map(k, j, gamma)
                    assert des == tab.descent_set()
                    assert set(range(1, j + 3)) | {n - 1} <= des
                    assert pm.omega_inverse(k, j, n, des) == gamma == ref_omega_inverse(k, j, tab)
                    assert gamma.area() + gamma.ht() + 1 == sum(des) - (j + 2)


def test_beta_round_trip_exhaustive():
    for n in range(3, 11):
        for d in range(0, n - 1):
            size = n - d - 1
            count = 0
            for subset in combinations(range(1, n), size):
                if 1 not in subset:
                    continue
                des = frozenset(subset)
                gamma = pm.beta_map(d, n, des)
                assert gamma == ref_beta_map(d, hook_tableau_from_descents(des, n))
                assert gamma.ht() == n - d - 2
                assert pm.beta_inverse(d, gamma) == des == ref_beta_inverse(d, gamma).descent_set()
                assert sum(des) == gamma.area() + gamma.ht() + 1
                count += 1
            assert count == math.comb(n - 2, n - d - 2)


def test_bijection_domain_errors():
    with pytest.raises(ValueError):
        pm.phi_map(1, LatticePath(7, 0, "NENEN"))  # starts north
    with pytest.raises(ValueError):
        pm.omega_map(1, 0, LatticePath(7, 0, "ENNEN"))  # starts east
    with pytest.raises(ValueError):
        pm.omega_map(1, 2, LatticePath(7, 0, "NNEEN"))  # trailing run is 1
    with pytest.raises(ValueError):
        pm.beta_map(2, 7, {2, 4, 5, 6})  # 1 not a descent
    # shape (k+1, 1^(n-k-1)) at n = 7: k = 1 needs 5 descents, k = 2 needs 4
    for inverse, size in (
        (partial(pm.phi_inverse, 1), 5),
        (partial(pm.omega_inverse, 1, 1), 5),
        (partial(pm.beta_map, 2), 4),
    ):
        with pytest.raises(ValueError, match=f"needs {size} descents, got {size - 1}"):
            inverse(7, set(range(1, size)))
        with pytest.raises(ValueError, match=r"must lie in 1\.\.6"):
            inverse(7, set(range(1, size)) | {7})
