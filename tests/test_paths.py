import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hookpaths import paths
from hookpaths.paths import (
    PATH_STEP_BOUND,
    LatticePath,
    binom2,
    clamp_start,
    enumerate_T,
    family_counts,
    filter_paths,
    gf_T,
    gf_closed,
    hat_gf,
    leading_run_counts,
    words_T,
)
from hookpaths.qpoly import LaurentPoly, ONE, ZERO, q, q_pochhammer, q_power, z


def walk_stats(n, s):
    """(area, ht) of every word of the (n, s) family, off the word walk."""
    return [(area, ht) for _, area, ht in words_T(n, s)]


def test_enumerate_conventions():
    words = {p.word for p in enumerate_T(4, 0)}
    assert words == {"NN", "NE", "EN", "EE"}
    for n in range(2, 8):
        eps = enumerate_T(n, n - 2)
        assert len(eps) == 1 and eps[0].word == ""
        # start heights past the staircase clamp down to the empty word
        assert enumerate_T(n, n + 3) == eps
    assert enumerate_T(1, 0) == []
    assert enumerate_T(0, 5) == []
    assert len(enumerate_T(7, 2)) == 8


def test_empty_word_statistics():
    for n in range(2, 9):
        eps = enumerate_T(n, n - 2)[0]
        assert eps.area() == binom2(n - 1)
        assert eps.ht() == n - 2
        assert str(eps) == "eps"


def test_figure_statistics():
    gamma = LatticePath(7, 2, "NEN")
    assert gamma.area() == 13
    assert gamma.ht() == 4
    stats = {p.word: (p.area(), p.ht()) for p in enumerate_T(4, 0)}
    assert stats == {"NN": (3, 2), "NE": (2, 1), "EN": (1, 1), "EE": (0, 0)}


def test_path_validation():
    with pytest.raises(ValueError):
        LatticePath(4, 0, "N")  # wrong length
    with pytest.raises(ValueError):
        LatticePath(4, 0, "NX")
    with pytest.raises(ValueError):
        LatticePath(4, 5, "")
    assert LatticePath.parse(4, 9, "eps").s == 2
    assert clamp_start(6, 9) == 4


def test_paths_from_different_grids_never_compare_equal():
    a = LatticePath(5, 0, "NEN")
    b = LatticePath(6, 1, "NEN")
    assert a != b


def test_enumerate_T_matches_validated_rebuild():
    for n in range(0, 13):
        for s in range(0, n + 1):
            for p in enumerate_T(n, s):
                rebuilt = LatticePath(p.n, p.s, p.word)
                assert rebuilt == p and rebuilt.s == clamp_start(n, s)


def test_walk_matches_per_word_statistics():
    # area() and ht() are the definition; the walk must agree word by word
    for n in range(0, 15):
        for s in range(0, n + 1):
            assert walk_stats(n, s) == [(p.area(), p.ht()) for p in enumerate_T(n, s)], (n, s)


@pytest.mark.parametrize("depth", [1, 3, paths.WALK_BLOCK_STEPS])
def test_word_walk_matches_the_oracle(monkeypatch, depth):
    # every family up to n = 14, so past L = depth + 1 for the default depth,
    # against the enumerated words and area()/ht(); n < 2 and clamped start
    # heights included
    monkeypatch.setattr(paths, "WALK_BLOCK_STEPS", depth)
    for n in range(-1, 15):
        for s in range(0, n + 2):
            oracle = [(p.word, p.area(), p.ht()) for p in enumerate_T(n, s)]
            assert list(words_T(n, s)) == oracle, (n, s, depth)


# at n = 18, s = 0 the per-word oracle alone walks 2^16 words, which can
# outlast hypothesis's default 200 ms deadline
@settings(deadline=None)
@given(st.integers(min_value=0, max_value=18), st.integers(min_value=0, max_value=20))
def test_walk_matches_per_word_statistics_property(n, s):
    assert walk_stats(n, s) == [(p.area(), p.ht()) for p in enumerate_T(n, s)]


def test_family_counts_match_the_walk():
    # the level DP against the per-word walk, and against area()/ht()
    for n in range(0, 15):
        for s in range(0, n + 1):
            counts = family_counts(n, s)
            assert counts == Counter(walk_stats(n, s)), (n, s)
            length = max(n - clamp_start(n, s) - 2, 0)
            assert len(counts) <= (length + 1) * (binom2(length + 1) + 1)
    for n in range(0, 11):
        for s in range(0, n + 1):
            per_word = Counter((p.area(), p.ht()) for p in enumerate_T(n, s))
            assert family_counts(n, s) == per_word, (n, s)


# at n = 16 the walk visits 2^14 words per example
@settings(deadline=None)
@given(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=18))
def test_family_counts_match_the_walk_property(n, s):
    assert family_counts(n, s) == Counter(walk_stats(n, s))


def test_family_counts_conventions_and_refusal(monkeypatch):
    assert family_counts(1, 0) == {} and family_counts(0, 3) == {}
    assert family_counts(6, 9) == {(binom2(5), 4): 1}  # the empty word
    with pytest.raises(ValueError, match="start height must be nonnegative"):
        family_counts(5, -1)
    monkeypatch.setattr(paths, "PATH_STEP_BOUND", 4)
    with pytest.raises(ValueError) as exc:
        family_counts(7, 0)
    assert str(exc.value) == (
        "the (n=7, s=0) family has 2^5 paths, past the enumeration bound of 2^4"
    )
    assert sum(family_counts(7, 1).values()) == 16


def extend_oracle(n, s):
    """family_counts(n, s) off the class step _extend, from the start class."""
    grid = paths._family_grid(n, s)
    if grid is None:
        return {}
    s, length, area = grid
    return paths._extend({(area, s): 1}, range(length, 0, -1))


def test_packed_family_counts_match_the_class_step():
    for n in range(0, 23):
        for s in range(0, n + 1):
            assert family_counts(n, s) == extend_oracle(n, s), (n, s)


def test_packed_digits_read_the_same_from_either_end():
    # digits j*W + a and (L-j)*W + (W-1-a) count the same words with N and E
    # swapped, so the packed digits need no care for the byte order
    for length in range(0, 21):
        top = binom2(length + 1)
        counts = family_counts(length + 2, 0)
        assert all(counts[top - a, length - j] == c for (a, j), c in counts.items())


def test_packed_family_counts_hold_their_digits_or_refuse(monkeypatch):
    # the longest family whose classes are sure to fit 64-bit digits (each
    # holds fewer than 2^L words), and the first past that: refused, never
    # read off digits that might have carried
    monkeypatch.setattr(paths, "PATH_STEP_BOUND", 64)
    counts = family_counts(65, 0)
    assert counts == extend_oracle(65, 0)
    assert max(counts.values()) > 2 ** 32  # past what 32-bit digits hold
    assert sum(counts.values()) == 2 ** 63
    with pytest.raises(ValueError) as exc:
        family_counts(66, 0)
    assert str(exc.value) == (
        "the (n=66, s=0) family has 64 steps, past the 63 that family_counts' "
        "64-bit class counts hold"
    )


def test_leading_run_counts_match_the_walk():
    # each start class against the per-word walk, labelled by its words' runs
    for n in range(0, 13):
        for s in range(0, n + 1):
            expected = {}
            for path, stats in zip(enumerate_T(n, s), walk_stats(n, s)):
                runs = path.leading_run("N"), path.leading_run("E")
                expected.setdefault(runs, Counter())[stats] += 1
            assert leading_run_counts(n, s) == expected, (n, s)


def test_leading_run_counts_conventions_and_refusal(monkeypatch):
    assert leading_run_counts(1, 0) == {}
    assert leading_run_counts(6, 9) == {(0, 0): {(binom2(5), 4): 1}}  # the empty word
    with pytest.raises(ValueError, match="start height must be nonnegative"):
        leading_run_counts(5, -1)
    monkeypatch.setattr(paths, "PATH_STEP_BOUND", 4)
    with pytest.raises(ValueError, match="past the enumeration bound of 2"):
        leading_run_counts(7, 0)


def fold_family_tally(families):
    """family_tally as one fold per family: its class counts, shifted."""
    tally = Counter()
    for (m, s), shifts in families.items():
        paths.add_shifted(tally, family_counts(m, s), shifts)
    return tally


_FAMILIES = st.dictionaries(
    # sizes below 2, start heights past the staircase, negative shifts
    st.tuples(st.integers(0, 11), st.integers(0, 12)),
    st.dictionaries(st.integers(-30, 30), st.integers(1, 5), min_size=1, max_size=4),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(_FAMILIES)
def test_family_tally_matches_the_per_family_fold(families):
    assert paths.family_tally(families) == fold_family_tally(families)


def test_family_tally_walks_each_size_apart():
    # the families of two sizes share heights and gains; a walk that carried
    # one size's level into the next would count T(6, 0)'s paths again at m = 5
    for families in (
        {(6, 0): {0: 1}, (5, 0): {0: 1}},
        {(5, 1): {-3: 2}, (8, 0): {1: 1}, (8, 3): {0: 1, 7: 2}, (1, 0): {4: 1}, (7, 9): {-2: 1}},
        {(n, s): {s - n: 1} for n in range(0, 10) for s in range(0, n + 1)},
    ):
        assert paths.family_tally(families) == fold_family_tally(families), families
    assert paths.family_tally({}) == Counter() and paths.family_tally({(1, 0): {0: 3}}) == Counter()


def test_family_tally_refuses_as_its_families_do(monkeypatch):
    with pytest.raises(ValueError, match="start height must be nonnegative"):
        paths.family_tally({(5, 1): {0: 1}, (5, -1): {0: 1}})
    monkeypatch.setattr(paths, "PATH_STEP_BOUND", 4)
    with pytest.raises(ValueError, match=r"the \(n=7, s=0\) family has 2\^5 paths"):
        paths.family_tally({(7, 1): {0: 1}, (7, 0): {0: 1}})


def test_gf_matches_closed_form_up_to_the_path_bound():
    # the level DP and the q-binomial sum, two independent computations, on
    # every family the bound lets through
    for n in range(0, PATH_STEP_BOUND + 3):
        for s in range(0, n + 1):
            assert gf_T(n, s) == gf_closed(n, s), (n, s)


def test_gf_term_maps_are_canonical():
    # both generating functions fill their term maps directly: no zero
    # coefficient, and the same polynomial as the canonicalising constructor
    for n in range(0, PATH_STEP_BOUND + 3):
        for s in range(0, n + 1):
            for gf in (gf_T(n, s), gf_closed(n, s)):
                terms = gf._terms
                assert 0 not in terms.values(), (n, s)
                assert all(type(e) is int for expo in terms for e in expo)
                assert gf == LaurentPoly(terms) and LaurentPoly(terms)._terms == terms, (n, s)


def reference_gf_T(n, s):
    """gf_T as first written: one polynomial addition per path."""
    out = ZERO
    for path in enumerate_T(n, s):
        out = out + LaurentPoly.term(1, eq=path.area(), ez=path.ht())
    return out


def reference_hat_gf(m, j):
    out = ZERO
    for path in enumerate_T(m, 0):
        h = path.ht()
        if h >= j:
            sign = -1 if (j - h) % 2 else 1
            out = out + LaurentPoly.term(sign, eq=path.area() + (j - h), ez=j)
    return out


def test_accumulating_folds_match_reference():
    for n in range(0, 13):
        for s in range(0, n):
            assert gf_T(n, s) == reference_gf_T(n, s)
    for m in range(0, 11):
        for j in range(0, m + 1):
            assert hat_gf(m, j) == reference_hat_gf(m, j)


def test_gf_examples():
    assert gf_T(4, 0) == ONE + q * z + q**2 * z + q**3 * z**2
    for n in range(2, 9):
        assert gf_T(n, n - 2) == q_power(binom2(n - 1)) * LaurentPoly.term(1, ez=n - 2)
    assert gf_T(5, 0) == q_pochhammer(z, 3)


def test_gf_pochhammer_identity():
    for n in range(2, 15):
        assert gf_T(n, 0) == q_pochhammer(z, n - 2)


def test_gf_closed_form_and_shift():
    for n in range(2, 15):
        for s in range(0, n - 1):
            via_paths = gf_T(n, s)
            assert via_paths == gf_closed(n, s)
            shift = q_power((n - 2 - s) * s + binom2(s + 1)) * LaurentPoly.term(1, ez=s)
            assert via_paths == gf_T(n - s, 0) * shift


def test_shift_bijection_pathwise():
    for n in range(3, 13):
        for s in range(0, n - 1):
            tall = enumerate_T(n, s)
            base = enumerate_T(n - s, 0)
            assert len(tall) == len(base)
            jump = (n - 2 - s) * s + binom2(s + 1)
            by_word = {p.word: p for p in base}
            for p in tall:
                mate = by_word[p.word]
                assert p.ht() == mate.ht() + s
                assert p.area() == mate.area() + jump


def test_height_slice_is_gaussian():
    from hookpaths.qpoly import gauss_binomial

    for n in range(2, 13):
        gf = gf_T(n, 0)
        for j in range(0, n - 1):
            expected = q_power(binom2(j + 1)) * gauss_binomial(n - 2, j)
            assert gf.coefficient_of("z", j) == expected


def test_hat_gf():
    assert hat_gf(2, 0) == ONE
    for m in range(3, 10):
        assert hat_gf(m, 0) == ZERO
    # z-degree concentrates at z^j
    for m in range(2, 9):
        for j in range(0, m):
            p = hat_gf(m, j)
            assert all(expo[2] == j for expo, _ in p.items())


def test_hat_gf_alternating_column_identity():
    # the height-j skewed sum written through Gaussian binomials
    from hookpaths.qpoly import gauss_binomial

    for m in range(2, 10):
        n = m - 1
        for j in range(0, n):
            expected = ZERO
            for k in range(0, n - j):
                sign = -1 if k % 2 else 1
                expected = expected + sign * q_power(
                    binom2(j + k + 1) - k
                ) * gauss_binomial(n - 1, j + k) * LaurentPoly.term(1, ez=j)
            assert hat_gf(m, j) == expected


def test_filters():
    for n in range(3, 11):
        for k in range(0, n - 1):
            subset = filter_paths(n, 0, "at_least_k_easts", k=k)
            expected = sum(math.comb(n - 2, e) for e in range(k, n - 1))
            assert len(subset) == expected
    east = filter_paths(7, 0, "starts_with_east")
    assert all(p.word.startswith("E") for p in east)
    assert any(p.word == "ENNEN" for p in filter_paths(7, 0, "height_eq", h=3))
    block = filter_paths(7, 0, "starts_north_ends_exact_norths", j=1)
    assert any(p.word == "NNEEN" for p in block)
    assert all(
        p.word.startswith("N") and p.trailing_run("N") == 1 for p in block
    )
    assert filter_paths(6, 0, "prefix", pattern="EE") == [
        p for p in enumerate_T(6, 0) if p.word.startswith("EE")
    ]
    with pytest.raises(ValueError):
        filter_paths(5, 0, "no_such_filter")


def test_path_text_round_trip():
    for p in enumerate_T(6, 1):
        assert LatticePath.parse(6, 1, str(p)) == p


def test_east_start_height_slice_membership():
    east_start = filter_paths(7, 0, "starts_with_east")
    assert any(p.word == "ENNEN" and p.ht() == 3 for p in east_start)


def _area_by_box_counting(path):
    """Independent per-column oracle: count staircase boxes whose column
    height under the path exceeds their row."""
    n, s = path.n, path.s
    stats_p = []
    norths = 0
    for step in path.word:
        if step == "E":
            stats_p.append(norths)
        else:
            norths += 1
    easts = len(stats_p)
    total = 0
    for x in range(0, n - 2):
        column_height = s + stats_p[x] if x < easts else path.ht()
        for y in range(0, n - 2 - x):
            if y < column_height:
                total += 1
    return total


def _area_by_row_walk(path):
    """The row walk area() replaced: full rows below the start, then each
    north step at (x, y) adds the n-2-y-x boxes to its east."""
    n, y = path.n, path.s
    total = sum(n - 2 - j for j in range(path.s))
    x = 0
    for step in path.word:
        if step == "N":
            total += n - 2 - y - x
            y += 1
        else:
            x += 1
    return total


def test_area_agrees_with_box_counting_oracle():
    for n in range(2, 11):
        for s in range(0, n - 1):
            for p in enumerate_T(n, s):
                assert p.area() == _area_by_box_counting(p) == _area_by_row_walk(p), p


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=22).flatmap(
    lambda n: st.integers(min_value=0, max_value=n - 2).flatmap(
        lambda s: st.text("NE", min_size=n - s - 2, max_size=n - s - 2).map(
            lambda word: LatticePath(n, s, word)
        )
    )
))
def test_area_agrees_with_row_walk_property(path):
    assert path.area() == _area_by_row_walk(path)
