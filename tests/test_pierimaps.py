import math
from collections import Counter
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hookpaths import characters as ch
from hookpaths import pierimaps as pm
from hookpaths.paths import WALK_BLOCK_STEPS, LatticePath, enumerate_T, filter_paths, words_T
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
        assert hook_tableau_from_descents(tagged.descents, 6).conjugate().shape == (1,) * 6
        assert tagged.path == gamma


def test_e_plus_hook_law():
    for n in range(3, 11):
        for k in range(0, n - 1):
            for gamma in enumerate_T(n, 0):
                if not pm.map_domain(range(k, k + 1), gamma.word):
                    continue
                want = (gamma.area() + gamma.ht() + 1,) + (1,) * (
                    n - 2 - gamma.ht() - k
                )
                assert pm.hook_of(pm.e_plus_map(k, gamma)) == want


def test_e_minus_hook_law_and_east_start_branch():
    for n in range(3, 11):
        for k in range(1, n - 1):
            for gamma in enumerate_T(n, 0):
                if not pm.map_domain(range(k, k + 1), gamma.word, True):
                    continue
                tagged = pm.e_minus_map(k, gamma)
                arm = gamma.area() + gamma.ht()
                leg = n - 1 - gamma.ht() - k
                want = (arm,) + (1,) * leg if arm else ()
                assert pm.hook_of(tagged) == want
                h = gamma.leading_run("E")
                if h > k - 1:
                    assert h - k + 2 in tagged.descents


def row_descents(n, counts, shift):
    """The descent n - i - c + shift for the i-th of the weakly increasing
    step counts c: the bijections' north steps, with c = easts before it,
    and the Pieri maps' east steps, with c = norths before it."""
    return {n - i - c + shift for i, c in enumerate(counts, start=1)}


def _drop_steps(word, easts, norths):
    """Remove the first `easts` east steps and first `norths` north steps."""
    out = []
    for ch in word:
        if ch == "E" and easts:
            easts -= 1
        elif ch == "N" and norths:
            norths -= 1
        else:
            out.append(ch)
    return "".join(out)


def ref_plus_map(k, path):
    """The plus map by its definition: descents from the norths before each
    of the first k east steps, which are then dropped."""
    n = path.n
    descents = row_descents(n, pm.path_stats(path).p[:k], 0)
    assert len(descents) == k
    return pm.TaggedPath(frozenset(descents), LatticePath(n, k, _drop_steps(path.word, k, 0)))


def ref_minus_map(k, path):
    """The minus map by its definition: the first k-1 east steps as in the
    plus map, and the first north step after a leading east run h as the
    descent max(1, h-k+2)."""
    n = path.n
    stats = pm.path_stats(path)
    descents = row_descents(n, stats.p[:k - 1], 0)
    extra = max(1, stats.h - k + 2)
    assert extra not in descents
    return pm.TaggedPath(
        frozenset(descents | {extra}), LatticePath(n, k, _drop_steps(path.word, k - 1, 1))
    )


def _maps_match_the_reference(gamma):
    # the public maps and, on the word alone, the kernels they wrap
    n = gamma.n
    for k in range(0, n - 1):
        ks = range(k, k + 1)
        if pm.map_domain(ks, gamma.word):
            want = ref_plus_map(k, gamma)
            assert pm.e_plus_map(k, gamma) == want, (k, gamma)
            assert pm.plus_image(n, ks, gamma.word) == [(k, want.descents, want.path.word)], (k, gamma)
        if pm.map_domain(ks, gamma.word, True):
            want = ref_minus_map(k, gamma)
            assert pm.e_minus_map(k, gamma) == want, (k, gamma)
            assert pm.minus_image(n, ks, gamma.word) == [(k, want.descents, want.path.word)], (k, gamma)


def test_maps_match_the_reference_exhaustively():
    for n in range(2, 11):
        for gamma in enumerate_T(n, 0):
            _maps_match_the_reference(gamma)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=22).flatmap(
    lambda n: st.text("NE", min_size=n - 2, max_size=n - 2).map(lambda word: LatticePath(n, 0, word))
))
def test_maps_match_the_reference_property(gamma):
    _maps_match_the_reference(gamma)


def _range_kernels_match_the_maps(gamma, start=0, stop=None):
    # each kernel over range(start, stop) in one call, against its public
    # map at each k of the range where that map is defined
    n, word = gamma.n, gamma.word
    ks = range(start, n - 1 if stop is None else stop)
    for kernel, pieri_map in ((pm.plus_image, pm.e_plus_map), (pm.minus_image, pm.e_minus_map)):
        want = []
        for k in ks:
            try:
                tagged = pieri_map(k, gamma)
            except ValueError:
                continue
            want.append((k, tagged.descents, tagged.path.word))
        assert kernel(n, ks, word) == want, (ks, gamma)


def test_range_kernels_match_the_maps_exhaustively():
    for n in range(2, 11):
        for gamma in enumerate_T(n, 0):
            _range_kernels_match_the_maps(gamma)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=22).flatmap(
    lambda n: st.tuples(
        st.text("NE", min_size=n - 2, max_size=n - 2).map(lambda word: LatticePath(n, 0, word)),
        st.integers(min_value=-1, max_value=n),
        st.integers(min_value=-1, max_value=n),
    )
))
def test_range_kernels_match_the_maps_property(case):
    gamma, start, stop = case
    _range_kernels_match_the_maps(gamma, min(start, stop), max(start, stop))


def test_kernels_apply_their_own_domain():
    # each kernel maps a word at exactly the k of ks that map_domain admits,
    # for every sub-range of -1..n
    for n in range(2, 11):
        for word, _, _ in words_T(n, 0):
            for kernel, minus in ((pm.plus_image, False), (pm.minus_image, True)):
                for start in range(-1, n + 1):
                    for stop in range(start, n + 1):
                        ks = range(start, stop)
                        got = [k for k, _, _ in kernel(n, ks, word)]
                        assert got == list(pm.map_domain(ks, word, minus)), (word, minus, ks)
    # the minus map is undefined at k = 0: the kernel has no image there,
    # where an unchecked one read ({2, 4}, "N")
    assert pm.minus_image(6, range(0, 1), "NENE") == []


def test_minus_kernel_refuses_a_colliding_descent(monkeypatch):
    # at NE and k = 2 the first north step records 1; an east step that
    # recorded 1 as well would give the tableau one descent too few
    monkeypatch.setattr(pm, "_east_descents", lambda n, word, count: [1] * count)
    with pytest.raises(AssertionError, match="descent construction collided"):
        pm.minus_image(4, range(2, 3), "NE")


def test_east_descents_refuse_a_word_short_of_east_steps():
    assert pm._east_descents(6, "NENE", 2) == [4, 2]
    with pytest.raises(ValueError, match="fewer than 3 east steps"):
        pm._east_descents(6, "NENE", 3)


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
                in_domain = bool(pm.map_domain(range(k, k + 1), gamma.word))
                assert in_domain == _defined(pm.e_plus_map, k, gamma), (k, gamma)
            for k in range(1, n - 1):
                in_domain = bool(pm.map_domain(range(k, k + 1), gamma.word, True))
                assert in_domain == _defined(pm.e_minus_map, k, gamma), (k, gamma)
    assert not pm.map_domain(range(0, 1), "NNEE", True)  # the minus map needs k >= 1


def test_map_domain_reads_the_east_count_rules():
    # every sub-range of every k range, against the domain rules written
    # out per k: the plus map needs k >= 0 and k east steps, the minus map
    # k >= 1, k-1 east steps and a north step
    rules = (
        (False, lambda k, word: 0 <= k <= word.count("E")),
        (True, lambda k, word: k >= 1 and word.count("E") >= k - 1 and "N" in word),
    )
    for n in range(2, 11):
        for word, _, _ in words_T(n, 0):
            for minus, rule in rules:
                for start in range(-1, n):
                    for stop in range(start, n + 1):
                        ks = range(start, stop)
                        domain = pm.map_domain(ks, word, minus)
                        assert list(domain) == [k for k in ks if rule(k, word)], (word, minus, ks)


def _kernel_images(n, k, minus):
    """The per-word kernel's images at k over words_T(n, 0), as the image
    stream lists them: (base word, area, ht, descents, image word)."""
    kernel = pm.minus_image if minus else pm.plus_image
    return [
        (word, area, ht, descents, image)
        for word, area, ht in words_T(n, 0)
        for _, descents, image in kernel(n, range(k, k + 1), word)
    ]


def test_image_stream_matches_the_kernels():
    # every k of every n up to 11; past the suffix block the stream walks
    # heads: at n = 13 and 14 every k = 0 image and some of k = 1 and 3
    cases = [(n, k) for n in range(2, 12) for k in range(0, n - 1)]
    cases += [(n, k) for n in (13, 14) for k in (0, 1, 3)]
    assert max(n - 2 for n, _ in cases) > WALK_BLOCK_STEPS + 1
    for n, k in cases:
        table = pm.suffix_table(n)
        for minus in (False, True):
            assert list(pm.image_stream(n, k, minus, table)) == _kernel_images(n, k, minus), (n, k, minus)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=14).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n - 2), st.booleans())
))
def test_image_stream_matches_the_kernels_property(case):
    n, k, minus = case
    assert list(pm.image_stream(n, k, minus, pm.suffix_table(n))) == _kernel_images(n, k, minus)


def test_image_classes_split_the_domain():
    # each class's words share its prefix, descents and image head, and the
    # classes are the stream in word order, one class after another
    for n in range(2, 10):
        for k in range(0, n - 1):
            for minus in (False, True):
                stream = iter(pm.image_stream(n, k, minus, pm.suffix_table(n)))
                for prefix, area, ht, descents, head in pm.image_classes(n, k, minus):
                    free = n - 2 - len(prefix)
                    for _ in range(2 ** free):
                        word, word_area, word_ht, word_descents, image = next(stream)
                        suffix = word[len(prefix):]
                        assert word.startswith(prefix) and image == head + suffix
                        assert word_descents == descents and word_ht - ht == suffix.count("N")
                        assert word_area - area == sum(free - j for j, step in enumerate(suffix) if step == "N")
                assert next(stream, None) is None
    with pytest.raises(ValueError, match=r"k=4 outside 0\.\.3"):
        list(pm.image_classes(5, 4, False))


def test_suffix_table_lists_every_suffix_block():
    for n in range(2, 14):
        table = pm.suffix_table(n)
        assert len(table) == min(WALK_BLOCK_STEPS, n - 2) + 1
        for r, entries in enumerate(table):
            # the r-step suffixes add the gains r down to 1, as T(r + 2, 0) does
            assert entries == list(words_T(r + 2, 0)), (n, r)


def test_member_prefixes_read_member_prefix():
    for n in range(2, 9):
        for k in range(0, n - 1):
            table = pm.member_prefixes(n, k)
            assert len(table) == math.comb(n - 1, k)
            for combo in combinations(range(1, n), k):
                assert table[frozenset(combo)] == (pm.member_prefix(n, combo), pm.member_prefix(n, combo, True))


def test_image_stats_reads_split_families():
    # past WALK_BLOCK_STEPS steps T(n, k) splits into heads and a suffix
    # block, which image_stats looks an image's statistics up in apart
    n = 13
    ks = range(0, n - 1)
    stats = [pm.image_stats(n, k) for k in ks]
    for gamma in enumerate_T(n, 0):
        for kernel in (pm.plus_image, pm.minus_image):
            for k, _, word in kernel(n, ks, gamma.word):
                image = LatticePath(n, k, word)
                assert stats[k](gamma.word, word) == (image.area(), image.ht()), (k, gamma, kernel)
    # an image a step short or long is off T(n, k) whichever part it spoils
    (_, _, image), = pm.plus_image(n, range(0, 1), "NEEENEEEENE")
    for spoiled in (image[1:], image[:-1], image + "E"):
        with pytest.raises(ValueError, match=r"k=0 image of NEEENEEEENE is not in T\(13, 0\)"):
            stats[0]("NEEENEEEENE", spoiled)


def test_an_image_off_the_family_fails_only_its_k(monkeypatch):
    # the minus image of EN at k = 1, a step short, is off T(4, 1); k = 0
    # has no minus images and k = 2's are already empty
    stream = pm.image_stream
    monkeypatch.setattr(pm, "image_stream", lambda n, k, minus, table: (
        (gamma, area, ht, descents, image[1:] if minus else image)
        for gamma, area, ht, descents, image in stream(n, k, minus, table)
    ))
    perps = pm.perp_via_paths_by_k(4)
    assert [isinstance(perp, ValueError) for perp in perps] == [False, True, False]
    assert str(perps[1]) == "k=1 image of EN is not in T(4, 1)"
    with pytest.raises(ValueError, match=r"k=1 image of EN is not in T\(4, 1\)"):
        pm.perp_via_paths(4, 1)
    assert pm.perp_via_paths(4, 2) == perps[2]


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
    with pytest.raises(ValueError, match=r"must lie in 1\.\.4"):
        pm._tag(5, {0, 2}, "N")
    with pytest.raises(ValueError, match="invalid for"):
        pm._tag(5, {2, 3}, "")  # the (5, 2) family has one-step words
    assert pm._tag(5, {1, 4}, "E") == pm.TaggedPath(frozenset({1, 4}), LatticePath(5, 2, "E"))


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
                    tableau = hook_tableau_from_descents(tp.descents, n).conjugate()
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


def prefix_members(n, k, v=False):
    """The tagged paths of the (n, k) families whose words begin with their
    descent sets' member_prefix: T+, or V when v is true."""
    family = enumerate_T(n, k)
    out = set()
    for combo in combinations(range(1, n), k):
        d = frozenset(combo)
        step, run = pm.member_prefix(n, combo, v)
        out.update(pm.TaggedPath(d, path) for path in family if path.leading_run(step) >= run)
    return out


def prefix_size(n, k, v=False):
    """The number of tagged paths the member prefixes admit, 2^(length - run)
    for each descent set whose run fits in the family's length."""
    length = n - k - 2
    runs = (pm.member_prefix(n, combo, v)[1] for combo in combinations(range(1, n), k))
    return sum(2 ** (length - run) for run in runs if run <= length)


def test_tallies_and_built_sets_match_the_oracle():
    for n in range(2, 11):
        for k in range(0, n - 1):
            sets = pm.build_sets(n, k)
            assert prefix_members(n, k) == sets.tplus, (n, k)
            assert prefix_members(n, k, v=True) == sets.v, (n, k)
            assert prefix_size(n, k) == len(sets.tplus), (n, k)
            assert prefix_size(n, k, v=True) == len(sets.v), (n, k)
            tallies = pm.pieri_tallies(n, k)
            assert tallies["tplus"] == tagged_tally(sets.tplus), (n, k)
            assert tallies["tminus"] == tagged_tally(sets.tminus), (n, k)
            assert tallies["v"] == tagged_tally(sets.v), (n, k)
            assert tallies["w"] == tagged_tally(sets.w), (n, k)
            assert tallies["v_plus"] == tagged_tally(sets.v & sets.tplus) == Counter(), (n, k)


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
    sets = pm.build_sets(n, k)
    assert tallies["tplus"] == tagged_tally(sets.tplus)
    assert tallies["v"] == tagged_tally(sets.v)
    assert not tallies["v_plus"]
    assert tallies["tminus"] == Counter(tallies["v"]) + Counter(tallies["w"])


def test_tallies_past_the_oracle():
    for n in range(12, 19):
        for k in range(0, n - 1):
            tallies = pm.pieri_tallies(n, k)
            size = {name: sum(tally.values()) for name, tally in tallies.items()}
            # T+ and V are the images of the plus and minus domains
            assert size["tplus"] == sum(math.comb(n - 2, e) for e in range(k, n - 1)), (n, k)
            minus = sum(math.comb(n - 2, e) for e in range(k - 1, n - 2)) if k else 0
            assert size["v"] == minus, (n, k)
            assert prefix_size(n, k) == size["tplus"], (n, k)
            assert prefix_size(n, k, v=True) == size["v"], (n, k)
            assert size["tplus"] + size["tminus"] == math.comb(n - 1, k) * 2 ** (n - k - 2)
            assert not tallies["v_plus"], (n, k)
        assert not pm.pieri_tallies(n, n - 2)["w"], n


def test_bijectivity_onto_plus_and_v():
    for n in range(3, 10):
        for k in range(0, n - 1):
            sets = pm.build_sets(n, k)
            family = enumerate_T(n, 0)
            domain_plus = [g for g in family if pm.map_domain(range(k, k + 1), g.word)]
            image_plus = {pm.e_plus_map(k, g) for g in domain_plus}
            assert len(image_plus) == len(domain_plus)
            assert image_plus == set(sets.tplus)
            if k >= 1:
                domain_minus = [g for g in family if pm.map_domain(range(k, k + 1), g.word, True)]
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
            report = pm.compare_difference(n, k, pm.difference_W(n, k, "direct"))
            assert report["agree_conjugate"], (n, k)
            if k == 1:
                assert report["agree_k1"], n
    assert not pm.compare_difference(5, 1, pm.difference_W(5, 1, "direct"))["agree_literal"]


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
    # one rule, both shifts: north_descents is the row rule over the easts
    # before each north step, and descents_word undoes it
    for n in range(2, 10):
        for gamma in enumerate_T(n, 0):
            counts = pm.path_stats(gamma).n_steps
            for shift in (0, 1):
                descents = pm.north_descents(n, gamma.word, shift)
                assert descents == row_descents(n, counts, shift)
                assert len(descents) == len(counts)
                assert pm.descents_word(n, descents, shift, gamma.word.count("E")) == gamma.word
    # a descent whose north step would fall just before or just past the word
    for descents in ({5}, {2}):
        with pytest.raises(ValueError, match="off the 2-step word"):
            pm.descents_word(5, descents, 0, 1)


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
