"""The checks in `verify` must still report a failure when a map or formula
under test is wrong: every passing run looks the same whether or not a check
can fail, so each check is fed a broken one here and must name it.  An
instance that raises must fail the same way without ending the run."""

import json
from collections import Counter
from functools import cache

import pytest

from hookpaths import characters, cli, pierimaps, verify
from hookpaths.qpoly import q, z
from hookpaths.schur import SchurExpansion
from hookpaths.shapes import partitions_of


class StrayWord(str):
    """Hashed by identity, so no set or table of real words finds it: an
    image outside every set of real words."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _shift_descents(monkeypatch):
    """Shift every descent the bijections' word kernel reads by 10, and back
    in its inverse: the round trip still holds, the major index does not."""
    f, g = pierimaps.north_descents, pierimaps.descents_word
    monkeypatch.setattr(pierimaps, "north_descents", lambda *a: frozenset(d + 10 for d in f(*a)))
    monkeypatch.setattr(
        pierimaps, "descents_word", lambda n, d, *a: g(n, {x - 10 for x in d}, *a)
    )


def _builders(n):
    """_check_pieri's builders for n -- image_stats(n, k), member_prefixes(n,
    k) and suffix_table(n) -- looked up at each call so a patched kernel is
    seen."""
    return (
        lambda k: pierimaps.image_stats(n, k),
        lambda k: pierimaps.member_prefixes(n, k),
        lambda: pierimaps.suffix_table(n),
    )


def _slices(n):
    """The bijection checks' height-slice builder for n."""
    return lambda: verify._height_slices(n)


def _flip_first_step(image):
    """A map kernel's image with its word's first step flipped; an empty
    word has none to flip."""
    descents, word = image
    return descents, {"E": "N", "N": "E"}[word[0]] + word[1:] if word else word


def _each_image(stream, spoil, only=None):
    """An image stream that hands each entry's (descents, image word) on as
    spoil(n, k, (descents, word)), for one map (only=False: plus, True:
    minus) or both (only=None)."""
    def spoiled(n, k, minus, table):
        for gamma, area, ht, descents, image in stream(n, k, minus, table):
            if only is None or only == minus:
                descents, image = spoil(n, k, (descents, image))
            yield gamma, area, ht, descents, image

    return spoiled


def _each_class(classes, spoil):
    """An image_classes that hands each class on as spoil(n, k, minus,
    class), or drops it where spoil gives None."""
    def spoiled(n, k, minus):
        for entry in classes(n, k, minus):
            entry = spoil(n, k, minus, entry)
            if entry is not None:
                yield entry

    return spoiled


def test_pieri_check_reports_a_broken_hook_law(monkeypatch):
    stream = pierimaps.image_stream
    monkeypatch.setattr(pierimaps, "image_stream", _each_image(stream, lambda n, k, image: _flip_first_step(image)))
    assert verify._check_pieri(3, False, *_builders(3)) == "k=0 hook law fails on E"
    assert verify._check_pieri(4, True, *_builders(4)) == "k=1 hook law fails on EN"

    # one step higher and one box less keeps the arm; only the leg is off
    monkeypatch.undo()
    image_stats = pierimaps.image_stats

    def skewed(n, k):
        stats = image_stats(n, k)

        def skewed_stats(base, word):
            area, ht = stats(base, word)
            return area - 1, ht + 1

        return skewed_stats

    monkeypatch.setattr(pierimaps, "image_stats", skewed)
    assert verify._check_pieri(3, False, *_builders(3)) == "k=0 hook law fails on E"


def test_perp_check_reports_a_broken_minus_map(monkeypatch, capsys):
    # every descent one lower raises each minus image's hook arm by k; the
    # minus map needs k >= 1, so the k = 0 instances still pass
    stream = pierimaps.image_stream

    def lowered(n, k, image):
        descents, word = image
        return frozenset(d - 1 for d in descents), word

    monkeypatch.setattr(pierimaps, "image_stream", _each_image(stream, lowered, only=True))
    assert cli.main(["verify", "--suite", "pieri-paths", "--max-n", "4"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL")]
    assert [line.split(" -- ")[0] for line in failed] == [
        "[FAIL    ] pieri-paths check=perp n=3 k=1",
        "[FAIL    ] pieri-paths check=perp n=4 k=1",
        "[FAIL    ] pieri-paths check=perp n=4 k=2",
    ]
    assert all(" != " in line for line in failed), failed

    # an image word one step short is off T(n, k): the instance names it
    def shortened(n, k, image):
        descents, word = image
        return descents, word[1:]

    monkeypatch.setattr(pierimaps, "image_stream", _each_image(stream, shortened, only=True))
    assert cli.main(["verify", "--suite", "pieri-paths", "--max-n", "4"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL")]
    assert failed == ["[FAIL    ] pieri-paths check=perp n=4 k=1 -- exception: k=1 image of EN is not in T(4, 1)"]


# at n = 6, k = 2 the plus map sends NEEE to ({3, 4}, NE); {2, 5} keeps the
# major index, so the hook law holds, but T+ needs the prefix NN there, and
# {0, 7} is no descent set at all
def test_pieri_check_reports_an_image_off_the_set(monkeypatch):
    stream = pierimaps.image_stream
    for moved_to in ({2, 5}, {0, 7}):

        def moved(n, k, image, moved_to=frozenset(moved_to)):
            descents, word = image
            return (moved_to if descents == {3, 4} else descents), word

        monkeypatch.setattr(pierimaps, "image_stream", _each_image(stream, moved))
        assert verify._check_pieri(6, False, *_builders(6)) == "k=2 image of NEEE is not in the plus set"


def test_pieri_check_reports_an_image_in_another_family(monkeypatch):
    # N w from height 0 and w from height 1 share area and height, so the
    # hook law and every prefix hold; the image is still not in T(4, 0)
    stream = pierimaps.image_stream

    def lifted(n, k, image):
        descents, word = image
        return descents, (word[1:] if word.startswith("N") else word)

    monkeypatch.setattr(pierimaps, "image_stream", _each_image(stream, lifted))
    assert verify._check_pieri(4, False, *_builders(4)) == "k=0 image of NE is not in the plus set"


def test_pieri_check_reports_a_domain_one_path_short(monkeypatch):
    # every image still lies in its set, but one member of the set is
    # missed: the plus stream loses EE and the minus stream NE at every k
    stream = pierimaps.image_stream
    missed = {False: "EE", True: "NE"}

    def short(n, k, minus, table):
        return (entry for entry in stream(n, k, minus, table) if entry[0] != missed[minus])

    monkeypatch.setattr(pierimaps, "image_stream", short)
    assert verify._check_pieri(4, False, *_builders(4)) == "k=0 image is not the plus set"
    assert verify._check_pieri(4, True, *_builders(4)) == "k=1 image is not the V set"


def test_pieri_check_reports_a_spoiled_class(monkeypatch):
    # faults of one prefix class reach every word of it: at n = 5 the minus
    # class EN of k = 1 maps ENw to ({2}, Ew), and the plus class NE of
    # k = 1 maps NEw to ({3}, Nw)
    classes = pierimaps.image_classes

    def patched(spoil):
        monkeypatch.setattr(pierimaps, "image_classes", _each_class(classes, spoil))

    def class_of(prefix, minus, change):
        return lambda n, k, m, entry: change(entry) if (k, m, entry[0]) == (1, minus, prefix) else entry

    # a head one east step short puts the image off T(5, 1)
    patched(class_of("EN", True, lambda e: (*e[:4], e[4][1:])))
    assert verify._check_pieri(5, True, *_builders(5)) == "k=1 image of ENE is not in the V set"
    # a head whose first step is flipped keeps its length but not the hook law
    patched(class_of("NE", False, lambda e: (*e[:4], "E")))
    assert verify._check_pieri(5, False, *_builders(5)) == "k=1 hook law fails on NEE"
    # a descent set one higher breaks the hook law too
    patched(class_of("NE", False, lambda e: (*e[:3], frozenset({4}), e[4])))
    assert verify._check_pieri(5, False, *_builders(5)) == "k=1 hook law fails on NEE"
    # a dropped class leaves the image short of the set
    patched(class_of("NE", False, lambda e: None))
    assert verify._check_pieri(5, False, *_builders(5)) == "k=1 image is not the plus set"
    # so does a stream that drops one suffix block entry of every class
    monkeypatch.undo()
    table = pierimaps.suffix_table

    def clipped(n):
        return [entries[:-1] if r else entries for r, entries in enumerate(table(n))]

    monkeypatch.setattr(pierimaps, "suffix_table", clipped)
    assert verify._check_pieri(5, False, *_builders(5)) == "k=0 image is not the plus set"


def test_phi_check_reports_a_broken_round_trip(monkeypatch):
    inverse = pierimaps.descents_word
    monkeypatch.setattr(pierimaps, "descents_word", lambda *a: inverse(*a)[::-1])
    assert verify._check_phi(4, _slices(4)) == "k=0 round trip fails on EN"


def test_omega_check_reports_a_broken_statistic(monkeypatch):
    _shift_descents(monkeypatch)
    assert verify._check_omega(4, _slices(4)) == "k=0 j=0 statistic fails on NE"
    assert verify._check_phi(4, _slices(4)) == "k=0 statistic fails on EN"


def test_beta_check_reports_an_image_mismatch(monkeypatch):
    forward = pierimaps.descents_word
    monkeypatch.setattr(pierimaps, "descents_word", lambda *a: StrayWord(forward(*a)))
    assert verify._check_beta(3, _slices(3)) == "d=0 image mismatch"
    # a descent set in a witness reads as its sorted list
    monkeypatch.setattr(pierimaps, "north_descents", lambda n, word, shift: frozenset())
    assert verify._check_beta(3, _slices(3)) == "d=0 round trip fails on [1, 2]"


@pytest.mark.parametrize("error", [TypeError, ValueError])
def test_a_reported_instance_that_raises_fails_and_the_run_goes_on(monkeypatch, capsys, error):
    def boom(n, k, direct):
        raise error("boom")

    monkeypatch.setattr(pierimaps, "compare_difference", boom)
    assert cli.main(["verify", "--suite", "difference-W", "--max-n", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "[FAIL    ] difference-W check=display n=3 k=1 -- exception: boom"
    assert lines[-1] == "# 6 instances: fail=3 pass=3"


def _add_term(monkeypatch, name, shape):
    """Add s_shape to the expansion characters.<name> gives for mu = (2, 1),
    and to every k's expansion where <name> is the per-shape kernel."""
    formula = getattr(characters, name)
    extra = SchurExpansion.term(shape)

    def broken(n, *args):
        out = formula(n, *args)
        if args[-1] != (2, 1):
            return out
        if isinstance(out, list):
            return [expansion + extra for expansion in out]
        return characters.HookResult(out.n, out.r, out.mu, out.expansion + extra, out.proven)

    monkeypatch.setattr(characters, name, broken)


@pytest.mark.parametrize("name, shape, checks", [
    ("gl2_delta_mu_by_k", (3,), ["check=delta-mu n=3 k=0", "check=delta-mu n=3 k=1", "check=delta-mu n=3 k=2"]),
    ("hook_formula", (3,), ["check=hook-formula n=3"]),
    # s_(2,1)(q, 0) = 0, so the t = 0 character does not see it
    ("gl2_delta_mu_by_k", (2, 1), []),
    ("hook_formula", (2, 1), []),
])
def test_hrs_t0_checks_see_exactly_the_one_row_terms(monkeypatch, name, shape, checks):
    _add_term(monkeypatch, name, shape)
    failures = [r.line() for r in verify.run_suite("hrs-t0", 3) if r.status != "pass"]
    assert failures == [f"[FAIL    ] hrs-t0 {check} -- mu=2,1" for check in checks]


@pytest.mark.parametrize("shape, witness", [
    ((5, 1), "(a, b)=(5, 1): 0 != 1"),
    ((2, 1), "(a, b)=(2, 1): 1 != 2"),
    # s_(2,1,1)(q, t) = 0, so the two-variable claim does not see it
    ((2, 1, 1), None),
])
def test_restriction2_names_the_two_row_term_it_misses(monkeypatch, shape, witness):
    formula = characters.gl2_nabla_hooks

    def broken(n, r, mu):
        out = formula(n, r, mu)
        return out + SchurExpansion.term(shape) if mu == (2, 1, 1) else out

    monkeypatch.setattr(characters, "gl2_nabla_hooks", broken)
    failures = [r.line() for r in verify.run_suite("restriction2", 4) if r.status != "pass"]
    assert failures == ([f"[FAIL    ] restriction2 n=4 mu=2,1,1 -- {witness}"] if witness else [])


def test_a_raising_kernel_fails_each_of_its_n_delta_instances(monkeypatch):
    # the per-n data is built by its first reader, inside that reader's
    # instance, so a kernel that raises fails every delta-mu instance of its
    # n and leaves the other n alone
    kernel = characters.gl2_delta_mu_by_k

    def boom(n, mu):
        if n == 3:
            raise RuntimeError("boom")
        return kernel(n, mu)

    monkeypatch.setattr(characters, "gl2_delta_mu_by_k", boom)
    reports = verify.run_suite("hrs-t0", 3)
    assert [r.line() for r in reports if r.status != "pass"] == [
        f"[FAIL    ] hrs-t0 check=delta-mu n=3 k={k} -- exception: boom" for k in range(3)
    ]
    assert [r.params["n"] for r in reports if r.status == "pass"] == [2, 2, 2, 3]


def _raising_at(monkeypatch, module, name, at):
    """Patch module.<name> to raise RuntimeError("boom") when its leading
    arguments are `at`, and to answer as before otherwise."""
    kernel = getattr(module, name)

    def boom(*args):
        if args[:len(at)] == at:
            raise RuntimeError("boom")
        return kernel(*args)

    monkeypatch.setattr(module, name, boom)


def _failed(reports):
    return [r.line() for r in reports if r.status == "fail"]


def test_a_raising_image_stats_fails_only_its_n_plus_and_minus_instances(monkeypatch):
    # one image_stats per (n, k) serves both maps; the slice checks share
    # another build and never read it
    _raising_at(monkeypatch, pierimaps, "image_stats", (4,))
    reports = verify.run_suite("bijections", 5)
    assert _failed(reports) == [
        f"[FAIL    ] bijections map={m} n=4 -- exception: boom" for m in ("plus", "minus")
    ]
    assert len(reports) == 18


def test_a_raising_pieri_tallies_fails_only_its_n_k_direct_and_display(monkeypatch):
    _raising_at(monkeypatch, pierimaps, "pieri_tallies", (5, 2))
    reports = verify.run_suite("difference-W", 5)
    assert _failed(reports) == [
        f"[FAIL    ] difference-W check={c} n=5 k=2 -- exception: boom" for c in ("direct", "display")
    ]
    assert [r.status for r in reports].count("pass") == len(reports) // 2 - 1


def test_a_raising_by_c_kernel_fails_only_its_n_five_instances(monkeypatch):
    _raising_at(monkeypatch, characters, "alternating_identities_by_c", (4,))
    reports = verify.run_suite("alternating", 5)
    assert _failed(reports) == [
        f"[FAIL    ] alternating n=4 c={c} -- exception: boom" for c in range(-2, 3)
    ]
    assert [r.params["n"] for r in reports if r.status == "pass"] == [3] * 5 + [5] * 5


def test_a_raising_alternant_fails_only_its_n_perp_instances(monkeypatch):
    # the alternant is built inside the strip builder, not in the suite body,
    # so it fails its n's perp instances instead of ending the run
    _raising_at(monkeypatch, characters, "alternant_formula", (4,))
    reports = verify.run_suite("pieri-paths", 5)
    assert _failed(reports) == [
        f"[FAIL    ] pieri-paths check=perp n=4 k={k} -- exception: boom" for k in range(3)
    ]
    assert len(reports) == 18


@pytest.mark.parametrize("suite, kernels", [
    ("bijections", {
        (pierimaps, "image_stats"): {(n, k) for n in range(3, 7) for k in range(n - 1)},
        (verify, "_height_slices"): {(n,) for n in range(3, 7)},
    }),
    ("hrs-t0", {
        (characters, "hrs_t0_by_k"): {(n,) for n in range(2, 7)},
        (characters, "gl2_delta_mu_by_k"): {(n, mu) for n in range(2, 7) for mu in partitions_of(n)},
    }),
    ("pieri-paths", {
        (pierimaps, "perp_via_paths_by_k"): {(n,) for n in range(3, 7)},
        (characters, "alternant_formula"): {(n, 1) for n in range(3, 7)},
    }),
    ("alternating", {
        (characters, "alternating_identities_by_c"): {(n, range(-2, 3)) for n in range(3, 7)},
    }),
    ("difference-W", {
        (pierimaps, "pieri_tallies"): {(n, k) for n in range(3, 7) for k in range(1, n - 1)},
    }),
    ("gf", {
        # one gf_T(m, 0) per suite run, read by every size's start-shift
        (verify, "gf_T"): {(n, s) for n in range(2, 7) for s in range(n - 1)},
    }),
])
def test_each_shared_datum_is_built_once_per_size(monkeypatch, suite, kernels):
    # one suite at a time: perp_via_paths_by_k calls image_stats itself
    calls = Counter()

    def counted(name, kernel):
        def wrapper(*args):
            calls[name, args] += 1
            return kernel(*args)

        return wrapper

    for module, name in kernels:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert not verify.has_failure(verify.run_suite(suite, 6))
    assert calls == Counter({(name, args): 1 for (_, name), keys in kernels.items() for args in keys})


def test_a_wrong_family_fails_each_start_shift_that_reads_it(monkeypatch):
    # gf_T(4, 0) off by a factor q fails its own size's three checks, and
    # each larger size's start-shift at the s that reads it
    family = verify.gf_T
    monkeypatch.setattr(verify, "gf_T", lambda n, s: family(n, s) * q if (n, s) == (4, 0) else family(n, s))
    failures = [(r.params["identity"], r.params["n"], r.witness) for r in verify.run_suite("gf", 7) if r.status != "pass"]
    assert failures == [
        ("pochhammer", 4, "q + q^2*z + q^3*z + q^4*z^2 != 1 + q*z + q^2*z + q^3*z^2"),
        ("start-shift", 4, "s=0: enumeration != closed form"),
        ("height-slice", 4, "height slice j=0 mismatch"),
    ] + [("start-shift", n, f"s={n - 4}: start-height shift identity fails") for n in range(5, 8)]


def test_a_slice_wrong_in_one_term_fails_at_its_height(monkeypatch):
    # gf_T(5, 0) with one z^2 term off by one: the one-pass grouping by
    # z-degree must still hand the height-slice check that term at j = 2
    family = verify.gf_T

    def spoiled(n, s):
        gf = family(n, s)
        return gf + q**3 * z**2 if (n, s) == (5, 0) else gf

    monkeypatch.setattr(verify, "gf_T", spoiled)
    reports = verify.run_suite("gf", 5)
    slices = [r.line() for r in reports if r.params["identity"] == "height-slice" and r.status == "fail"]
    assert slices == ["[FAIL    ] gf identity=height-slice n=5 -- height slice j=2 mismatch"]


def test_a_family_wrong_with_its_closed_form_fails_only_its_start_shift(monkeypatch):
    for module, name in ((verify, "gf_T"), (verify, "gf_closed")):
        kernel = getattr(module, name)
        monkeypatch.setattr(module, name, lambda n, s, kernel=kernel: kernel(n, s) * q if (n, s) == (6, 2) else kernel(n, s))
    assert _failed(verify.run_suite("gf", 7)) == [
        "[FAIL    ] gf identity=start-shift n=6 -- s=2: start-height shift identity fails"
    ]


def test_a_broken_membership_threshold_is_reported_by_each_check(monkeypatch):
    # T+ admits paths one leading north step short: at n = 3, k = 1 the
    # empty path tagged {1} then lies in both T+ and V
    thresholds = pierimaps.thresholds

    def lowered(n, combo):
        plus_north, v_north, v_east = thresholds(n, combo)
        return max(plus_north - 1, 0), v_north, v_east

    monkeypatch.setattr(pierimaps, "thresholds", lowered)
    reports = [r for name in ("bijections", "pieri-paths", "difference-W") for r in verify.run_suite(name, 3)]
    failures = [r.line() for r in reports if r.status == "fail"]
    assert failures == [
        "[FAIL    ] bijections map=plus n=3 -- k=1 image is not the plus set",
        "[FAIL    ] pieri-paths check=positivity n=3 k=1 -- V escapes the minus set",
        "[FAIL    ] difference-W check=direct n=3 k=1 -- W sum != minus-sum - V-sum",
    ]


def _three_expansion_gap(n, tally, *less):
    """The oracle for tally_hooks of _signed_tally: one expansion per tally,
    then their difference."""
    out = characters.tally_hooks(n, tally, "a tally")
    for other in less:
        out = out - characters.tally_hooks(n, other, "a tally")
    return out


def test_signed_tally_gaps_match_the_three_expansion_gaps():
    for n in range(3, 10):
        for k in range(0, n - 1):
            tallies = pierimaps.pieri_tallies(n, k)
            union = Counter(tallies["tplus"]) + Counter(tallies["tminus"])
            sides = [(union, tallies["tplus"], tallies["v"])]
            if k >= 1:
                sides.append((tallies["tminus"], tallies["v"]))
            for side in sides:
                signed = characters.tally_hooks(n, verify._signed_tally(*side), "a tally")
                gap = _three_expansion_gap(n, *side)
                assert signed == gap and str(signed) == str(gap), (n, k)


def test_positivity_check_reports_a_negative_gap(monkeypatch):
    # V gains 5 paths of one tagged-path class: the gap there falls by 5,
    # and the witness prints the whole gap
    tallies = pierimaps.pieri_tallies

    def padded(n, k):
        out = tallies(n, k)
        key = min(out["tplus"].keys() | out["tminus"].keys())
        out["v"][key] = out["v"].get(key, 0) + 5
        return out

    monkeypatch.setattr(pierimaps, "pieri_tallies", padded)
    reports = [r for r in verify.run_suite("pieri-paths", 4) if r.params["check"] == "positivity"]
    for report in reports:
        n, k = report.params["n"], report.params["k"]
        t = padded(n, k)
        gap = _three_expansion_gap(n, Counter(t["tplus"]) + Counter(t["tminus"]), t["tplus"], t["v"])
        assert not gap.is_schur_positive()
        assert report.line() == f"[FAIL    ] pieri-paths check=positivity n={n} k={k} -- negative gap {gap}"


def test_positivity_check_reports_plus_and_minus_that_do_not_split_the_paths(monkeypatch):
    # one T+ path moves to an area no tagged path has: the sizes still add
    # up, the key-by-key split does not
    tallies = pierimaps.pieri_tallies

    def moved(n, k):
        out = tallies(n, k)
        plus = out["tplus"]
        area, ht = key = min(plus)
        plus[key] -= 1
        plus[area + 100, ht] = 1
        return out

    monkeypatch.setattr(pierimaps, "pieri_tallies", moved)
    reports = [r for r in verify.run_suite("pieri-paths", 4) if r.params["check"] == "positivity"]
    assert len(reports) == 5
    assert all(r.witness == "plus/minus sets do not split the tagged paths" for r in reports)


def test_run_suite_runs_each_check_before_it_resumes_the_suite(monkeypatch):
    # each check reads its loop variable and its size's builder late, as the
    # suites' checks do: gathered before they ran, every check would see the
    # last n and the last builder
    def toy(max_n):
        for n in range(2, max_n + 1):
            seen = cache(lambda: n)
            yield {"n": n}, lambda: None if seen() == n else "stale"
            yield {"n": n, "check": "shown"}, lambda: f"saw n={seen()}", "reported"

    monkeypatch.setattr(verify, "SUITES", {"toy-suite": (toy, 4)})
    expected = []
    for n in range(2, 5):
        expected += [
            verify.VerifyReport("toy-suite", {"n": n}, "pass"),
            verify.VerifyReport("toy-suite", {"n": n, "check": "shown"}, "reported", f"saw n={n}"),
        ]
    assert verify.run_suite("toy-suite") == expected
    assert verify.run_suite("all", 3) == expected[:4]


def test_verify_timings_give_every_instance_its_seconds(capsys):
    assert cli.main(["--json", "verify", "--suite", "two-column", "--timings"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 13
    assert all(d["suite"] == "two-column" and d["seconds"] >= 0 for d in docs)
