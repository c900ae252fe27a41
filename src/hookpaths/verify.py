"""The verification-suite runner: every stated identity, exhaustively at desk
scale, with counterexample witnesses rendered as the objects themselves
(words over N/E, descent sets) so failures can be checked by hand.

Each suite_* is a generator of instances, (params, check) or (params, check,
"reported"), where check() returns None for a pass or a witness string.
run_suite alone runs the checks: it times each, and labels its report with
the suite's SUITES key.  Checks that share a size's data call that size's
cached builders (the rule is stated above the suites).

Statuses: "pass"/"fail" for asserted identities, "reported" for the
difference-formula comparisons whose printed source is under empirical
scrutiny rather than assertion.
"""

import time
from functools import cache
from itertools import combinations
from math import comb, inf

from . import characters, pierimaps
from .characters import tally_hooks
from .paths import binom2, family_tally, gf_T, gf_closed, words_T
from .qpoly import ONE, ZERO, gauss_binomial, q_power, z as z_var
from .schur import e_perp_by_k, first_row_fingerprint, two_row_part
from .shapes import make_hook, partitions_of, partition_str


class VerifyReport:
    """One verify instance's outcome.  Equality ignores `seconds`, so two
    runs of an instance compare equal whatever they took."""

    __slots__ = ("suite", "params", "status", "witness", "seconds")

    def __init__(self, suite: str, params: dict, status: str,
                 witness: str | None = None, seconds: float = 0.0):
        self.suite = suite
        self.params = params
        self.status = status  # pass | fail | reported
        self.witness = witness
        self.seconds = seconds

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.params, self.status, self.witness) == (
            other.suite, other.params, other.status, other.witness
        )

    def __repr__(self):
        return (
            f"VerifyReport(suite={self.suite!r}, params={self.params!r}, status={self.status!r}, "
            f"witness={self.witness!r}, seconds={self.seconds!r})"
        )

    def line(self, timings: bool = False) -> str:
        bits = [f"[{self.status.upper():8s}]", self.suite]
        bits.append(" ".join(f"{k}={v}" for k, v in self.params.items()))
        if self.witness:
            bits.append(f"-- {self.witness}")
        if timings:
            bits.append(f"({self.seconds:.3f}s)")
        return " ".join(bit for bit in bits if bit)

    def to_json_obj(self, timings: bool = False) -> dict:
        obj = {
            "suite": self.suite,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
        }
        if timings:
            obj["seconds"] = round(self.seconds, 6)
        return obj


def _timed(suite, params, check, status="fail"):
    """Run one instance; `check` returns None (a pass) or a witness string,
    reported with `status`.  An instance that raises fails with the
    exception as its witness, and the run goes on."""
    start = time.perf_counter()
    try:
        witness = check()
        if witness is None:
            status = "pass"
    except Exception as exc:  # surface, never hide, an instance blowup
        witness = f"exception: {exc}"
        status = "fail"
    return VerifyReport(suite, params, status, witness, time.perf_counter() - start)


# -- individual suites -----------------------------------------------------------
#
# run_suite runs each yielded check before it resumes the suite, so a check
# reads the suite's loop variables and its size's builders late, as they
# stand when it is yielded.  Each datum that checks of one size share is made
# once per n (per (n, k) in difference-W) as a functools.cache'd builder:
# it builds inside the first instance that calls it, a raising build is not
# cached, so every instance that calls it fails alike, and the size's data is
# dropped at the next size.  gf's gf_T(m, 0) builder spans sizes, since each
# n's start-shift reads every smaller m, and so does its product builder,
# since each n's product extends the last; both are dropped with the suite.


def suite_gf(max_n: int):
    base = cache(lambda m: gf_T(m, 0))  # each start-shift reads the smaller sizes' families

    @cache
    def product(m):
        """q_pochhammer(z, m - 2), as the last size's product times one more
        factor (1 + z q^(m-2)); independent of gf_T."""
        return ONE if m < 3 else product(m - 1) * (ONE + z_var * q_power(m - 2))

    for n in range(2, max_n + 1):
        def poch():
            lhs = base(n)
            rhs = product(n)
            return None if lhs == rhs else f"{lhs} != {rhs}"

        yield {"identity": "pochhammer", "n": n}, poch

        def shifted():
            for s in range(0, n - 1):
                lhs = gf_T(n, s) if s else base(n)
                if lhs != gf_closed(n, s):
                    return f"s={s}: enumeration != closed form"
                if not lhs.equals_shifted(base(n - s), 1, (n - 2 - s) * s + binom2(s + 1), 0, s):
                    return f"s={s}: start-height shift identity fails"
            return None

        yield {"identity": "start-shift", "n": n}, shifted

        def slices():
            by_height = base(n).coefficients_of("z")  # one pass, every height slice
            for j in range(0, n - 1):
                if not by_height.get(j, ZERO).equals_shifted(gauss_binomial(n - 2, j), 1, binom2(j + 1)):
                    return f"height slice j={j} mismatch"
            return None

        yield {"identity": "height-slice", "n": n}, slices


def suite_alternating(max_n: int):
    cs = range(-2, 3)
    for n in range(3, max_n + 1):
        checks = cache(lambda: characters.alternating_identities_by_c(n, cs))  # every c at once
        for c in cs:
            def check():
                return None if checks()[c] else "identity check returned false"

            yield {"n": n, "c": c}, check


def suite_restriction2(max_n: int):
    # with integer coefficients, equal two-row parts are equal specialize2 evaluations
    for n in range(2, max_n + 1):
        for d in range(1, n + 1):
            mu = make_hook(d, n - d)

            def check():
                lhs = two_row_part(characters.hook_formula(n, 1, mu).expansion)
                rhs = two_row_part(characters.gl2_nabla_hooks(n, 1, mu))
                ab = min((ab for ab in lhs.keys() | rhs.keys() if lhs.get(ab) != rhs.get(ab)), default=None)
                return None if ab is None else f"(a, b)={ab}: {lhs.get(ab, 0)} != {rhs.get(ab, 0)}"

            yield {"n": n, "mu": partition_str(mu)}, check


def suite_hrs_t0(max_n: int):
    # at t = 0 only the one-row terms survive: first_row_fingerprint reads them
    for n in range(2, max_n + 1):
        shapes = cache(lambda: list(partitions_of(n)))
        tables = cache(lambda: characters.hrs_t0_by_k(n))
        delta = cache(lambda mu: characters.gl2_delta_mu_by_k(n, mu))

        def against_hooks():
            table = tables()[0]
            for mu in shapes():
                lhs = first_row_fingerprint(characters.hook_formula(n, 1, mu).expansion)
                if lhs != table.coefficient(mu):
                    return f"mu={partition_str(mu)}"
            return None

        yield {"check": "hook-formula", "n": n}, against_hooks

        for k_pieri in range(0, n):
            def against_delta():
                table = tables()[n - 1 - k_pieri]
                for mu in shapes():
                    if first_row_fingerprint(delta(mu)[k_pieri]) != table.coefficient(mu):
                        return f"mu={partition_str(mu)}"
                return None

            yield {"check": "delta-mu", "n": n, "k": k_pieri}, against_delta


def suite_pieri_paths(max_n: int):
    for n in range(3, max_n + 1):
        paths = cache(lambda: pierimaps.perp_via_paths_by_k(n))  # both sides at every k
        strips = cache(lambda: e_perp_by_k(characters.alternant_formula(n, 1), n - 2))

        for k in range(0, n - 1):
            def equality():
                lhs = paths()[k]
                rhs = strips()[k]
                return None if lhs == rhs else f"{lhs} != {rhs}"

            yield {"check": "perp", "n": n, "k": k}, equality

            def positivity():
                tallies = pierimaps.pieri_tallies(n, k)
                plus, minus = tallies["tplus"], tallies["tminus"]
                if tallies["v_plus"]:
                    return "V escapes the minus set"
                total = sum(plus.values()) + sum(minus.values())
                if total != comb(n - 1, k) * 2 ** (n - k - 2):
                    return f"cardinality {total} off"
                # every tagged path, by family_counts' DP rather than by leading runs
                majps = {}
                for d in combinations(range(1, n), k):
                    majps[-sum(d)] = majps.get(-sum(d), 0) + 1
                union = family_tally({(n, k): majps})
                if any(_signed_tally(union, plus, minus).values()):
                    return "plus/minus sets do not split the tagged paths"
                gap = tally_hooks(n, _signed_tally(union, plus, tallies["v"]), "a tagged path")
                return None if gap.is_schur_positive() else f"negative gap {gap}"

            yield {"check": "positivity", "n": n, "k": k}, positivity


def _signed_tally(tally, *less) -> dict:
    """The tally minus each of `less`, key by key, over the keys of all of
    them, zero counts kept.  tally_hooks is linear and path_hook injective
    on (a, ht), so tally_hooks of this is tally_hooks(tally) less each
    tally_hooks(less) in one expansion, and every key still meets
    path_hook's guard."""
    out = dict(tally)
    for other in less:
        for key, c in other.items():
            out[key] = out.get(key, 0) - c
    return out


def suite_bijections(max_n: int):
    for n in range(3, max_n + 1):
        stats = cache(lambda k: pierimaps.image_stats(n, k))
        members = cache(lambda k: pierimaps.member_prefixes(n, k))  # both maps' membership at k
        slices = cache(lambda: _height_slices(n))
        yield {"map": "plus", "n": n}, lambda: _check_pieri(n, False, stats, members)
        yield {"map": "minus", "n": n}, lambda: _check_pieri(n, True, stats, members)
        yield {"map": "east-start", "n": n}, lambda: _check_phi(n, slices)
        yield {"map": "north-start", "n": n}, lambda: _check_omega(n, slices)
        yield {"map": "descent-path", "n": n}, lambda: _check_beta(n, slices)
        yield {"map": "slice-partition", "n": n}, lambda: _check_slice(slices)


def _check_pieri(n, minus, stats, members):
    """The plus map (minus=False) or the minus map on every k: the hook law,
    injectivity, and the image being the plus set or the V set -- each image
    in T(n, k), its descent set's member prefix leading it, and as many
    images as the set has members -- and the (area, ht) the stream carries
    for each image being its own.  Each k reads the map's image stream in
    word order, through the suite's builders of image_stats(n, k), the
    statistics' oracle, and of member_prefixes(n, k)."""
    m = int(minus)
    target = "V" if minus else "plus"
    unknown = (("N", inf),) * 2  # a descent set that is no k-subset tags no member
    for k in range(m, n - 1):
        length = n - k - 2
        image_stats = stats(k)
        prefixes = members(k)
        images = {}  # descent set -> its image words
        count = 0
        last = None  # the words of one prefix class share one descent set
        stream = enumerate(pierimaps.image_stream(n, k, minus), 1)
        for count, (gamma, area, ht, descents, word, carried_area, carried_ht) in stream:
            if descents is not last:
                last, words = descents, images.setdefault(descents, set())
                # the hook law: the image's hook (area + ht + 1 - m, 1^(n-2-ht-k+m))
                # means an image k - m steps higher and maj' - k boxes larger
                gain = sum(descents) - k
                step, run = prefixes.get(descents, unknown)[m]
                lead = step * run if run <= length else None
            try:
                image_area, image_ht = image_stats(gamma, word)
            except ValueError:  # the image word is off the (n, k) family
                return f"k={k} image of {gamma} is not in the {target} set"
            words.add(word)
            if image_ht - ht != k - m or image_area - area != gain:
                return f"k={k} hook law fails on {gamma}"
            if lead is None or not word.startswith(lead):
                return f"k={k} image of {gamma} is not in the {target} set"
            if carried_area != image_area or carried_ht != image_ht:
                return f"k={k} image statistics of {gamma} are off"
        distinct = sum(map(len, images.values()))
        if distinct != count:
            return f"k={k} not injective"
        runs = (both[m][1] for both in prefixes.values())
        if distinct != sum(2 ** (length - run) for run in runs if run <= length):
            return f"k={k} image is not the {target} set"
    return None


def _bijects(label, domain, forward, inverse, statistic, target):
    """A witness that `forward` is not a bijection from `domain` onto
    `target`, undone by `inverse`, with statistic(x, forward(x)) true on
    every x -- or None."""
    images = set()
    for x in domain:
        y = forward(x)
        images.add(y)
        if inverse(y) != x:
            return f"{label} round trip fails on {_shown(x)}"
        if not statistic(x, y):
            return f"{label} statistic fails on {_shown(x)}"
    if len(images) != len(domain) or images != set(target):
        return f"{label} image mismatch"
    return None


def _shown(x):
    """A witness as printed; a descent set reads as its sorted list, as in `pieri`."""
    return sorted(x) if isinstance(x, frozenset) else x


def _height_slices(n):
    """The words of T(n, 0) by height, each slice as {word: area}."""
    slices = {}
    for word, area, ht in words_T(n, 0):
        slices.setdefault(ht, {})[word] = area
    return slices


def _trailing_norths(word):
    return len(word) - len(word.rstrip("N"))


def _check_phi(n, slices):
    for k in range(0, n - 2):
        h = n - k - 3
        areas = slices()[h]
        witness = _bijects(
            f"k={k}", [w for w in areas if w.startswith("E")],
            lambda w: pierimaps.north_descents(n, w, 1) | {1, 2},
            lambda d: pierimaps.descents_word(n, d - {1, 2}, 1, k + 1),
            lambda w, d: areas[w] + h + 1 == sum(d) - len(d),
            [frozenset((1, 2) + c) for c in combinations(range(3, n), h)],
        )
        if witness:
            return witness
    return None


def _check_omega(n, slices):
    for k in range(0, n - 2):
        h = n - k - 3
        areas = slices()[h]
        by_run = {}  # trailing north run -> the north-start words of height h
        for w in areas:
            if w.startswith("N"):
                by_run.setdefault(_trailing_norths(w), []).append(w)
        for j in range(0, h):
            fixed = (*range(1, j + 3), n - 1)
            witness = _bijects(
                f"k={k} j={j}", by_run.get(j, []),
                lambda w: pierimaps.north_descents(n, w, 0) | {1, j + 2},
                lambda d: pierimaps.descents_word(n, d - {1, j + 2}, 0, k + 1),
                lambda w, d: areas[w] + h + 1 == sum(d) - (j + 2),
                [frozenset(fixed + c) for c in combinations(range(j + 3, n - 1), h - j - 1)],
            )
            if witness:
                return witness
        # a north-start word of height h always carries k+1 >= 1 east steps,
        # so its trailing run is < h; the descent-set characterization is
        # only meaningful below that edge
        if h in by_run:
            return f"k={k} j={h} unexpected all-north domain"
    return None


def _check_beta(n, slices):
    for d in range(0, n - 1):
        h = n - d - 2
        areas = slices()[h]
        witness = _bijects(
            f"d={d}", [frozenset((1,) + c) for c in combinations(range(2, n), h)],
            lambda s: pierimaps.descents_word(n, s - {1}, 0, d),
            lambda w: pierimaps.north_descents(n, w, 0) | {1},
            # an image off the slice fails the image check instead
            lambda s, w: w not in areas or sum(s) == areas[w] + h + 1,
            areas,
        )
        if witness:
            return witness
    return None


def _check_slice(slices):
    for h, areas in sorted(slices().items()):
        slice_words = set(areas)
        blocks = [{w for w in slice_words if w.startswith("E")}] + [
            {w for w in slice_words if w.startswith("N") and _trailing_norths(w) == j}
            for j in range(0, h + 1)
        ]
        if set().union(*blocks) != slice_words or sum(map(len, blocks)) != len(slice_words):
            return f"h={h} east/north blocks do not partition the slice"
    return None


def suite_two_column(max_n: int):
    for n in range(5, max_n + 1):
        def forms():
            lifted = characters.two_column_formula(n, "lifted")
            path = characters.two_column_formula(n, "path")
            return None if lifted == path else f"{lifted} != {path}"

        yield {"check": "forms-agree", "n": n}, forms

    for n in range(3, max_n + 2):  # the emptiness bound runs one size past
        def empty_w():
            w = pierimaps.pieri_tallies(n, n - 2)["w"]
            return None if not w else f"|W|={sum(w.values())}"

        yield {"check": "top-W-empty", "n": n}, empty_w


def suite_difference_w(max_n: int):
    for n in range(3, max_n + 1):
        for k in range(1, n - 1):
            @cache
            def tallies_and_direct():
                tallies = pierimaps.pieri_tallies(n, k)
                return tallies, tally_hooks(n, tallies["w"], "a W path")

            def set_identity():
                tallies, direct = tallies_and_direct()
                via_sets = tally_hooks(n, _signed_tally(tallies["tminus"], tallies["v"]), "a T- path")
                return None if direct == via_sets else "W sum != minus-sum - V-sum"

            yield {"check": "direct", "n": n, "k": k}, set_identity

            def comparison():
                report = pierimaps.compare_difference(n, k, tallies_and_direct()[1])
                bits = [
                    f"reindexed(conjugate-reading) {'agrees' if report['agree_conjugate'] else 'DISAGREES'}",
                    f"reindexed(literal-reading) {'agrees' if report['agree_literal'] else 'DISAGREES'}",
                ]
                if "agree_k1" in report:
                    bits.append(f"printed k=1 display {'agrees' if report['agree_k1'] else 'DISAGREES'}")
                return "; ".join(bits)

            yield {"check": "display", "n": n, "k": k}, comparison, "reported"


# name -> (suite, default size cap)
SUITES = {
    "gf": (suite_gf, 14),
    "alternating": (suite_alternating, 12),
    "restriction2": (suite_restriction2, 9),
    "hrs-t0": (suite_hrs_t0, 8),
    "pieri-paths": (suite_pieri_paths, 9),
    "bijections": (suite_bijections, 10),
    "two-column": (suite_two_column, 9),
    "difference-W": (suite_difference_w, 8),
}


def run_suite(name: str, max_n: int | None = None) -> list[VerifyReport]:
    """Run one named suite (or "all"); reports come back in deterministic order.

    Each suite runs up to the smaller of `max_n` and its default cap.  A cap
    below the smallest size the suite checks (for "all": below every
    suite's) is an error rather than an empty, passing run.
    """
    if name == "all":
        names, what = list(SUITES), "any suite"
    elif name in SUITES:
        names, what = [name], f"the {name} suite"
    else:
        known = ", ".join(list(SUITES) + ["all"])
        raise ValueError(f"unknown suite {name!r}; known: {known}")
    reports = []
    for suite_name in names:
        fn, default = SUITES[suite_name]
        for params, check, *status in fn(default if max_n is None else min(max_n, default)):
            reports.append(_timed(suite_name, params, check, *status))
    if not reports:
        # a suite below its first size yields nothing and builds nothing, so
        # probing caps 0..default finds its smallest without running a check
        smallest = min(
            next(cap for cap in range(default + 1) if next(fn(cap), None))
            for fn, default in map(SUITES.get, names)
        )
        raise ValueError(
            f"max_n={max_n} is below {smallest}, the smallest cap at which {what} checks something"
        )
    return reports


def has_failure(reports) -> bool:
    return any(r.status == "fail" for r in reports)
