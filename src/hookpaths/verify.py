"""The verification-suite runner: every stated identity, exhaustively at desk
scale, with counterexample witnesses rendered as the objects themselves
(words over N/E, descent sets) so failures can be checked by hand.

Statuses: "pass"/"fail" for asserted identities, "reported" for the
difference-formula comparisons whose printed source is under empirical
scrutiny rather than assertion.
"""

import time
from collections import Counter
from functools import partial
from itertools import combinations
from math import comb

from . import characters, pierimaps
from .characters import tally_hooks
from .paths import binom2, enumerate_T, family_tally, gf_T, gf_closed
from .qpoly import LaurentPoly, gauss_binomial, q_pochhammer, q_power, z as z_var
from .schur import e_perp, first_row_fingerprint, specialize2
from .shapes import hook_descent_subsets, hook_index, make_hook, partitions_of, partition_str


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


def suite_gf(max_n: int) -> list[VerifyReport]:
    out = []
    for n in range(2, max_n + 1):
        def poch(n=n):
            lhs = gf_T(n, 0)
            rhs = q_pochhammer(z_var, n - 2, rising=True)
            return None if lhs == rhs else f"{lhs} != {rhs}"

        out.append(_timed("gf", {"identity": "pochhammer", "n": n}, poch))

        def shifted(n=n):
            for s in range(0, n - 1):
                lhs = gf_T(n, s)
                if lhs != gf_closed(n, s):
                    return f"s={s}: enumeration != closed form"
                shift = LaurentPoly.term(1, eq=(n - 2 - s) * s + binom2(s + 1), ez=s)
                if lhs != gf_T(n - s, 0) * shift:
                    return f"s={s}: start-height shift identity fails"
            return None

        out.append(_timed("gf", {"identity": "start-shift", "n": n}, shifted))

        def slices(n=n):
            gf = gf_T(n, 0)
            for j in range(0, n - 1):
                expected = q_power(binom2(j + 1)) * gauss_binomial(n - 2, j)
                if gf.coefficient_of("z", j) != expected:
                    return f"height slice j={j} mismatch"
            return None

        out.append(_timed("gf", {"identity": "height-slice", "n": n}, slices))
    return out


def suite_alternating(max_n: int) -> list[VerifyReport]:
    out = []
    for n in range(3, max_n + 1):
        for c in range(-2, 3):
            def check(n=n, c=c):
                ok = characters.alternating_identity_check(n, c)
                return None if ok else "identity check returned false"

            out.append(_timed("alternating", {"n": n, "c": c}, check))
    return out


def suite_restriction2(max_n: int) -> list[VerifyReport]:
    out = []
    for n in range(2, max_n + 1):
        for d in range(1, n + 1):
            mu = make_hook(d, n - d)

            def check(n=n, mu=mu):
                lhs = specialize2(characters.hook_formula(n, 1, mu).expansion)
                rhs = specialize2(characters.gl2_nabla_hooks(n, 1, mu))
                return None if lhs == rhs else f"{lhs} != {rhs}"

            out.append(
                _timed("restriction2", {"n": n, "mu": partition_str(mu)}, check)
            )
    return out


def suite_hrs_t0(max_n: int) -> list[VerifyReport]:
    # at t = 0 only the one-row terms survive: first_row_fingerprint reads them
    out = []
    for n in range(2, max_n + 1):
        def against_hooks(n=n):
            table = characters.hrs_t0(n, 0)
            for mu in partitions_of(n):
                lhs = first_row_fingerprint(characters.hook_formula(n, 1, mu).expansion)
                if lhs != table.coefficient(mu):
                    return f"mu={partition_str(mu)}"
            return None

        out.append(_timed("hrs-t0", {"check": "hook-formula", "n": n}, against_hooks))

        for k_pieri in range(0, n):
            def against_delta(n=n, k_pieri=k_pieri):
                table = characters.hrs_t0(n, n - 1 - k_pieri)
                for mu in partitions_of(n):
                    lhs = first_row_fingerprint(characters.gl2_delta_mu(n, k_pieri, mu))
                    if lhs != table.coefficient(mu):
                        return f"mu={partition_str(mu)}"
                return None

            out.append(
                _timed("hrs-t0", {"check": "delta-mu", "n": n, "k": k_pieri}, against_delta)
            )
    return out


def suite_pieri_paths(max_n: int) -> list[VerifyReport]:
    out = []
    for n in range(3, max_n + 1):
        alternant = characters.alternant_formula(n, 1)
        for k in range(0, n - 1):
            def equality(n=n, k=k):
                lhs = pierimaps.perp_via_paths(n, k)
                rhs = e_perp(k, alternant)
                return None if lhs == rhs else f"{lhs} != {rhs}"

            out.append(_timed("pieri-paths", {"check": "perp", "n": n, "k": k}, equality))

            def positivity(n=n, k=k):
                tallies = pierimaps.pieri_tallies(n, k)
                plus, minus = tallies["tplus"], tallies["tminus"]
                if tallies["v_plus"]:
                    return "V escapes the minus set"
                total = sum(plus.values()) + sum(minus.values())
                if total != comb(n - 1, k) * 2 ** (n - k - 2):
                    return f"cardinality {total} off"
                # every tagged path, by family_counts' DP rather than by leading runs
                majps = Counter(-sum(d) for d in combinations(range(1, n), k))
                union = family_tally({(n, k): majps})
                if union != plus + minus:
                    return "plus/minus sets do not split the tagged paths"
                gap = tally_hooks(n, union, "a tagged path") - (
                    tally_hooks(n, plus, "a T+ path") + tally_hooks(n, tallies["v"], "a V path")
                )
                return None if gap.is_schur_positive() else f"negative gap {gap}"

            out.append(
                _timed("pieri-paths", {"check": "positivity", "n": n, "k": k}, positivity)
            )
    return out


def suite_bijections(max_n: int) -> list[VerifyReport]:
    out = []
    for n in range(3, max_n + 1):
        out.append(_timed("bijections", {"map": "plus", "n": n}, lambda n=n: _check_pieri(n, False)))
        out.append(_timed("bijections", {"map": "minus", "n": n}, lambda n=n: _check_pieri(n, True)))
        out.append(_timed("bijections", {"map": "east-start", "n": n}, lambda n=n: _check_phi(n)))
        out.append(_timed("bijections", {"map": "north-start", "n": n}, lambda n=n: _check_omega(n)))
        out.append(_timed("bijections", {"map": "descent-path", "n": n}, lambda n=n: _check_beta(n)))
        out.append(_timed("bijections", {"map": "slice-partition", "n": n}, lambda n=n: _check_slice(n)))
    return out


def _check_pieri(n, minus):
    """The plus map (minus=False) or the minus map on every k: the hook law,
    injectivity, and the image being the plus set or the V set."""
    m = int(minus)
    in_domain = pierimaps.minus_domain if minus else pierimaps.plus_domain
    pieri_map = pierimaps.e_minus_map if minus else pierimaps.e_plus_map
    family = enumerate_T(n, 0)
    target = pierimaps.v_set if minus else pierimaps.plus_set
    for k in range(m, n - 1):
        domain = [gamma for gamma in family if in_domain(k, gamma)]
        images = set()
        for gamma in domain:
            tagged = pieri_map(k, gamma)
            images.add(tagged)
            ht = gamma.ht()
            want = hook_index(gamma.area() + ht + 1 - m, n - 2 - ht - k + m)
            if pierimaps.hook_of(tagged) != want:
                return f"k={k} hook law fails on {gamma}"
        if len(images) != len(domain):
            return f"k={k} not injective"
        if images != target(n, k):
            return f"k={k} image is not the {'V' if minus else 'plus'} set"
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


def _check_phi(n):
    east_start = [p for p in enumerate_T(n, 0) if p.word.startswith("E")]
    for k in range(0, n - 2):
        witness = _bijects(
            f"k={k}", [p for p in east_start if p.ht() == n - k - 3],
            partial(pierimaps.phi_map, k), partial(pierimaps.phi_inverse, k, n),
            lambda gamma, d: gamma.area() + gamma.ht() + 1 == sum(d) - len(d),
            [d for d in hook_descent_subsets(n, n - k - 1) if {1, 2} <= d],
        )
        if witness:
            return witness
    return None


def _check_omega(n):
    north_start = [p for p in enumerate_T(n, 0) if p.word.startswith("N")]
    for k in range(0, n - 2):
        h = n - k - 3
        for j in range(0, h + 1):
            domain = [p for p in north_start if p.trailing_run("N") == j and p.ht() == h]
            if j == h:
                # a north-start path of height h always carries k+1 >= 1
                # east steps, so its trailing run is < h; the descent-set
                # characterization is only meaningful below that edge
                if domain:
                    return f"k={k} j={j} unexpected all-north domain"
                continue
            witness = _bijects(
                f"k={k} j={j}", domain,
                partial(pierimaps.omega_map, k, j), partial(pierimaps.omega_inverse, k, j, n),
                lambda gamma, d: gamma.area() + gamma.ht() + 1 == sum(d) - (j + 2),
                [d for d in hook_descent_subsets(n, n - k - 1) if set(range(1, j + 3)) | {n - 1} <= d],
            )
            if witness:
                return witness
    return None


def _check_beta(n):
    family = enumerate_T(n, 0)
    for d in range(0, n - 1):
        witness = _bijects(
            f"d={d}", [s for s in hook_descent_subsets(n, n - d - 1) if 1 in s],
            partial(pierimaps.beta_map, d, n), partial(pierimaps.beta_inverse, d),
            lambda s, gamma: sum(s) == gamma.area() + gamma.ht() + 1,
            [p for p in family if p.ht() == n - d - 2],
        )
        if witness:
            return witness
    return None


def _check_slice(n):
    family = enumerate_T(n, 0)
    for h in range(0, n - 1):
        slice_paths = {p for p in family if p.ht() == h}
        blocks = [{p for p in slice_paths if p.word.startswith("E")}] + [
            {p for p in slice_paths if p.word.startswith("N") and p.trailing_run("N") == j}
            for j in range(0, h + 1)
        ]
        if set().union(*blocks) != slice_paths or sum(map(len, blocks)) != len(slice_paths):
            return f"h={h} east/north blocks do not partition the slice"
    return None


def suite_two_column(max_n: int) -> list[VerifyReport]:
    out = []
    for n in range(5, max_n + 1):
        def forms(n=n):
            lifted = characters.two_column_formula(n, "lifted")
            path = characters.two_column_formula(n, "path")
            return None if lifted == path else f"{lifted} != {path}"

        out.append(_timed("two-column", {"check": "forms-agree", "n": n}, forms))

    for n in range(3, max_n + 2):  # the emptiness bound runs one size past
        def empty_w(n=n):
            w = pierimaps.pieri_tallies(n, n - 2)["w"]
            return None if not w else f"|W|={sum(w.values())}"

        out.append(_timed("two-column", {"check": "top-W-empty", "n": n}, empty_w))
    return out


def suite_difference_w(max_n: int) -> list[VerifyReport]:
    out = []
    for n in range(3, max_n + 1):
        for k in range(1, n - 1):
            def set_identity(n=n, k=k):
                tallies = pierimaps.pieri_tallies(n, k)
                direct = tally_hooks(n, tallies["w"], "a W path")
                via_sets = tally_hooks(n, tallies["tminus"], "a T- path") - tally_hooks(
                    n, tallies["v"], "a V path"
                )
                return None if direct == via_sets else "W sum != minus-sum - V-sum"

            out.append(
                _timed("difference-W", {"check": "direct", "n": n, "k": k}, set_identity)
            )

            def comparison(n=n, k=k):
                report = pierimaps.compare_difference(n, k)
                bits = [
                    f"reindexed(conjugate-reading) {'agrees' if report['agree_conjugate'] else 'DISAGREES'}",
                    f"reindexed(literal-reading) {'agrees' if report['agree_literal'] else 'DISAGREES'}",
                ]
                if "agree_k1" in report:
                    bits.append(f"printed k=1 display {'agrees' if report['agree_k1'] else 'DISAGREES'}")
                return "; ".join(bits)

            out.append(
                _timed("difference-W", {"check": "display", "n": n, "k": k}, comparison, "reported")
            )
    return out


# name -> (suite, default size cap, smallest cap that runs an instance);
# two-column's top-W check runs one size past the cap, so 2 already runs n=3
SUITES = {
    "gf": (suite_gf, 14, 2),
    "alternating": (suite_alternating, 12, 3),
    "restriction2": (suite_restriction2, 9, 2),
    "hrs-t0": (suite_hrs_t0, 8, 2),
    "pieri-paths": (suite_pieri_paths, 9, 3),
    "bijections": (suite_bijections, 10, 3),
    "two-column": (suite_two_column, 9, 2),
    "difference-W": (suite_difference_w, 8, 3),
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
    smallest = min(SUITES[suite_name][2] for suite_name in names)
    if max_n is not None and max_n < smallest:
        raise ValueError(
            f"max_n={max_n} is below {smallest}, the smallest cap at which {what} checks something"
        )
    reports = []
    for suite_name in names:
        fn, default, _ = SUITES[suite_name]
        reports.extend(fn(default if max_n is None else min(max_n, default)))
    return reports


def has_failure(reports) -> bool:
    return any(r.status == "fail" for r in reports)
