"""Closed character formulas: the hook-component expansion driven by tableaux
and staircase paths, its two-row (GL2) major-index specializations, the t=0
oracle, the inclusion-exclusion lifts, the alternating-sum identities behind
them, and the two-column extension.

The main expansion is proven for r = 1 and mu in {(n), (n-1,1), (n-2,1,1),
(1^n)}; every other input is still computed but flagged conjectural, since
exploring those cases is the point of having the formula in executable form.
"""

from collections import Counter, namedtuple

from .paths import PATH_STEP_BOUND, binom2, enumerate_T, family_tally, gf_closed, path_hook, stats_T
from .qpoly import (
    LaurentPoly,
    ZERO,
    gauss_binomial,
    gauss_binomial_qinv,
    q_power,
)
from .schur import SchurExpansion, e_perp, first_row_fingerprint, restrict
from .shapes import (
    Partition,
    check_partition,
    conjugate,
    descent_tally,
    is_hook,
    normalize_shape,
    partitions_of,
)

HRS_SIZE_BOUND = 9


def proven_inputs(n: int, r: int, mu: Partition) -> bool:
    """The hypothesis list under which the hook-component formula is a theorem."""
    if r != 1:
        return False
    proven = {(n,), (1,) * n}
    if n >= 2:
        proven.add((n - 1, 1))
    if n >= 3:
        proven.add((n - 2, 1, 1))
    return mu in proven


class HookResult(namedtuple("HookResult", "n r mu expansion proven")):
    """A hook-component expansion plus its theorem-vs-conjecture status."""

    __slots__ = ()

    def banner(self) -> str:
        status = "proven" if self.proven else "conjectural"
        return f"n={self.n} r={self.r} mu={','.join(map(str, self.mu)) or 'empty'}: {status}"


def hook_formula(n: int, r: int, mu) -> HookResult:
    """The tableau-and-path expansion of the hook components.

    For each standard tableau of shape mu the paths start at the conjugate's
    descent count; every path contributes the hook whose arm is
    (r-1)*binom(n,2) + area + ht - maj(conjugate) + 1 and whose leg brings
    the total height to n-2.  Pairs with equal statistics contribute equal
    terms, so the tableaux enter by (des', maj') class (_syt_families).
    """
    mu = check_partition(mu)
    if n < 2:
        raise ValueError("hook_formula needs n >= 2")
    if r < 1:
        raise ValueError("hook_formula needs r >= 1")
    if sum(mu) != n:
        raise ValueError(f"mu={mu} is not a partition of n={n}")
    base = (r - 1) * binom2(n)
    expansion = family_hooks(n, _syt_families(n, mu, base), f"n={n}, r={r}, mu={mu}")
    return HookResult(n, r, mu, expansion, proven_inputs(n, r, mu))


def _syt_families(n: int, mu: Partition, base: int) -> dict:
    """The path families of the tableaux in SYT(mu), for family_tally: the
    class of conjugate statistics (des', maj') reads T(n, des') shifted by
    base - maj'."""
    return {
        (n, desp): {base - majp: c for majp, c in majps.items()}
        for desp, majps in descent_tally(conjugate(mu)).items()
    }


def family_hooks(n: int, families, context) -> SchurExpansion:
    """The expansion sum of count * s_path_hook(n, a, ht) over the
    (a, ht) tally family_tally(families); `context` names the formula in
    the guard's message."""
    return tally_hooks(n, family_tally(families), context)


def tally_hooks(n: int, tally, context) -> SchurExpansion:
    """The expansion sum of count * s_path_hook(n, a, ht) over a tally
    (a, ht) -> count; `context` names its terms in the guard's message."""
    return SchurExpansion({path_hook(n, a, ht, context): c for (a, ht), c in tally.items()})


def alternant_formula(n: int, r: int) -> SchurExpansion:
    """The alternant case: one path family, no tableau sum."""
    if n < 2 or r < 1:
        raise ValueError("alternant_formula needs n >= 2 and r >= 1")
    return family_hooks(n, {(n, 0): {(r - 1) * binom2(n): 1}}, f"n={n}, r={r}")


# -- two-row (GL2) formulas ------------------------------------------------------


def gl2_nabla_hooks(n: int, r: int, mu) -> SchurExpansion:
    """Major-index form of the hook components for hook-shaped mu, with
    indices of at most two rows (read through the two-variable evaluation)."""
    mu = check_partition(mu)
    if not is_hook(mu) or sum(mu) != n:
        raise ValueError(f"mu={mu} must be a hook of size n={n}")
    counts = Counter()
    for desp, majps in descent_tally(conjugate(mu)).items():
        for majp, c in majps.items():
            _add_gl2_terms(counts, r * binom2(n) - majp, max(n - 1, 0) - desp, c)
    return SchurExpansion(counts)


def gl2_delta_en(n: int, k: int) -> SchurExpansion:
    """The elementary-pairing specialization, summed over SYT((n-k, 1^k))."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"k={k} outside 0..{n - 1}")
    counts = Counter()
    for majs in descent_tally((n - k,) + (1,) * k).values():
        for maj, c in majs.items():
            _add_gl2_terms(counts, maj, k, c)
    return SchurExpansion(counts)


def _add_gl2_terms(counts: Counter, m: int, top: int, count: int) -> None:
    """Count s_(m) and s_(m-i, 1) for i = 2..top, count times each."""
    _add_shape(counts, (m,), count)
    for i in range(2, top + 1):
        _add_shape(counts, (m - i, 1), count)


def gl2_delta_mu(n: int, k: int, mu) -> SchurExpansion:
    """Height-filtered path form of the adjoint-Pieri specialization.

    The two-row terms come from paths of height k-2 and k-1, the one-row
    terms from heights k-1 and k; at k = n-1 each filter keeps only its
    lower height.
    """
    mu = check_partition(mu)
    if sum(mu) != n:
        raise ValueError(f"mu={mu} is not a partition of n={n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k={k} outside 0..{n - 1}")
    two_row_heights = {k - 2} if k == n - 1 else {k - 2, k - 1}
    one_row_heights = {k - 1} if k == n - 1 else {k - 1, k}
    counts = Counter()
    for (d, h), c in family_tally(_syt_families(n, mu, 0)).items():
        if h in two_row_heights:
            _add_shape(counts, (k - 1 + d, 1), c)
        if h in one_row_heights:
            _add_shape(counts, (k + d,), c)
    return SchurExpansion(counts)


def _add_shape(counts: Counter, raw, count: int = 1) -> None:
    """Count s_shape count times; a raw shape off the diagram counts as 0."""
    shape = normalize_shape(raw)
    if shape is not None:
        counts[shape] += count


def hrs_t0(n: int, k: int) -> SchurExpansion:
    """The t=0 character over all shapes of n, exact in q.

    Coefficient of s_mu: sum over tableaux of shape mu of
    q^(k*des' + binom(n-k,2) - maj') * [des k]_q, where the primes are
    conjugate statistics.  An oracle, so bounded at n <= 9.
    """
    if n > HRS_SIZE_BOUND:
        raise ValueError(f"hrs_t0 bound exceeded: n={n} > {HRS_SIZE_BOUND}")
    if k < 0:
        raise ValueError("hrs_t0 needs k >= 0")
    terms = {}
    for mu in partitions_of(n):
        coeff = Counter()
        for desp, majps in descent_tally(conjugate(mu)).items():
            des = max(n - 1, 0) - desp
            if des < k:  # [des k]_q = 0
                continue
            for majp, count in majps.items():
                expo = k * desp + binom2(n - k) - majp
                for (eq, et, ez), c in gauss_binomial(des, k).items():
                    coeff[eq + expo, et, ez] += count * c
        terms[mu] = LaurentPoly(coeff)
    return SchurExpansion(terms)


# -- one-part data and the inclusion-exclusion lifts -----------------------------


def f_one_part(n: int, r: int, j: int) -> LaurentPoly:
    """The q-analogue of the one-part data: q^(r*binom(n,2) - binom(j+1,2))
    times the Gaussian binomial [n-1 j] at 1/q.  Always a polynomial."""
    if not 0 <= j <= n - 1:
        return ZERO
    return q_power(r * binom2(n) - binom2(j + 1)) * gauss_binomial_qinv(n - 1, j)


def one_part_fingerprints(G: SchurExpansion, i_max: int) -> list[LaurentPoly]:
    """f_i = the one-part fingerprint of the i-th adjoint Pieri image.

    The empty partition, where an all-boxes deletion of a column lands,
    reads as q^0: the closed one-part formula assigns it 1.  Read off the
    alternant's Pieri images, this is the oracle for the closed form
    f_one_part."""
    return [first_row_fingerprint(e_perp(i, G)) for i in range(i_max + 1)]


def lift_hooks(fs) -> LaurentPoly:
    """Rebuild the hook fingerprint from one-part data by the alternating
    double sum: sum_{j>=0} sum_{k=0}^{j} (-1)^k f_{j-k} q^-k t^j."""
    return LaurentPoly.sum(
        fs[j - k] * LaurentPoly.term(-1 if k % 2 else 1, eq=-k, et=j)
        for j in range(len(fs))
        for k in range(j + 1)
    )


def lift_next_column(G: SchurExpansion, b: int) -> LaurentPoly:
    """Rebuild psi of the (a, b+1, 1^k)-part of G from two-row data.

    The i-th datum is the (a, b) two-row part of the i-th adjoint Pieri
    image, with the contribution of G's own (a, b, 1^k)-part subtracted
    (only the b- and (b+1)-column components can reach a two-row (a, b)
    index, so the subtraction isolates the part being lifted).  V_b holds
    every two-row shape (a, b), so the 0-th datum, G's (a, b) part minus
    the same part, is 0, and the alternating double sum needs no j = 0
    correction.
    """
    if b < 1:
        raise ValueError("lift_next_column needs b >= 1")
    own = restrict(G, f"V{b}")
    i_max = max((len(lam) for lam in G.support()), default=0) + 2
    fs = [
        first_row_fingerprint(e_perp(i, G), (b,)) - first_row_fingerprint(e_perp(i, own), (b,))
        for i in range(i_max + 1)
    ]
    return lift_hooks(fs)


# -- the alternating-sum identities ----------------------------------------------


def _default_g(variant: str, c: int):
    """The two exponent families of the identities: g(j, k) - g(j, k-1) =
    j + k, with base g(j, 0) = b(j) + c, b(j) = binom(j, 2) for "plain" and
    binom(j+1, 2) for "area_ht".

    No other family adds a case: for j >= 1 the difference condition and a
    constant base shift s force g(j, k) = b(j) + s + binom(k+1, 2) + jk,
    which is this family at c = s, and at j = 0 both sides vanish whatever
    g(0, 0) is, since sum_k (-1)^k q^binom(k,2) [n-1 k]_q = (1; q)_(n-1) = 0.
    The constant c shifts the base, exercising that the identities only see
    the base through an overall power of q.
    """
    if variant == "plain":
        return lambda j, k: binom2(j + k + 1) - j + c
    return lambda j, k: binom2(j + k + 1) + c


def _alt_sum(n: int, j: int, g) -> LaurentPoly:
    return LaurentPoly.sum(
        gauss_binomial(n - 1, j + k) * LaurentPoly.term(-1 if k % 2 else 1, eq=g(j, k) - k)
        for k in range(n - j)
    )


def alternating_identity_check(n: int, c: int = 0) -> bool:
    """Verify the alternating-to-positive identities symbolically, for both
    exponent families of _default_g.

    Per j: sum_k (-1)^k [n-1 j+k]_q q^(g(j,k)-k) collapses to
    [n-2 j-1]_q q^(g(j,0)) (zero at j = 0).  Summed over j >= 1 against
    z^(j-1), the "plain" family reproduces the (n, 0) generating function
    times q^c, and the "area_ht" family reproduces it at z -> qz times
    q^(c+1).  Each per-j sum is evaluated once and feeds both checks.
    """
    if n < 2:
        raise ValueError("identity checks need n >= 2")
    gf = gf_closed(n, 0)
    expected = {
        "plain": gf * q_power(c),
        "area_ht": gf.substitute({"z": LaurentPoly.term(1, eq=1, ez=1)}) * q_power(c + 1),
    }
    for variant, want in expected.items():
        g = _default_g(variant, c)
        sums = [_alt_sum(n, j, g) for j in range(n)]
        for j, lhs in enumerate(sums):
            if lhs != gauss_binomial(n - 2, j - 1) * q_power(g(j, 0)):
                return False
        total = LaurentPoly.sum(
            sums[j] * LaurentPoly.term(1, ez=j - 1) for j in range(1, n)
        )
        if total != want:
            return False
    return True


# -- the two-column formulas -----------------------------------------------------


def two_column_formula(n: int, form: str = "path") -> SchurExpansion:
    """The (a, 2, 1^k)-component, in either of two provably equal forms.

    "lifted" counts descent-constrained hook tableaux by major index with
    Gaussian binomials (shape read off the major index); "path" re-indexes
    over staircase paths excluding the words that start north and finish
    with i-1 norths.  Empty below n = 5.
    Sizes whose path family has more than 2^PATH_STEP_BOUND paths are
    refused before either form runs.
    """
    if n < 2:
        raise ValueError("two_column_formula needs n >= 2")
    if n - 2 > PATH_STEP_BOUND:
        raise ValueError(
            f"the two-column forms at n={n} sum over 2^{n - 2} paths, past the "
            f"enumeration bound of 2^{PATH_STEP_BOUND}"
        )
    counts = Counter()
    if form == "lifted":
        for k in range(1, n - 3):
            m = n - k - 1  # descent count of shape (k+1, 1^(n-k-1))
            # maj over the descent sets containing 1, less those containing {1..i, n-1}
            with_one = q_power(binom2(m + 1)) * gauss_binomial(n - 2, m - 1)
            for i in range(2, m):
                kept = with_one - q_power(n - 1 + binom2(m)) * gauss_binomial(n - 2 - i, m - i - 1)
                for (maj, _, _), c in kept.items():
                    counts[(maj - i, 2) + (1,) * (k - 1)] += c
        return SchurExpansion(counts)
    if form == "path":
        for gamma, (area, h) in zip(enumerate_T(n, 0), stats_T(n, 0)):
            if h > n - 3:
                continue
            starts_north = gamma.word.startswith("N")
            trailing = gamma.trailing_run("N")
            for i in range(2, h + 1):
                if starts_north and trailing >= i - 1:
                    continue
                counts[check_partition((area + h + 1 - i, 2) + (1,) * (n - 3 - h))] += 1
        return SchurExpansion(counts)
    raise ValueError(f"unknown form {form!r}")
