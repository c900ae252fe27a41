"""Closed character formulas: the hook-component expansion driven by tableaux
and staircase paths, its two-row (GL2) major-index specializations, the t=0
oracle, the inclusion-exclusion lifts, the alternating-sum identities behind
them, and the two-column extension.

The main expansion is proven for r = 1 and mu in {(n), (n-1,1), (n-2,1,1),
(1^n)}; every other input is still computed but flagged conjectural, since
exploring those cases is the point of having the formula in executable form.
"""

from collections import namedtuple

from .paths import (
    _family_grid, binom2, family_counts, family_tally, gf_closed, path_hook,
)
from .paths import enumerate_T  # noqa: F401  bench/test_bench.py traces it as characters.enumerate_T
from .qpoly import (
    LaurentPoly,
    ZERO,
    gauss_binomial,
    gauss_binomial_qinv,
    q_power,
)
from .schur import SchurExpansion, e_perp_by_k, first_row_fingerprint, restrict
from .shapes import (
    Partition,
    check_partition,
    check_syt_size,
    conjugate,
    descent_classes,
    is_hook,
    partitions_of,
)


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
    mu = _partition_of(n, mu)
    if n < 2:
        raise ValueError("hook_formula needs n >= 2")
    if r < 1:
        raise ValueError("hook_formula needs r >= 1")
    base = (r - 1) * binom2(n)
    expansion = family_hooks(n, _syt_families(n, mu, base), f"n={n}, r={r}, mu={mu}")
    return HookResult(n, r, mu, expansion, proven_inputs(n, r, mu))


def _syt_families(n: int, mu: Partition, base: int) -> dict:
    """The path families of the tableaux in SYT(mu), for family_tally: the
    class of conjugate statistics (des', maj') reads T(n, des') shifted by
    base - maj'."""
    check_syt_size(n)  # before conjugate(mu), a tuple as long as mu's first part
    return {
        (n, desp): {base - majp: c for majp, c in majps}
        for desp, majps in descent_classes(conjugate(mu))
    }


def family_hooks(n: int, families, context) -> SchurExpansion:
    """The expansion sum of count * s_path_hook(n, a, ht) over the
    (a, ht) tally family_tally(families); `context` names the formula in
    the guard's message."""
    return tally_hooks(n, family_tally(families), context)


def tally_hooks(n: int, tally, context) -> SchurExpansion:
    """The expansion sum of count * s_path_hook(n, a, ht) over a tally
    (a, ht) -> count; `context` names its terms in the guard's message."""
    return SchurExpansion._trusted({path_hook(n, a, ht, context): c for (a, ht), c in tally.items()})


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
    if r < 1:
        raise ValueError("gl2_nabla_hooks needs r >= 1")
    check_syt_size(n)  # before conjugate(mu)
    # s_(m) is s_() at m = 0; s_(m-i, 1) for i = 2..des.  At r >= 1,
    # m >= maj >= binom(des+1, 2) >= des + 1 once des >= 2, so m - i >= 1
    counts = {}
    for desp, majps in descent_classes(conjugate(mu)):
        for majp, c in majps:
            m = r * binom2(n) - majp
            shape = (m,) if m else ()
            counts[shape] = counts.get(shape, 0) + c
            for i in range(2, n - desp):
                counts[m - i, 1] = counts.get((m - i, 1), 0) + c
    return SchurExpansion._trusted(counts)


def gl2_delta_en(n: int, k: int) -> SchurExpansion:
    """The elementary-pairing specialization, summed over SYT((n-k, 1^k)):
    gl2_nabla_hooks on that hook, as Des(T') = [n-1] \\ Des(T) gives each
    tableau T of it des = k and maj(T) = binom(n,2) - maj'."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"k={k} outside 0..{n - 1}")
    check_syt_size(n)  # before the hook (n-k, 1^k)
    return gl2_nabla_hooks(n, 1, (n - k,) + (1,) * k)


def gl2_delta_mu(n: int, k: int, mu) -> SchurExpansion:
    """The adjoint-Pieri specialization at one k: gl2_delta_mu_by_k's entry
    k, after the partition, sum and k checks."""
    mu = _partition_of(n, mu)
    if not 0 <= k <= n - 1:
        raise ValueError(f"k={k} outside 0..{n - 1}")
    return gl2_delta_mu_by_k(n, mu)[k]


def gl2_delta_mu_by_k(n: int, mu) -> list:
    """Height-filtered path form of the adjoint-Pieri specialization for each
    k = 0..n-1, from one fold of mu's path families: k's two-row terms read
    heights k-2 and k-1, its one-row terms k-1 and k, and at k = n-1 each
    keeps only the lower.  So one pass sends each (d, h) class of the fold
    to its at most four (k, shape) cells: s_(h+d, 1) at k = h+1, s_(h+1+d, 1)
    at k = h+2, s_(h+d) at k = h and s_(h+1+d) at k = h+1."""
    mu = _partition_of(n, mu)
    top = n - 1
    cells = [{} for _ in range(n)]  # s_(a, 1) needs a >= 1; s_(a) is s_() at a = 0
    for (d, h), c in family_tally(_syt_families(n, mu, 0)).items():
        a = h + d
        if h + 1 < top and a >= 1:
            two = cells[h + 1]
            two[a, 1] = two.get((a, 1), 0) + c
        if h + 2 <= top and a >= 0:
            two = cells[h + 2]
            two[a + 1, 1] = two.get((a + 1, 1), 0) + c
        if h < top and a >= 0:
            one, shape = cells[h], (a,) if a else ()
            one[shape] = one.get(shape, 0) + c
        if h + 1 <= top and a >= -1:
            one, shape = cells[h + 1], (a + 1,) if a + 1 else ()
            one[shape] = one.get(shape, 0) + c
    return [SchurExpansion._trusted(counts) for counts in cells]


def _partition_of(n: int, mu) -> Partition:
    """mu as a checked partition of n."""
    mu = check_partition(mu)
    if sum(mu) != n:
        raise ValueError(f"mu={mu} is not a partition of n={n}")
    return mu


def hrs_t0(n: int, k: int) -> SchurExpansion:
    """The t=0 character over all shapes of n, exact in q: hrs_t0_by_k's
    table k, and 0 past the last.  SYT_SIZE_BOUND refuses n > 12 first."""
    if k < 0:
        raise ValueError("hrs_t0 needs k >= 0")
    check_syt_size(n)
    return hrs_t0_by_k(n)[k] if k <= max(n - 1, 0) else SchurExpansion.zero()


def hrs_t0_by_k(n: int) -> list:
    """[hrs_t0(n, k) for k = 0..max(n-1, 0)], reading each shape's conjugate
    descent classes once.

    Coefficient of s_mu: sum over tableaux of shape mu of
    q^(k*des' + binom(n-k,2) - maj') * [des k]_q, where the primes are
    conjugate statistics.
    """
    check_syt_size(n)  # before conjugate((n,)), a tuple of n ones
    tables = [{} for _ in range(max(n, 1))]
    for mu in partitions_of(n):
        coeffs = [{} for _ in tables]
        for desp, majps in descent_classes(conjugate(mu)):
            des = max(n - 1, 0) - desp
            for k in range(des + 1):  # [des k]_q = 0 past k = des
                coeff = coeffs[k]
                gauss = gauss_binomial(des, k)._terms.items()
                for majp, count in majps:
                    expo = k * desp + binom2(n - k) - majp
                    for (eq, et, ez), c in gauss:
                        key = (eq + expo, et, ez)
                        coeff[key] = coeff.get(key, 0) + count * c
        for table, coeff in zip(tables, coeffs):
            table[mu] = LaurentPoly._trusted(coeff)  # sums of positive terms
    return [SchurExpansion._trusted(terms) for terms in tables]


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
    return [first_row_fingerprint(image) for image in e_perp_by_k(G, i_max)]


def lift_hooks(fs) -> LaurentPoly:
    """Rebuild the hook fingerprint from one-part data by the alternating
    double sum: sum_{j>=0} sum_{k=0}^{j} (-1)^k f_{j-k} q^-k t^j."""
    return LaurentPoly.shifted_sum(
        (fs[j - k], -1 if k % 2 else 1, -k, j, 0)
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
        first_row_fingerprint(image, (b,)) - first_row_fingerprint(own_image, (b,))
        for image, own_image in zip(e_perp_by_k(G, i_max), e_perp_by_k(own, i_max))
    ]
    return lift_hooks(fs)


# -- the alternating-sum identities ----------------------------------------------


def _default_g(variant: str, c: int):
    """The two exponent families of the identities, stated by their base
    g(j, 0) = b(j) + c, b(j) = binom(j, 2) for "plain" and binom(j+1, 2) for
    "area_ht", with g(j, k) = g(j, 0) + binom(k+1, 2) + jk derived from it.
    So g(j, k) - g(j, k-1) = j + k, and g(j, k) - k = g(j, 0) - binom(j, 2)
    + binom(j+k, 2), which makes every per-j sum one shift of the suffix sum
    T_j (alternating_identity_check), hold by construction.

    No other family adds a case: for j >= 1 the difference condition and a
    constant base shift s force g(j, k) = b(j) + s + binom(k+1, 2) + jk,
    which is this family at c = s, and at j = 0 both sides vanish whatever
    g(0, 0) is, since sum_k (-1)^k q^binom(k,2) [n-1 k]_q = (1; q)_(n-1) = 0.
    The constant c shifts the base, exercising that the identities only see
    the base through an overall power of q.
    """
    lift = 0 if variant == "plain" else 1
    return lambda j, k: binom2(j + lift) + c + binom2(k + 1) + j * k


def _suffix_sums(n: int) -> list:
    """[T_0, ..., T_(n-1)] for T_j = sum_(m=j..n-1) (-1)^m q^binom(m,2)
    [n-1 m]_q, by one pass T_j = T_(j+1) + (-1)^j q^binom(j,2) [n-1 j]_q
    from j = n-1 down to 0 (the q-Pascal rows, one addition each)."""
    tails = [ZERO] * n
    tail = ZERO
    for j in range(n - 1, -1, -1):
        tail = LaurentPoly.shifted_sum(
            ((tail, 1, 0, 0, 0), (gauss_binomial(n - 1, j), -1 if j % 2 else 1, binom2(j), 0, 0))
        )
        tails[j] = tail
    return tails


def alternating_identity_check(n: int, c: int = 0) -> bool:
    """Verify the alternating-to-positive identities symbolically, for both
    exponent families of _default_g.

    Per j: sum_k (-1)^k [n-1 j+k]_q q^(g(j,k)-k) collapses to
    [n-2 j-1]_q q^(g(j,0)) (zero at j = 0).  Summed over j >= 1 against
    z^(j-1), the "plain" family reproduces the (n, 0) generating function
    times q^c, and the "area_ht" family reproduces it at z -> qz times
    q^(c+1).  Every per-j sum is the suffix sum T_j (_suffix_sums) times
    the unit (-1)^j q^(g(j,0) - binom(j,2)), so an instance runs n additions
    of shifted Gaussian binomials where summing each j apart runs
    n(n+1)/2, and its collapses are the n checks T_j = (-1)^j q^binom(j,2)
    [n-2 j-1]_q, whatever c and the family.  The check at one c is
    alternating_identities_by_c(n, (c,))'s entry.
    """
    return alternating_identities_by_c(n, (c,))[c]


def alternating_identities_by_c(n: int, cs) -> dict:
    """{c: alternating_identity_check(n, c) for c in cs}, building
    gf_closed(n, 0), its z -> qz copy and _suffix_sums(n) once and checking
    the per-j collapses once for every c; each (c, family) then sums the
    tails against z^(j-1) and compares in place with the shifted gf."""
    if n < 2:
        raise ValueError("identity checks need n >= 2")
    gf = gf_closed(n, 0)
    # z -> qz: each term q^eq z^ez gains q^ez
    gf_qz = LaurentPoly._trusted({(eq + ez, et, ez): coeff for (eq, et, ez), coeff in gf._terms.items()})
    tails = _suffix_sums(n)
    collapsed = all(
        tail.equals_shifted(gauss_binomial(n - 2, j - 1), -1 if j % 2 else 1, binom2(j))
        for j, tail in enumerate(tails)
    )
    out = {}
    for c in cs:
        out[c] = collapsed and all(
            LaurentPoly.shifted_sum(
                (tails[j], -1 if j % 2 else 1, g(j, 0) - binom2(j), 0, j - 1) for j in range(1, n)
            ).equals_shifted(want, 1, shift)
            for g, want, shift in ((_default_g("plain", c), gf, c), (_default_g("area_ht", c), gf_qz, c + 1))
        )
    return out


# -- the two-column formulas -----------------------------------------------------


def two_column_formula(n: int, form: str = "path") -> SchurExpansion:
    """The (a, 2, 1^k)-component, in either of two provably equal forms.

    "lifted" counts descent-constrained hook tableaux by major index with
    Gaussian binomials (shape read off the major index); "path" re-indexes
    over staircase paths excluding the words that start north and finish
    with i-1 norths.  Empty below n = 5.
    Sizes whose (n, 0) path family is past the enumeration bound are
    refused before either form runs, as the family itself would be.
    """
    if n < 2:
        raise ValueError("two_column_formula needs n >= 2")
    _family_grid(n, 0)
    counts = {}
    if form == "lifted":
        for k in range(1, n - 3):
            m = n - k - 1  # descent count of shape (k+1, 1^(n-k-1))
            # maj over the descent sets containing 1, less those containing {1..i, n-1}
            with_one = q_power(binom2(m + 1)) * gauss_binomial(n - 2, m - 1)
            for i in range(2, m):
                kept = with_one - q_power(n - 1 + binom2(m)) * gauss_binomial(n - 2 - i, m - i - 1)
                for (maj, _, _), c in kept._terms.items():
                    shape = (maj - i, 2) + (1,) * (k - 1)
                    counts[shape] = counts.get(shape, 0) + c
        return SchurExpansion(counts)
    if form == "path":
        # a word of T(n, 0) of height h <= n-3 counts once for each i in 2..h,
        # except the words N w N^(i-1) at that i; their middle w has gains
        # n-3 down to i, so they are T(n-i, 0) with every north step raised by i-1
        classes = [
            (i, area, h, c) for (area, h), c in family_counts(n, 0).items() for i in range(2, h + 1)
        ]
        for i in range(2, n - 2):
            for (area, h), c in family_counts(n - i, 0).items():
                classes.append((i, area + (i - 1) * h + n - 2 + binom2(i), h + i, -c))
        for i, area, h, c in classes:
            if h <= n - 3:
                shape = (area + h + 1 - i, 2) + (1,) * (n - 3 - h)
                counts[shape] = counts.get(shape, 0) + c
        return SchurExpansion(counts)
    raise ValueError(f"unknown form {form!r}")
