"""Formal Schur-basis expansions with Laurent-polynomial coefficients.

Schur symbols are never expanded into polynomials except in the two oracles
(the two-variable specialization and the brute-force semistandard-filling
sum).  The empty partition acts as the multiplicative unit and is counted
as a one-part (and hook) shape so the inclusion-exclusion lifts close up.
"""

from itertools import groupby

from .qpoly import LaurentPoly, ZERO
from .shapes import Partition, check_partition, conjugate, is_hook

SPECIALIZE_BOUND = 2 ** 18  # specialize2's monomials; n = 12 at r = 14 needs about 7 * 10^4


class SchurExpansion:
    """A finite map partition -> LaurentPoly, the coefficient of s_lambda."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canonical = {}
        if terms:
            for lam, coeff in terms.items():
                lam = check_partition(lam)
                if isinstance(coeff, int):
                    coeff = LaurentPoly.const(coeff)
                elif not isinstance(coeff, LaurentPoly):
                    raise TypeError(f"coefficient {coeff!r} of s{lam} is neither an int nor a LaurentPoly")
                if coeff.is_zero():
                    continue
                prev = canonical.get(lam)
                coeff = coeff if prev is None else prev + coeff
                if coeff.is_zero():
                    canonical.pop(lam, None)
                else:
                    canonical[lam] = coeff
        self._terms = canonical

    @classmethod
    def _trusted(cls, terms) -> "SchurExpansion":
        """Internal constructor for a map whose keys are partitions that the
        library built itself (hook_index, partitions_of, strips_by_size):
        int values become constants, one per distinct count and shared by
        its terms, and zero values are dropped.  Public input goes through
        __init__, which checks each index."""
        consts = {}  # LaurentPoly is immutable, so terms may share one
        result = cls.__new__(cls)
        result._terms = {
            lam: (consts[c] if c in consts else consts.setdefault(c, LaurentPoly.const(c)))
            if isinstance(c, int) else c
            for lam, c in terms.items() if c
        }
        return result

    @classmethod
    def zero(cls) -> "SchurExpansion":
        return cls()

    @classmethod
    def term(cls, lam, coeff=1) -> "SchurExpansion":
        return cls({tuple(lam): coeff})

    def items(self):
        """(partition, coefficient) pairs, largest size first."""
        return sorted(
            self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )

    def support(self) -> list[Partition]:
        return [lam for lam, _ in self.items()]

    def coefficient(self, lam) -> LaurentPoly:
        return self._terms.get(tuple(lam), ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        out = dict(self._terms)
        for lam, coeff in other._terms.items():
            s = out.get(lam, ZERO) + coeff
            if s.is_zero():
                out.pop(lam, None)
            else:
                out[lam] = s
        result = SchurExpansion.__new__(SchurExpansion)
        result._terms = out
        return result

    def __neg__(self):
        result = SchurExpansion.__new__(SchurExpansion)
        result._terms = {lam: -c for lam, c in self._terms.items()}
        return result

    def __sub__(self, other):
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "SchurExpansion":
        if isinstance(factor, int):
            factor = LaurentPoly.const(factor)
        return SchurExpansion({lam: factor * c for lam, c in self._terms.items()})

    def __eq__(self, other):
        return isinstance(other, SchurExpansion) and self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def is_schur_positive(self) -> bool:
        return not any(c.has_negative_coeff() for c in self._terms.values())

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for lam, coeff in self.items():
            symbol = "1" if not lam else "s[" + ",".join(str(p) for p in lam) + "]"
            if coeff.is_one():
                pieces.append(symbol)
            elif coeff.is_constant():
                value = coeff.constant_value()
                pieces.append(f"{value} {symbol}" if lam else str(value))
            else:
                pieces.append(f"({coeff}) {symbol}" if lam else f"({coeff})")
        return " + ".join(pieces)

    def __repr__(self):
        return f"SchurExpansion({self})"

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"lambda": list(lam), "coeff": coeff.to_json_obj()}
                for lam, coeff in self.items()
            ]
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SchurExpansion":
        return cls(
            {
                tuple(d["lambda"]): LaurentPoly.from_json_obj(d["coeff"])
                for d in obj["terms"]
            }
        )


# -- shape classes for restriction -------------------------------------------


def shape_class_predicate(cls):
    """Resolve a shape-class name (or explicit shape collection) to a predicate.

    Named classes: "hooks", "one_part", "V<b>" (e.g. "V1", "V2"),
    "two_columns" and "two-column" (aliases of V2).  The empty partition
    belongs to hooks and one_part; V_b is the shapes (a, b, 1^k) with a >= b.
    """
    if isinstance(cls, str):
        name = cls.lower()
        if name == "hooks":
            return is_hook
        if name == "one_part":
            return lambda lam: len(lam) <= 1
        if name in ("two_columns", "two-column"):
            name = "v2"
        if name.startswith("v") and name[1:].isdigit():
            b = int(name[1:])
            if b < 1:
                raise ValueError("V classes need b >= 1")
            return lambda lam: (
                len(lam) >= 2
                and lam[1] == b
                and all(p == 1 for p in lam[2:])
            )
        raise ValueError(f"unknown shape class {cls!r}")
    explicit = {check_partition(lam) for lam in cls}
    return lambda lam: lam in explicit


def restrict(f: SchurExpansion, cls) -> SchurExpansion:
    """Keep exactly the terms whose index lies in the shape class."""
    keep = shape_class_predicate(cls)
    return SchurExpansion({lam: c for lam, c in f._terms.items() if keep(lam)})


# -- the adjoint Pieri operator and friends -----------------------------------


def strips_by_size(lam: Partition, top: int) -> list[list[Partition]]:
    """strips[j] lists the partitions mu <= lam with lam/mu a vertical strip
    of j boxes, for j = 0..top, from one walk.  A run of equal parts can
    lose boxes only from its last rows, so a strip is how many boxes each
    run loses; parts of 0 drop off the end.  Each size lists its strips in
    the same order as a walk of that size alone."""
    level = [(0, ())]  # (boxes lost, the parts kept so far)
    for p, rows in groupby(lam):
        m = len(list(rows))
        level = [
            (lost + more, acc + (p,) * (m - more) + (p - 1,) * (more if p > 1 else 0))
            for lost, acc in level
            for more in range(min(m, top - lost) + 1)
        ]
    strips = [[] for _ in range(top + 1)]
    for lost, mu in level:
        strips[lost].append(mu)
    return strips


def e_perp_by_k(f: SchurExpansion, top: int) -> list[SchurExpansion]:
    """[e_perp(k, f) for k in 0..top], walking each index's vertical strips
    once (strips_by_size) and adding each strip into the image of its size."""
    if top < 0:
        raise ValueError("e_perp needs k >= 0")
    images = [{} for _ in range(top + 1)]
    for lam, coeff in f._terms.items():
        for terms, strips in zip(images, strips_by_size(lam, top)):
            for mu in strips:
                prev = terms.get(mu)
                terms[mu] = coeff if prev is None else prev + coeff
    return [SchurExpansion._trusted(terms) for terms in images]


def e_perp(k: int, f: SchurExpansion) -> SchurExpansion:
    """Linear extension of the adjoint dual Pieri rule: delete a vertical
    strip of k boxes in every way (at most one box per row).  The one-k
    entry of e_perp_by_k."""
    return e_perp_by_k(f, k)[k]


def omega(f: SchurExpansion) -> SchurExpansion:
    """Conjugate every index partition (an involution)."""
    return SchurExpansion({conjugate(lam): c for lam, c in f._terms.items()})


def psi(f: SchurExpansion) -> LaurentPoly:
    """The hook fingerprint s_lambda -> q^lambda_1 * t^(len(lambda)-1).

    The empty partition maps to 1.  Injective on hook-supported expansions.
    """
    return LaurentPoly.shifted_sum(
        (coeff, 1, lam[0], len(lam) - 1, 0) if lam else (coeff, 1, 0, 0, 0)
        for lam, coeff in f._terms.items()
    )


def first_row_fingerprint(f: SchurExpansion, rest: Partition = ()) -> LaurentPoly:
    """sum of coeff * q^a over the indices (a,) + rest: rest = (b,) reads the
    two-row terms (a, b), rest = () the one-part terms (the empty partition
    as a = 0).  As s_(a)(q, 0) = q^a, s_()(q, 0) = 1 and every longer
    s_lambda(q, 0) is 0, rest = () is the t = 0 evaluation of specialize2(f),
    its t^0 coefficient, for coefficients free of t."""
    return LaurentPoly.shifted_sum(
        (coeff, 1, lam[0] if lam else 0, 0, 0)
        for lam, coeff in f._terms.items() if lam[1:] == rest
    )


def psi_inverse_hooks(p: LaurentPoly) -> SchurExpansion:
    """Invert psi on hook-supported data: q^a t^k -> s_(a, 1^k), a >= 1."""
    if not p.uses_only({"q", "t"}):
        raise ValueError("psi_inverse_hooks needs a polynomial in q, t only")
    out = {}
    for (a, k, _), coeff in p.items():
        if a < 1 or k < 0:
            raise ValueError(f"monomial q^{a} t^{k} is not a hook fingerprint")
        out[(a,) + (1,) * k] = coeff
    return SchurExpansion(out)


def two_row_part(f: SchurExpansion) -> dict:
    """{(a, b): coefficient} of f's indices of at most two rows, with s_()
    read as (0, 0) and s_(a) as (a, 0).  Distinct s_(a,b)(q, t) lead with
    distinct monomials q^a t^b, so for coefficients free of q and t, equal
    two-row parts are exactly equal specialize2 evaluations."""
    return {(lam + (0, 0))[:2]: coeff for lam, coeff in f._terms.items() if len(lam) <= 2}


def specialize2(f: SchurExpansion) -> LaurentPoly:
    """Evaluate every Schur index in the two variables (q, t).

    Only two_row_part's indices survive; s_(a) and s_(a,b) use the closed
    two-variable forms, which the semistandard oracle gates in the tests.
    Over SPECIALIZE_BOUND monomials in all (a huge r) is refused first.
    """
    rows = two_row_part(f).items()
    if sum(a - b + 1 for (a, b), _ in rows) > SPECIALIZE_BOUND:
        raise ValueError(f"the two-variable evaluation exceeds the bound of {SPECIALIZE_BOUND} monomials")
    # s_(a, b)(q, t) = (qt)^b * h_{a-b}(q, t): one shift per monomial
    return LaurentPoly.shifted_sum((c, 1, b + i, a - i, 0) for (a, b), c in rows for i in range(a - b + 1))


def ssyt_specialize_oracle(lam, m: int) -> LaurentPoly:
    """Brute-force Schur polynomial in m <= 3 variables (q, t, z).

    Enumerates semistandard fillings with entries in 1..m (weakly increasing
    rows, strictly increasing columns) and sums the content monomials.
    Oracle scale only: |lam| <= 10.
    """
    lam = check_partition(lam)
    n = sum(lam)
    if m > 3:
        raise ValueError("oracle supports at most 3 variables")
    if n > 10:
        raise ValueError(f"oracle bound exceeded: |lambda| = {n} > 10")
    if len(lam) > m:
        return ZERO
    rows = [[0] * p for p in lam]
    out = ZERO
    counts = [0, 0, 0]

    def fill(r, c):
        nonlocal out
        if r == len(lam):
            out = out + LaurentPoly.term(1, *counts)
            return
        nr, nc = (r, c + 1) if c + 1 < lam[r] else (r + 1, 0)
        lo = rows[r][c - 1] if c else 1
        lo = max(lo, rows[r - 1][c] + 1 if r and c < lam[r - 1] else 1)
        for v in range(lo, m + 1):
            rows[r][c] = v
            counts[v - 1] += 1
            fill(nr, nc)
            counts[v - 1] -= 1
        rows[r][c] = 0

    fill(0, 0)
    return out
