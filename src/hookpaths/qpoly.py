"""Exact sparse Laurent polynomials in q, t, z and the classical q-analogues.

Everything downstream (generating functions, Schur coefficients, the
verification suites) computes in this ring.  Coefficients are Python ints,
exponents are signed ints, and all operations are pure.
"""

from functools import lru_cache
from operator import index

_VAR_INDEX = {"q": 0, "t": 1, "z": 2}


class LaurentPoly:
    """A Laurent polynomial in q, t, z with integer coefficients.

    Stored sparsely as a map from exponent triples (e_q, e_t, e_z) to
    nonzero integer coefficients.  Instances are immutable; all arithmetic
    returns new objects in canonical form (no zero coefficients stored).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canonical = {}
        if terms:
            for expo, coeff in terms.items():
                coeff = index(coeff)  # a float raises, never truncates
                eq, et, ez = expo  # checked before a zero term is skipped
                key = (index(eq), index(et), index(ez))
                if coeff == 0:
                    continue
                canonical[key] = canonical.get(key, 0) + coeff
                if canonical[key] == 0:
                    del canonical[key]
        self._terms = canonical

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        c = index(c)
        return cls._trusted({(0, 0, 0): c} if c else {})

    @classmethod
    def term(cls, coeff: int, eq: int = 0, et: int = 0, ez: int = 0) -> "LaurentPoly":
        c = index(coeff)
        return cls._trusted({(index(eq), index(et), index(ez)): c} if c else {})

    @classmethod
    def _trusted(cls, terms: dict) -> "LaurentPoly":
        """Internal constructor that adopts `terms` as it is: a map of int
        exponent triples to nonzero ints that the library built itself.
        Public input goes through __init__, which canonicalises."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def shifted_sum(cls, terms) -> "LaurentPoly":
        """The sum of c * q^eq t^et z^ez * poly over the (poly, c, eq, et, ez)
        tuples of `terms`, accumulated in one dict: each term shifts poly's
        exponents in place of building a monomial and a product."""
        out = {}
        get = out.get
        for poly, c, dq, dt, dz in terms:
            for (eq, et, ez), x in poly._terms.items():
                key = (eq + dq, et + dt, ez + dz)
                out[key] = get(key, 0) + c * x
        return cls._trusted({expo: x for expo, x in out.items() if x})

    @classmethod
    def sum(cls, polys) -> "LaurentPoly":
        """The sum of an iterable of polynomials, accumulated in one dict."""
        return cls.shifted_sum((p, 1, 0, 0, 0) for p in polys)

    @classmethod
    def var(cls, name: str) -> "LaurentPoly":
        expo = [0, 0, 0]
        expo[_VAR_INDEX[name]] = 1
        return cls({tuple(expo): 1})

    # -- inspection --------------------------------------------------------

    def items(self):
        """Terms as (exponent triple, coefficient) pairs in canonical order.
        The keys are distinct, so sorting them alone gives the pairs' order;
        flat int triples sort by the fast tuple compare, pairs do not."""
        terms = self._terms
        return [(expo, terms[expo]) for expo in sorted(terms)]

    def coeff(self, eq: int = 0, et: int = 0, ez: int = 0) -> int:
        return self._terms.get((eq, et, ez), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0, 0, 0): 1}

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self._terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeff()

    def uses_only(self, names) -> bool:
        """True if every term has zero exponent outside the given variables."""
        allowed = {_VAR_INDEX[name] for name in names}
        for expo in self._terms:
            for i in range(3):
                if i not in allowed and expo[i] != 0:
                    return False
        return True

    def coefficient_of(self, name: str, power: int) -> "LaurentPoly":
        """The coefficient of name**power, as a polynomial in the other variables."""
        return self.coefficients_of(name).get(power, ZERO)

    def coefficients_of(self, name: str) -> dict:
        """{power: coefficient_of(name, power)} over the powers of name that
        occur, read in one pass over the terms."""
        i = _VAR_INDEX[name]
        out = {}
        for expo, c in self._terms.items():
            reduced = list(expo)
            reduced[i] = 0
            out.setdefault(expo[i], {})[tuple(reduced)] = c
        # distinct keys stay distinct with one exponent fixed
        return {power: LaurentPoly._trusted(terms) for power, terms in out.items()}

    def equals_shifted(self, other, c: int = 1, eq: int = 0, et: int = 0, ez: int = 0) -> bool:
        """self == c * q^eq t^et z^ez * other, decided term by term without
        building the product: a shift maps other's terms to distinct keys."""
        if not c:
            return not self._terms
        get, terms = self._terms.get, other._terms
        return len(self._terms) == len(terms) and all(
            get((a + eq, b + et, d + ez)) == c * x for (a, b, d), x in terms.items()
        )

    def has_negative_coeff(self) -> bool:
        return any(c < 0 for c in self._terms.values())

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for expo, c in other._terms.items():
            s = out.get(expo, 0) + c
            if s:
                out[expo] = s
            else:
                out.pop(expo, None)
        return LaurentPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms, single = self._terms, other._terms
        if len(terms) == 1:
            terms, single = single, terms
        if len(single) == 1:
            # one term: shift the other side's exponents, which stay distinct
            ((d1, d2, d3), y), = single.items()
            out = {(a1 + d1, b1 + d2, c1 + d3): x * y for (a1, b1, c1), x in terms.items()}
            return LaurentPoly._trusted(out)
        out = {}
        for (a1, b1, c1), x in self._terms.items():
            for (a2, b2, c2), y in other._terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                s = out.get(key, 0) + x * y
                if s:
                    out[key] = s
                else:
                    del out[key]
        return LaurentPoly._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            if not self.is_monomial():
                raise ValueError("negative powers only defined for monomials")
            (expo, c), = self._terms.items()
            if c not in (1, -1):
                raise ValueError("negative powers need coefficient +-1")
            k = -exponent
            return LaurentPoly({tuple(-e * k for e in expo): c ** k})
        result = LaurentPoly.const(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == LaurentPoly.const(other)._terms
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __bool__(self):
        return bool(self._terms)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        terms = self._terms
        if not terms:
            return "0"
        pieces = []
        append = pieces.append
        for expo in sorted(terms):  # items()' order
            eq, et, ez = expo
            c = terms[expo]
            mono = (
                ("" if not eq else "*q" if eq == 1 else f"*q^{eq}")
                + ("" if not et else "*t" if et == 1 else f"*t^{et}")
                + ("" if not ez else "*z" if ez == 1 else f"*z^{ez}")
            )
            mag = -c if c < 0 else c
            body = f"{mag}{mono}" if mag != 1 or not mono else mono[1:]
            append(f"- {body}" if c < 0 else f"+ {body}")
        text = " ".join(pieces)  # the first term's sign loses its space
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return f"LaurentPoly({self})"

    def to_json_obj(self) -> list:
        return [
            {"q": eq, "t": et, "z": ez, "c": str(c)}
            for (eq, et, ez), c in self.items()
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "LaurentPoly":
        return cls({(int(d["q"]), int(d["t"]), int(d["z"])): int(d["c"]) for d in obj})


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)
q = LaurentPoly.var("q")
t = LaurentPoly.var("t")
z = LaurentPoly.var("z")


def q_power(e: int) -> LaurentPoly:
    return LaurentPoly.term(1, eq=e)


def q_int(n: int) -> LaurentPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    return LaurentPoly({(i, 0, 0): 1 for i in range(n)})


def q_factorial(n: int) -> LaurentPoly:
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    out = ONE
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


@lru_cache(maxsize=None)
def gauss_binomial(n: int, k: int) -> LaurentPoly:
    """Gaussian polynomial [n k]_q via the q-Pascal recurrence.

    Out-of-range k gives 0, matching the usual binomial convention.
    """
    if n < 0:
        raise ValueError("gauss_binomial needs n >= 0")
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    # [n k] = [n-1 k-1] + q^k [n-1 k]
    return gauss_binomial(n - 1, k - 1) + q_power(k) * gauss_binomial(n - 1, k)


def gauss_binomial_qinv(n: int, k: int) -> LaurentPoly:
    """[n k] evaluated at q -> 1/q; a Laurent polynomial.  [n k] is
    palindromic of degree k(n-k), so this is q^(-k(n-k)) [n k]."""
    return q_power(-k * (n - k)) * gauss_binomial(n, k)


def q_pochhammer(z_arg: LaurentPoly, m: int) -> LaurentPoly:
    """The rising q-Pochhammer product prod_{i=1..m} (1 + z_arg*q^i), the
    (-q*z_arg; q)_m shape."""
    if m < 0:
        raise ValueError("q_pochhammer needs m >= 0")
    out = ONE
    for i in range(1, m + 1):
        out = out * (ONE + z_arg * q_power(i))
    return out
