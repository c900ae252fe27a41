"""Partitions, Ferrers-diagram operations, and standard Young tableaux.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ().  Tableaux use the French convention: rows[0] is the bottom
row and entries strictly increase along rows and up columns.
"""

from collections import Counter, defaultdict
from functools import lru_cache
from operator import index

Partition = tuple[int, ...]

SYT_SIZE_BOUND = 12


def check_partition(parts) -> Partition:
    lam = tuple(map(index, parts))  # a float raises, never truncates
    for i, p in enumerate(lam):
        if p <= 0:
            raise ValueError(f"partition parts must be positive: {lam}")
        if i and lam[i - 1] < p:
            raise ValueError(f"partition parts must weakly decrease: {lam}")
    return lam


def normalize_shape(parts) -> Partition | None:
    """Canonical partition from a raw part sequence, or None if invalid.

    Trailing zeros are stripped; a negative part, or a zero followed by a
    positive part, or an increase, makes the shape invalid (the s_mu = 0
    convention for formulas that run off the edge of a diagram).
    """
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    lam = tuple(parts)
    for i, p in enumerate(lam):
        if p <= 0 or (i and lam[i - 1] < p):
            return None
    return lam


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text or text == "0" or text.lower() == "empty":
        return ()
    return check_partition(int(piece) for piece in text.split(","))


def partition_str(lam: Partition) -> str:
    return ",".join(map(str, lam)) if lam else "empty"


def conjugate(lam: Partition) -> Partition:
    """Reflect the diagram through the diagonal (column lengths)."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def is_hook(lam: Partition) -> bool:
    """True for (), (a), and (a, 1^k)."""
    return len(lam) <= 1 or lam[1] <= 1


def hook_index(arm: int, leg: int, context="") -> Partition:
    """The hook (arm, 1^leg) that labels a term, or () when the arm is 0.

    An arm below 0, or an arm of 0 with a leg, names no partition and raises;
    `context` says where the term came from and is formatted only then, so hot
    callers may pass the object itself.
    """
    if arm < 0 or (arm == 0 and leg > 0):
        raise ValueError(f"hook arm {arm} out of range for {context}")
    return (arm,) + (1,) * leg if arm else ()


def make_hook(a: int, k: int) -> Partition:
    """The hook (a, 1^k); a=1 degenerates to the column (1^(k+1))."""
    if a <= 0:
        raise ValueError(f"hook arm must be positive, got {a}")
    if k < 0:
        raise ValueError(f"hook leg must be nonnegative, got {k}")
    return (a,) + (1,) * k


def partitions_of(n: int):
    """All partitions of n, largest part first, in lexicographic descent."""
    if n == 0:
        yield ()
        return

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


class StdTableau:
    """A standard Young tableau, rows bottom-to-top (French convention)."""

    __slots__ = ("rows", "shape", "n", "_row_of")

    def __init__(self, rows):
        self.rows = tuple(tuple(map(index, row)) for row in rows)
        self.shape = check_partition(len(row) for row in self.rows)
        self.n = sum(self.shape)
        row_of = {}
        for r, row in enumerate(self.rows):
            for c, entry in enumerate(row):
                if entry in row_of:
                    raise ValueError(f"duplicate entry {entry}")
                row_of[entry] = r
                if c and not row[c - 1] < entry:
                    raise ValueError(f"row not increasing: {row}")
                if r and self.rows[r - 1][c] >= entry:
                    raise ValueError(f"column not increasing at ({r},{c})")
        if set(row_of) != set(range(1, self.n + 1)):
            raise ValueError("entries must be exactly 1..n")
        self._row_of = row_of

    @classmethod
    def _trusted(cls, rows, shape, row_of) -> "StdTableau":
        """Internal constructor that skips validation.

        Only for tableaux built inside the library whose validity holds by
        construction; `rows` is a tuple of int tuples, `shape` its row
        lengths and `row_of` the entry -> row map.  Public input goes
        through __init__ or parse.
        """
        tab = cls.__new__(cls)
        tab.rows = rows
        tab.shape = shape
        tab.n = len(row_of)
        tab._row_of = row_of
        return tab

    def descent_set(self) -> frozenset:
        """Entries i whose successor i+1 sits in a strictly higher row."""
        return frozenset(
            i for i in range(1, self.n) if self._row_of[i + 1] > self._row_of[i]
        )

    def des(self) -> int:
        return len(self.descent_set())

    def maj(self) -> int:
        return sum(self.descent_set())

    def conjugate(self) -> "StdTableau":
        """The transpose; its descent set is [n-1] minus this one's."""
        cols = [[] for _ in range(self.shape[0])] if self.shape else []
        row_of = {}
        for row in self.rows:
            for c, entry in enumerate(row):
                cols[c].append(entry)
                row_of[entry] = c
        return StdTableau._trusted(
            tuple(map(tuple, cols)), tuple(map(len, cols)), row_of
        )

    def __eq__(self, other):
        return isinstance(other, StdTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return "/".join(",".join(str(e) for e in row) for row in self.rows)

    def __repr__(self):
        return f"StdTableau({self})"

    @classmethod
    def parse(cls, text: str) -> "StdTableau":
        return cls([map(int, piece.split(",")) for piece in text.split("/")])


def check_syt_size(n: int) -> None:
    """Refuse shapes of more than SYT_SIZE_BOUND cells, which enumerate_SYT does not list."""
    if n > SYT_SIZE_BOUND:
        raise ValueError(f"shape size {n} exceeds the enumeration bound {SYT_SIZE_BOUND}")


def enumerate_SYT(lam) -> list[StdTableau]:
    """All standard Young tableaux of the given shape, by backtracking.

    Refuses shapes larger than SYT_SIZE_BOUND cells; the exhaustive suites
    never need more and the bound guards against accidental blowups.
    """
    lam = check_partition(lam)
    n = sum(lam)
    check_syt_size(n)
    if n == 0:
        return [StdTableau(())]
    out = []
    rows = [[] for _ in lam]
    where = [0] * n  # where[v - 1] is the row holding v

    def place(v):
        if v > n:
            out.append(StdTableau._trusted(
                tuple(map(tuple, rows)), lam, dict(zip(range(1, n + 1), where))
            ))
            return
        for r, row in enumerate(rows):
            if len(row) >= lam[r]:
                continue
            if r and len(rows[r - 1]) <= len(row):
                continue
            row.append(v)
            where[v - 1] = r
            place(v + 1)
            row.pop()

    place(1)
    return out


def descent_classes(lam) -> tuple:
    """The (des, maj) tally of SYT(lam), frozen: ((des, ((maj, count), ...)),
    ...).  Transposition is a bijection SYT(lam) -> SYT(lam'), so
    descent_classes(conjugate(lam)) tallies the conjugate statistics.
    Refuses a non-partition and shapes past SYT_SIZE_BOUND cells; each shape
    is tallied once per process, and every call hands out the same tuples."""
    lam = check_partition(lam)
    check_syt_size(sum(lam))
    return _descent_classes(lam)


@lru_cache(maxsize=None)
def _descent_classes(lam: Partition) -> tuple:
    """descent_classes' memo, for a checked partition, by a walk over the
    filled subshapes: each (subshape, row of its largest entry v) holds the
    (des, maj) tally of its fillings, and placing v+1 in a row above v's adds
    the descent v.  A tally keys (des, maj) as des * width + maj."""
    n = sum(lam)
    width = n * (n - 1) // 2 + 1
    level = {((1,) + (0,) * (len(lam) - 1), 0): {0: 1}}  # 1 in the bottom row
    for v in range(1, n):
        nxt = {}
        for (shape, last), tally in level.items():
            for r, filled in enumerate(shape):
                if filled < lam[r] and (not r or shape[r - 1] > filled):
                    key = (shape[:r] + (filled + 1,) + shape[r + 1:], r)
                    gain = width + v if r > last else 0
                    into = nxt.setdefault(key, {})
                    for dm, c in tally.items():
                        into[dm + gain] = into.get(dm + gain, 0) + c
                if not filled:  # the rows above an empty row are empty too
                    break
        level = nxt
    total = Counter()
    for tally in level.values():
        total.update(tally)
    classes = defaultdict(list)
    for dm in sorted(total):
        classes[dm // width].append((dm % width, total[dm]))
    return tuple((des, tuple(majs)) for des, majs in classes.items())


def check_descents(descents, n: int) -> frozenset:
    """`descents` as a frozenset, checked to lie in 1..n-1, where the
    descents of a tableau of size n lie."""
    descents = frozenset(map(index, descents))
    if not descents <= frozenset(range(1, n)):
        raise ValueError(f"descents must lie in 1..{n - 1}: {sorted(descents)}")
    return descents


def hook_tableau_from_descents(S, n: int) -> StdTableau:
    """The unique hook-shaped tableau of size n with the given descent set.

    The leg entries are exactly the successors of the descents, so the shape
    comes out as (n - |S|, 1^|S|).
    """
    if n < 1:
        raise ValueError(f"hook tableaux need n >= 1, got {n}")
    S = check_descents(S, n)
    leg = sorted(s + 1 for s in S)
    arm = tuple(e for e in range(1, n + 1) if e - 1 not in S)
    row_of = dict.fromkeys(arm, 0)
    row_of.update((e, r) for r, e in enumerate(leg, start=1))
    return StdTableau._trusted(
        (arm,) + tuple((e,) for e in leg), (len(arm),) + (1,) * len(leg), row_of
    )
