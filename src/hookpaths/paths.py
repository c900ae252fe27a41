"""North-east paths in a staircase grid, their area/height statistics, and
the exact generating functions they realize.

A path family is indexed by an ambient size n and a start height s: the grid
is the (n-2)-staircase, paths start at (0, s), take n-s-2 unit steps over
{N, E}, and end on the anti-diagonal x + y = n - 2.  Any NE word of the
right length fits, so the family has 2^(n-s-2) elements.  The conventions:
start heights past the staircase clamp to s = n-2 (leaving only the empty
word), and n < 2 gives the empty family.

Every sum over a whole family reads it by (area, ht) class, which costs
polynomially in n: gf_T and hat_gf through family_counts, its number of
paths per class, counted in one packed integer.  family_tally walks all
the families of one ambient size at once, and leading_run_counts splits a
family's classes by the word's leading north or east run, for the Pieri
sets; both start from several classes, so they step a dict of classes
(_extend), which is also family_counts' oracle.  enumerate_T, and the walk
words_T over family_blocks' split of the words, visit all 2^(n-s-2) words;
they serve the callers that need each path, and are the oracles for both.
The split's suffix block, suffix_block, is built once per length and
shared, with pierimaps' image streams too.
"""

import sys
from collections import Counter
from functools import cache
from itertools import product

from .qpoly import LaurentPoly, ZERO, gauss_binomial
from .shapes import Partition, hook_index

PATH_STEP_BOUND = 20


def binom2(m: int) -> int:
    """binomial(m, 2), tolerant of m < 2."""
    return m * (m - 1) // 2 if m >= 2 else 0


def clamp_start(n: int, s: int) -> int:
    """The effective start height; heights past the staircase clamp to n-2."""
    return min(s, n - 2)


class LatticePath:
    """One NE path with its ambient grid (n, s).

    The word is a plain string over {N, E}; the empty path renders "eps".
    Statistics depend on the ambient grid, so the grid travels with the
    path and equality compares (n, s, word).
    """

    __slots__ = ("n", "s", "word")

    def __init__(self, n: int, s: int, word: str):
        if n < 2:
            raise ValueError(f"no paths exist for n={n}")
        if not 0 <= s <= n - 2:
            raise ValueError(f"start height {s} outside 0..{n - 2}")
        if len(word) != n - s - 2 or any(ch not in "NE" for ch in word):
            raise ValueError(f"word {word!r} invalid for (n={n}, s={s})")
        self.n = n
        self.s = s
        self.word = word

    @classmethod
    def _trusted(cls, n: int, s: int, word: str) -> "LatticePath":
        """Internal constructor that skips validation, for paths whose grid
        and word the library built itself.  Public input goes through
        __init__ or parse."""
        path = cls.__new__(cls)
        path.n = n
        path.s = s
        path.word = word
        return path

    # -- statistics ---------------------------------------------------------

    def ht(self) -> int:
        """The y coordinate of the endpoint."""
        return self.s + self.word.count("N")

    def area(self) -> int:
        """Boxes of the staircase south-east of the path.

        Rows below the start height count fully, s(n-2) - binom(s, 2) boxes;
        a row crossed by a north step at x = p contributes the n-2-row-p
        boxes to its east, which is L - i for the step at word index i of a
        word of length L = n-s-2; rows at or above the endpoint contribute
        nothing.  This reproduces the empty-word convention area =
        binomial(n-1, 2).
        """
        word = self.word
        length = len(word)
        return self.s * (self.n - 2) - binom2(self.s) + sum(
            length - i for i, step in enumerate(word) if step == "N"
        )

    def leading_run(self, step: str) -> int:
        k = 0
        for ch in self.word:
            if ch != step:
                break
            k += 1
        return k

    def trailing_run(self, step: str) -> int:
        k = 0
        for ch in reversed(self.word):
            if ch != step:
                break
            k += 1
        return k

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LatticePath)
            and (self.n, self.s, self.word) == (other.n, other.s, other.word)
        )

    def __hash__(self):
        return hash((self.n, self.s, self.word))

    def __str__(self):
        return self.word or "eps"

    def __repr__(self):
        return f"LatticePath(n={self.n}, s={self.s}, {self})"

    @classmethod
    def parse(cls, n: int, s: int, text: str) -> "LatticePath":
        word = "" if text in ("", "eps") else text.upper()
        return cls(n, clamp_start(n, s), word)


def _family_grid(n: int, s: int):
    """(clamped start height, word length, area of the rows below the start)
    of the (n, s) family, or None for the empty family (n < 2).

    Refuses a negative start height, and families of words longer than
    PATH_STEP_BOUND steps: a family doubles with every step.
    """
    if n < 2:
        return None
    if s < 0:
        raise ValueError(f"start height must be nonnegative, got {s}")
    s = clamp_start(n, s)
    length = n - s - 2
    if length > PATH_STEP_BOUND:
        raise ValueError(
            f"the (n={n}, s={s}) family has 2^{length} paths, past the "
            f"enumeration bound of 2^{PATH_STEP_BOUND}"
        )
    return s, length, s * (n - 2) - binom2(s)


def enumerate_T(n: int, s: int) -> list[LatticePath]:
    """The full path family for (n, s), in lexicographic word order (E < N).

    Start heights s >= n-2 give exactly the empty word; n < 2 gives [].
    Families of words longer than PATH_STEP_BOUND steps are refused before
    anything is built.
    """
    grid = _family_grid(n, s)
    if grid is None:
        return []
    s, length, _ = grid
    trusted = LatticePath._trusted
    return [trusted(n, s, "".join(w)) for w in product("EN", repeat=length)]


# The depth of family_blocks' split: suffix_block lists the last
# WALK_BLOCK_STEPS steps once per process.  8 measured fastest over `paths` at
# n = 10..15 (a longer block costs more to list than its heads save) and
# within noise of 10 at `paths --n 20`, where 12 raised peak RSS.
WALK_BLOCK_STEPS = 8


@cache
def suffix_block(r: int) -> tuple:
    """(word, delta area, delta ht) of every r-step suffix, in lexicographic
    order (E < N), for r up to WALK_BLOCK_STEPS.  A north step r steps
    before a word's end adds r boxes whatever precedes it, so one block
    serves every family and every Pieri image stream: it is built once per
    r, and shared as a tuple."""
    return tuple(_walk([("", 0, 0)], range(r, 0, -1)))


def family_blocks(n: int, s: int):
    """The (n, s) family split at a fixed depth, as (heads, block).

    A north step at (x, y) adds n-2-y-x boxes, and x + y = s + k at step k
    of L = n-s-2, so its gain L - k + 1 depends only on its position: the
    last b = min(WALK_BLOCK_STEPS, L) steps add the same (delta area,
    delta ht) whatever prefix they follow.  `block` is suffix_block(b);
    `heads` lists each (word, area, ht) of the first L - b steps in
    lexicographic order, from the start row's statistics.  The
    family is every head followed by every block entry, in enumerate_T's
    order: 2^(L-b) heads and 2^b block entries, not 2^L words.  The family
    and its refusal are _family_grid's; n < 2 gives no heads.
    """
    grid = _family_grid(n, s)
    if grid is None:
        return [], ()
    s, length, area = grid
    steps = min(WALK_BLOCK_STEPS, length)
    return _walk([("", area, s)], range(length, steps, -1)), suffix_block(steps)


def _walk(level: list, gains) -> list:
    """Extend every (word, area, ht) of `level` by one step per gain, E
    before N: the step of gain g keeps the statistics (E) or adds g to the
    area and 1 to the height (N), so lexicographic order is kept."""
    for gain in gains:
        nxt = []
        extend = nxt.extend
        for word, area, ht in level:
            extend(((word + "E", area, ht), (word + "N", area + gain, ht + 1)))
        level = nxt
    return level


def words_T(n: int, s: int):
    """An iterator over (word, area, ht) of every path in the (n, s) family,
    in enumerate_T's order, read off family_blocks without building a path.
    The empty word is "" (a LatticePath renders it "eps")."""
    heads, block = family_blocks(n, s)
    return (
        (head + word, area + da, ht + dh)
        for head, area, ht in heads
        for word, da, dh in block
    )


def family_counts(n: int, s: int) -> dict:
    """(area, ht) -> number of paths in the (n, s) family.

    The classes are counted in one packed integer: its 64-bit digit j*W + a,
    with W = binom(L+1, 2) + 1 and L = n-s-2, counts the words with j north
    steps whose gains add up to a.  The empty prefix is the digit 1, and
    the step of gain g (from L down to 1) keeps every word (its E child)
    and adds a copy moved up by one north step and g boxes (its N child):
    x += x << 64*(W + g).  A class holds fewer than 2^L words, so no digit
    carries into the next while L <= 63, and longer families are refused.
    The j north steps gain between 1 + ... + j and L + ... + (L-j+1), and
    every sum in between occurs, so height s + j reads exactly that band
    of digits, all nonzero.  The family and its refusal are _family_grid's;
    _extend, the same walk on a dict of classes, is its test oracle.
    """
    grid = _family_grid(n, s)
    if grid is None:
        return {}
    s, length, area = grid
    if length > 63:
        raise ValueError(
            f"the (n={n}, s={s}) family has {length} steps, past the 63 that "
            f"family_counts' 64-bit class counts hold"
        )
    width = binom2(length + 1) + 1
    x = 1
    for gain in range(length, 0, -1):
        x += x << 64 * (width + gain)
    # each digit's bytes in the machine's order, which "Q" reads.  A
    # big-endian machine lists the digits from the top, but swapping a word's
    # N and E steps maps digit j*W + a to (L-j)*W + (W-1-a): the digit string
    # is a palindrome, so it reads the same either way
    digits = memoryview(x.to_bytes(8 * (length + 1) * width, sys.byteorder)).cast("Q")
    out = {}
    lo = hi = 0  # the band of gain sums at height ht
    start = -area  # the class (a, ht) is digit start + a
    for ht in range(s, s + length + 1):
        for a in range(area + lo, area + hi + 1):
            out[a, ht] = digits[start + a]
        start += width
        lo += ht - s + 1
        hi += length + s - ht
    return out


def _extend(level: dict, gains) -> dict:
    """The (area, ht) classes of the words that extend the prefixes counted
    in `level` by one free step per gain: the step of gain g keeps each
    class (its E children) and moves a copy of it to (area + g, ht + 1)
    (its N children).  A family's last r steps are the gains r down to 1.
    It is family_counts' step on a dict, for levels that start from several
    classes or from negative areas, and family_counts' test oracle."""
    for gain in gains:
        nxt = level.copy()
        get = nxt.get
        for (area, ht), c in level.items():
            key = area + gain, ht + 1
            nxt[key] = get(key, 0) + c
        level = nxt
    return level


def leading_run_counts(n: int, s: int) -> dict:
    """(leading N run, leading E run) -> {(area, ht): number of paths} over
    the (n, s) family.

    Every nonempty word of L = n-s-2 steps is N^j E w or E^r N w for one
    run of 1 <= j, r < L, or is N^L or E^L; the empty word has both runs 0.
    Each such start is one class: its forced prefix fixes (area, ht), and
    the class step _extend runs over the free rest w.  The
    family and its refusal are _family_grid's.
    """
    grid = _family_grid(n, s)
    if grid is None:
        return {}
    ht, length, area = grid
    if not length:
        return {(0, 0): {(area, ht): 1}}
    out = {}
    north = area  # the area after the leading N^run
    for run in range(1, length):
        north += length - run + 1
        rest = length - run - 1
        out[run, 0] = _extend({(north, ht + run): 1}, range(rest, 0, -1))
        out[0, run] = _extend({(area + length - run, ht + 1): 1}, range(rest, 0, -1))
    out[length, 0] = {(north + 1, ht + length): 1}
    out[0, length] = {(area, ht): 1}
    return out


def family_tally(families) -> Counter:
    """(area + shift, ht) -> number of paths, where families[m, s] maps each
    shift to the number of times every path of the (m, s) family counts.

    The families of one ambient size m are read in one walk: the (m, s)
    family's L = m-s-2 steps have the gains L down to 1, the last L steps
    of every longer family of that size.  So the walk starts at the longest
    family's length and adds each family's start class, shifted, when it
    has that family's L steps left; each step is the class step _extend.
    The families' refusals are _family_grid's.  This is the one fold
    behind every hook sum over path families.
    """
    sizes = {}  # m -> {L: {(start area + shift, start ht): count}}
    for (m, s), shifts in families.items():
        grid = _family_grid(m, s)
        if grid is None:
            continue
        s, length, area = grid
        starts = sizes.setdefault(m, {}).setdefault(length, {})
        for shift, count in shifts.items():
            key = area + shift, s
            starts[key] = starts.get(key, 0) + count
    tally = Counter()
    for by_length in sizes.values():
        lengths = sorted(by_length, reverse=True)
        level = {}
        for length, stop in zip(lengths, lengths[1:] + [0]):
            get = level.get
            for key, count in by_length[length].items():
                level[key] = get(key, 0) + count
            level = _extend(level, range(length, stop, -1))
        tally.update(level)
    return tally


def add_shifted(tally: Counter, counts: dict, shifts: dict) -> None:
    """Add count * c to tally[area + shift, ht] for every class (area, ht)
    -> c of `counts` and every shift -> count of `shifts`.  It writes
    through dict.get, so a Counter tally never calls its __missing__."""
    counts = counts.items()
    get = tally.get
    for shift, count in shifts.items():
        for (area, ht), c in counts:
            key = area + shift, ht
            tally[key] = get(key, 0) + count * c


def path_hook(n: int, a: int, ht: int, context="") -> Partition:
    """The hook (a + ht + 1, 1^(n-2-ht)) that a path of height ht labels,
    a being its area plus the shift of its term.  The guard and the lazy
    `context` are shapes.hook_index's."""
    return hook_index(a + ht + 1, n - 2 - ht, context)


def gf_T(n: int, s: int) -> LaurentPoly:
    """sum of q^area * z^ht over the family, read off its (area, ht)
    classes (family_counts), independently of gf_closed's q-binomials."""
    counts = family_counts(n, s)
    return LaurentPoly._trusted({(area, 0, ht): c for (area, ht), c in counts.items()})


def gf_closed(n: int, s: int) -> LaurentPoly:
    """The closed form of the same generating function.

    sum_{j=0..r} q^(binom(s+j+1,2) + s(r-j)) [r j]_q z^(j+s) with r = n-s-2;
    for s = 0 this is the rising q-Pochhammer product.  The terms of
    different j differ in z, so each shifted q-binomial fills its own terms.
    """
    if n < 2:
        return ZERO
    if s < 0:
        raise ValueError(f"start height must be nonnegative, got {s}")
    s = clamp_start(n, s)
    r = n - s - 2
    terms = {}
    for j in range(r + 1):
        shift, ez = binom2(s + j + 1) + s * (r - j), j + s
        for (eq, _, _), c in gauss_binomial(r, j)._terms.items():
            terms[eq + shift, 0, ez] = c
    return LaurentPoly._trusted(terms)


def hat_gf(m: int, j: int) -> LaurentPoly:
    """Skewed sum over paths of height >= j in the (m, 0) family.

    Each path is weighted (-q z)^(j - ht) q^area z^ht, so the z-degree
    concentrates at z^j.  For j = 0 the sum telescopes to 0 on any
    nonempty grid and to 1 on the empty one.  The family is read through
    its (area, ht) classes, family_counts(m, 0).
    """
    if j < 0:
        raise ValueError(f"height threshold must be nonnegative, got {j}")
    counts = Counter()
    for (area, h), c in family_counts(m, 0).items():
        if h < j:
            continue
        sign = -1 if (j - h) % 2 else 1
        counts[area + (j - h), 0, j] += sign * c
    return LaurentPoly(counts)


PREDICATES = (
    "height_eq",
    "at_least_k_easts",
    "starts_with_east",
    "starts_north_ends_exact_norths",
    "prefix",
)


def filter_paths(n: int, s: int, predicate: str, **params) -> list[LatticePath]:
    """Named subsets of the (n, s) family.

    height_eq(h): endpoint height h.
    at_least_k_easts(k): at least k east steps, i.e. n-2-ht >= k.
    starts_with_east: first step E.
    starts_north_ends_exact_norths(j): first step N and trailing north run
        exactly j.
    prefix(pattern): a literal word prefix over {N, E}.
    """
    paths = enumerate_T(n, s)
    if predicate == "height_eq":
        h = params["h"]
        return [p for p in paths if p.ht() == h]
    if predicate == "at_least_k_easts":
        k = params["k"]
        return [p for p in paths if p.word.count("E") >= k]
    if predicate == "starts_with_east":
        return [p for p in paths if p.word.startswith("E")]
    if predicate == "starts_north_ends_exact_norths":
        j = params["j"]
        return [
            p
            for p in paths
            if p.word.startswith("N") and p.trailing_run("N") == j
        ]
    if predicate == "prefix":
        return [p for p in paths if p.word.startswith(params["pattern"])]
    raise ValueError(f"unknown predicate {predicate!r}; known: {PREDICATES}")
