"""Path-level adjoint Pieri maps, the tagged-path set decompositions, the
difference formula for the leftover set W, and the three statistic-preserving
bijections between descent-constrained hook tableaux and staircase paths.

Set elements are (descent set, path) pairs: every tableau of a fixed hook
shape conjugates to the same descent count, but membership in the V/W splits
depends on the actual descent set, so the conjugate descent set -- which
fixes the hook tableau -- travels with the path.  The bijections take and
return a hook tableau tau of shape (k+1, 1^(n-k-1)) as Des(tau) itself, the
complement in 1..n-1 of the set a TaggedPath would carry.

Membership in T+ and V depends only on a path's leading north or east run,
against three runs that thresholds() reads off the descent set; for T+ and
V that is one forced prefix of the word, member_prefix (member_prefixes
holds both for every k-subset at once).  So the sets are
read at two depths: pieri_tallies counts all five of T+, T-, V, W and
V & T+ by (area - maj', ht) class, pairing descent classes with the
leading-run classes of paths.leading_run_counts and building no path;
build_sets builds every tagged path and is its oracle.

The maps are read as image streams, one per (n, k) and map: image_stream
walks every base word of the map's domain in word order by prefix class
(image_classes).  A word's plus image at k is fixed by its prefix through
its k-th east step, and its minus image by its leading east run, its first
north step and its (k-1)-th east step; each class builds its descent set
and image head once, and every free suffix comes from suffix_table(n),
built once per size.  cli's pieri reads one k's streams, perp_via_paths_by_k
every k's and verify's map checks each k's of one map, with image_stats;
no path is built.  The word kernels plus_image and minus_image map one
base word at every k of a range that map_domain admits, so a k outside the
word's domain has no image: they serve a single path, and are the
stream's oracle.  e_plus_map, e_minus_map, TaggedPath and hook_of are
their checked public form, which the tests compare against.

The three bijections are word kernels as well: north_descents reads one
descent off each north step of a base word, and descents_word writes the
word back from its descents.  phi_map, omega_map, beta_map and their
inverses are checked wrappers over the two; verify's bijection checks call
the kernels on the words of words_T(n, 0) and build no path.
"""

from collections import Counter, defaultdict, namedtuple
from itertools import combinations
from math import inf

from .characters import family_hooks, tally_hooks
from .paths import (
    WALK_BLOCK_STEPS, LatticePath, _walk, add_shifted, clamp_start, enumerate_T, family_blocks,
    leading_run_counts, path_hook,
)
from .schur import SchurExpansion
from .shapes import check_descents


class TaggedPath:
    """A hook tableau of shape (k+1, 1^(n-k-1)) tagging a path in the family
    whose start height is the conjugate's descent count k.

    The tableau is stored as its conjugate's descent set, a k-subset of
    1..n-1, which fixes it.  Immutable, and equal and hashed by
    (descents, path), so tagged paths form sets.
    """

    __slots__ = ("descents", "path")

    def __init__(self, descents: frozenset, path: LatticePath):
        object.__setattr__(self, "descents", descents)
        object.__setattr__(self, "path", path)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to TaggedPath.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete TaggedPath.{name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.descents == other.descents and self.path == other.path

    def __hash__(self):
        return hash((self.descents, self.path))

    def __repr__(self):
        return f"TaggedPath(descents={self.descents!r}, path={self.path!r})"


# p: norths before each east step; h: the leading east run (all easts if the
# path never goes north); n_steps: easts before each north step
PathStats = namedtuple("PathStats", "p h n_steps")


def path_stats(path: LatticePath) -> PathStats:
    p = []
    n_steps = []
    norths = easts = 0
    for step in path.word:
        if step == "E":
            p.append(norths)
            easts += 1
        else:
            n_steps.append(easts)
            norths += 1
    return PathStats(tuple(p), path.leading_run("E"), tuple(n_steps))


def north_descents(n: int, word: str, shift: int) -> frozenset:
    """The bijections' descents of a base word of size n: the north step at
    word index i records n-1-i+shift.  The Pieri maps' east steps record
    n-1-i the same way (_east_descents)."""
    return frozenset(n - 1 - i + shift for i, step in enumerate(word) if step == "N")


def descents_word(n: int, descents, shift: int, easts: int) -> str:
    """Invert north_descents: the word of len(descents) + easts steps with a
    north step at index n-1+shift-d for each descent d.  A descent whose
    north step falls off the word raises."""
    length = len(descents) + easts
    word = ["E"] * length
    for d in descents:
        i = n - 1 + shift - d
        if not 0 <= i < length:
            raise ValueError(f"descent {d} puts a north step off the {length}-step word")
        word[i] = "N"
    return "".join(word)


def _tag(n: int, descents, word: str) -> TaggedPath:
    """Pair a conjugate descent set with the path `word` in its family.
    The maps build both, so only the range of the descents and the length
    of the word are checked."""
    if descents and (min(descents) < 1 or max(descents) > n - 1):
        raise ValueError(f"descents must lie in 1..{n - 1}: {sorted(descents)}")
    s = clamp_start(n, len(descents))
    if len(word) != n - s - 2:
        raise ValueError(f"word {word!r} invalid for (n={n}, s={s})")
    return TaggedPath(frozenset(descents), LatticePath._trusted(n, s, word))


def _east_descents(n: int, word: str, count: int) -> list:
    """The descents n-1-i that the first `count` east steps of a word of
    size n record, i being each step's word index, read off the north runs
    before them.  Distinct steps record distinct descents."""
    runs = word.split("E", count)
    if len(runs) <= count:
        raise ValueError(f"{word!r} has fewer than {count} east steps")
    out = []
    d = n
    for run in runs[:-1]:
        d -= len(run) + 1
        out.append(d)
    return out


def check_pieri_k(k: int, n: int, low: int = 0) -> None:
    """Refuse a k outside low..n-2: the Pieri maps and sets at size n are
    defined for 0 <= k <= n-2, and the minus side and W need k >= 1."""
    if not low <= k <= n - 2:
        raise ValueError(f"k={k} outside {low}..{n - 2}")


def map_domain(ks: range, word: str, minus: bool = False) -> range:
    """The k of the range ks at which a base word lies in the domain of the
    plus map (minus=False) or of the minus map, read off one count e of its
    east steps: the plus map takes 0 <= k <= e; the minus map takes
    1 <= k <= e+1 and leaves out the all-east word.  The kernels apply it,
    so this is the one place that decides a domain."""
    start, stop = max(ks.start, 0), word.count("E") + 1  # the plus map's 0 <= k < stop
    if minus:
        if start < 1:
            start = 1
        stop = stop + 1 if stop <= len(word) else 0
    return range(start, stop if stop < ks.stop else ks.stop)


def plus_image(n: int, ks: range, word: str) -> list:
    """The plus map on a base word of size n at each k of the range ks in
    the word's domain (map_domain): [(k, descents, image word)], k
    increasing.  One scan reads the descents of the word's first max(k)
    east steps (_east_descents); at k the first k record theirs and are
    discarded."""
    ks = map_domain(ks, word)
    if not ks:
        return []
    marks = _east_descents(n, word, ks[-1])
    images = []
    for k in ks:
        descents = frozenset(marks[:k])
        if len(descents) != k:
            raise AssertionError("descent construction collided")
        images.append((k, descents, word.replace("E", "", k)))
    return images


def minus_image(n: int, ks: range, word: str) -> list:
    """The minus map on a base word of size n at each k of the range ks in
    the word's domain (map_domain): [(k, descents, image word)], k
    increasing.  One scan reads the descents of the word's first max(k)-1
    east steps and finds its first north step; at k the first k-1 east
    steps record theirs as in plus_image, and the first north step, after a
    leading east run of h, records max(1, h-k+2); all k steps are
    discarded."""
    ks = map_domain(ks, word, True)
    if not ks:
        return []
    marks = _east_descents(n, word, ks[-1] - 1)
    h = word.index("N")
    rest = word.replace("N", "", 1)
    images = []
    for k in ks:
        descents = marks[:k - 1]
        extra = max(1, h - k + 2)
        if extra in descents:
            raise AssertionError("descent construction collided")
        descents.append(extra)
        images.append((k, frozenset(descents), rest.replace("E", "", k - 1)))
    return images


def suffix_table(n: int) -> list:
    """The free suffixes that image_stream appends at size n: entry r lists
    (word, delta area, delta ht) of every r-step suffix, in lexicographic
    order (E < N), for r up to b = min(WALK_BLOCK_STEPS, n-2).  As in
    family_blocks, a north step r steps before a word's end adds r boxes
    whatever precedes it, in the base word and in its image alike; a suffix
    longer than b is walked as a head in front of entry b."""
    table = [[("", 0, 0)]]
    for r in range(1, min(WALK_BLOCK_STEPS, n - 2) + 1):
        last = table[-1]
        table.append([("E" + w, da, dh) for w, da, dh in last] + [("N" + w, da + r, dh + 1) for w, da, dh in last])
    return table


def image_classes(n: int, k: int, minus: bool):
    """The prefix classes of the plus map (minus=False) or the minus map at
    k on T(n, 0), in lexicographic order: (prefix, area, ht, descents,
    head), where every base word prefix + w of size n lies in the map's
    domain and maps to (descents, head + w), and area and ht are the
    prefix's own.  A plus prefix ends at the word's k-th east step: its
    east steps record their descents as in plus_image, and the head is its
    north steps.  A minus prefix ends where both its first north step and
    its (k-1)-th east step are read: its leading east run of h puts the
    descent max(1, h-k+2) beside those of its first k-1 east steps, and the
    head is what is left of it without the first north step and those k-1
    east steps.  A word outside the domain has no class."""
    check_pieri_k(k, n)
    if minus and not k:
        return
    length = n - 2
    need = k - 1 if minus else k  # the east steps whose descents the image records
    # (prefix, area, norths, marks, h), popped in lexicographic order; a
    # minus prefix opens with E^h N, which sorts before E^(h-1) N
    if minus:
        stack = [
            ("E" * h + "N", length - h, 1, tuple(range(n - 1, n - 1 - min(h, need), -1)), h)
            for h in range(length)
        ]
    else:
        stack = [("", 0, 0, (), 0)]
    while stack:
        prefix, area, norths, marks, h = stack.pop()
        i = len(prefix)
        missing = need - len(marks)
        if missing:
            # the next east step, after a north steps (a = 0 is popped first)
            # at index i + a, leaving room for the other missing ones
            for a in range(length - i - missing, -1, -1):
                stack.append((
                    prefix + "N" * a + "E", area + a * length - a * (2 * i + a - 1) // 2,
                    norths + a, marks + (n - 1 - i - a,), h,
                ))
            continue
        if not minus:
            descents = frozenset(marks)
            if len(descents) != k:
                raise AssertionError("descent construction collided")
            yield prefix, area, norths, descents, "N" * norths
            continue
        extra = max(1, h - k + 2)
        if extra in marks:
            raise AssertionError("descent construction collided")
        yield prefix, area, norths, frozenset(marks + (extra,)), "E" * (i - norths - need) + "N" * (norths - 1)


def image_stream(n: int, k: int, minus: bool, table: list):
    """The plus map (minus=False) or the minus map at k on every base word
    of its domain, in words_T(n, 0)'s order: (base word, area, ht,
    descents, image word), the kernels' images read by prefix class
    (image_classes).  Each class's free suffixes come from `table`,
    suffix_table(n), which the caller shares between the streams of n; a
    suffix past its last entry is walked as heads first, as family_blocks
    walks a family.  No path is built."""
    block = len(table) - 1
    for prefix, area, ht, descents, head in image_classes(n, k, minus):
        free = n - 2 - len(prefix)
        if free <= block:
            for w, da, dh in table[free]:
                yield prefix + w, area + da, ht + dh, descents, head + w
            continue
        for lead, lead_area, lead_ht in _walk([("", area, ht)], range(free, block, -1)):
            word, image = prefix + lead, head + lead
            for w, da, dh in table[block]:
                yield word + w, lead_area + da, lead_ht + dh, descents, image + w


def image_stats(n: int, k: int):
    """stats(base, image) -> (area, ht) of the image word of a base word in
    T(n, k), its head's and its suffix's statistics looked up apart in
    family_blocks' split of T(n, k), so no table holds all of T(n, k).  An
    image outside T(n, k) raises ValueError."""
    heads, block = ({word: (area, ht) for word, area, ht in part} for part in family_blocks(n, k))
    cut = len(next(iter(heads)))

    def stats(base: str, word: str) -> tuple:
        head, tail = heads.get(word[:cut]), block.get(word[cut:])
        if head is None or tail is None:
            raise ValueError(f"k={k} image of {base} is not in T({n}, {k})")
        return head[0] + tail[0], head[1] + tail[1]

    return stats


def e_plus_map(k: int, path: LatticePath) -> TaggedPath:
    """plus_image on a checked base path, as a TaggedPath: discard the first
    k east steps; the tableau records where they were.  A path outside the
    map's domain at k (map_domain), where the kernel has no image, raises."""
    if path.s != 0:
        raise ValueError("e_plus_map expects a path starting at height 0")
    check_pieri_k(k, path.n)
    for _, descents, word in plus_image(path.n, range(k, k + 1), path.word):
        return _tag(path.n, descents, word)
    raise ValueError(f"path {path} is outside the plus map's domain for k={k}")


def e_minus_map(k: int, path: LatticePath) -> TaggedPath:
    """minus_image on a checked base path, as a TaggedPath: discard the first
    k-1 east steps and the first north step.  A path outside the map's
    domain at k (map_domain), where the kernel has no image, raises; the
    all-east path is left out because its hook image has a single Pieri
    term already."""
    if path.s != 0:
        raise ValueError("e_minus_map expects a path starting at height 0")
    check_pieri_k(k, path.n, 1)
    for _, descents, word in minus_image(path.n, range(k, k + 1), path.word):
        return _tag(path.n, descents, word)
    raise ValueError(f"path {path} is outside the minus map's domain for k={k}")


def hook_of(tagged: TaggedPath) -> tuple[int, ...]:
    """The hook index attached to a tagged path:
    (area + ht - maj(conjugate) + 1, 1^(n-2-ht))."""
    path = tagged.path
    return path_hook(path.n, path.area() - sum(tagged.descents), path.ht(), tagged)


def hook_sum(tagged_paths) -> SchurExpansion:
    return SchurExpansion(Counter(hook_of(tp) for tp in tagged_paths))


def thresholds(n: int, combo) -> tuple:
    """Where a tagged path with the conjugate descent set `combo` (a sorted
    tuple, k = len(combo)) falls among the Pieri sets, as three leading
    runs: (plus_north, v_north, v_east).

    The path lies in T+ when its leading north run is at least plus_north =
    max(0, n - k - min(combo)), and in T- otherwise; it lies in V when its
    leading north run is at least v_north or its leading east run at least
    v_east.  V takes north runs when 1 is a descent (n - k - min(combo -
    {1}), any run if combo = (1,)), east runs of at least min(combo) - 1
    when combo holds every top descent n-k+1..n-1 but not 1, and no path
    otherwise; inf marks a run no path reaches.
    """
    k = len(combo)
    min_d = combo[0] if combo else inf
    plus_north = max(0, n - k - min_d)
    if min_d == 1:
        return plus_north, (max(0, n - k - combo[1]) if k > 1 else 0), inf
    if k < 2 or combo[1] == n - k + 1:  # then combo[1:] is n-k+1..n-1
        return plus_north, inf, min_d - 1
    return plus_north, inf, inf


def member_prefix(n: int, combo, v: bool = False) -> tuple:
    """The (step, run) prefix that puts a path of the (n, k) family, tagged
    by the k-subset `combo` (a sorted tuple, as thresholds takes), in T+ (or
    in V when v is true): the tagged path is a member exactly when its word
    begins with run copies of step.  A run of inf admits no path."""
    return _prefixes(*thresholds(n, combo))[v]


def member_prefixes(n: int, k: int) -> dict:
    """{descent set: (T+ prefix, V prefix)} over the k-subsets of 1..n-1,
    member_prefix's two prefixes of each from one thresholds call: the one
    membership table that both maps' checks at (n, k) read."""
    return {frozenset(combo): _prefixes(*thresholds(n, combo)) for combo in combinations(range(1, n), k)}


def _prefixes(plus_north, v_north, v_east) -> tuple:
    return ("N", plus_north), (("N", v_north) if v_north != inf else ("E", v_east))


PieriSets = namedtuple("PieriSets", "tplus tminus v w")


def build_sets(n: int, k: int) -> PieriSets:
    """The tagged-path sets T+, T-, V, and W = T- \\ V for one (n, k), built
    path by path: the oracle for pieri_tallies and member_prefix.

    T+/T- split each tableau's path family by its leading north run; V
    collects the Pieri images of the minus map; W is the leftover measuring
    the path-level Pieri gap.  Membership is thresholds'.
    """
    check_pieri_k(k, n)
    tplus, tminus, v = set(), set(), set()
    family = [
        (path, path.leading_run("N"), path.leading_run("E")) for path in enumerate_T(n, k)
    ]
    for combo in combinations(range(1, n), k):
        d = frozenset(combo)
        plus_north, v_north, v_east = thresholds(n, combo)
        for path, j, r in family:
            tagged = TaggedPath(d, path)
            if j >= plus_north:
                tplus.add(tagged)
            else:
                tminus.add(tagged)
            if j >= v_north or r >= v_east:
                v.add(tagged)
    return PieriSets(
        frozenset(tplus), frozenset(tminus), frozenset(v), frozenset(tminus - v)
    )


def pieri_tallies(n: int, k: int) -> dict:
    """The tallies (area - maj', ht) -> number of tagged paths of T+, T-,
    V, W and V & T+ for one (n, k), keyed "tplus", "tminus", "v", "w" and
    "v_plus", counted by class without building a path.  Each tally is a
    plain dict holding only its nonzero counts.

    The descent sets enter by (thresholds, maj') class and the paths by
    leading-run class (paths.leading_run_counts); each pair of classes is
    placed once, and each set's tally folds its run classes' (area, ht)
    counts shifted by -maj'.  W is counted directly, as the paths in
    neither T+ nor V.
    """
    check_pieri_k(k, n)
    classes = {}  # thresholds -> {-maj': descent sets}
    for combo in combinations(range(1, n), k):
        sets = classes.setdefault(thresholds(n, combo), {})
        sets[-sum(combo)] = sets.get(-sum(combo), 0) + 1
    runs = leading_run_counts(n, k)
    shifts = defaultdict(dict)  # (set, run class) -> {-maj': count}
    for (plus_north, v_north, v_east), majps in classes.items():
        for j, r in runs:
            plus = j >= plus_north
            in_v = j >= v_north or r >= v_east
            names = ["tplus" if plus else "tminus"]
            if in_v:
                names += ["v", "v_plus"] if plus else ["v"]
            elif not plus:
                names.append("w")
            for name in names:
                shift = shifts[name, (j, r)]
                for majp, count in majps.items():
                    shift[majp] = shift.get(majp, 0) + count
    tallies = {name: {} for name in ("tplus", "tminus", "v", "w", "v_plus")}
    for (name, run), majps in shifts.items():
        add_shifted(tallies[name], runs[run], majps)
    return tallies


def perp_via_paths_by_k(n: int) -> list:
    """[perp_via_paths(n, k) for k in 0..n-2]: the adjoint Pieri rule
    computed path by path.  Each k reads its plus and its minus image
    stream, which share one suffix_table(n); image_stats reads each image,
    counted by (area - maj', ht) class, and no path is built.  An image
    outside T(n, k) puts its ValueError, the first in the plus stream and
    then the minus stream, at entry k in place of the expansion; the other
    k still hold."""
    table = suffix_table(n)
    out = []
    for k in range(0, n - 1):
        stats = image_stats(n, k)
        tally = {}
        last = None  # the words of one prefix class share one descent set
        try:
            for minus in (False, True):
                for word, _, _, descents, image in image_stream(n, k, minus, table):
                    if descents is not last:
                        last, maj = descents, sum(descents)
                    area, ht = stats(word, image)
                    key = area - maj, ht
                    tally[key] = tally.get(key, 0) + 1
        except ValueError as exc:
            out.append(exc)
            continue
        out.append(tally_hooks(n, tally, "a Pieri image"))
    return out


def perp_via_paths(n: int, k: int) -> SchurExpansion:
    """The adjoint Pieri rule computed path by path at one k: entry k of
    perp_via_paths_by_k, raising its ValueError for an image off T(n, k)."""
    check_pieri_k(k, n)
    perp = perp_via_paths_by_k(n)[k]
    if isinstance(perp, ValueError):
        raise perp
    return perp


# -- the difference formula ----------------------------------------------------


def difference_W(n: int, k: int, form: str = "direct", reading: str = "conjugate") -> SchurExpansion:
    """The gap sum over W, in three computable forms.

    "direct" sums hooks over W = T- \\ V, counted by class in
    pieri_tallies (build_sets is its oracle), and is the ground truth.
    "reindexed" evaluates the displayed re-indexed triple sums over the
    smaller families T_{n-r,k+1} and T_{n-1,j+k}; its tableau-side
    conditions are printed on Des(tau) in the source, which complements to
    Des(tau') -- reading="conjugate" applies that complement, while
    reading="literal" takes the printed conditions verbatim on Des(tau').
    "k1" is the printed k = 1 specialization (requires k == 1).  An
    unknown form or reading is refused whichever form is asked for.
    """
    check_pieri_k(k, n, 1)
    if form not in ("direct", "reindexed", "k1"):
        raise ValueError(f"unknown form {form!r}")
    if reading not in ("conjugate", "literal"):
        raise ValueError(f"unknown reading {reading!r}")
    if form == "direct":
        return tally_hooks(n, pieri_tallies(n, k)["w"], "a W path")
    families = {}  # (m, s) -> {shift: count}

    def count(m, s, shift):
        family = families.setdefault((m, s), {})
        family[shift] = family.get(shift, 0) + 1

    if form == "k1":
        if k != 1:
            raise ValueError("the k1 form is only defined for k = 1")
        for m in range(2, n - 1):
            for r in range(1, m - 1):
                count(n - r, 2, r - m)
            for j in range(1, n - 1 - m):
                count(n - 1, j + 1, j + 1 - m)
        return family_hooks(n, families, "a reindexed W term")
    for combo in combinations(range(1, n), k):
        d = frozenset(combo)
        majp = sum(d)
        min_d = min(d)
        has_one = 1 in d
        # printed "1 in Des(tau)" on the first two sums; under the conjugate
        # reading that selects tableaux with 1 NOT in Des(tau')
        first_two = (not has_one) if reading == "conjugate" else has_one
        if first_two:
            if min_d < n - k:
                for r in range(1, min_d - 1):
                    count(n - r, k + 1, k * r - majp)
                for j in range(1, n - k - min_d):
                    count(n - 1, j + k, j + k - majp)
            if not set(range(n - k + 1, n)) <= d:
                for r in range(min_d - 1, n - k - 1):
                    count(n - r, k + 1, k * r - majp)
        else:
            rest = d - {1}
            if rest:
                for j in range(0, n - k - min(rest)):
                    count(n - 1, k + j, j + k - majp)
    return family_hooks(n, families, "a reindexed W term")


def compare_difference(n: int, k: int, direct: SchurExpansion) -> dict:
    """Agreement report between the direct W sum, difference_W(n, k,
    "direct") as the caller already holds it, and the re-indexed displays."""
    report = {
        "n": n,
        "k": k,
        "direct": direct,
        "reindexed_conjugate": difference_W(n, k, "reindexed", "conjugate"),
        "reindexed_literal": difference_W(n, k, "reindexed", "literal"),
    }
    report["agree_conjugate"] = report["reindexed_conjugate"] == direct
    report["agree_literal"] = report["reindexed_literal"] == direct
    if k == 1:
        report["k1"] = difference_W(n, k, "k1")
        report["agree_k1"] = report["k1"] == direct
    return report


# -- the descent bijections ------------------------------------------------------


def _hook_descents(k: int, n: int, descents) -> frozenset:
    """Check that `descents` is Des(tau) for a tableau of shape
    (k+1, 1^(n-k-1)): an (n-k-1)-subset of 1..n-1."""
    descents = check_descents(descents, n)
    if len(descents) != n - k - 1:
        raise ValueError(f"shape ({k + 1}, 1^{n - k - 1}) needs {n - k - 1} descents, got {len(descents)}")
    return descents


def phi_map(k: int, path: LatticePath) -> frozenset:
    """East-start paths of height n-k-3 to hook tableaux whose descent set
    contains {1, 2}."""
    n = path.n
    if path.s != 0 or not path.word.startswith("E"):
        raise ValueError("phi_map expects a base path starting with an east step")
    if path.ht() != n - k - 3:
        raise ValueError(f"phi_map expects height {n - k - 3}, got {path.ht()}")
    return north_descents(n, path.word, 1) | {1, 2}


def phi_inverse(k: int, n: int, descents) -> LatticePath:
    descents = _hook_descents(k, n, descents)
    if not {1, 2} <= descents:
        raise ValueError("descent set must contain {1, 2}")
    return LatticePath(n, 0, descents_word(n, descents - {1, 2}, 1, k + 1))


def omega_map(k: int, j: int, path: LatticePath) -> frozenset:
    """North-start paths of height n-k-3 ending with exactly j norths to hook
    tableaux whose descent set contains {1, ..., j+2, n-1}."""
    n = path.n
    if path.s != 0 or not path.word.startswith("N"):
        raise ValueError("omega_map expects a base path starting with a north step")
    if path.ht() != n - k - 3:
        raise ValueError(f"omega_map expects height {n - k - 3}, got {path.ht()}")
    if path.trailing_run("N") != j:
        raise ValueError(f"path must end with exactly {j} north steps")
    descents = north_descents(n, path.word, 0)
    if j + 2 in descents:
        raise AssertionError("descent construction collided")
    return descents | {1, j + 2}


def omega_inverse(k: int, j: int, n: int, descents) -> LatticePath:
    descents = _hook_descents(k, n, descents)
    if not (set(range(1, j + 3)) | {n - 1}) <= descents:
        raise ValueError(f"descent set must contain 1..{j + 2} and {n - 1}")
    return LatticePath(n, 0, descents_word(n, descents - {1, j + 2}, 0, k + 1))


def beta_map(d: int, n: int, descents) -> LatticePath:
    """Hook tableaux with 1 as a descent to base paths of height n-d-2,
    turning descent positions into per-row east offsets."""
    descents = _hook_descents(d, n, descents)
    if 1 not in descents:
        raise ValueError("beta_map needs 1 in the descent set")
    return LatticePath(n, 0, descents_word(n, descents - {1}, 0, d))


def beta_inverse(d: int, path: LatticePath) -> frozenset:
    n = path.n
    if path.s != 0 or path.ht() != n - d - 2:
        raise ValueError(f"beta_inverse expects a base path of height {n - d - 2}")
    return north_descents(n, path.word, 0) | {1}
