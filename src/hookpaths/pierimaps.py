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
against three runs that thresholds() reads off the descent set.  So the
sets are read at three depths: pieri_tallies counts all five of T+, T-, V,
W and V & T+ by (area - maj', ht) class, pairing descent classes with the
leading-run classes of paths.leading_run_counts and building no path;
plus_set and v_set build T+ and V member by member from each descent set's
forced prefix, for the Pieri maps' image checks; build_sets builds every
tagged path and is the oracle for both.
"""

from collections import Counter, defaultdict, namedtuple
from itertools import combinations, product
from math import inf

from .characters import family_hooks, tally_hooks
from .paths import (
    LatticePath, _family_grid, add_shifted, clamp_start, enumerate_T, leading_run_counts, path_hook,
)
from .schur import SchurExpansion
from .shapes import StdTableau, check_descents, hook_tableau_from_descents


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

    @property
    def tableau(self) -> StdTableau:
        return hook_tableau_from_descents(self.descents, self.path.n).conjugate()


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


def _row_descents(n: int, counts, shift: int) -> set:
    """The descent n - i - c + shift for the i-th of the weakly increasing
    step counts c: one rule encodes the Pieri maps' east steps (c = norths
    before it) and the bijections' north steps (c = easts before it)."""
    return {n - i - c + shift for i, c in enumerate(counts, start=1)}


def _tag(n: int, descents, word: str) -> TaggedPath:
    """Pair a conjugate descent set with the path `word` in its family."""
    descents = check_descents(descents, n)
    s = clamp_start(n, len(descents))
    return TaggedPath(descents, LatticePath(n, s, word))


def _drop_steps(word: str, easts: int, norths: int) -> str:
    """Remove the first `easts` east steps and first `norths` north steps."""
    out = []
    for ch in word:
        if ch == "E" and easts:
            easts -= 1
        elif ch == "N" and norths:
            norths -= 1
        else:
            out.append(ch)
    return "".join(out)


def check_pieri_k(k: int, n: int, low: int = 0) -> None:
    """Refuse a k outside low..n-2: the Pieri maps and sets at size n are
    defined for 0 <= k <= n-2, and the minus side and W need k >= 1."""
    if not low <= k <= n - 2:
        raise ValueError(f"k={k} outside {low}..{n - 2}")


def plus_domain(k: int, path: LatticePath) -> bool:
    """Whether the base path lies in the domain of e_plus_map(k, .): it has
    at least k east steps."""
    return path.east_count() >= k


def minus_domain(k: int, path: LatticePath) -> bool:
    """Whether the base path lies in the domain of e_minus_map(k, .): k >= 1,
    at least k-1 east steps, and not the all-east path."""
    return k >= 1 and path.east_count() >= k - 1 and path.north_count() > 0


def e_plus_map(k: int, path: LatticePath) -> TaggedPath:
    """Discard the first k east steps; the tableau records where they were.

    Defined on the base paths where plus_domain(k, path) holds.
    """
    if path.s != 0:
        raise ValueError("e_plus_map expects a path starting at height 0")
    check_pieri_k(k, path.n)
    if not plus_domain(k, path):
        raise ValueError(f"path {path} is outside the plus map's domain for k={k}")
    n = path.n
    stats = path_stats(path)
    descents = _row_descents(n, stats.p[:k], 0)
    if len(descents) != k:
        raise AssertionError("descent construction collided")
    return _tag(n, descents, _drop_steps(path.word, easts=k, norths=0))


def e_minus_map(k: int, path: LatticePath) -> TaggedPath:
    """Discard the first k-1 east steps and the first north step.

    Defined on the base paths where minus_domain(k, path) holds; the
    all-east path is left out because its hook image has a single Pieri term
    already.
    """
    if path.s != 0:
        raise ValueError("e_minus_map expects a path starting at height 0")
    n = path.n
    check_pieri_k(k, n, 1)
    if not minus_domain(k, path):
        raise ValueError(f"path {path} is outside the minus map's domain for k={k}")
    stats = path_stats(path)
    descents = _row_descents(n, stats.p[:k - 1], 0)
    extra = max(1, stats.h - k + 2)
    if extra in descents:
        raise AssertionError("descent construction collided")
    descents.add(extra)
    return _tag(n, descents, _drop_steps(path.word, easts=k - 1, norths=1))


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
    if combo[1:] == tuple(range(n - k + 1, n)):
        return plus_north, inf, min_d - 1
    return plus_north, inf, inf


PieriSets = namedtuple("PieriSets", "tplus tminus v w")


def build_sets(n: int, k: int) -> PieriSets:
    """The tagged-path sets T+, T-, V, and W = T- \\ V for one (n, k), built
    path by path: the oracle for plus_set, v_set and pieri_tallies.

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


def _begin_with(n: int, k: int, step: str, run) -> list:
    """The paths of the (n, k) family whose word begins with `run` copies
    of `step`, each built once from that forced prefix; the family and its
    refusal are _family_grid's."""
    length = _family_grid(n, k)[1]
    if run > length:
        return []
    prefix, trusted = step * run, LatticePath._trusted
    return [trusted(n, k, prefix + "".join(w)) for w in product("EN", repeat=length - run)]


def _tagged(n: int, k: int, starts) -> frozenset:
    """The tagged paths (d, path) where `starts(thresholds(n, d))` lists the
    (step, run) prefixes that admit the path; descent sets with equal
    prefixes share their paths."""
    check_pieri_k(k, n)
    groups = defaultdict(list)
    for combo in combinations(range(1, n), k):
        groups[starts(thresholds(n, combo))].append(frozenset(combo))
    out = set()
    for prefixes, descent_sets in groups.items():
        paths = {path for step, run in prefixes for path in _begin_with(n, k, step, run)}
        out.update(TaggedPath(d, path) for d in descent_sets for path in paths)
    return frozenset(out)


def plus_set(n: int, k: int) -> frozenset:
    """T+, each member built once: the paths N^plus_north w of each
    conjugate descent set."""
    return _tagged(n, k, lambda t: (("N", t[0]),))


def v_set(n: int, k: int) -> frozenset:
    """V, each member built once: the paths N^v_north w and E^v_east w of
    each conjugate descent set."""
    return _tagged(n, k, lambda t: (("N", t[1]), ("E", t[2])))


def pieri_tallies(n: int, k: int) -> dict:
    """The tallies (area - maj', ht) -> number of tagged paths of T+, T-,
    V, W and V & T+ for one (n, k), keyed "tplus", "tminus", "v", "w" and
    "v_plus", counted by class without building a path.

    The descent sets enter by (thresholds, maj') class and the paths by
    leading-run class (paths.leading_run_counts); each pair of classes is
    placed once, and each set's tally folds its run classes' (area, ht)
    counts shifted by -maj'.  W is counted directly, as the paths in
    neither T+ nor V.
    """
    check_pieri_k(k, n)
    classes = defaultdict(Counter)  # thresholds -> {-maj': descent sets}
    for combo in combinations(range(1, n), k):
        classes[thresholds(n, combo)][-sum(combo)] += 1
    runs = leading_run_counts(n, k)
    shifts = defaultdict(Counter)  # (set, run class) -> {-maj': count}
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
                shifts[name, (j, r)].update(majps)
    tallies = {name: Counter() for name in ("tplus", "tminus", "v", "w", "v_plus")}
    for (name, run), majps in shifts.items():
        add_shifted(tallies[name], runs[run], majps)
    return tallies


def perp_via_paths(n: int, k: int) -> SchurExpansion:
    """The adjoint Pieri rule computed path by path: each base path feeds a
    plus image and (off the all-east path) a minus image; out-of-domain paths
    contribute nothing."""
    check_pieri_k(k, n)
    counts = Counter()
    for path in enumerate_T(n, 0):
        if plus_domain(k, path):
            counts[hook_of(e_plus_map(k, path))] += 1
        if minus_domain(k, path):
            counts[hook_of(e_minus_map(k, path))] += 1
    return SchurExpansion(counts)


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
    families = defaultdict(Counter)  # (m, s) -> {shift: count}
    if form == "k1":
        if k != 1:
            raise ValueError("the k1 form is only defined for k = 1")
        for m in range(2, n - 1):
            for r in range(1, m - 1):
                families[n - r, 2][r - m] += 1
            for j in range(1, n - 1 - m):
                families[n - 1, j + 1][j + 1 - m] += 1
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
                    families[n - r, k + 1][k * r - majp] += 1
                for j in range(1, n - k - min_d):
                    families[n - 1, j + k][j + k - majp] += 1
            if not set(range(n - k + 1, n)) <= d:
                for r in range(min_d - 1, n - k - 1):
                    families[n - r, k + 1][k * r - majp] += 1
        else:
            rest = d - {1}
            if rest:
                for j in range(0, n - k - min(rest)):
                    families[n - 1, k + j][j + k - majp] += 1
    return family_hooks(n, families, "a reindexed W term")


def compare_difference(n: int, k: int) -> dict:
    """Agreement report between the direct W sum and the re-indexed displays."""
    direct = difference_W(n, k, "direct")
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
    return frozenset(_row_descents(n, path_stats(path).n_steps, 1) | {1, 2})


def phi_inverse(k: int, n: int, descents) -> LatticePath:
    descents = _hook_descents(k, n, descents)
    if not {1, 2} <= descents:
        raise ValueError("descent set must contain {1, 2}")
    return _path_from_descents(n, descents - {1, 2}, 1, k + 1)


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
    descents = _row_descents(n, path_stats(path).n_steps, 0)
    if j + 2 in descents:
        raise AssertionError("descent construction collided")
    return frozenset(descents | {1, j + 2})


def omega_inverse(k: int, j: int, n: int, descents) -> LatticePath:
    descents = _hook_descents(k, n, descents)
    if not (set(range(1, j + 3)) | {n - 1}) <= descents:
        raise ValueError(f"descent set must contain 1..{j + 2} and {n - 1}")
    return _path_from_descents(n, descents - {1, j + 2}, 0, k + 1)


def beta_map(d: int, n: int, descents) -> LatticePath:
    """Hook tableaux with 1 as a descent to base paths of height n-d-2,
    turning descent positions into per-row east offsets."""
    descents = _hook_descents(d, n, descents)
    if 1 not in descents:
        raise ValueError("beta_map needs 1 in the descent set")
    return _path_from_descents(n, descents - {1}, 0, d)


def beta_inverse(d: int, path: LatticePath) -> frozenset:
    n = path.n
    if path.s != 0 or path.ht() != n - d - 2:
        raise ValueError(f"beta_inverse expects a base path of height {n - d - 2}")
    return frozenset(_row_descents(n, path_stats(path).n_steps, 0) | {1})


def _path_from_descents(n: int, descents, shift: int, total_easts: int) -> LatticePath:
    """Invert _row_descents: the base-family word whose i-th north step is
    preceded by n - i - d + shift east steps, d the i-th largest descent, and
    which has total_easts east steps."""
    word = []
    prev = 0
    for i, d in enumerate(sorted(descents, reverse=True), start=1):
        count = n - i - d + shift
        if count < prev:
            raise ValueError("east counts must be weakly increasing")
        word.append("E" * (count - prev))
        word.append("N")
        prev = count
    if prev > total_easts:
        raise ValueError("east counts exceed the grid width")
    word.append("E" * (total_easts - prev))
    return LatticePath(n, 0, "".join(word))
