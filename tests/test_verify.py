"""The checks in `verify` must still report a failure when a map or formula
under test is wrong: every passing run looks the same whether or not a check
can fail, so each check is fed a broken one here and must name it.  An
instance that raises must fail the same way without ending the run."""

import pytest

from hookpaths import characters, cli, pierimaps, verify
from hookpaths.paths import LatticePath
from hookpaths.pierimaps import TaggedPath
from hookpaths.schur import SchurExpansion


class StrayTagged(TaggedPath):
    """Equal only to itself: an image outside every set of real tagged paths."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class StrayPath(LatticePath):
    """Equal only to itself: an image outside every set of real paths."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _shift_descents(monkeypatch, forward, inverse):
    """Shift every descent a bijection returns by 10, and back in its inverse:
    the round trip still holds, the major index does not."""
    f, g = getattr(pierimaps, forward), getattr(pierimaps, inverse)
    monkeypatch.setattr(pierimaps, forward, lambda *a: frozenset(d + 10 for d in f(*a)))
    monkeypatch.setattr(pierimaps, inverse, lambda *a: g(*a[:-1], {d - 10 for d in a[-1]}))


def _flip_first_step(tagged):
    path = tagged.path
    flipped = {"E": "N", "N": "E"}[path.word[0]] + path.word[1:]
    return TaggedPath(tagged.descents, LatticePath(path.n, path.s, flipped))


def test_pieri_check_reports_a_broken_hook_law(monkeypatch):
    plus, minus = pierimaps.e_plus_map, pierimaps.e_minus_map
    monkeypatch.setattr(pierimaps, "e_plus_map", lambda k, g: _flip_first_step(plus(k, g)))
    monkeypatch.setattr(pierimaps, "e_minus_map", lambda k, g: _flip_first_step(minus(k, g)))
    assert verify._check_pieri(3, False) == "k=0 hook law fails on E"
    assert verify._check_pieri(4, True) == "k=1 hook law fails on EN"


def test_pieri_check_reports_an_image_off_the_set(monkeypatch):
    plus, minus = pierimaps.e_plus_map, pierimaps.e_minus_map

    def stray(pieri_map):
        def stray_map(k, g):
            tagged = pieri_map(k, g)
            return StrayTagged(tagged.descents, tagged.path)

        return stray_map

    monkeypatch.setattr(pierimaps, "e_plus_map", stray(plus))
    monkeypatch.setattr(pierimaps, "e_minus_map", stray(minus))
    assert verify._check_pieri(4, False) == "k=0 image is not the plus set"
    assert verify._check_pieri(4, True) == "k=1 image is not the V set"


def test_phi_check_reports_a_broken_round_trip(monkeypatch):
    inverse = pierimaps.phi_inverse

    def reversed_inverse(k, n, descents):
        path = inverse(k, n, descents)
        return LatticePath(path.n, path.s, path.word[::-1])

    monkeypatch.setattr(pierimaps, "phi_inverse", reversed_inverse)
    assert verify._check_phi(4) == "k=0 round trip fails on EN"


def test_omega_check_reports_a_broken_statistic(monkeypatch):
    _shift_descents(monkeypatch, "omega_map", "omega_inverse")
    assert verify._check_omega(4) == "k=0 j=0 statistic fails on NE"
    _shift_descents(monkeypatch, "phi_map", "phi_inverse")
    assert verify._check_phi(4) == "k=0 statistic fails on EN"


def test_beta_check_reports_an_image_mismatch(monkeypatch):
    forward = pierimaps.beta_map

    def stray(d, n, descents):
        path = forward(d, n, descents)
        return StrayPath(path.n, path.s, path.word)

    monkeypatch.setattr(pierimaps, "beta_map", stray)
    assert verify._check_beta(3) == "d=0 image mismatch"
    # a descent set in a witness reads as its sorted list
    monkeypatch.setattr(pierimaps, "beta_inverse", lambda d, g: frozenset())
    assert verify._check_beta(3) == "d=0 round trip fails on [1, 2]"


@pytest.mark.parametrize("error", [TypeError, ValueError])
def test_a_reported_instance_that_raises_fails_and_the_run_goes_on(monkeypatch, capsys, error):
    def boom(n, k):
        raise error("boom")

    monkeypatch.setattr(pierimaps, "compare_difference", boom)
    assert cli.main(["verify", "--suite", "difference-W", "--max-n", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "[FAIL    ] difference-W check=display n=3 k=1 -- exception: boom"
    assert lines[-1] == "# 6 instances: fail=3 pass=3"


def _add_term(monkeypatch, name, shape):
    """Add s_shape to the expansion characters.<name> gives for mu = (2, 1)."""
    formula = getattr(characters, name)

    def broken(n, a, mu):
        out = formula(n, a, mu)
        if mu != (2, 1):
            return out
        extra = SchurExpansion.term(shape)
        if isinstance(out, SchurExpansion):
            return out + extra
        return characters.HookResult(out.n, out.r, out.mu, out.expansion + extra, out.proven)

    monkeypatch.setattr(characters, name, broken)


@pytest.mark.parametrize("name, shape, checks", [
    ("gl2_delta_mu", (3,), ["check=delta-mu n=3 k=0", "check=delta-mu n=3 k=1", "check=delta-mu n=3 k=2"]),
    ("hook_formula", (3,), ["check=hook-formula n=3"]),
    # s_(2,1)(q, 0) = 0, so the t = 0 character does not see it
    ("gl2_delta_mu", (2, 1), []),
    ("hook_formula", (2, 1), []),
])
def test_hrs_t0_checks_see_exactly_the_one_row_terms(monkeypatch, name, shape, checks):
    _add_term(monkeypatch, name, shape)
    failures = [r.line() for r in verify.suite_hrs_t0(3) if r.status != "pass"]
    assert failures == [f"[FAIL    ] hrs-t0 {check} -- mu=2,1" for check in checks]


def test_a_broken_membership_threshold_is_reported_by_each_check(monkeypatch):
    # T+ admits paths one leading north step short: at n = 3, k = 1 the
    # empty path tagged {1} then lies in both T+ and V
    thresholds = pierimaps.thresholds

    def lowered(n, combo):
        plus_north, v_north, v_east = thresholds(n, combo)
        return max(plus_north - 1, 0), v_north, v_east

    monkeypatch.setattr(pierimaps, "thresholds", lowered)
    reports = verify.suite_bijections(3) + verify.suite_pieri_paths(3) + verify.suite_difference_w(3)
    failures = [r.line() for r in reports if r.status == "fail"]
    assert failures == [
        "[FAIL    ] bijections map=plus n=3 -- k=1 image is not the plus set",
        "[FAIL    ] pieri-paths check=positivity n=3 k=1 -- V escapes the minus set",
        "[FAIL    ] difference-W check=direct n=3 k=1 -- W sum != minus-sum - V-sum",
    ]
