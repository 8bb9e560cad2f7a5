"""The sample streams of the envelope, predict and slopes suites, and the
envelope oracle under wrong envelopes.

A suite report lists only failures, so the golden report digests do not
pin what a suite draws: a change to how a sample is built could draw other
functions and points and still report ``ok``.  ``test_sample_streams`` spies
on ``minval_poly``, ``minval_rat``, ``PiecewiseLinear.eval`` and ``local_poly``
and hashes every function, value and point they receive.
"""

import hashlib

import pytest

from ivrf import newton, suites
from ivrf.newton import PiecewiseLinear, Segment
from ivrf.suites import run_suite

STREAMS = "1910d2cc09ae8eb8b4a05b392e9bb5c03b36cac51b7f7673b19cb4b7949c150a"


def test_sample_streams(monkeypatch):
    lines = []
    minval_poly, minval_rat = newton.minval_poly, newton.minval_rat
    local_poly = newton.local_poly
    pl_eval = PiecewiseLinear.eval

    def spy_minval(f, V):
        lines.append(f"minval\t{f}")
        return minval_poly(f, V)

    def spy_minval_rat(phi, V):
        lines.extend((f"minval\t{phi.num}", f"minval\t{phi.den}"))
        return minval_rat(phi, V)

    def spy_eval(pl, gamma):
        lines.append(f"eval\t{gamma}")
        return pl_eval(pl, gamma)

    def spy_local(env, t, vt):
        lines.append(f"local\t{env.poly}\t{t}")
        return local_poly(env, t, vt)

    monkeypatch.setattr(suites, "minval_poly", spy_minval)
    monkeypatch.setattr(suites, "minval_rat", spy_minval_rat)
    monkeypatch.setattr(suites, "local_poly", spy_local)
    monkeypatch.setattr(newton, "local_poly", spy_local)  # slopes_check's
    monkeypatch.setattr(PiecewiseLinear, "eval", spy_eval)
    for name, samples in (("envelope", 6), ("predict", 60), ("slopes", 30)):
        lines.append(name)
        assert run_suite(name, seed=2024, samples=samples)["ok"]
    assert sum(line.startswith("eval") for line in lines) > 600
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == STREAMS


def test_envelope_oracle_catches_an_intercept_off_by_one(monkeypatch):
    # The first envelope with a single segment gets its intercept raised by
    # one; the envelope stays continuous with strictly decreasing slopes, so
    # only the direct minimum can tell it is wrong.
    wrong = []
    minval_poly = newton.minval_poly

    def off_by_one(f, V):
        pl = minval_poly(f, V)
        if not wrong and len(pl.segments) == 1:
            seg = pl.segments[0]
            wrong.append(str(f))
            bumped = Segment(seg.slope, seg.intercept + V.group.element(1),
                             seg.lo, seg.hi, seg.tag)
            pl = PiecewiseLinear(pl.group, [bumped])
        return pl

    monkeypatch.setattr(suites, "minval_poly", off_by_one)
    report = run_suite("envelope", seed=3, samples=20)
    assert wrong and not report["ok"]
    caught = [fail for fail in report["failures"] if fail["f"] == wrong[0]]
    assert caught and all("expected" in fail for fail in caught)
    assert report["checked"] == 20


def _pl(V, pieces):
    """A piecewise-linear function from (slope, intercept, lo, hi) in Z."""
    el = lambda c: None if c is None else V.group.element(c)
    return PiecewiseLinear(V.group, [Segment(m, el(b), el(lo), el(hi))
                                     for m, b, lo, hi in pieces])


def _too_many_breakpoints(f, V):
    # slopes d+1, d, ..., 0 with joints at 0, 1, ..., d: continuous and
    # concave, but one breakpoint more than the top support index d allows
    d = max(f.support())
    pieces, b = [], 0
    for j in range(d + 2):
        b += max(j - 1, 0)
        pieces.append((d + 1 - j, b, j - 1 if j else None, j if j <= d else None))
    return _pl(V, pieces)


@pytest.mark.parametrize("wrong_pl, reason", [
    (lambda f, V: _pl(V, [(1, 0, None, 0), (0, 1, 0, None)]), "discontinuous envelope"),
    (lambda f, V: _pl(V, [(1, 0, None, 0), (0, 0, 1, None)]), "discontinuous envelope"),
    (lambda f, V: _pl(V, [(0, 0, None, 0), (0, 0, 0, None)]),
     "slopes not strictly decreasing"),
    (_too_many_breakpoints, "too many breakpoints"),
], ids=["joint-disagrees", "gap", "repeated-slope", "too-many-breakpoints"])
def test_envelope_oracle_catches_a_malformed_envelope(monkeypatch, wrong_pl, reason):
    wrong = []
    minval_poly = newton.minval_poly

    def malformed(f, V):
        if wrong:
            return minval_poly(f, V)
        wrong.append(str(f))
        pl = wrong_pl(f, V)
        assert pl.is_continuous() == (reason != "discontinuous envelope")
        return pl

    monkeypatch.setattr(suites, "minval_poly", malformed)
    report = run_suite("envelope", seed=3, samples=4)
    assert not report["ok"]
    assert {"f": wrong[0], "reason": reason} in report["failures"]
