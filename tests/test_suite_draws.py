"""The sample streams of the envelope, predict and slopes suites, and the
envelope oracle under a wrong envelope.

A suite report lists only failures, so the golden report digests do not
pin what a suite draws: a change to how a sample is built could draw other
functions and points and still report ``ok``.  ``test_sample_streams`` spies
on ``minval_poly``, ``PiecewiseLinear.eval`` and ``local_poly`` and hashes
every function, value and point they receive.
"""

import hashlib

from ivrf import newton, suites
from ivrf.newton import PiecewiseLinear, Segment
from ivrf.suites import run_suite

STREAMS = "f47a54296bc686643fa25c7203e3a11be7f0885a79701a952762b599817fa669"


def test_sample_streams(monkeypatch):
    lines = []
    minval_poly, local_poly = newton.minval_poly, newton.local_poly
    pl_eval = PiecewiseLinear.eval

    def spy_minval(f, V):
        lines.append(f"minval\t{f}")
        return minval_poly(f, V)

    def spy_eval(pl, gamma):
        lines.append(f"eval\t{gamma}")
        return pl_eval(pl, gamma)

    def spy_local(env, t, vt):
        lines.append(f"local\t{env.poly}\t{t}")
        return local_poly(env, t, vt)

    monkeypatch.setattr(suites, "minval_poly", spy_minval)
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
