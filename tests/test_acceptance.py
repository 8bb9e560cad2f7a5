"""Acceptance criteria, one test per criterion, at full stated scale.

Every check is exact (zero tolerance); the time bounds are generous
wall-clock ceilings for commodity hardware.  Run with ``pytest -s`` to see
one line per criterion.
"""

import json

import pytest

from ivrf.constructions import field_map_scan
from ivrf.ff import FiniteField
from ivrf.fields import PrimePowerSubfield
from ivrf.ratfun import POLE, Polynomial, RationalFunction
from ivrf.suites import run_suite


def _line(n, name, rep, budget):
    status = "PASS" if rep["ok"] and rep["elapsed"] < budget else "FAIL"
    print(f"ACCEPTANCE {n:02d} {name}: {status} "
          f"(checked={rep['checked']}, {rep['elapsed']}s < {budget}s)")
    if rep["failures"]:
        print(json.dumps(rep["failures"][:5], indent=1, default=str))
    assert rep["ok"], rep["failures"][:5]
    assert rep["elapsed"] < budget


def test_01_envelope_oracle():
    rep = run_suite("envelope", seed=2024, samples=500)
    _line(1, "envelope oracle", rep, 5)


def test_02_gauss_multiplicativity():
    rep = run_suite("gauss", seed=2024, samples=500)
    _line(2, "gauss multiplicativity", rep, 10)


def test_03_prediction():
    rep = run_suite("predict", seed=2024, samples=10_000)
    _line(3, "prediction", rep, 30)


def test_04_slope_extraction():
    rep = run_suite("slopes", seed=2024, samples=200)
    _line(4, "slope extraction", rep, 5)


def test_05_psi_suite():
    rep = run_suite("psi-identity", seed=2024, samples=1000)
    _line(5, "psi identity and case table", rep, 10)


def test_06_theta_suite():
    rep = run_suite("theta", samples=200)
    _line(6, "theta exhaustive grid", rep, 30)


def test_07_rho_suite():
    rep = run_suite("rho", seed=2024, samples=1000)
    _line(7, "rho minimum law and characteristic sets", rep, 20)


def test_08_notlocal_witnesses():
    rep = run_suite("witnesses", seed=2024, samples=1000, depth=3)
    _line(8, "not-local witnesses", rep, 20)


def test_09_locality_dichotomy():
    rep = run_suite("dichotomy", seed=2024, samples=200, depth=3)
    _line(9, "locality dichotomy", rep, 30)


def test_10_mstar_axioms():
    rep = run_suite("mstar", seed=2024, samples=500)
    _line(10, "envelope-prime axioms", rep, 10)


def test_11_field_map_scan():
    import time
    t0 = time.monotonic()
    F4 = FiniteField(2, 2)
    GF2_in_4 = PrimePowerSubfield(F4, 1)

    scan2 = field_map_scan(F4, GF2_in_4, 2, 0)
    trace = RationalFunction(Polynomial(F4, [F4.zero(), F4.one(), F4.one()]))
    entry = scan2.find(trace)
    ok = entry is not None
    u = F4.gen()
    ok = ok and entry["values"][F4.zero()] == F4.zero()
    ok = ok and entry["values"][F4.one()] == F4.zero()
    ok = ok and entry["values"][u] == F4.one()
    ok = ok and entry["values"][u + 1] == F4.one()

    scan3 = field_map_scan(F4, GF2_in_4, 3, 0)
    norm = RationalFunction(Polynomial(
        F4, [F4.zero(), F4.zero(), F4.zero(), F4.one()]))
    e3 = scan3.find(norm)
    ok = ok and e3 is not None
    ok = ok and all(e3["values"][d] == F4.one()
                    for d in F4.elements() if d != F4.zero())

    # L = M = GF(2), k = 0: exactly the pole-free functions qualify, and the
    # only nonconstant formulas acting as constant maps are the trace family.
    F2 = FiniteField(2)
    scan_id = field_map_scan(F2, None, 2, 0)
    ok = ok and all(POLE not in e["values"].values() for e in scan_id.maps)
    scan_all = field_map_scan(F2, None, 2, 2)
    pole_free = sum(1 for e in scan_all.maps
                    if POLE not in e["values"].values())
    ok = ok and pole_free == len(scan_id.maps)
    trace_family = sorted(str(e["function"]) for e in scan_id.maps
                          if e["constant_map"] and not e["function"].is_constant())
    ok = ok and trace_family == ["(x^2 + x)/(x^2 + x + 1)",
                                 "1/(x^2 + x + 1)",
                                 "x^2 + x",
                                 "x^2 + x + 1"]
    nonconst = [e for e in scan_id.maps
                if not e["constant_map"] and not e["function"].is_constant()]
    ok = ok and all(len({v for v in e["values"].values()}) == 2 for e in nonconst)

    elapsed = round(time.monotonic() - t0, 3)
    rep = {"ok": ok, "checked": scan2.scanned + scan3.scanned + scan_id.scanned,
           "elapsed": elapsed, "failures": [] if ok else [{"stage": "scan"}]}
    _line(11, "field-map scan", rep, 10)
