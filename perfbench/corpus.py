"""Seeded (domain, phi-text) corpora for the ``certify`` and ``tower`` workloads.

Every item is a rational function written as text, so that the measured
operation starts where ``ivrf member`` starts: ``parse_ratfun`` followed by
``intr_member``.  Items come in three kinds:

* ``member``: a ring-closure combination (sums and products) of pool
  functions that are integer-valued on the domain by construction;
* ``nonmember``: a member plus a constant of negative value, so every value
  on E leaves the valuation ring;
* ``random``: a random quotient of polynomials of degree 0-4 whose verdict is
  unknown beforehand and is only re-checked.

The generator does no field arithmetic: members are assembled as text, and
all normalization happens inside the timed operation.
"""

from __future__ import annotations

import random

# Each domain: the configuration accepted by ``ivrf.domain_from_config``, the
# pool of known integer-valued functions, constants of negative value (for
# non-members) and coefficient atoms for random functions.  The pool
# arguments are noted next to each entry.
DOMAINS = {
    # -- single-level domains ------------------------------------------------
    "q5": {
        "config": {"field": {"variant": "padic", "p": 5}, "E": "ring"},
        "pool": [
            "2", "3/7", "-4", "25/3", "5",
            "x", "x^2 - 3",
            "(x^5 - x)/5",                 # Fermat: a^5 = a mod 5 on Z_(5)
            "1/(x^2 + 2)",                 # -2 is not a square mod 5
            "x/(x^2 + x + 1)",             # discriminant -3 is not a square mod 5
        ],
        "negative": ["1/5", "2/5", "3/25"],
        "atoms": ["1", "2", "-3", "5", "1/5", "3/25", "7/2", "10"],
    },
    "i23": {
        "config": {"components": [{"variant": "padic", "p": 2},
                                  {"variant": "padic", "p": 3}],
                   "E": "field"},
        "pool": [
            "1", "5", "1/5", "7/11", "-6",
            "6(1+x^4)/((1+6x^2)(6+x^2))",  # theta for ({2,3}, t=6, n=2)
            "1/(x^2 + x + 5)",             # irreducible mod 2 and mod 3
            "x/(x^2 + x + 5)",
            "x^2/(x^2 + x + 5)",
        ],
        "negative": ["1/2", "1/3", "5/6"],
        "atoms": ["1", "2", "3", "6", "1/2", "1/3", "5", "-7"],
    },
    "tadic4": {
        "config": {"field": {"variant": "tadic", "residue": {"kind": "gf", "q": 4}},
                   "subfield": {"kind": "subgf", "order": 2}, "E": "field"},
        "pool": [
            "1", "t", "u*t", "1 + t", "1/(1 + t)",
            "1/(x^4 + x + 1)",             # maps GF(4) to {1}
            "(x^2 + x)/(x^4 + x + 1)",     # trace GF(4) -> GF(2) on units
            "t/(x^2 + x + u)",             # x^2+x+u is irreducible over GF(4)
            "u*t*x/(x^2 + x + u)",
        ],
        "negative": ["1/t", "u/t", "(1 + u)/t^2"],
        "atoms": ["1", "u", "t", "u*t", "1 + u", "1/t", "u/t", "(1 + u)*t^2"],
    },
    "hahn2": {
        "config": {"field": {"variant": "hahn", "residue": {"kind": "gf", "q": 2}},
                   "E": "field"},
        "pool": [
            "1", "t", "1 + t", "t/(1 + t)", "t^2",
            "1/(x^2 + x + 1)",             # no root in GF(2)
            "(x^2 + x)/(x^2 + x + 1)",
            "x/(x^2 + x + 1)",
            "t*x^2/(x^2 + x + 1)",
        ],
        "negative": ["1/t", "1/t^2", "(1 + t)/t"],
        "atoms": ["1", "t", "t^2", "1/t", "1 + t", "t/(1 + t)", "1/t^2"],
    },
    # -- residue towers and the rank-2 field ---------------------------------
    "tadic_u_const": {
        "config": {"field": {"variant": "tadic", "residue": {"kind": "ratfunc", "q": 2}},
                   "subfield": {"kind": "constants"}, "E": "field"},
        "pool": [
            "1", "t", "u*t", "1 + t", "t/u", "1/(1 + t)",
            "t/(x^2 + x + u)",             # x^2+x = u has no root in GF(2)(u)
            "t*x/(x^2 + x + u)",
            "(t*x^2 + t*x)/(x^2 + x + u)",
        ],
        "negative": ["1/t", "u/t", "1/(u*t)"],
        "atoms": ["1", "u", "t", "u*t", "1 + u", "1/t", "u/t", "1/u"],
    },
    "hahn_u_const": {
        "config": {"field": {"variant": "hahn", "residue": {"kind": "ratfunc", "q": 2}},
                   "subfield": {"kind": "constants"}, "E": "field"},
        "pool": [
            "1", "t", "1 + t", "t/(1 + t)", "u*t",
            "t/(x^2 + x + u)",             # t times functions integer-valued
            "t*(x^2 + x)/(x^2 + x + u)",   # on the Hahn valuation ring
            "t*(x^2 + x + u + 1)/(x^2 + x + u)",
        ],
        "negative": ["1/t", "u/t", "1/t^2"],
        "atoms": ["1", "u", "t", "u*t", "1 + u", "1/t", "u/t", "1/u"],
    },
    "hahn_u_frob": {
        "config": {"field": {"variant": "hahn", "residue": {"kind": "ratfunc", "q": 2}},
                   "subfield": {"kind": "frobenius", "e": 1}, "E": "field"},
        "pool": [
            "1", "u^2", "1 + u^2", "t", "u*t",
            "1/(x^4 + u^2)",               # the inseparable not-local witness
            "t/(x^2 + x + u)",
            "t*(x^2 + x)/(x^2 + x + u)",
        ],
        "negative": ["1/t", "u^2/t", "u/t^2"],
        "atoms": ["1", "u", "u^2", "t", "u*t", "1/t", "u/t", "1/u"],
    },
    "lex2": {
        "config": {"field": {"variant": "lex2", "residue": {"kind": "gf", "q": 2}},
                   "E": "field"},
        "pool": [
            "1", "t1", "t2", "t1/t2", "1 + t2",
            "1/(x^2 + x + 1)",             # no root in GF(2)
            "(x^2 + x)/(x^2 + x + 1)",
            "x/(x^2 + x + 1)",
            "t2*x^2/(x^2 + x + 1)",
        ],
        "negative": ["1/t2", "1/t1", "t2/t1"],
        "atoms": ["1", "t1", "t2", "t1*t2", "1 + t2", "1/t1", "t2/t1", "1 + t1"],
    },
}

WORKLOAD_DOMAINS = {
    "certify": ["q5", "i23", "tadic4", "hahn2"],
    "tower": ["tadic_u_const", "hahn_u_const", "hahn_u_frob", "lex2"],
}

# Per domain and pass: how many items of each kind.  Random items cycle
# through every (numerator degree, denominator degree) pair in 0..4 so the
# degree mix does not depend on the seed.
MIX = {
    "certify": {"member": 300, "nonmember": 150, "random": 250},
    "tower": {"member": 50, "nonmember": 25, "random": 175},
}

MAX_DEGREE = 4


class Item:
    __slots__ = ("id", "domain", "kind", "text")

    def __init__(self, id, domain, kind, text):
        self.id = id
        self.domain = domain
        self.kind = kind
        self.text = text

    @property
    def expected(self):
        """The known verdict kind, or None for random items."""
        return {"member": "in", "nonmember": "out"}.get(self.kind)


def _member_text(pool, rng):
    """A sum of one or two products of one or two pool functions."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        terms.append("*".join(f"({f})" for f in factors))
    return " + ".join(terms)


def _poly_text(atoms, degree, rng):
    terms = [f"({rng.choice(atoms)})*x^{degree}" if degree else f"({rng.choice(atoms)})"]
    for i in range(degree):
        if rng.random() < 0.5:
            terms.append(f"({rng.choice(atoms)})*x^{i}" if i else f"({rng.choice(atoms)})")
    return " + ".join(terms)


def build(workload, seed):
    """The fixed, seeded item list for one pass of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    items = []
    for name in WORKLOAD_DOMAINS[workload]:
        spec = DOMAINS[name]
        mix = MIX[workload]
        for k in range(mix["member"]):
            items.append(Item(f"{name}:member:{k}", name, "member",
                              _member_text(spec["pool"], rng)))
        for k in range(mix["nonmember"]):
            text = f"{_member_text(spec['pool'], rng)} + ({rng.choice(spec['negative'])})"
            items.append(Item(f"{name}:nonmember:{k}", name, "nonmember", text))
        for k in range(mix["random"]):
            dn = k % (MAX_DEGREE + 1)
            dd = (k // (MAX_DEGREE + 1)) % (MAX_DEGREE + 1)
            text = (f"({_poly_text(spec['atoms'], dn, rng)})"
                    f"/({_poly_text(spec['atoms'], dd, rng)})")
            items.append(Item(f"{name}:random:{k}", name, "random", text))
    # interleave domains and kinds, so a slow stretch of the machine does not
    # land on one of them
    rng.shuffle(items)
    return items
