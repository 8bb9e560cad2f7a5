"""In-process tracing of ivrf's layer boundaries, installed from outside ``src/``.

``Tracer.install`` replaces the public boundary functions and methods of the
ivrf modules with wrappers; ``Tracer.uninstall`` puts the originals back.  A
wrapper records a span (name, start, end, parent, op id) and keeps a call
count and self time per key online, so self time needs no pass over the
spans: a span's self time is its duration minus the durations of the spans
it directly contains.  Hot element operations in ``ff`` and ``ordgroup``
are only counted; their cost per operation comes from ``kernels``.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

import ivrf
from ivrf import constructions, ff, fields, intr, newton, ordgroup, ratfun

perf_counter = time.perf_counter

# Spans of the coarse boundaries are all kept; spans of the hot ones
# (normalize, gcd, valuation, ...) are kept up to SPAN_CAP per run and only
# counted after that, which bounds the memory a traced run takes.
SPAN_CAP = 100_000
COARSE = ("suites.", "constructions", "intr.", "parsing.", "ratfun.compose")

# Coefficient classes of ratfun.normalize/gcd and field classes of
# fields.valuation/residue.  Metric names allow no parentheses or slashes, so
# GFq(u) is written GFq_u and "tadic/GFq(u)" is tadic_GFq_u.
COEFS = ["Q", "GFq", "GFq_u", "tadic", "tadic_GFq_u", "lex2", "hahn", "hahn_GFq_u"]
FIELDS = ["padic", "tadic", "tadic_GFq_u", "lex2", "hahn", "hahn_GFq_u"]
FF_ORDERS = [2, 4, 8, 64]
GROUPS = {"Z": ordgroup.GroupSpec.integers(1), "Z2": ordgroup.GroupSpec.integers(2),
          "Q": ordgroup.GroupSpec.rationals()}

CONSTRUCTIONS = ["preset", "build_theta", "coprime_grid", "verify_theta",
                 "build_psi", "verify_psi", "build_rho", "verify_rho",
                 "build_separator", "verify_separator", "notlocal_witness",
                 "field_map_scan"]


def _kind(field):
    """Coefficient class of a polynomial's field (doubles as the field class)."""
    if isinstance(field, ff.FiniteField):
        return "GFq"
    if isinstance(field, ff.RatFuncField):
        return "GFq_u"
    if isinstance(field, fields.PAdicQ) or field is ivrf.QQ:
        return "Q"
    tower = isinstance(getattr(field, "kappa", None), ff.RatFuncField)
    if isinstance(field, fields.TAdicRat):
        return "tadic_GFq_u" if tower else "tadic"
    if isinstance(field, fields.HahnFinite):
        return "hahn_GFq_u" if tower else "hahn"
    if isinstance(field, fields.LexRank2):
        return "lex2"
    return "other"


def _field_kind(field):
    k = _kind(field)
    return "padic" if k == "Q" else k


class Tracer:
    def __init__(self):
        self.stack = []            # open frames: [child_seconds, span_id]
        self.stats = {}            # key -> [calls, self_seconds]
        self.counts = Counter()    # count-only keys
        self.spans = []            # (id, name, start, end, parent, op)
        self.dropped = 0
        self.op = None
        self._ids = itertools.count()
        self._patched = []

    # -- recording -------------------------------------------------------------

    def span(self, key, fn, *args, **kwargs):
        stack = self.stack
        sid = next(self._ids)
        parent = stack[-1][1] if stack else None
        frame = [0.0, sid]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            st = self.stats.get(key)
            if st is None:
                st = self.stats[key] = [0, 0.0]
            st[0] += 1
            st[1] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if len(self.spans) < SPAN_CAP or key.startswith(COARSE):
                self.spans.append((sid, key, start, end, parent, self.op))
            else:
                self.dropped += 1

    def calls(self, key):
        return self.stats.get(key, (0, 0.0))[0]

    def self_s(self, key):
        return self.stats.get(key, (0, 0.0))[1]

    # -- installation ----------------------------------------------------------

    def _replace_function(self, module, name, make):
        """Swap ``module.name`` in every ivrf module that holds the same object."""
        orig = getattr(module, name)
        wrapper = make(orig)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("ivrf"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    def _replace_method(self, cls, name, make):
        orig = cls.__dict__[name]
        setattr(cls, name, make(orig))
        self._patched.append((cls, name, orig))

    def _spanned(self, key):
        def make(orig):
            def wrapper(*args, **kwargs):
                return self.span(key, orig, *args, **kwargs)
            return wrapper
        return make

    def _counted(self, key_of):
        counts = self.counts

        def make(orig):
            def wrapper(obj, *args):
                counts[key_of(obj)] += 1
                return orig(obj, *args)
            return wrapper
        return make

    def install(self):
        for name in CONSTRUCTIONS:
            self._replace_function(constructions, name, self._spanned("constructions"))
        self._replace_function(intr, "intr_member", self._spanned("intr.intr_member"))
        self._replace_function(intr, "residue_roots", self._residue_roots)
        for name in ("minval_poly", "local_poly"):
            self._replace_function(newton, name, self._spanned(f"newton.{name}"))
        self._replace_function(ratfun, "parse_ratfun",
                               self._spanned("parsing.parse_ratfun"))

        RF, P = ratfun.RationalFunction, ratfun.Polynomial

        def normalize(orig):
            def __init__(rf, num, den=None, _canonical=False):
                if _canonical:
                    return orig(rf, num, den, True)
                return self.span("ratfun.normalize." + _kind(num.field), orig, rf, num, den)
            return __init__
        self._replace_method(RF, "__init__", normalize)

        def gcd(orig):
            fn = orig.__func__

            def wrapper(a, b):
                return self.span("ratfun.gcd." + _kind(a.field), fn, a, b)
            return staticmethod(wrapper)
        self._replace_method(P, "gcd", gcd)
        self._replace_method(RF, "compose", self._spanned("ratfun.compose"))
        self._replace_method(RF, "evaluate", self._spanned("ratfun.evaluate"))

        for cls in (fields.PAdicQ, fields.TAdicRat, fields.LexRank2, fields.HahnFinite):
            for name in ("valuation", "residue"):
                self._replace_method(cls, name, self._per_field(name))

        ff_key = lambda el: "ff.ops." + str(el.field.q)
        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__"):
            self._replace_method(ff.FFElement, name, self._counted(ff_key))
        og_key = lambda el: "ordgroup.ops"
        for name in ("__add__", "__sub__", "__neg__", "scale", "__eq__",
                     "__lt__", "__le__", "__gt__", "__ge__"):
            self._replace_method(ordgroup.GroupElement, name, self._counted(og_key))

    def _per_field(self, name):
        def make(orig):
            def wrapper(field, x):
                return self.span(f"fields.{name}.{_field_kind(field)}", orig, field, x)
            return wrapper
        return make

    def _residue_roots(self, orig):
        def wrapper(*args, **kwargs):
            roots, complete = self.span("intr.residue_roots", orig, *args, **kwargs)
            if not complete:
                self.counts["intr.residue_roots.incomplete"] += 1
            return roots, complete
        return wrapper

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, op]) + "\n")

    def layer_metrics(self):
        """Per-layer counts and self times, named as in BENCHMARK.json."""
        m = {}

        def both(prefix, key):
            m[f"{prefix}.calls"] = (self.calls(key), "count")
            m[f"{prefix}.self_s"] = (self.self_s(key), "s")

        m["constructions.self_s"] = (self.self_s("constructions"), "s")
        both("intr.intr_member", "intr.intr_member")
        both("intr.residue_roots", "intr.residue_roots")
        rr = self.calls("intr.residue_roots")
        m["intr.residue_roots.incomplete_share"] = (
            self.counts["intr.residue_roots.incomplete"] / rr if rr else 0.0, "ratio")
        for name in ("minval_poly", "local_poly"):
            both(f"newton.{name}", f"newton.{name}")
        for op in ("normalize", "gcd"):
            for c in COEFS:
                key = f"ratfun.{op}.{c}"
                m[f"ratfun.{op}.calls.{c}"] = (self.calls(key), "count")
                m[f"ratfun.{op}.self_s.{c}"] = (self.self_s(key), "s")
        for op in ("compose", "evaluate"):
            both(f"ratfun.{op}", f"ratfun.{op}")
        for op in ("valuation", "residue"):
            for f in FIELDS:
                key = f"fields.{op}.{f}"
                m[f"fields.{op}.calls.{f}"] = (self.calls(key), "count")
                m[f"fields.{op}.self_s.{f}"] = (self.self_s(key), "s")
        for q in FF_ORDERS:
            m[f"ff.ops.{q}"] = (self.counts[f"ff.ops.{q}"], "count")
        m["ordgroup.ops"] = (self.counts["ordgroup.ops"], "count")
        both("parsing.parse_ratfun", "parsing.parse_ratfun")
        return m


# -- fixed kernels for the counted element operations -------------------------

KERNEL_OPS = 20_000
KERNEL_REPEATS = 5


def _time_ns(fn, pairs):
    """Median over repeats of ns per call of fn over the operand pairs."""
    samples = []
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        for a, b in pairs:
            fn(a, b)
        samples.append((perf_counter() - start) / len(pairs) * 1e9)
    return statistics.median(samples)


def kernels(rng):
    """ns/op for GF(q) add, mul, neg and value-group add, scale, cmp."""
    m = {}
    for q in FF_ORDERS:
        p, k = 2, q.bit_length() - 1
        F = ff.FiniteField(p, k)
        els = list(F.elements())
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(KERNEL_OPS)]
        m[f"ff.add_ns.{q}"] = (_time_ns(lambda a, b: a + b, pairs), "ns")
        m[f"ff.mul_ns.{q}"] = (_time_ns(lambda a, b: a * b, pairs), "ns")
        m[f"ff.neg_ns.{q}"] = (_time_ns(lambda a, b: -a, pairs), "ns")
    for name, G in GROUPS.items():
        def rand_el():
            den = rng.randint(1, 4) if all(G.divisible) else 1
            return G.element(*[Fraction(rng.randint(-50, 50), den) for _ in range(G.rank)])
        pairs = [(rand_el(), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                 for _ in range(KERNEL_OPS)]
        adds = [(a, rand_el()) for a, _ in pairs]
        m[f"ordgroup.add_ns.{name}"] = (_time_ns(lambda a, b: a + b, adds), "ns")
        m[f"ordgroup.scale_ns.{name}"] = (_time_ns(lambda a, s: a.scale(s), pairs), "ns")
        m[f"ordgroup.cmp_ns.{name}"] = (_time_ns(lambda a, b: a < b, adds), "ns")
    return m
