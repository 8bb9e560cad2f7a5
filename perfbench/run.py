"""ivrf benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload {verify,certify,tower} --seed N \
        --seconds S --trace {0,1}

It imports ivrf from ``src/`` of the checkout it sits in and calls only the
public API.  Workloads (see perfbench/README.md for why each exists):

* ``verify``: the ten ``run_suite`` suites at the acceptance seed and
  scales of tests/test_acceptance.py, whatever --seed says;
* ``certify``: ``parse_ratfun`` then ``intr_member(depth=3)`` over seeded
  single-level domains (corpus.py);
* ``tower``: the same operation over GF(2)(u) residue towers and the rank-2
  field, each call under a wall-clock deadline.

Every verdict is checked: known answers must not be contradicted, every
CertifiedOut witness is re-evaluated, every CertifiedIn is sampled at points
of E, and every suite report must be ``ok``.  Human-readable lines come
first; the last line of stdout is one JSON object.  Exit status is 0 when
everything checked out, 1 on any correctness failure, 2 when ivrf cannot be
imported from the checkout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before ivrf is imported

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("verify", "certify", "tower")
ACCEPTANCE_SEED = 2024   # the seed of tests/test_acceptance.py and the
                         # default --seed; seed 7 is held out (README.md)

# (suite, samples, depth) at the scales of tests/test_acceptance.py.  The
# suite inputs stay at the acceptance seed: at other seeds the mstar suite
# can spend tens of seconds in Hahn/GF(2)(u) normalization, which is the
# tower workload's subject, not verify's.
SUITES = [("envelope", 500, 3), ("gauss", 500, 3), ("predict", 10_000, 3),
          ("slopes", 200, 3), ("psi-identity", 1000, 3), ("theta", 200, 3),
          ("rho", 1000, 3), ("witnesses", 1000, 3), ("dichotomy", 200, 3),
          ("mstar", 500, 3)]

DEADLINE_S = {"certify": 2.0, "tower": 0.1}    # per call, in reference seconds
RECHECK_DEADLINE_S = 1.0  # per re-check of a verdict, in reference seconds
SETUP_PROBES = 8         # cold set-ups in child processes, plus this one
CHECK_POINTS = 4         # points of E sampled per CertifiedIn
TAIL_BEYOND = 10         # op_tail: highest percentile with this many ops above
TAIL_WINDOW = 500        # ... within windows of about this many consecutive ops


class Deadline(BaseException):
    """Raised by the interval timer; BaseException so library code that
    catches Exception cannot swallow it."""


def _alarm(signum, frame):
    raise Deadline()


def with_deadline(seconds, fn, *args):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- set-up --------------------------------------------------------------------

def import_ivrf():
    if not os.path.isfile(os.path.join(SRC, "ivrf", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import ivrf
    if not os.path.abspath(ivrf.__file__).startswith(SRC + os.sep):
        return None
    return ivrf


def setup(ivrf, workload, seed):
    """Everything a run needs before its first measured operation."""
    if workload == "verify":
        # the fields and presets the suites construct, GF(4) tables included
        from ivrf import constructions
        ivrf.TAdicRat(ivrf.FiniteField(2, 2))
        ivrf.HahnFinite(ivrf.RatFuncField(ivrf.FiniteField(2), "u"))
        constructions.preset("t6n2")
        return None
    import corpus
    domains = {name: ivrf.domain_from_config(corpus.DOMAINS[name]["config"])
               for name in corpus.WORKLOAD_DOMAINS[workload]}
    return domains, corpus.build(workload, seed)


class SetupProbes:
    """Cold set-up times: this process and SETUP_PROBES child processes.

    The children start between operations, spread over the measured run, so
    their median sees the machine's speed drift the way the run does.
    """

    def __init__(self, args, own_setup_s):
        self.args = args
        self.times = [own_setup_s]
        self.interval = args.seconds / (SETUP_PROBES + 1)
        self.due = time.perf_counter() + self.interval

    def between_ops(self):
        if len(self.times) <= SETUP_PROBES and time.perf_counter() >= self.due:
            self._probe()
            self.due += self.interval

    def _probe(self):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", self.args.workload, "--seed", str(self.args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        self.times.append(float(out.stdout.strip().splitlines()[-1]))

    def median(self):
        while len(self.times) <= SETUP_PROBES:
            self._probe()
        return statistics.median(self.times)


# -- one pass over the fixed input set -------------------------------------------

class Pass:
    def __init__(self, clock):
        self.clock = clock
        self.starts = []         # perf_counter at the start of each op
        self.raw = []            # wall seconds per op, timeouts at their interrupt
        self.latencies = []      # reference seconds per op, set by finish()
        self.verdicts = {}       # op id -> verdict kind, "timeout" or "error"
        self.failures = []       # (op id, reason)
        self.recheck_timeouts = 0
        self.suite_s = {}        # wall seconds per suite
        self.digests = {}

    def record(self, start, busy):
        """An op that started at ``start`` when the clock's slices had taken
        ``busy`` seconds; the slices taken since are not the op's time."""
        self.starts.append(start)
        self.raw.append(time.perf_counter() - start - (self.clock.busy - busy))

    def finish(self):
        scale = self.clock.scale_over
        self.latencies = [r * scale(t, t + r) for t, r in zip(self.starts, self.raw)]
        return self

    @property
    def wall(self):
        return sum(self.latencies)


def verify_pass(ivrf, clock, probes, tracer):
    from ivrf.suites import run_suite
    p = Pass(clock)
    for name, samples, depth in SUITES:
        if tracer:
            tracer.op = name
        if probes:
            probes.between_ops()
        busy, start = clock.busy, time.perf_counter()
        if tracer:
            rep = tracer.span(f"suites.{name}", run_suite, name, seed=ACCEPTANCE_SEED,
                              samples=samples, depth=depth)
        else:
            rep = run_suite(name, seed=ACCEPTANCE_SEED, samples=samples, depth=depth)
        p.record(start, busy)
        p.suite_s[name] = p.raw[-1]
        p.verdicts[name] = "ok" if rep["ok"] else "violation"
        if not rep["ok"]:
            p.failures.append((name, f"suite not ok: {rep['failures'][:2]}"))
        body = {k: v for k, v in rep.items() if k != "elapsed"}
        p.digests[name] = hashlib.sha256(
            json.dumps(body, sort_keys=True, default=str).encode()).hexdigest()[:16]
    return p.finish()


def _sample_points(D, rng):
    V = D.field
    pts = []
    for _ in range(50 * CHECK_POINTS):
        a = V.random_element(rng)
        if D.contains_point(a):
            pts.append(a)
            if len(pts) == CHECK_POINTS:
                break
    return pts


def _recheck(ivrf, D, phi, verdict, seed, item_id):
    """None when the verdict survives direct evaluation, else a reason."""
    if verdict.kind == "out":
        w = verdict.witness
        if not D.contains_point(w):
            return f"witness {w} not in E"
        ev = phi.evaluate(w)
        if ev is not ivrf.POLE and D.member(ev):
            return f"witness {w} maps into D"
    elif verdict.kind == "in":
        rng = random.Random(f"{seed}:{item_id}")
        for a in _sample_points(D, rng):
            ev = phi.evaluate(a)
            if ev is ivrf.POLE or not D.member(ev):
                return f"value at {a} outside D"
    return None


def _member_op(ivrf, D, text):
    """The measured operation: what ``ivrf member`` does after start-up."""
    phi = ivrf.parse_ratfun(D.field, text)
    return phi, ivrf.intr_member(phi, D, depth=3)


def items_pass(ivrf, state, workload, seed, clock, probes, tracer, recheck):
    domains, items = state
    p = Pass(clock)
    for it in items:
        D = domains[it.domain]
        if tracer:
            tracer.op = it.id
        if probes:
            probes.between_ops()
        deadline = DEADLINE_S[workload] / clock.scale_now()
        busy, start = clock.busy, time.perf_counter()
        try:
            phi, verdict = with_deadline(deadline, _member_op, ivrf, D, it.text)
        except Deadline:
            p.record(start, busy)
            p.verdicts[it.id] = "timeout"
            continue
        except Exception as exc:  # any raise is a failed operation
            p.record(start, busy)
            p.verdicts[it.id] = "error"
            p.failures.append((it.id, f"raised {exc!r}"))
            continue
        finally:
            if tracer:
                tracer.stack.clear()
        p.record(start, busy)
        p.verdicts[it.id] = verdict.kind
        if it.expected and verdict.kind in ("in", "out") and verdict.kind != it.expected:
            p.failures.append((it.id, f"known {it.expected}, certified {verdict.kind}"))
            continue
        if not recheck:
            continue
        try:
            reason = with_deadline(RECHECK_DEADLINE_S / clock.scale_now(), _recheck,
                                   ivrf, D, phi, verdict, seed, it.id)
        except Deadline:
            p.recheck_timeouts += 1
            continue
        if reason:
            p.failures.append((it.id, reason))
    return p.finish()


def run_pass(ivrf, state, args, clock, probes=None, tracer=None, recheck=True):
    """One pass; verdicts are re-checked only when ``recheck`` is set, since
    later passes must reproduce the first pass's verdicts anyway."""
    if args.workload == "verify":
        return verify_pass(ivrf, clock, probes, tracer)
    return items_pass(ivrf, state, args.workload, args.seed, clock, probes, tracer,
                      recheck)


# -- statistics ------------------------------------------------------------------

def tails(latencies):
    """Split the ops into windows of about TAIL_WINDOW consecutive ops; per
    window, the highest percentile with TAIL_BEYOND ops above it (the maximum
    when a window is that small).  Returns (values, window size, percentile)."""
    n = len(latencies)
    k = max(1, n // TAIL_WINDOW)
    size = n // k
    values = []
    for i in range(k):
        xs = sorted(latencies[i * n // k:(i + 1) * n // k])
        values.append(xs[-TAIL_BEYOND - 1] if len(xs) > TAIL_BEYOND else xs[-1])
    percentile = 100.0 * (size - TAIL_BEYOND) / size if size > TAIL_BEYOND else 100.0
    return values, size, percentile


def kind_digest(p):
    lines = [f"{k} {v}" for k, v in sorted(p.verdicts.items()) if v != "timeout"]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def consistency_failures(passes):
    """Decided verdicts must not change between passes of one run."""
    out = []
    first = passes[0].verdicts
    for p in passes[1:]:
        for k, v in p.verdicts.items():
            w = first.get(k)
            if "timeout" not in (v, w) and v != w:
                out.append((k, f"verdict changed between passes: {w} -> {v}"))
    return out


def measured_run(ivrf, state, args, probes, lines):
    """Untraced passes until the next one would overrun --seconds."""
    passes = []
    start = time.perf_counter()
    with refclock.RefClock() as clock:
        while True:
            passes.append(run_pass(ivrf, state, args, clock, probes, recheck=not passes))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.mean(sum(p.raw) for p in passes) > args.seconds:
                break
    per_pass = [tails(p.latencies) for p in passes]
    _, window, percentile = per_pass[0]
    decided = sum(1 for p in passes for v in p.verdicts.values()
                  if v in ("in", "out", "ok", "violation"))
    attempted = sum(len(p.latencies) for p in passes)
    lines.append(f"passes {len(passes)}, ops per pass {len(passes[0].latencies)}, "
                 f"op_tail is p{percentile:.2f} of windows of {window} ops, "
                 f"median over {sum(len(t[0]) for t in per_pass)} windows")
    lines.append(f"wall seconds per pass {' '.join(f'{sum(p.raw):.3f}' for p in passes)}; "
                 f"calibration slice median {statistics.median(clock.slices) * 1e3:.4f} ms "
                 f"(reference {refclock.REF_SLICE_S * 1e3} ms)")
    metrics = {
        "wall_s": (statistics.mean(p.wall for p in passes), "ref_s"),
        "op_p50_ms": (statistics.median(statistics.median(p.latencies) * 1e3
                                        for p in passes), "ref_ms"),
        "op_tail_ms": (statistics.median(v * 1e3 for t in per_pass for v in t[0]),
                       "ref_ms"),
        "decided_share": (decided / attempted, "ratio"),
        "setup_s": (probes.median(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return passes, metrics


def traced_run(ivrf, state, args, lines):
    """One untraced pass as the reference, then one traced pass."""
    import tracing
    tracer = tracing.Tracer()
    with refclock.RefClock() as clock:
        plain = run_pass(ivrf, state, args, clock)
        tracer.install()
        try:
            traced = run_pass(ivrf, state, args, clock, tracer=tracer, recheck=False)
        finally:
            tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write_spans(span_file)
    lines.append(f"spans kept {len(tracer.spans)}, dropped {tracer.dropped}, "
                 f"written to {os.path.relpath(span_file, ROOT)}")
    metrics = {f"suites.{name}.s": (plain.suite_s.get(name, 0.0), "s")
               for name, _, _ in SUITES}
    metrics.update(tracer.layer_metrics())
    metrics.update(tracing.kernels(random.Random(args.seed)))
    metrics["trace.untraced_wall_s"] = (plain.wall, "ref_s")
    metrics["trace.wall_s"] = (traced.wall, "ref_s")
    metrics["trace.overhead"] = (traced.wall / plain.wall, "ratio")
    return [plain, traced], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    ivrf = import_ivrf()
    if ivrf is None:
        print(f"perfbench: no ivrf package under {SRC}", file=sys.stderr)
        return 2
    state = setup(ivrf, args.workload, args.seed)
    own_setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(own_setup_s)
        return 0
    signal.signal(signal.SIGALRM, _alarm)

    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
             f"trace {args.trace}"]
    if args.trace:
        passes, metrics = traced_run(ivrf, state, args, lines)
    else:
        passes, metrics = measured_run(ivrf, state, args,
                                       SetupProbes(args, own_setup_s), lines)

    failures = [f for p in passes for f in p.failures] + consistency_failures(passes)
    attempted = sum(len(p.latencies) for p in passes)
    first = passes[0]
    timeouts = sorted(k for k, v in first.verdicts.items() if v == "timeout")
    timed_out = sum(1 for p in passes for v in p.verdicts.values() if v == "timeout")
    lines.append(f"failed_share (raised, timed out, contradicted, re-check "
                 f"failed or suite not ok) = {(len(failures) + timed_out) / attempted:.6g}")
    lines.append(f"timed_out ({len(timeouts)}): {' '.join(timeouts) or '-'}")
    lines.append(f"recheck_timeouts = {sum(p.recheck_timeouts for p in passes)}")
    if args.workload == "verify":
        for name, d in first.digests.items():
            lines.append(f"digest suite {name} {d} ({first.suite_s[name]:.3f} s)")
    else:
        lines.append(f"digest verdicts {kind_digest(first)}")
    for item, reason in failures[:20]:
        lines.append(f"FAILED {item}: {reason}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}" if isinstance(value, float)
                     else f"{name} = {value} {unit}")
    print("\n".join(lines))
    correct = not failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
