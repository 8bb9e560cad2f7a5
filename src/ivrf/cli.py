"""Command-line front end.

Field and domain specifications are JSON, passed as a path or inline.  All
reports carry the schema tag ivrf/1 and are rendered with sorted keys, so a
fixed seed yields byte-identical output.  Exit codes: 0 for success or a
verified suite, 1 when a verify suite finds a violation, 2 for usage or
configuration errors.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import constructions as cons
from .errors import ConfigError, IvrfError
from .fields import field_from_config, pvd_from_config
from .ff import FiniteField
from .fields import PrimePowerSubfield, FullResidueField
from .intr import (MStar, Pointed, ValueIdeal, dichotomy_check,
                   domain_from_config, ideal_member, intr_member)
from .newton import local_poly, minval_rat, predict
from .ratfun import POLE, parse_ratfun
from .suites import SUITES, run_suite

SCHEMA = "ivrf/1"


def _load_config(spec):
    inline = spec.lstrip().startswith("{")
    where = "inline config" if inline else f"config file {spec!r}"
    try:
        cfg = json.loads(spec if inline else Path(spec).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {where}: {exc.strerror}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} is not a JSON object")
    return cfg


def _emit(payload, out, fmt="json"):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, default=str)
    else:
        text = payload
    if out:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text)


def _report(command, **body):
    return {"schema": SCHEMA, "command": command, **body}


def _domain(config):
    cfg = _load_config(config)
    return domain_from_config(cfg)


def _field_only(config):
    cfg = _load_config(config)
    if "field" in cfg:
        return field_from_config(cfg["field"])
    return field_from_config(cfg)


class _Cli(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except IvrfError as exc:
            raise click.exceptions.UsageError(str(exc)) from exc


@click.group(cls=_Cli)
def main():
    """Exact tools for integer-valued rational functions over valued fields."""


@main.command()
@click.option("--config", required=True, help="field spec (JSON path or inline)")
@click.option("-f", "--function", "expr", required=True,
              help="polynomial or rational function in x")
@click.option("--sweep", type=int, default=0,
              help="also sweep integer values in [-N, N] (CSV)")
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def minval(config, expr, sweep, out, fmt):
    """Piecewise-linear envelope of a function's valuation."""
    V = _field_only(config)
    phi = parse_ratfun(V, expr)
    pl = minval_rat(phi, V)
    if fmt == "csv" or sweep:
        lines = ["gamma,minval,observed,exact"]
        for k in range(-abs(sweep), abs(sweep) + 1):
            gamma = V.group.element(*([k] + [0] * (V.group.rank - 1)))
            t = V.element_of_value(gamma)
            predicted, exact = predict(phi, t, V)
            ev = phi.evaluate(t)
            observed = "pole" if ev is POLE else V.valuation(ev)
            lines.append(f"{gamma},{pl.eval(gamma)},{observed},{exact}")
        if fmt == "csv":
            _emit("\n".join(lines), out, "csv")
            return
        _emit(_report("minval", function=str(phi), envelope=pl.to_json(),
                      sweep=lines[1:]), out)
        return
    _emit(_report("minval", function=str(phi), envelope=pl.to_json()), out)


@main.command()
@click.option("--config", required=True)
@click.option("-f", "--function", "expr", required=True, help="polynomial in x")
@click.option("-t", "--at", "at", required=True, help="field element t")
@click.option("--out", default=None)
def locpoly(config, expr, at, out):
    """Local residue polynomial of a polynomial at t."""
    V = _field_only(config)
    f = parse_ratfun(V, expr)
    if f.den.degree > 0:
        raise click.UsageError("locpoly expects a polynomial")
    t = V.parse(at)
    loc = local_poly(f.num, t, V)
    _emit(_report("locpoly", f=str(f), t=str(t), degree=loc.degree,
                  local_polynomial=str(loc.poly),
                  support=loc.support()), out)


@main.command()
@click.option("--config", required=True, help="domain spec (JSON path or inline)")
@click.option("--phi", required=True)
@click.option("--depth", type=click.IntRange(min=1), default=3)
@click.option("--out", default=None)
def member(config, phi, depth, out):
    """Certify membership of phi in the integer-valued ring of the domain."""
    D = _domain(config)
    fn = parse_ratfun(D.field, phi)
    verdict = intr_member(fn, D, depth=depth)
    _emit(_report("member", phi=str(fn), domain=D.describe(),
                  **verdict.to_json()), out)


@main.command()
@click.option("--config", required=True)
@click.option("--phi", required=True)
@click.option("--kind", type=click.Choice(["pointed", "mstar", "m"]),
              required=True)
@click.option("--at", default=None, help="anchor point for pointed ideals")
@click.option("--component", type=int, default=0)
@click.option("--power", type=int, default=1, help="power of m for --kind m")
@click.option("--depth", type=click.IntRange(min=1), default=3)
@click.option("--out", default=None)
def ideal(config, phi, kind, at, component, power, depth, out):
    """Ideal membership: pointed ideal, the envelope prime, or a power of m."""
    D = _domain(config)
    fn = parse_ratfun(D.field, phi)
    if kind == "pointed":
        if at is None:
            raise click.UsageError("--kind pointed needs --at")
        spec = Pointed(D.field.parse(at), component)
    elif kind == "mstar":
        spec = MStar()
    else:
        spec = ValueIdeal(power)
    result = ideal_member(fn, spec, D, depth=depth)
    _emit(_report("ideal", phi=str(fn), ideal=repr(spec), member=result), out)


@main.command()
@click.option("--config", required=True, help="pullback domain spec")
@click.option("--phi", required=True)
@click.option("--out", default=None)
def dichotomy(config, phi, out):
    """Classify the envelope sign pattern: Zero, StrictlyPositive, Violation."""
    cfg = _load_config(config)
    D = pvd_from_config(cfg)
    fn = parse_ratfun(D.field, phi)
    _emit(_report("dichotomy", phi=str(fn),
                  classification=dichotomy_check(fn, D)), out)


@main.group()
def construct():
    """Build and verify the explicit rational functions."""


def _preset_opt(fn):
    return click.option("--preset", default="t6n2",
                        type=click.Choice(["t6n2", "t30n2"]))(fn)


@construct.command("theta")
@_preset_opt
@click.option("--samples", type=int, default=50, help="grid bound for checks")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", default=None)
def construct_theta(preset, samples, fmt, out):
    S = cons.preset(preset)
    th = cons.build_theta(S)
    rep = cons.verify_theta(S, cons.coprime_grid(samples))
    if fmt == "csv":
        lines = ["a," + ",".join(f"v_{V.p}(a),v_{V.p}(theta(a))"
                                 for V in S.components)]
        for a in cons.coprime_grid(samples):
            val = th.evaluate(a)
            cells = [str(a)]
            for V in S.components:
                cells.append(str(V.valuation(a)))
                cells.append(str(V.valuation(val)))
            lines.append(",".join(cells))
        _emit("\n".join(lines), out, "csv")
        sys.exit(0 if rep["ok"] else 1)
    _emit(_report("construct theta", preset=S.describe(), theta=str(th),
                  verification=rep), out)
    sys.exit(0 if rep["ok"] else 1)


@construct.command("psi")
@_preset_opt
@click.option("--phi", default="x")
@click.option("--samples", type=int, default=30)
@click.option("--out", default=None)
def construct_psi(preset, phi, samples, out):
    S = cons.preset(preset)
    fn = parse_ratfun(S.field, phi)
    psi, identity = cons.build_psi(fn, S)
    rep = cons.verify_psi(fn, S, list(cons.coprime_grid(samples)))
    _emit(_report("construct psi", preset=S.describe(), phi=str(fn),
                  psi=str(psi), identity=identity, verification=rep), out)
    sys.exit(0 if rep["ok"] else 1)


@construct.command("rho")
@_preset_opt
@click.option("--phi", required=True)
@click.option("--phi2", required=True)
@click.option("--samples", type=int, default=30)
@click.option("--out", default=None)
def construct_rho(preset, phi, phi2, samples, out):
    S = cons.preset(preset)
    f1 = parse_ratfun(S.field, phi)
    f2 = parse_ratfun(S.field, phi2)
    r = cons.build_rho(f1, f2, S)
    rep = cons.verify_rho(f1, f2, S, list(cons.coprime_grid(samples)))
    _emit(_report("construct rho", preset=S.describe(), rho=str(r),
                  verification=rep), out)
    sys.exit(0 if rep["ok"] else 1)


@construct.command("separator")
@_preset_opt
@click.option("--phi", default="x")
@click.option("--samples", type=int, default=30)
@click.option("--out", default=None)
def construct_separator(preset, phi, samples, out):
    S = cons.preset(preset)
    fn = parse_ratfun(S.field, phi)
    sep = cons.build_separator(fn, S)
    rep = cons.verify_separator(fn, S, list(cons.coprime_grid(samples)))
    _emit(_report("construct separator", preset=S.describe(), separator=str(sep),
                  verification=rep), out)
    sys.exit(0 if rep["ok"] else 1)


@construct.command("witness")
@click.option("--config", required=True, help="pullback domain spec")
@click.option("--depth", type=click.IntRange(min=1), default=3)
@click.option("--samples", type=int, default=200)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
def construct_witness(config, depth, samples, seed, out):
    import random
    cfg = _load_config(config)
    D = pvd_from_config(cfg)
    rng = random.Random(seed)
    pts = [D.field.random_nonzero(rng) for _ in range(samples)]
    w, record = cons.notlocal_witness(D, depth=depth, split_samples=pts)
    _emit(_report("construct witness", domain=D.describe(), witness=str(w),
                  record=record), out)
    sys.exit(0 if record["ok"] else 1)


@main.group()
def scan():
    """Exhaustive searches."""


@scan.command("fieldmaps")
@click.option("--order", type=int, required=True, help="order of the source field")
@click.option("--sub-order", type=int, default=None,
              help="order of the target subfield (defaults to the whole field)")
@click.option("-B", "--degree-bound", type=int, default=2)
@click.option("-k", "--exceptions", type=int, default=0)
@click.option("--out", default=None)
def scan_fieldmaps(order, sub_order, degree_bound, exceptions, out):
    """All rational functions mapping a small field into a subfield."""
    from .fields import _split_prime_power
    p, kk = _split_prime_power(order)
    L = FiniteField(p, kk)
    if sub_order is None:
        M = FullResidueField(L)
    else:
        sp, sd = _split_prime_power(sub_order)
        if sp != p:
            raise click.UsageError("subfield characteristic mismatch")
        M = PrimePowerSubfield(L, sd)
    report = cons.field_map_scan(L, M, degree_bound, exceptions)
    _emit(_report("scan fieldmaps", **report.to_json()), out)


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@click.option("--seed", type=int, default=0)
@click.option("--samples", type=int, default=None)
@click.option("--depth", type=click.IntRange(min=1), default=3)
@click.option("--out", default=None)
def verify(suite, seed, samples, depth, out):
    """Run a named verification suite; exit 1 on any violation."""
    rep = run_suite(suite, seed=seed, samples=samples, depth=depth)
    elapsed = rep.pop("elapsed", None)  # timing would break byte-identical output
    if elapsed is not None:
        click.echo(f"{suite}: {elapsed}s", err=True)
    _emit(_report("verify", **rep), out)
    sys.exit(0 if rep["ok"] else 1)


if __name__ == "__main__":
    main()
