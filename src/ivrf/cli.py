"""Command-line front end.

Field and domain specifications are JSON, passed as a path or inline.  All
reports carry the schema tag ivrf/1 and are rendered with sorted keys, so a
fixed seed yields byte-identical output.  Exit codes: 0 for success or a
verified suite, 1 when a verify suite finds a violation, 2 for usage or
configuration errors.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import click

from . import constructions as cons
from .errors import ConfigError, IvrfError, PreconditionError
from .fields import (field_from_config, residue_field_from_config,
                     subfield_from_config)
from .intr import (WHOLE_FIELD, DomainSpec, MStar, Pointed, ValueIdeal,
                   dichotomy_check, domain_from_config, ideal_member,
                   intr_member)
from .newton import local_poly, minval_poly, minval_rat, predict
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
@click.option("--sweep", type=click.IntRange(min=0), default=0,
              help="also sweep integer values in [-N, N] (CSV)")
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def minval(config, expr, sweep, out, fmt):
    """Piecewise-linear envelope of a function's valuation."""
    V = _field_only(config)
    phi = parse_ratfun(V, expr)
    pl = minval_rat(phi, V)
    report = _report("minval", function=str(phi), envelope=pl.to_json())
    if fmt == "csv" or sweep:
        lines = ["gamma,minval,observed,exact"]
        for k in range(-sweep, sweep + 1):
            gamma = V.group.element(*([k] + [0] * (V.group.rank - 1)))
            t = V.element_of_value(gamma)
            predicted, exact = predict(pl, t, gamma)  # v(t) is gamma
            ev = phi.evaluate(t)
            observed = "pole" if ev is POLE else V.valuation(ev)
            lines.append(f"{gamma},{predicted},{observed},{exact}")
        if fmt == "csv":
            _emit("\n".join(lines), out, "csv")
            return
        report["sweep"] = lines[1:]
    _emit(report, out)


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
    if f.is_zero() or not t:
        raise PreconditionError("local polynomial needs f and t nonzero")
    loc = local_poly(minval_poly(f.num, V), t, V.valuation(t))
    _emit(_report("locpoly", f=str(f), t=str(t), degree=loc.degree,
                  local_polynomial=str(loc), support=loc.support()), out)


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
@click.option("--power", type=click.IntRange(min=1), default=1,
              help="power of m for --kind m")
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
    D = _domain(config)
    fn = parse_ratfun(D.field, phi)
    _emit(_report("dichotomy", phi=str(fn),
                  classification=dichotomy_check(fn, D)), out)


@main.group()
def construct():
    """Build and verify the explicit rational functions."""


def _preset_opt(fn):
    return click.option("--preset", "S", default="t6n2",
                        type=click.Choice(list(cons.PRESETS)),
                        callback=lambda ctx, param, name: cons.preset(name))(fn)


@construct.command("theta")
@_preset_opt
@click.option("--samples", type=click.IntRange(min=1), default=50, help="grid bound for checks")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", default=None)
def construct_theta(S, samples, fmt, out):
    values = []
    th, rep = cons.verify_theta(S, cons.coprime_grid(samples), values)
    if fmt == "csv":
        lines = ["a," + ",".join(f"v_{V.p}(a),v_{V.p}(theta(a))"
                                 for V in S.components)]
        for a, pair in values:
            cells = zip(S.valuations(a.as_integer_ratio()), S.valuations(pair))
            lines.append(",".join([str(a), *(f"{va},{vth}" for va, vth in cells)]))
        _emit("\n".join(lines), out, "csv")
    else:
        _emit(_report("construct theta", preset=S.describe(), theta=str(th),
                      verification=rep), out)
    sys.exit(0 if rep["ok"] else 1)


@construct.command("psi")
@_preset_opt
@click.option("--phi", default="x")
@click.option("--samples", type=click.IntRange(min=1), default=30)
@click.option("--out", default=None)
def construct_psi(S, phi, samples, out):
    fn = parse_ratfun(S.field, phi)
    psi, rep = cons.verify_psi(fn, S, list(cons.coprime_grid(samples)))
    _emit(_report("construct psi", preset=S.describe(), phi=str(fn),
                  psi=str(psi), identity=rep["identity"], verification=rep), out)
    sys.exit(0 if rep["ok"] else 1)


@construct.command("rho")
@_preset_opt
@click.option("--phi", required=True)
@click.option("--phi2", required=True)
@click.option("--samples", type=click.IntRange(min=1), default=30)
@click.option("--out", default=None)
def construct_rho(S, phi, phi2, samples, out):
    f1 = parse_ratfun(S.field, phi)
    f2 = parse_ratfun(S.field, phi2)
    r, rep = cons.verify_rho(f1, f2, S, list(cons.coprime_grid(samples)))
    _emit(_report("construct rho", preset=S.describe(), rho=str(r),
                  verification=rep), out)
    sys.exit(0 if rep["ok"] else 1)


@construct.command("separator")
@_preset_opt
@click.option("--phi", default="x")
@click.option("--samples", type=click.IntRange(min=1), default=30)
@click.option("--out", default=None)
def construct_separator(S, phi, samples, out):
    fn = parse_ratfun(S.field, phi)
    sep, rep = cons.verify_separator(fn, S, list(cons.coprime_grid(samples)))
    _emit(_report("construct separator", preset=S.describe(), separator=str(sep),
                  verification=rep), out)
    sys.exit(0 if rep["ok"] else 1)


@construct.command("witness")
@click.option("--config", required=True, help="pullback domain spec")
@click.option("--depth", type=click.IntRange(min=1), default=3)
@click.option("--samples", type=click.IntRange(min=1), default=200)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
def construct_witness(config, depth, samples, seed, out):
    D = _domain(config)
    rng = random.Random(seed)
    pts = [D.field.random_nonzero(rng) for _ in range(samples)]
    w, record = cons.notlocal_witness(D, depth=depth, split_samples=pts)
    certified_on = DomainSpec(D.components, WHOLE_FIELD)
    _emit(_report("construct witness", domain=certified_on.describe(),
                  witness=str(w), record=record), out)
    sys.exit(0 if record["ok"] else 1)


@main.group()
def scan():
    """Exhaustive searches."""


@scan.command("fieldmaps")
@click.option("--order", type=int, required=True, help="order of the source field")
@click.option("--sub-order", type=int, default=None,
              help="order of the target subfield (defaults to the whole field)")
@click.option("-B", "--degree-bound", type=click.IntRange(min=0), default=2)
@click.option("-k", "--exceptions", type=click.IntRange(min=0), default=0)
@click.option("--out", default=None)
def scan_fieldmaps(order, sub_order, degree_bound, exceptions, out):
    """All rational functions mapping a small field into a subfield."""
    L = residue_field_from_config({"kind": "gf", "q": order})
    M = None if sub_order is None else subfield_from_config(
        L, {"kind": "subgf", "order": sub_order})
    report = cons.field_map_scan(L, M, degree_bound, exceptions)
    _emit(_report("scan fieldmaps", **report.to_json()), out)


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@click.option("--seed", type=int, default=0)
@click.option("--samples", type=click.IntRange(min=1), default=None)
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
