"""The benchmark's tracer patches named functions and methods of ivrf from
outside ``src/``; renaming or deleting one of them would break only the
traced benchmark run.  This installs the tracer on the current code, runs
one certification under it and uninstalls it again."""

from pathlib import Path

from ivrf import constructions, intr, ratfun
from ivrf.fields import PAdicQ
from ivrf.intr import DomainSpec, intr_member

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (intr.intr_member, intr.residue_roots, constructions.residue_roots,
                 ratfun.RationalFunction.__init__, ratfun.Polynomial.gcd)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert intr.residue_roots is not originals[1]
        V = PAdicQ(5)
        phi = ratfun.parse_ratfun(V, "(x^5 - x)/5")
        assert intr.intr_member(phi, DomainSpec.pvd(V, None), depth=3).kind == "in"
        assert tracer.calls("intr.intr_member") == 1
        assert tracer.calls("intr.residue_roots") > 0
        assert tracer.calls("ratfun.normalize.Q") > 0
        assert tracer.layer_metrics()["intr.residue_roots.calls"][0] > 0
    finally:
        tracer.uninstall()
    assert (intr.intr_member, intr.residue_roots, constructions.residue_roots,
            ratfun.RationalFunction.__init__, ratfun.Polynomial.gcd) == originals
    assert intr_member is originals[0]
