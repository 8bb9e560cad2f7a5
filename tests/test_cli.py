import hashlib
import json

import pytest

from click.testing import CliRunner

from ivrf import constructions as cons
from ivrf.cli import main
from ivrf.intr import domain_from_config
from ivrf.ratfun import POLE, RationalFunction, parse_ratfun

PADIC5 = '{"variant": "padic", "p": 5}'
RING5 = '{"field": {"variant": "padic", "p": 5}, "E": "ring"}'
HAHN_PVD = ('{"field": {"variant": "hahn", "residue": {"kind": "ratfunc", "q": 2}},'
            ' "subfield": {"kind": "constants"}}')
TADIC_PVD = ('{"field": {"variant": "tadic", "residue": {"kind": "gf", "q": 4}},'
             ' "subfield": {"kind": "subgf", "order": 2}, "E": "field"}')
INTERSECTION = ('{"components": [{"variant": "padic", "p": 2},'
                ' {"variant": "padic", "p": 3}]}')


def run(*args):
    return CliRunner().invoke(main, list(args))


def payload(res):
    assert res.exit_code in (0, 1), res.output
    return json.loads(res.stdout)


class TestMinval:
    def test_breakpoint_of_five_plus_x(self):
        res = run("minval", "--config", PADIC5, "-f", "5+x")
        data = payload(res)
        assert data["schema"] == "ivrf/1"
        segs = data["envelope"]["segments"]
        assert segs[0]["to"] == ["1"] and segs[1]["from"] == ["1"]
        assert [s["slope"] for s in segs] == [1, 0]

    def test_csv_sweep(self):
        res = run("minval", "--config", PADIC5, "-f", "5+x",
                  "--sweep", "2", "--format", "csv")
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "gamma,minval,observed,exact"
        assert len(lines) == 6

    def test_json_sweep(self):
        res = run("minval", "--config", PADIC5, "-f", "5+x", "--sweep", "2")
        data = payload(res)
        assert res.exit_code == 0
        assert len(data["sweep"]) == 5
        assert [line.split(",")[0] for line in data["sweep"]] == ["-2", "-1", "0", "1", "2"]

    @pytest.mark.parametrize("config, expr, rows", [
        ('{"variant":"padic","p":5}', "(x^3+5)/(x-25)",
         ["-2,-4,-4,True", "-1,-2,-2,True", "0,0,0,True", "1,0,0,True",
          "2,-1,pole,False"]),
        ('{"variant":"tadic","residue":{"q":4}}', "(x^2+t)/(x-t^2)",
         ["-2,-2,-2,True", "-1,-1,-1,True", "0,0,0,True", "1,0,0,True",
          "2,-1,pole,False"]),
        ('{"variant":"lex2"}', "(x^2+t1)/(x-t2)",
         ["(-2, 0),(-2, 0),(-2, 0),True", "(-1, 0),(-1, 0),(-1, 0),True",
          "(0, 0),(0, 0),(0, 0),True", "(1, 0),(1, -1),(1, -1),True",
          "(2, 0),(1, -1),(1, -1),True"]),
        ('{"variant":"hahn","residue":{"kind":"ratfunc","q":2}}', "(x^2+t^{1/2})/(x-t)",
         ["-2,-2,-2,True", "-1,-1,-1,True", "0,0,0,True", "1,-1/2,pole,False",
          "2,-1/2,-1/2,True"]),
    ], ids=["padic", "tadic", "lex2", "hahn"])
    def test_csv_sweep_rows(self, config, expr, rows):
        res = run("minval", "--config", config, "-f", expr, "--sweep", "2",
                  "--format", "csv")
        assert res.exit_code == 0, res.output
        assert res.output.splitlines() == ["gamma,minval,observed,exact"] + rows


class TestMember:
    def test_certified_out_with_witness_five(self):
        # 1/x in value for 0 < v(a) < 3/2, and 1 at the point 0
        res = run("member", "--config", RING5, "--phi", "(x+125)/(x^2+125)")
        data = payload(res)
        assert res.exit_code == 0
        assert data["verdict"] == "CertifiedOut"
        assert data["witness"] == "5"

    def test_certified_in(self):
        res = run("member", "--config", RING5, "--phi", "(x^5-x)/5")
        data = payload(res)
        assert data["verdict"] == "CertifiedIn"
        assert data["depth_used"] == 2

    def test_out_writes_the_printed_text(self, tmp_path):
        out = tmp_path / "member.json"
        printed = run("member", "--config", RING5, "--phi", "(x^5-x)/5")
        written = run("member", "--config", RING5, "--phi", "(x^5-x)/5", "--out", str(out))
        assert written.exit_code == 0 and written.stdout == ""
        assert out.read_text() == printed.stdout

    def test_witness_in_the_residue_variable(self):
        # roots over GF(2)(v) are built in v, not in a fixed variable
        config = ('{"field": {"variant": "tadic", "residue": '
                  '{"kind": "ratfunc", "q": 2, "var": "v"}}, "E": "ring"}')
        data = payload(run("member", "--config", config, "--phi", "t/(x + v*t)"))
        assert data["verdict"] == "CertifiedOut"
        assert data["witness"] == "v*t"
        D = domain_from_config(json.loads(config))
        phi = parse_ratfun(D.field, "t/(x + v*t)")
        value = phi.evaluate(D.field.parse(data["witness"]))
        assert value is POLE or not D.member(value)

    def test_unknown_at_depth_one(self):
        res = run("member", "--config", RING5, "--phi", "(x^5-x)/5",
                  "--depth", "1")
        data = payload(res)
        assert data["verdict"] == "Unknown"

    def test_undecided_residue_is_not_depth_exhausted(self):
        # a residue variable named "depth" does not mark the depth as run out
        config = ('{"field": {"variant": "tadic", "residue": {"kind": "ratfunc",'
                  ' "q": 2, "var": "depth"}}, "subfield": {"kind": "frobenius",'
                  ' "e": 1}, "E": "ring"}')
        res = run("member", "--config", config, "--phi", "depth^2*x^2 + depth^2*x")
        assert res.exit_code == 0, res.output
        data = payload(res)
        assert data["verdict"] == "Unknown"
        assert data["depth_exhausted"] is False


class TestIdeal:
    def test_pointed(self):
        res = run("ideal", "--config", RING5, "--phi", "x",
                  "--kind", "pointed", "--at", "5")
        assert payload(res)["member"] is True
        res = run("ideal", "--config", RING5, "--phi", "x",
                  "--kind", "pointed", "--at", "1")
        assert payload(res)["member"] is False

    def test_pointed_without_at_exits_two(self):
        res = run("ideal", "--config", RING5, "--phi", "x", "--kind", "pointed")
        assert res.exit_code == 2, res.output
        assert "--at" in res.output

    def test_mstar(self):
        res = run("ideal", "--config", HAHN_PVD, "--phi", "x", "--kind", "mstar")
        assert payload(res)["member"] is False
        res = run("ideal", "--config", HAHN_PVD, "--phi", "t", "--kind", "mstar")
        assert payload(res)["member"] is True

    def test_m_power(self):
        res = run("ideal", "--config", RING5, "--phi", "25", "--kind", "m",
                  "--power", "2")
        assert payload(res)["member"] is True

    def test_m_power_on_listed_points(self):
        config = '{"field": {"variant": "padic", "p": 5}, "E": ["5"]}'
        res = run("ideal", "--config", config, "--phi", "5*x", "--kind", "m",
                  "--power", "2")
        assert payload(res)["member"] is True
        res = run("ideal", "--config", config, "--phi", "x", "--kind", "m",
                  "--power", "2")
        assert payload(res)["member"] is False


class TestDichotomy:
    def test_violation(self):
        res = run("dichotomy", "--config", HAHN_PVD, "--phi", "x^2/(x^2+t)")
        assert payload(res)["classification"] == "Violation"

    def test_zero(self):
        res = run("dichotomy", "--config", HAHN_PVD, "--phi", "1 + t/(x^2+x+u)")
        assert payload(res)["classification"] == "Zero"


class TestLocpoly:
    def test_example(self):
        res = run("locpoly", "--config", PADIC5, "-f", "5+x", "-t", "5")
        data = payload(res)
        assert data["degree"] == 1
        assert data["support"] == [0, 1]
        assert data["local_polynomial"] == "x + 1"

    @pytest.mark.parametrize("f, t", [("0", "5"), ("x+1", "0")])
    def test_zero_function_or_point_exits_two(self, f, t):
        res = run("locpoly", "--config", PADIC5, "-f", f, "-t", t)
        assert res.exit_code == 2
        assert "Error: local polynomial needs f and t nonzero" in res.output


class TestConstruct:
    def test_theta(self):
        res = run("construct", "theta", "--samples", "12")
        data = payload(res)
        assert res.exit_code == 0
        assert data["verification"]["ok"]

    def test_theta_csv(self):
        res = run("construct", "theta", "--samples", "4", "--format", "csv")
        assert res.exit_code == 0, res.output
        lines = res.stdout.splitlines()
        assert lines[0] == "a,v_2(a),v_2(theta(a)),v_3(a),v_3(theta(a))"
        grid = [str(a) for a in cons.coprime_grid(4)]
        assert [line.split(",")[0] for line in lines[1:]] == grid
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_theta_csv_evaluates_each_point_once(self, monkeypatch):
        # the CSV cells read the pairs verify_theta computed
        points = []
        evaluate_pair = RationalFunction.evaluate_pair
        monkeypatch.setattr(RationalFunction, "evaluate_pair",
                            lambda f, a: points.append(a) or evaluate_pair(f, a))
        res = run("construct", "theta", "--samples", "4", "--format", "csv")
        assert res.exit_code == 0, res.output
        assert points == list(cons.coprime_grid(4))

    def test_psi_identity_exit_zero(self):
        res = run("construct", "psi", "--preset", "t6n2", "--samples", "10")
        assert res.exit_code == 0
        assert payload(res)["identity"] is True

    def test_rho(self):
        res = run("construct", "rho", "--phi", "x+2", "--phi2", "x^2-3",
                  "--samples", "8")
        assert res.exit_code == 0

    def test_separator(self):
        res = run("construct", "separator", "--phi", "x", "--samples", "8")
        assert res.exit_code == 0

    def test_witness(self):
        res = run("construct", "witness", "--config", TADIC_PVD,
                  "--samples", "40")
        data = payload(res)
        assert res.exit_code == 0
        assert data["record"]["ok"]
        # the domain the witness is certified on, E = field
        assert data["domain"] == "GF(4)(t) t-adic|GF(2) in GF(4) on E=field"

    def test_witness_domain_is_on_the_field_even_for_a_ring_config(self):
        ring = json.dumps({**json.loads(TADIC_PVD), "E": "ring"})
        res = run("construct", "witness", "--config", ring, "--samples", "5")
        assert payload(res)["domain"] == "GF(4)(t) t-adic|GF(2) in GF(4) on E=field"


# stdout digests of construct runs, pinned so that a refactor of the
# builders, the verifiers or the commands leaves every byte of output alone
CONSTRUCT_RUNS = [
    ("theta", "--samples", "12"),
    ("theta", "--samples", "6", "--format", "csv"),
    ("psi", "--samples", "10"),
    ("psi", "--phi", "(x^2-2)/(3*x+1)", "--samples", "10"),
    ("rho", "--phi", "x+2", "--phi2", "x^2-3", "--samples", "8"),
    ("rho", "--phi", "1/x", "--phi2", "x-1", "--samples", "8"),
    ("separator", "--phi", "x", "--samples", "8"),
    ("separator", "--phi", "1/(x-2)", "--samples", "8"),
]
CONSTRUCT_DIGESTS = {
    "t6n2": [
        "9e3b64d0b1066aa7024586695f90fd6a325b24f5ea9c008e0bb43aaadda66f73",
        "063b678ab2578326193b828ebab7b115672a25c41459b215dba507e7258e7d48",
        "8c76839b30fca0d824a1a8bffef5bc978c88bfa302908a90c34cc3b98f8e6859",
        "f13fac8ea0b94ebcaa7aef7de94c014649a73af7ee264a30b60d37085d0d5e01",
        "fa135ee43bcbef83a367cf08a659fb3a2bea3053fac16edbc1adc24ace78c7b3",
        "af432ed8c0595291de6c3b67a7d25a33fb10967e2ffdb24d7cdd257008128926",
        "77758de8f81cfb8dfc1f95bb43c8b396ece7636bcddfeb6b34d25f5eb0682374",
        "c2a79ebe90e0719621a2475717316e79cca76eb7b31e933002d8f14fe0428c69",
    ],
    "t30n2": [
        "1aeaefc76aa63e883b3d8eba30a74b3e7db724f91eb07d311969b62c08f49b40",
        "e3fbbaddd12dc81cd46226caf241363ffc4f0c49dfd2fbe9e2d6311375cd6c9d",
        "f1d407cecb41c69edf00babe73d4554348616c9910352f2a5c6722ecf75fe642",
        "0c76430b6c841fde134e6fc3638c99bc615b53f69dc27b10d5bbbcbcf437bd9c",
        "c6efd3179cdab7cf278c2278afae7534385528a125a1738bb4d8009be11258a2",
        "a1e9306e80efdee790b58b0ac6125138b8bc21be8986f30e8ea504838b67594c",
        "6ee2ddf3d30598c01e9f444f73907b9c80309e9ba610b974d469576f3954cc0a",
        "f181070b90cc26bd9bf3bc7df2bfd1bb8eb578d1b5781a066bafae8552f5960e",
    ],
}


@pytest.mark.parametrize("preset", sorted(CONSTRUCT_DIGESTS))
@pytest.mark.parametrize("k", range(len(CONSTRUCT_RUNS)))
def test_construct_output_pinned(preset, k):
    command, *rest = CONSTRUCT_RUNS[k]
    res = run("construct", command, "--preset", preset, *rest)
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == CONSTRUCT_DIGESTS[preset][k]


@pytest.mark.parametrize("args, message", [
    (("psi", "--phi", "0"), "Error: psi needs a nonzero function\n"),
    (("rho", "--phi", "x", "--phi2", "0"), "Error: rho needs phi2 nonzero\n"),
    (("theta", "--preset", "nope"),
     "Usage: main construct theta [OPTIONS]\n"
     "Try 'main construct theta --help' for help.\n\n"
     "Error: Invalid value for '--preset': 'nope' is not one of 't6n2', 't30n2'.\n"),
])
def test_construct_usage_error_pinned(args, message):
    res = run("construct", *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == message


class TestScan:
    def test_fieldmaps(self):
        res = run("scan", "fieldmaps", "--order", "4", "--sub-order", "2",
                  "-B", "2", "-k", "0")
        data = payload(res)
        assert any(m["function"] == "x^2 + x" for m in data["maps"])


class TestVerify:
    def test_exit_zero_on_pass(self):
        res = run("verify", "slopes", "--samples", "20")
        assert res.exit_code == 0
        assert payload(res)["ok"] is True

    def test_determinism(self):
        a = run("verify", "slopes", "--samples", "25", "--seed", "9").stdout
        b = run("verify", "slopes", "--samples", "25", "--seed", "9").stdout
        assert a == b

    def test_exit_one_on_violation(self, monkeypatch):
        import ivrf.cli as cli_mod
        monkeypatch.setattr(cli_mod, "run_suite",
                            lambda *a, **k: {"suite": "x", "ok": False,
                                             "checked": 0, "failures": [{}]})
        res = run("verify", "slopes")
        assert res.exit_code == 1

    def test_suite_violation_exits_one(self, monkeypatch):
        # an envelope oracle one too high everywhere: every point disagrees,
        # and the report keeps ten of the failures
        import ivrf.suites as suites_mod
        real = suites_mod.minval_poly
        monkeypatch.setattr(suites_mod, "minval_poly",
                            lambda f, V: real(f.scale(V.uniformizer()), V))
        res = run("verify", "envelope", "--samples", "12")
        data = payload(res)
        assert res.exit_code == 1
        assert data["ok"] is False
        assert len(data["failures"]) == 10


class TestErrors:
    def test_bad_config_exits_two(self):
        res = run("member", "--config", '{"field": {"variant": "nope"}}',
                  "--phi", "x")
        assert res.exit_code == 2

    def test_bad_expression_exits_two(self):
        res = run("member", "--config", RING5, "--phi", "x +* 2")
        assert res.exit_code == 2

    @pytest.mark.parametrize("phi, message", [
        ("(x+1", "expected ')', found end of input"),
        ("x^", "malformed exponent near end of input"),
        ("2*", "unexpected end of input"),
        ("", "unexpected end of input"),
    ])
    def test_expression_ending_early_names_the_end(self, phi, message):
        res = run("member", "--config", RING5, "--phi", phi)
        assert res.exit_code == 2
        assert f"Error: {message}" in res.output
        assert "None" not in res.output

    def test_fractional_power_of_a_tadic_constant(self):
        res = run("member", "--config", TADIC_PVD, "--phi", "t^{1/2}*x")
        assert res.exit_code == 2
        assert "Error: no exact power 1/2 of t" in res.output
        res = run("member", "--config", TADIC_PVD, "--phi", "x^{1/2}")
        assert res.exit_code == 2
        assert "Error: power 1/2 of a non-constant function" in res.output

    @pytest.mark.parametrize("args", [
        ("ideal", "--config", RING5, "--phi", "x", "--kind", "pointed", "--at", "2^{1/2}"),
        ("locpoly", "--config", PADIC5, "-f", "x + 1", "-t", "2^{1/2}"),
        ("member", "--config", '{"field": {"variant": "padic", "p": 5}, "E": ["3^{1/2}"]}',
         "--phi", "x"),
    ], ids=["ideal-at", "locpoly-t", "point-set"])
    def test_inexact_power_in_an_element_exits_two(self, args):
        res = run(*args)
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        root = "3" if args[0] == "member" else "2"
        assert f"Error: no exact power 1/2 of {root}" in res.output

    def test_unknown_suite_exits_two(self):
        res = run("verify", "nonsense")
        assert res.exit_code == 2

    @pytest.mark.parametrize("config", [
        "{bad",
        '{"field": {"variant": "padic"}}',
        '{"field": {"variant": "padic", "p": 5}, "E": ["1/0"]}',
        '{"field": {"variant": "padic", "p": "5"}}',
        '{"field": 5}',
        '{"field": {"variant": "tadic", "residue": {"q": "4"}}}',
        '{"components": 5}',
        '{"field": {"variant": "padic", "p": 5}, "E": [0.5]}',
        '{"field": {"variant": "padic", "p": 100000007}}',
        '{"field": {"variant": "padic", "p": 1000000000000000003}}',
        '{"field": {"variant": "tadic", "residue": {"q": 100000007}}}',
        '{"field": {"variant": "tadic", "residue": {"p": 2, "k": 1000000}}}',
    ], ids=["invalid-json", "missing-p", "point-one-over-zero", "p-string",
            "field-number", "residue-q-string", "components-number",
            "point-float", "p-beyond-cap", "p-1e18-beyond-cap",
            "residue-q-beyond-cap", "residue-k-beyond-cap"])
    def test_malformed_config_exits_two(self, config):
        res = run("member", "--config", config, "--phi", "x")
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("residue, field", [
        ('{"kind": "ratfunc", "p": 3}', "GF(3)(u)"),
        ('{"kind": "ratfunc", "p": 2, "k": 2}', "GF(4)(u)"),
        ('{"kind": "ratfunc", "q": 3}', "GF(3)(u)"),
    ], ids=["p", "p-and-k", "q"])
    def test_ratfunc_residue_reads_q_or_p_and_k(self, residue, field):
        config = f'{{"field": {{"variant": "tadic", "residue": {residue}}}, "E": "ring"}}'
        data = payload(run("member", "--config", config, "--phi", "u*x"))
        assert data["domain"] == f"{field}(t) t-adic on E=ring"
        assert data["verdict"] == "CertifiedIn"

    def test_ratfunc_residue_without_an_order_names_its_config(self):
        config = '{"field": {"variant": "tadic", "residue": {"kind": "ratfunc"}}}'
        res = run("member", "--config", config, "--phi", "x")
        assert res.exit_code == 2, res.output
        assert "config {'kind': 'ratfunc'} is missing the key 'p'" in res.output

    @pytest.mark.parametrize("command", [
        ["member", "--phi", "x"],
        ["dichotomy", "--phi", "x"],
        ["construct", "witness"],
    ], ids=["member", "dichotomy", "witness"])
    def test_lex2_over_a_ratfunc_residue_exits_two(self, command):
        config = '{"field": {"variant": "lex2", "residue": {"kind": "ratfunc", "p": 2}}}'
        res = run(*command, "--config", config)
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "the lex2 variant needs a gf residue field, not GF(2)(u)" in res.output

    @pytest.mark.parametrize("config, phi, message", [
        (RING5, "x^1000000000", "exponent 1000000000 beyond the bound 65536"),
        ('{"field": {"variant": "hahn", "residue": {"q": 2}}, "E": "field"}',
         "t^{1/1000000007}*x + t", "exponent 1/1000000007 beyond the bound 65536"),
        ('{"field": {"variant": "hahn", "residue": {"q": 2}}, "E": "field"}',
         "(t^{1/65521} + t^{1/65519})*x", "lattice t^(1/4292870399) beyond the bound 65536"),
    ], ids=["power-of-x", "hahn-exponent", "hahn-lattice"])
    def test_exponent_beyond_the_bound_exits_two(self, config, phi, message):
        res = run("member", "--config", config, "--phi", phi)
        assert res.exit_code == 2, res.output
        assert message in res.output

    def test_lattice_bound_at_a_breakpoint_of_the_input_is_unknown(self):
        res = run("member", "--config",
                  '{"field": {"variant": "hahn", "residue": {"q": 2}}, "E": "field"}',
                  "--phi", "t^{1/65536}*x^3 + 1")
        assert res.exit_code == 0, res.output
        assert payload(res)["verdict"] == "Unknown"

    @pytest.mark.parametrize("command", [
        ["dichotomy", "--phi", "x"],
        ["construct", "witness"],
    ], ids=["dichotomy", "witness"])
    def test_single_component_commands_reject_an_intersection(self, command):
        res = run(*command, "--config", INTERSECTION)
        assert res.exit_code == 2, res.output
        assert "needs a single valuation or pullback" in res.output

    @pytest.mark.parametrize("command", [
        ["dichotomy", "--phi", "x"],
        ["construct", "witness"],
    ], ids=["dichotomy", "witness"])
    def test_single_component_commands_check_the_point_set(self, command):
        config = json.dumps({**json.loads(HAHN_PVD), "E": "bogus"})
        res = run(*command, "--config", config)
        assert res.exit_code == 2, res.output
        assert "unknown point set 'bogus'" in res.output

    def test_mstar_on_an_intersection_exits_two(self):
        res = run("ideal", "--config", INTERSECTION, "--phi", "x", "--kind", "mstar")
        assert res.exit_code == 2, res.output
        assert "M* needs a single valuation or pullback" in res.output

    def test_missing_config_file_exits_two(self, tmp_path):
        res = run("member", "--config", str(tmp_path / "missing.json"), "--phi", "x")
        assert res.exit_code == 2, res.output
        assert "missing.json" in res.output

    def test_config_file_holding_a_list_exits_two(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text('[{"variant": "padic", "p": 5}]')
        res = run("member", "--config", str(path), "--phi", "x")
        assert res.exit_code == 2, res.output
        assert "is not a JSON object" in res.output

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_depth_below_one_exits_two(self, depth):
        res = run("member", "--config", RING5, "--phi", "x", "--depth", depth)
        assert res.exit_code == 2, res.output

    @pytest.mark.parametrize("samples", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["verify", "gauss"],
        ["construct", "theta"],
        ["construct", "psi"],
        ["construct", "rho", "--phi", "x+2", "--phi2", "x^2-3"],
        ["construct", "separator"],
        ["construct", "witness", "--config", TADIC_PVD],
    ], ids=["verify", "theta", "psi", "rho", "separator", "witness"])
    def test_samples_below_one_exits_two(self, command, samples):
        # a non-positive count would check nothing and pass vacuously
        res = run(*command, "--samples", samples)
        assert res.exit_code == 2, res.output

    @pytest.mark.parametrize("args", [
        ["--kind", "pointed", "--at", "5", "--component", "3"],
        ["--kind", "pointed", "--at", "5", "--component", "-1"],
        ["--kind", "m", "--power", "0"],
        ["--kind", "m", "--power", "-2"],
    ])
    def test_ideal_index_or_power_out_of_range_exits_two(self, args):
        res = run("ideal", "--config", RING5, "--phi", "1/5", *args)
        assert res.exit_code == 2, res.output

    @pytest.mark.parametrize("args, option", [
        (["scan", "fieldmaps", "--order", "4", "-B", "-1"], "'-B' / '--degree-bound'"),
        (["scan", "fieldmaps", "--order", "4", "-k", "-1"], "'-k' / '--exceptions'"),
        (["minval", "--config", PADIC5, "-f", "x", "--sweep", "-2"], "'--sweep'"),
    ], ids=["degree-bound", "exceptions", "sweep"])
    def test_negative_count_exits_two(self, args, option):
        res = run(*args)
        assert res.exit_code == 2, res.output
        assert f"Invalid value for {option}" in res.output

    def test_scan_order_beyond_cap_exits_two(self):
        res = run("scan", "fieldmaps", "--order", "1000003")
        assert res.exit_code == 2, res.output
        assert "exceeds the cap" in res.output

    def test_scan_characteristic_mismatch_exits_two(self):
        res = run("scan", "fieldmaps", "--order", "4", "--sub-order", "3")
        assert res.exit_code == 2, res.output
        assert "subfield characteristic mismatch" in res.output

    @pytest.mark.parametrize("residue, subfield, message", [
        ('{"kind": "ratfunc", "q": 2}', '{"kind": "subgf", "order": 2}',
         "subfield-by-order needs a finite residue field"),
        ('{"kind": "gf", "q": 4}', '{"kind": "subgf", "d": 0}',
         "subfield degree d must be at least 1, not 0"),
        ('{"kind": "gf", "q": 4}', '{"kind": "subgf", "d": -1}',
         "subfield degree d must be at least 1, not -1"),
    ], ids=["order-over-ratfunc", "d-zero", "d-negative"])
    def test_subgf_config_errors_exit_two(self, residue, subfield, message):
        config = (f'{{"field": {{"variant": "tadic", "residue": {residue}}}, '
                  f'"subfield": {subfield}}}')
        res = run("member", "--config", config, "--phi", "x")
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert message in res.output

    @pytest.mark.parametrize("e, message", [
        (40, "Frobenius subfield u^(2^40) beyond the bound 65536"),
        (9, "witness degree 2^18 beyond the bound 65536"),
    ], ids=["subfield", "witness-degree"])
    def test_frobenius_exponent_beyond_the_bound_exits_two(self, e, message):
        config = ('{"field": {"variant": "hahn", "residue": {"kind": "ratfunc", "q": 2}}, '
                  f'"subfield": {{"kind": "frobenius", "e": {e}}}}}')
        res = run("construct", "witness", "--config", config, "--samples", "5")
        assert res.exit_code == 2, res.output
        assert message in res.output
