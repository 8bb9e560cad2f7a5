import json

import pytest

from click.testing import CliRunner

from ivrf.cli import main

PADIC5 = '{"variant": "padic", "p": 5}'
RING5 = '{"field": {"variant": "padic", "p": 5}, "E": "ring"}'
HAHN_PVD = ('{"field": {"variant": "hahn", "residue": {"kind": "ratfunc", "q": 2}},'
            ' "subfield": {"kind": "constants"}}')
TADIC_PVD = ('{"field": {"variant": "tadic", "residue": {"kind": "gf", "q": 4}},'
             ' "subfield": {"kind": "subgf", "order": 2}, "E": "field"}')


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


class TestMember:
    def test_certified_out_with_witness_five(self):
        res = run("member", "--config", RING5, "--phi", "1/x")
        data = payload(res)
        assert res.exit_code == 0
        assert data["verdict"] == "CertifiedOut"
        assert data["witness"] == "5"

    def test_certified_in(self):
        res = run("member", "--config", RING5, "--phi", "(x^5-x)/5")
        data = payload(res)
        assert data["verdict"] == "CertifiedIn"
        assert data["depth_used"] == 2

    def test_unknown_at_depth_one(self):
        res = run("member", "--config", RING5, "--phi", "(x^5-x)/5",
                  "--depth", "1")
        data = payload(res)
        assert data["verdict"] == "Unknown"


class TestIdeal:
    def test_pointed(self):
        res = run("ideal", "--config", RING5, "--phi", "x",
                  "--kind", "pointed", "--at", "5")
        assert payload(res)["member"] is True
        res = run("ideal", "--config", RING5, "--phi", "x",
                  "--kind", "pointed", "--at", "1")
        assert payload(res)["member"] is False

    def test_mstar(self):
        res = run("ideal", "--config", HAHN_PVD, "--phi", "x", "--kind", "mstar")
        assert payload(res)["member"] is False
        res = run("ideal", "--config", HAHN_PVD, "--phi", "t", "--kind", "mstar")
        assert payload(res)["member"] is True

    def test_m_power(self):
        res = run("ideal", "--config", RING5, "--phi", "25", "--kind", "m",
                  "--power", "2")
        assert payload(res)["member"] is True


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


class TestConstruct:
    def test_theta(self):
        res = run("construct", "theta", "--samples", "12")
        data = payload(res)
        assert res.exit_code == 0
        assert data["verification"]["ok"]

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


class TestErrors:
    def test_bad_config_exits_two(self):
        res = run("member", "--config", '{"field": {"variant": "nope"}}',
                  "--phi", "x")
        assert res.exit_code == 2

    def test_bad_expression_exits_two(self):
        res = run("member", "--config", RING5, "--phi", "x +* 2")
        assert res.exit_code == 2

    def test_unknown_suite_exits_two(self):
        res = run("verify", "nonsense")
        assert res.exit_code == 2

    @pytest.mark.parametrize("config", [
        "{bad",
        '{"field": {"variant": "padic"}}',
        '{"field": {"variant": "padic", "p": 5}, "E": ["1/0"]}',
    ], ids=["invalid-json", "missing-p", "point-one-over-zero"])
    def test_malformed_config_exits_two(self, config):
        res = run("member", "--config", config, "--phi", "x")
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_missing_config_file_exits_two(self, tmp_path):
        res = run("member", "--config", str(tmp_path / "missing.json"), "--phi", "x")
        assert res.exit_code == 2, res.output
        assert "missing.json" in res.output

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_depth_below_one_exits_two(self, depth):
        res = run("member", "--config", RING5, "--phi", "x", "--depth", depth)
        assert res.exit_code == 2, res.output
