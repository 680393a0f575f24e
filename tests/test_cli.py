"""CLI surface: flags, config precedence, output formats, determinism."""

import json
import math

import pytest

from mellin_pricer.cli import main, read_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPriceCommand:
    def test_bs_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--method", "bs", "--style", "euro-put",
            "--spot", "100", "--strike", "100", "--rate", "0.05",
            "--div", "0", "--vol", "0.2", "--tau", "1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["price"] - 5.573526022256968) < 1e-9
        assert payload["method"] == "bs"

    def test_fft_american_call_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--method", "fft", "--style", "amer-call",
            "--spot", "80", "--strike", "100", "--rate", "0.03",
            "--div", "0.07", "--vol", "0.2", "--tau", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["price"] - 0.2198) < 2e-3
        assert payload["diagnostics"]["imag_residual"] is not None

    def test_dw_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--method", "dw", "--style", "amer-call",
            "--spot", "80", "--strike", "100", "--rate", "0.03",
            "--div", "0.07", "--vol", "0.2", "--tau", "0.5")
        assert code == 0
        assert abs(json.loads(out)["price"] - 0.2198) < 2e-3

    def test_trapezoid_matches_fft(self, capsys):
        args = ["--spot", "90", "--strike", "100", "--rate", "0.05",
                "--div", "0.01", "--vol", "0.2", "--tau", "1",
                "--grid-n", "8192", "--grid-m", "50"]
        code, out_f, _ = run_cli(capsys, "price", "--method", "fft",
                                 "--style", "euro-put", *args)
        assert code == 0
        code, out_t, _ = run_cli(capsys, "price", "--method", "trapezoid",
                                 "--style", "euro-put", *args)
        assert code == 0
        assert abs(json.loads(out_f)["price"]
                   - json.loads(out_t)["price"]) < 1e-9

    def test_mc_method_reports_stderr_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--method", "mc", "--style", "euro-put",
            "--spot", "50", "--spot", "50", "--strike", "100",
            "--rate", "0.05", "--div", "0.02", "--div", "0.03",
            "--vol", "0.2", "--vol", "0.3", "--corr", "1,0.5,0.5,1",
            "--tau", "0.5", "--mc-paths", "20000")
        assert code == 0
        payload = json.loads(out)
        assert "mc_std_error" in payload["diagnostics"]

    def test_missing_strike_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--method", "bs", "--style", "euro-put",
                  "--spot", "100", "--rate", "0.05", "--div", "0",
                  "--vol", "0.2", "--tau", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--strike" in err

    @pytest.mark.parametrize("style, flag", [("euro-put", "--rate"),
                                             ("amer-put", "--div")])
    def test_non_finite_market_exits_2(self, capsys, style, flag):
        market = {"--spot": "100", "--strike": "100", "--rate": "0.05",
                  "--div": "0.02", "--vol": "0.2", "--tau": "1"}
        market[flag] = "nan"
        argv = ["price", "--method", "fft", "--style", style,
                "--grid-n", "4096", "--grid-m", "8"]
        for key, val in market.items():
            argv += [key, val]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = "rate" if flag == "--rate" else "dividends"
        assert f"{name} must be finite" in captured.err

    @pytest.mark.parametrize("spot", ["nan", "inf"])
    @pytest.mark.parametrize("method, style", [
        ("fft", "euro-put"), ("fft", "amer-call"), ("bs", "euro-put"),
        ("dw", "euro-put"), ("dw", "amer-call"), ("trapezoid", "euro-put"),
        ("binomial", "amer-put"), ("mc", "euro-put")])
    def test_non_finite_spot_exits_2(self, capsys, method, style, spot):
        # fft used to fail inside build_grid's index arithmetic and bs/dw
        # inside the JSON encoder, each with its own message
        code, out, err = run_cli(
            capsys, "price", "--method", method, "--style", style,
            "--spot", spot, "--strike", "100", "--rate", "0.05",
            "--div", "0.02", "--vol", "0.2", "--tau", "1",
            "--grid-n", "4096", "--grid-m", "8", "--mc-paths", "2000",
            "--binomial-steps", "50")
        assert code == 2
        assert out == ""
        assert "spot must be finite" in err

    #: price stdout for S = 90, K = 100, r = 0.05, q = 0.03, sigma = 0.25,
    #: tau = 1 at --grid-n 4096 --grid-m 50: (price, imag_residual,
    #: clamped_points) per method and style; dw and trapezoid report no
    #: diagnostics
    PINNED_PRICES = {
        ("fft", "euro-put"): (13.48762825, 0.0, 0),
        ("fft", "euro-call"): (5.704783819, 0.0, 0),
        ("fft", "amer-put"): (14.04690419, 0.0, 435),
        ("fft", "amer-call"): (5.705168591, 0.0, 261),
        ("dw", "euro-put"): (13.48762844, None, None),
        ("dw", "euro-call"): (5.704784014, None, None),
        ("dw", "amer-put"): (14.04711792, None, None),
        ("dw", "amer-call"): (5.705170847, None, None),
        ("trapezoid", "euro-put"): (13.48762825, None, None),
        ("trapezoid", "euro-call"): (5.704783819, None, None),
        ("trapezoid", "amer-put"): (14.04690419, None, None),
        ("trapezoid", "amer-call"): (5.705168591, None, None),
    }

    @pytest.mark.parametrize("method, style", sorted(PINNED_PRICES))
    def test_pinned_price_stdout(self, capsys, method, style):
        code, out, _ = run_cli(
            capsys, "price", "--method", method, "--style", style,
            "--spot", "90", "--strike", "100", "--rate", "0.05",
            "--div", "0.03", "--vol", "0.25", "--tau", "1",
            "--grid-n", "4096", "--grid-m", "50")
        assert code == 0
        payload = json.loads(out)
        price, imag, clamped = self.PINNED_PRICES[method, style]
        assert abs(payload.pop("price") - price) <= 1e-12 * price
        assert payload == {
            "method": method, "style": style,
            "diagnostics": {"imag_residual": imag, "clamped_points": clamped,
                            "interpolated": False}}

    BASKET = ["--spot", "50", "--spot", "50", "--strike", "100",
              "--rate", "0.05", "--div", "0.02", "--div", "0.03",
              "--vol", "0.2", "--vol", "0.3", "--corr", "1,0.5,0.5,1",
              "--tau", "0.5", "--grid-n", "512"]
    SINGLE = ["--spot", "90", "--strike", "100", "--rate", "0.05",
              "--div", "0.03", "--vol", "0.25", "--tau", "1",
              "--grid-n", "4096"]

    def test_european_basket_call(self, capsys):
        # the put 5.428650352 plus the basket forward
        # 50 e^-0.01 + 50 e^-0.015 - 100 e^-0.025
        code, out, _ = run_cli(capsys, "price", "--method", "fft",
                               "--style", "euro-call", *self.BASKET)
        assert code == 0
        assert json.loads(out)["price"] == 6.655747817

    @pytest.mark.parametrize("market, forward", [
        ("SINGLE", 90 * math.exp(-0.03) - 100 * math.exp(-0.05)),
        ("BASKET", 50 * math.exp(-0.01) + 50 * math.exp(-0.015)
         - 100 * math.exp(-0.025))], ids=["n1", "n2"])
    def test_european_call_minus_put_is_forward(self, capsys, market,
                                                forward):
        prices = {}
        for style in ("euro-call", "euro-put"):
            code, out, _ = run_cli(capsys, "price", "--method", "fft",
                                   "--style", style, *getattr(self, market))
            assert code == 0
            prices[style] = json.loads(out)["price"]
        # both prices are printed to 10 significant digits
        assert abs(prices["euro-call"] - prices["euro-put"] - forward) < 1e-8

    @pytest.mark.parametrize("argv", [
        ["price", "--method", "fft", "--style", "amer-put"],
        ["price", "--method", "fft", "--style", "amer-call"],
        ["price", "--method", "dw", "--style", "amer-put"],
        ["price", "--method", "dw", "--style", "amer-call"],
        ["price", "--method", "trapezoid", "--style", "amer-put"],
        ["price", "--method", "trapezoid", "--style", "amer-call"],
        ["greeks", "--style", "amer-put"],
        ["surface", "--style", "amer-put"],
        ["surface", "--style", "premium"]])
    def test_american_basket_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, *self.BASKET[:-2],
                                 "--grid-n", "64", "--grid-m", "8")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_validation_error_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "price", "--method", "bs", "--style", "amer-put",
            "--spot", "100", "--strike", "100", "--rate", "0.05",
            "--div", "0", "--vol", "0.2", "--tau", "1")
        assert code == 2
        assert "European" in err


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("spot = 100\nstrike = 100\nrate = 0.05\n"
                       "div = 0\nvol = 0.2\ntau = 1  # one year\n",
                       encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "price", "--method", "bs", "--style", "euro-put",
            "--config", str(cfg))
        assert code == 0
        base = json.loads(out)["price"]
        code, out, _ = run_cli(
            capsys, "price", "--method", "bs", "--style", "euro-put",
            "--config", str(cfg), "--spot", "110")
        assert code == 0
        assert json.loads(out)["price"] != base

    def test_comments_and_parsing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment line\nspot = 95\n\nstrike=105\n",
                       encoding="utf-8")
        parsed = read_config(str(cfg))
        assert parsed == {"spot": "95", "strike": "105"}

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 3\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["price", "--method", "bs", "--style", "euro-put",
                  "--config", str(cfg)])
        assert exc.value.code == 2


class TestSurfaceCommand:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "surface", "--style", "euro-put", "--spot", "100",
            "--strike", "100", "--rate", "0.05", "--div", "0",
            "--vol", "0.2", "--tau", "1", "--grid-n", "1024",
            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index_1,logS_1,S_1,value"
        assert len(lines) == 1 + 1024

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "surface", "--style", "euro-put", "--spot", "100",
            "--strike", "100", "--rate", "0.05", "--div", "0",
            "--vol", "0.2", "--tau", "1", "--grid-n", "1024",
            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"]["N"] == 1024
        assert len(payload["values"]) == 1024

    def test_write_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "surf.csv"
        code, out, _ = run_cli(
            capsys, "surface", "--style", "euro-put", "--spot", "100",
            "--strike", "100", "--rate", "0.05", "--div", "0",
            "--vol", "0.2", "--tau", "1", "--grid-n", "512",
            "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("index_1,")


class TestGreeksCommand:
    def test_single_asset_keys(self, capsys):
        code, out, _ = run_cli(
            capsys, "greeks", "--style", "euro-put", "--spot", "100",
            "--strike", "100", "--rate", "0.05", "--div", "0.02",
            "--vol", "0.2", "--tau", "1", "--grid-n", "8192")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"delta", "gamma", "theta", "rho", "nu", "xi"}
        assert isinstance(payload["delta"], float)


@pytest.mark.parametrize("argv, head", [
    (["greeks", "--style", "euro-put", "--spot", "100", "--strike", "100",
      "--rate", "0.05", "--vol", "0.2", "--tau", "1", "--grid-n", "1024"],
     "{"),
    (["surface", "--style", "euro-put", "--spot", "100", "--strike", "100",
      "--rate", "0.05", "--vol", "0.2", "--tau", "1", "--grid-n", "512",
      "--format", "json"], "{"),
    (["boundary", "--strike", "100", "--rate", "0.07", "--vol", "0.2",
      "--tau", "0.5", "--grid-m", "5"], "t,s_star")],
    ids=["greeks", "surface-json", "boundary"])
def test_out_writes_file_and_no_stdout(capsys, tmp_path, argv, head):
    # run with -W error::ResourceWarning, a file left open here fails
    out_path = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text(encoding="utf-8").startswith(head)


class TestBoundaryCommand:
    def test_row_count_matches_m(self, capsys):
        code, out, _ = run_cli(
            capsys, "boundary", "--strike", "100", "--rate", "0.07",
            "--div", "0.03", "--vol", "0.2", "--tau", "0.5",
            "--grid-m", "17")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,s_star"
        assert len(lines) == 1 + 17


class TestTable1Command:
    def test_single_grouping_and_determinism(self, capsys):
        argv = ["table1", "--groupings", "3", "--grid-n", "16384",
                "--grid-m", "250", "--binomial-steps", "2000"]
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b  # byte-identical
        lines = out_a.strip().splitlines()
        assert lines[0] == "grouping,S,true,fft,dw"
        assert len(lines) == 1 + 5 + 1  # five rows plus the summary
        assert lines[-1].startswith("max_abs_dev_fft_vs_reference")
