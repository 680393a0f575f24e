"""CLI surface: flags, config precedence, output formats, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from mellin_pricer import greeks as gk
from mellin_pricer.cli import main, read_config
from mellin_pricer.fft_pricer import AMERICAN_PUT
from mellin_pricer.greeks import greek
from mellin_pricer.mellin_core import BasketSpec


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

    @pytest.mark.parametrize("method", ["fft", "trapezoid"])
    def test_spot_off_the_lattice_exits_2(self, capsys, method):
        # both land the spot on the market's lattice first
        code, out, err = run_cli(
            capsys, "price", "--method", method, "--style", "amer-put",
            "--spot", "1e300", "--strike", "100", "--rate", "0.05",
            "--div", "0.03", "--vol", "0.25", "--tau", "1",
            "--grid-n", "4096", "--grid-m", "8")
        assert code == 2
        assert out == ""
        assert "outside the lattice" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("method, flag", [
        ("fft", "--strip-a"), ("dw", "--strip-a"), ("fft", "--delta-target"),
        ("dw", "--dw-l")])
    def test_bad_grid_flag_exits_2(self, capsys, method, flag, value):
        # a bad value must stop at the flags, not reach the grid, where nan
        # fails with an internal message that names no flag
        with pytest.raises(SystemExit) as exc:
            main(["price", "--method", method, "--style", "amer-put",
                  "--spot", "90", "--strike", "100", "--rate", "0.05",
                  "--div", "0.03", "--vol", "0.25", "--tau", "1",
                  "--grid-n", "4096", "--grid-m", "8", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} must be finite and > 0, got {float(value)}" \
            in captured.err

    #: price stdout for S = 90, K = 100, r = 0.05, q = 0.03, sigma = 0.25,
    #: tau = 1 at --grid-n 4096 --grid-m 50: (price, imag_residual,
    #: clamped_points) per method and style; dw and trapezoid report no
    #: diagnostics
    PINNED_PRICES = {
        ("fft", "euro-put"): (13.48762825, 0.0, 0),
        ("fft", "euro-call"): (5.704783819, 0.0, 0),
        ("fft", "amer-put"): (14.04686623, 0.0, 0),
        ("fft", "amer-call"): (5.705167784, 0.0, 0),
        ("dw", "euro-put"): (13.48762844, None, None),
        ("dw", "euro-call"): (5.704784014, None, None),
        ("dw", "amer-put"): (14.04688386, None, None),
        ("dw", "amer-call"): (5.705167943, None, None),
        ("trapezoid", "euro-put"): (13.48762825, None, None),
        ("trapezoid", "euro-call"): (5.704783819, None, None),
        ("trapezoid", "amer-put"): (14.04686623, None, None),
        ("trapezoid", "amer-call"): (5.705167784, None, None),
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

    def test_basket_counts_no_rounding_as_clamped(self, capsys):
        # thousands of lattice values are -1e-16 rounding, and the edges
        # no gate reads go negative too; none is material in the central
        # half, where the gate looks
        code, out, _ = run_cli(capsys, "price", "--method", "fft",
                               "--style", "euro-put", *self.BASKET)
        assert code == 0
        assert json.loads(out)["diagnostics"]["clamped_points"] == 0

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

    # a value outside a flag's choices used to be taken as given: format =
    # xml wrote CSV, boundary-mode = bogus priced a European put
    @pytest.mark.parametrize("command, key", [
        ("surface", "format"), ("price", "boundary-mode"),
        ("price", "method"), ("price", "style"), ("surface", "style")])
    def test_bad_choice_exits_2(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = bogus\n", encoding="utf-8")
        style = [] if key == "style" else ["--style", "euro-put"]
        with pytest.raises(SystemExit) as exc:
            main([command, *style, *TestPriceCommand.SINGLE, "--grid-n",
                  "512", "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--{key}" in captured.err and "'bogus'" in captured.err

    def test_good_choice_is_read(self, capsys, tmp_path):
        cfg = tmp_path / "good.cfg"
        cfg.write_text("format = json\nstyle = euro-put\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "surface", *TestPriceCommand.SINGLE,
                               "--grid-m", "50", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["style"] == "european_put"


class TestSurfaceCommand:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "surface", "--style", "euro-put", "--spot", "100",
            "--strike", "100", "--rate", "0.05", "--div", "0",
            "--vol", "0.2", "--tau", "1", "--grid-n", "1024",
            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index_1,logS_1,S_1,value,trusted"
        assert len(lines) == 1 + 1024
        # every row is kept; the central half is marked trusted
        trusted = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert trusted == [0] * 256 + [1] * 512 + [0] * 256

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
        assert payload["trusted"] == [[256, 768]]

    BASKET = ["--spot", "48", "--spot", "53", "--strike", "100",
              "--rate", "0.05", "--div", "0.02", "--div", "0.03",
              "--vol", "0.2", "--vol", "0.3", "--corr", "1,0.5,0.5,1",
              "--tau", "0.5"]

    def test_json_rebuilds_the_basket_landing_spot(self, capsys):
        # log price of index k is origin + (k - N/2) lambda on each axis, so
        # the JSON alone finds the spot's lattice point and its price
        code, out, _ = run_cli(capsys, "surface", "--style", "euro-put",
                               *self.BASKET, "--format", "json")
        assert code == 0
        grid = json.loads(out)["grid"]
        N = grid["N"]
        index = []
        for spot, origin, lam in zip((48.0, 53.0), grid["origin"],
                                     grid["lambda"]):
            assert 0.0 < abs(origin) <= lam / 2
            k = N // 2 + round((math.log(spot) - origin) / lam)
            assert math.exp(origin + (k - N / 2) * lam) == pytest.approx(
                spot, rel=1e-13)
            index.append(k)
        value = json.loads(out)["values"][index[0] * N + index[1]]
        code, out, _ = run_cli(capsys, "price", "--method", "fft",
                               "--style", "euro-put", *self.BASKET)
        assert code == 0
        # the price command prints 10 significant digits
        assert float(f"{value:.10g}") == json.loads(out)["price"]

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

    AMER = ["--style", "amer-put", "--spot", "90", "--strike", "100",
            "--rate", "0.05", "--div", "0.03", "--vol", "0.25", "--tau", "1",
            "--grid-n", "4096", "--grid-m", "50"]

    # every pricer uses the Simpson time grid, and no subcommand has a
    # time-weights flag or config key; greeks once ignored the flag
    @pytest.mark.parametrize("rule", ["flat", "trapezoid"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_other_time_weights_exit_2(self, capsys, tmp_path, rule, source):
        if source == "flag":
            extra = ["--time-weights", rule]
        else:
            cfg = tmp_path / "rule.cfg"
            cfg.write_text(f"time-weights = {rule}\n", encoding="utf-8")
            extra = ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(["greeks", *self.AMER, *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # argparse names the flag and its value; the config, the key
        assert "time-weights" in captured.err
        assert source == "config" or f"--time-weights {rule}" in captured.err


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


class TestQualityFailure:
    # the price on each refused surface is badly wrong (see
    # test_fft_pricer.TestQualityGates)
    @pytest.mark.parametrize("argv", [
        ["--spot", "55.7387", "--spot", "42.4256", "--strike", "100",
         "--rate", "0.0235158", "--div", "0.0294423", "--div", "0.000162097",
         "--vol", "0.150094", "--vol", "0.21498",
         "--corr", "1,-0.27499,-0.27499,1", "--tau", "0.25",
         "--grid-n", "128"],
        ["--spot", "100", "--strike", "100", "--rate", "0.05", "--div",
         "0.02", "--vol", "0.2", "--tau", "0.05", "--grid-n", "64"]],
        ids=["imag-residual", "negative-values"])
    def test_refused_surface_exits_3(self, capsys, argv):
        code, out, err = run_cli(capsys, "price", "--method", "fft",
                                 "--style", "euro-put", *argv)
        assert code == 3
        assert out == ""
        assert "numerical quality failure" in err

    @pytest.mark.parametrize("method", ["fft", "dw", "trapezoid"])
    def test_non_finite_price_exits_3(self, capsys, method):
        # a = 700 overflows the transform; the NaN price used to reach the
        # JSON encoder, which exited 2 with a message that named no flag
        with np.errstate(all="ignore"):
            code, out, err = run_cli(
                capsys, "price", "--method", method, "--style", "amer-put",
                "--spot", "100", "--strike", "100", "--rate", "0.05",
                "--div", "0.02", "--vol", "0.2", "--tau", "0.5",
                "--grid-n", "4096", "--strip-a", "700")
        assert code == 3
        assert out == ""
        assert "not finite" in err
        assert "--strip-a" in err and "--grid-n" in err

    @pytest.mark.parametrize("method", ["fft", "dw", "trapezoid"])
    def test_non_finite_price_warns_nothing(self, capsys, method):
        # the overflow's numpy RuntimeWarnings used to reach stderr before
        # the one message; as errors, the first escaped as an exception
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(
                capsys, "price", "--method", method, "--style", "amer-put",
                "--spot", "100", "--strike", "100", "--rate", "0.05",
                "--div", "0.02", "--vol", "0.2", "--tau", "0.5",
                "--grid-n", "4096", "--strip-a", "700")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("style", ["amer-put", "euro-put"])
    def test_non_finite_surface_names_the_flags(self, capsys, style):
        # the surface command refuses the same overflow at price_surface's
        # finite gate, and the message names the flags to change
        with np.errstate(all="ignore"):
            code, out, err = run_cli(
                capsys, "surface", "--style", style, "--spot", "100",
                "--strike", "100", "--rate", "0.05", "--div", "0.02",
                "--vol", "0.2", "--tau", "0.5", "--grid-n", "4096",
                "--strip-a", "700", "--format", "json")
        assert code == 3
        assert out == ""
        assert "surface value not finite" in err
        assert "--strip-a" in err and "--grid-n" in err


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

    @pytest.mark.parametrize("flag", ["--strip-a", "--dw-l"])
    def test_bad_grid_flag_exits_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--groupings", "1", flag, "nan"])
        assert exc.value.code == 2
        assert f"{flag} must be finite and > 0" in capsys.readouterr().err


BASKET_MARKET = ["--spot", "48", "--spot", "53", "--strike", "100",
                 "--rate", "0.05", "--div", "0.02", "--div", "0.03",
                 "--vol", "0.2", "--vol", "0.3", "--corr", "1,0.5,0.5,1",
                 "--tau", "0.5"]


class TestGridDefaults:
    @pytest.mark.parametrize("method", ["fft", "trapezoid"])
    def test_basket_price_defaults_to_the_basket_n(self, capsys, method):
        # without --grid-n a basket gets the basket N = 512, not the
        # one-asset 16384 (a 16384 x 8193 half lattice)
        prices = []
        for extra in ([], ["--grid-n", "512"]):
            code, out, _ = run_cli(capsys, "price", "--method", method,
                                   "--style", "euro-put", *BASKET_MARKET,
                                   *extra)
            assert code == 0
            prices.append(json.loads(out)["price"])
        assert prices[0] == prices[1]

    def test_basket_surface_defaults_to_the_basket_n(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--style", "euro-put",
                               "--format", "json", *BASKET_MARKET)
        assert code == 0
        assert json.loads(out)["grid"]["N"] == 512

    def test_config_grid_n_is_kept(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid-n = 64\n", encoding="utf-8")
        outs = []
        for extra in (["--config", str(cfg)], ["--grid-n", "64"], []):
            code, out, _ = run_cli(capsys, "greeks", *BASKET_MARKET, *extra)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] != outs[2]

    @pytest.mark.parametrize("key", ["grid-n", "grid_m", "dw-n"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "2.5"])
    def test_non_integral_config_key_exits_2(self, capsys, tmp_path, key,
                                             value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["price", "--method", "fft", "--style", "euro-put",
                  "--spot", "90", "--strike", "100", "--rate", "0.05",
                  "--vol", "0.25", "--tau", "1", "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag = "--" + key.replace("_", "-")
        assert f"{flag} must be an integer, got {float(value)}" \
            in captured.err

    def test_non_numeric_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid-n = many\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["price", "--method", "fft", "--style", "euro-put",
                  "--config", str(cfg)])
        assert exc.value.code == 2
        assert "'grid-n'" in capsys.readouterr().err


class TestGreeksFlags:
    def greeks(self, capsys, *argv):
        code, out, _ = run_cli(capsys, "greeks", *argv)
        assert code == 0
        return json.loads(out)

    def test_basket_honours_grid_n(self, capsys, basket2_spec):
        spec = basket2_spec  # the market of BASKET_MARKET
        # a greek read off the 64-point lattice moves in its 2nd digit
        got = self.greeks(capsys, "--style", "euro-put", *BASKET_MARKET,
                          "--grid-n", "64")
        want = greek(gk.delta2(1, 2), [48.0, 53.0], 0.5, spec, size=64)
        assert got["cross_deltas"] == [[1, 2, float(f"{want:.10g}")]]
        default = greek(gk.delta2(1, 2), [48.0, 53.0], 0.5, spec)
        assert float(f"{want:.10g}") != float(f"{default:.10g}")

    def test_honours_delta_target_and_boundary_mode(self, capsys):
        spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
        grid = dict(size=4096, m_steps=20)
        got = self.greeks(capsys, "--style", "amer-put", "--spot", "95",
                          "--strike", "100", "--rate", "0.06", "--div",
                          "0.02", "--vol", "0.3", "--tau", "0.5",
                          "--grid-n", "4096", "--grid-m", "20",
                          "--delta-target", "0.3",
                          "--boundary-mode", "printed")
        for kw in ({}, dict(delta_target=0.3, boundary_mode="printed")):
            want = greek(gk.delta1(), [95.0], 0.5, spec, AMERICAN_PUT,
                         **grid, **kw)
            assert (got["delta"] == float(f"{want:.10g}")) == bool(kw)
