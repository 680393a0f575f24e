"""Command-line front end.

Subcommands: price, greeks, surface, boundary, table1.  Flags can be
preloaded from a flat ``key = value`` config file (UTF-8, ``#`` comments,
keys identical to the long flag names); explicit flags win over the file.
Exit codes: 0 success, 2 validation error, 3 numerical-quality failure,
4 I/O failure.  Nothing non-deterministic is ever written to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import greeks as greeks_mod
from . import oracles, table1
from .boundary import CRITICAL_PRICE_MODES, boundary_curve, premium_time_grid
from .errors import ImagResidualTooLarge, PricingError, SurfaceQualityError
from .fft_pricer import (AMERICAN_CALL, AMERICAN_PUT, EARLY_EXERCISE_PREMIUM,
                         EUROPEAN_CALL, EUROPEAN_PUT, build_grid,
                         landing_surface, put_boundary, reduce_to_put,
                         surface_to_csv, surface_to_json)
from .mellin_core import BasketSpec
from .series_pricer import DwConfig, dw_price

STYLES = ("euro-put", "euro-call", "amer-put", "amer-call")
METHODS = ("fft", "dw", "trapezoid", "binomial", "bs", "mc")

_PRICE_STYLES = {
    "euro-put": EUROPEAN_PUT,
    "euro-call": EUROPEAN_CALL,
    "amer-put": AMERICAN_PUT,
    "amer-call": AMERICAN_CALL,
}

_SURFACE_STYLES = {
    "euro-put": EUROPEAN_PUT,
    "amer-put": AMERICAN_PUT,
    "premium": EARLY_EXERCISE_PREMIUM,
}


def _fmt(x):
    return float(f"{x:.10g}")


def read_config(path):
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


def _apply_config(args, parser):
    """Fill unset flags from --config; explicit flags take precedence.

    A text value is parsed by the subcommand's own flag, so a value outside
    its choices exits 2 as it would on the command line."""
    if not getattr(args, "config", None):
        return args
    try:
        cfg = read_config(args.config)
    except OSError as exc:
        parser.error(f"cannot read config: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"unknown config key {key!r}")
        if getattr(args, attr) is None:
            if attr in ("spot", "div", "vol"):
                setattr(args, attr, [float(v) for v in val.split(",")])
            elif attr in ("corr", "groupings", "style", "method", "out",
                          "format", "boundary_mode"):
                flag = "--" + attr.replace("_", "-")
                parsed = parser.parse_args([args.command, f"{flag}={val}"])
                setattr(args, attr, getattr(parsed, attr))
            else:
                try:
                    setattr(args, attr, float(val))
                except ValueError:
                    parser.error(f"config key {key!r}: expected a number, "
                                 f"got {val!r}")
    return args


def _defaults(args, parser):
    """Numeric defaults applied after config merging; the integer flags
    must then be integral and the grid's real flags finite and positive.
    ``grid_n`` stays unset until the asset count is known
    (:func:`_market`)."""
    table = {
        "strip_a": 1.0, "grid_m": 250, "tau": None,
        "dw_n": 250, "dw_l": 10.0, "binomial_steps": 10000,
        "mc_paths": 1_000_000, "mc_seed": 0, "delta_target": 0.25,
    }
    for key, val in table.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, val)
    for key in ("grid_n", "grid_m", "dw_n", "binomial_steps", "mc_paths",
                "mc_seed"):
        val = getattr(args, key, None)
        if val is not None and not (math.isfinite(val) and val == int(val)):
            parser.error(f"--{key.replace('_', '-')} must be an integer, "
                         f"got {val}")
        if val is not None:
            setattr(args, key, int(val))
    for key in ("strip_a", "delta_target", "dw_l"):
        val = getattr(args, key, None)
        if val is not None and not (math.isfinite(val) and val > 0):
            parser.error(f"--{key.replace('_', '-')} must be finite and "
                         f"> 0, got {val}")
    return args


def _market(args, parser, n_assets=None):
    """BasketSpec + spot vector from the common market flags; an unset
    ``grid_n`` becomes the pricer's default N for that many assets."""
    for name in ("spot", "strike", "rate", "vol", "tau"):
        if getattr(args, name, None) is None:
            parser.error(f"missing required flag --{name}")
    spots = [float(v) for v in args.spot]
    n = len(spots)
    if n_assets is not None and n != n_assets:
        parser.error(f"expected {n_assets} spot value(s), got {n}")
    divs = [float(v) for v in (args.div if args.div else [0.0] * n)]
    if len(divs) == 1 and n > 1:
        divs = divs * n
    vols = [float(v) for v in args.vol]
    if len(vols) == 1 and n > 1:
        vols = vols * n
    if args.corr:
        flat = [float(v) for v in str(args.corr).split(",")]
        if len(flat) != n * n:
            parser.error(f"--corr needs {n * n} row-major entries")
        corr = np.array(flat).reshape(n, n)
    else:
        corr = np.eye(n)
    try:
        spec = BasketSpec(n=n, strike=float(args.strike),
                          maturity=float(args.tau), rate=float(args.rate),
                          dividends=divs, vols=vols, corr=corr)
    except ValueError as exc:
        parser.error(str(exc))
    if args.grid_n is None:
        args.grid_n = greeks_mod._default_size(n)
    return spec, np.array(spots)


def _price_inversion(args, method, spec, spots, style, diagnostics):
    """fft, dw or trapezoid price: reduce to a put, then invert its transform.

    fft records its surface diagnostics in ``diagnostics``.
    """
    put_spec, put_spots, put_style, term = reduce_to_put(
        _PRICE_STYLES[style], spec, spots)
    tau = float(args.tau)
    mode = args.boundary_mode or "corrected"
    if method == "dw":
        cfg = DwConfig(n_terms=args.dw_n, log_range=args.dw_l,
                       strip_a=args.strip_a, m_steps=args.grid_m)
        return dw_price(float(put_spots[0]), tau, put_spec, cfg, put_style,
                        mode) + term
    if method == "trapezoid":
        # on the landing grid's frequencies, comparable with fft
        grid = build_grid(put_spec.n, args.grid_n, args.strip_a, put_spots,
                          m_steps=args.grid_m, delta_target=args.delta_target)
        bnd = put_boundary(put_style, put_spec,
                           premium_time_grid(args.grid_m, tau), mode)
        return oracles.price_direct_trapezoid(
            put_spec, grid.strip_a, grid.size, grid.deltas, tau, put_spots,
            style=put_style, boundary=bnd) + term
    surf = landing_surface(put_spec, put_spots, tau, put_style, args.grid_n,
                           args.grid_m, args.strip_a, args.delta_target, mode)
    diagnostics["imag_residual"] = _fmt(surf.imag_residual)
    diagnostics["clamped_points"] = surf.clamped_points
    return surf.landing_value() + term


def cmd_price(args, parser):
    args = _defaults(args, parser)
    spec, spots = _market(args, parser)
    style = args.style
    if style not in STYLES:
        parser.error(f"--style must be one of {', '.join(STYLES)}")
    method = args.method or "fft"
    if method not in METHODS:
        parser.error(f"--method must be one of {', '.join(METHODS)}")
    tau = float(args.tau)
    diagnostics = {"imag_residual": None, "clamped_points": None,
                   "interpolated": False}
    if method in ("fft", "dw", "trapezoid"):
        value = _price_inversion(args, method, spec, spots, style,
                                 diagnostics)
    elif method == "binomial":
        if spec.n != 1:
            raise ValueError("binomial pricing requires a single asset")
        value = oracles.binomial_price(
            float(spots[0]), spec.strike, spec.rate, float(spec.dividends[0]),
            float(spec.vols[0]), tau, steps=args.binomial_steps,
            style=style.replace("-", "_"))
    elif method == "bs":
        if spec.n != 1:
            raise ValueError("bs pricing requires a single asset")
        if style.startswith("amer"):
            raise ValueError("bs supports European styles only")
        value = oracles.black_scholes(
            float(spots[0]), spec.strike, spec.rate, float(spec.dividends[0]),
            float(spec.vols[0]), tau,
            style="put" if style.endswith("put") else "call").price
    else:  # mc
        if style != "euro-put":
            raise ValueError("mc supports euro-put only")
        cfg = oracles.McConfig(paths=args.mc_paths, seed=args.mc_seed)
        value, stderr = oracles.mc_basket_euro_put(spec, spots, tau, cfg)
        diagnostics["mc_std_error"] = _fmt(stderr)
    out = {"method": method, "style": style, "price": _fmt(value),
           "diagnostics": diagnostics}
    print(json.dumps(out, sort_keys=True, allow_nan=False))
    return 0


def cmd_greeks(args, parser):
    args = _defaults(args, parser)
    spec, spots = _market(args, parser)
    style = args.style or "euro-put"
    if style not in ("euro-put", "amer-put"):
        parser.error("greeks supports --style euro-put or amer-put")
    pstyle = _PRICE_STYLES[style]
    tau = float(args.tau)
    kw = dict(style=pstyle, size=args.grid_n, m_steps=args.grid_m,
              strip_a=args.strip_a, delta_target=args.delta_target,
              boundary_mode=args.boundary_mode or "corrected")
    result = {
        "theta": _fmt(greeks_mod.greek(greeks_mod.theta(), spots, tau, spec, **kw)),
        "rho": _fmt(greeks_mod.greek(greeks_mod.rho(), spots, tau, spec, **kw)),
    }
    per_asset = {"delta": greeks_mod.delta1, "gamma": greeks_mod.gamma,
                 "nu": greeks_mod.nu, "xi": greeks_mod.xi}
    for name, mk in per_asset.items():
        vals = [_fmt(greeks_mod.greek(mk(i + 1), spots, tau, spec, **kw))
                for i in range(spec.n)]
        result[name] = vals[0] if spec.n == 1 else vals
    if spec.n > 1:
        result["cross_deltas"] = [
            [i + 1, j + 1, _fmt(greeks_mod.greek(
                greeks_mod.delta2(i + 1, j + 1), spots, tau, spec, **kw))]
            for i in range(spec.n) for j in range(i + 1, spec.n)]
    payload = json.dumps(result, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(payload + "\n")
    else:
        print(payload)
    return 0


def cmd_surface(args, parser):
    args = _defaults(args, parser)
    spec, spots = _market(args, parser)
    style = _SURFACE_STYLES.get(args.style or "euro-put")
    if style is None:
        parser.error("surface supports --style euro-put, amer-put or premium")
    surf = landing_surface(spec, spots, float(args.tau), style, args.grid_n,
                           args.grid_m, args.strip_a, args.delta_target,
                           args.boundary_mode or "corrected")
    fmt = args.format or "csv"
    text_target = args.out
    if fmt == "json":
        payload = json.dumps(surface_to_json(surf), sort_keys=True,
                             allow_nan=False)
        _write_out(text_target, payload + "\n")
    else:
        if text_target:
            with open(text_target, "w", encoding="utf-8") as fp:
                surface_to_csv(surf, fp)
        else:
            surface_to_csv(surf, sys.stdout)
    return 0


def cmd_boundary(args, parser):
    args = _defaults(args, parser)
    for name in ("strike", "rate", "vol", "tau"):
        if getattr(args, name, None) is None:
            parser.error(f"missing required flag --{name}")
    div = float(args.div[0]) if args.div else 0.0
    spec = BasketSpec.single(float(args.strike), float(args.tau),
                             float(args.rate), div, float(args.vol[0]))
    times = premium_time_grid(args.grid_m, float(args.tau))
    curve = boundary_curve(spec, times,
                           mode=args.boundary_mode or "corrected")
    import io

    buf = io.StringIO()
    curve.to_csv(buf)
    _write_out(args.out, buf.getvalue())
    return 0


def cmd_table1(args, parser):
    args = _defaults(args, parser)
    groupings = None
    if args.groupings:
        groupings = [int(v) for v in str(args.groupings).split(",")]
    dw_cfg = DwConfig(n_terms=args.dw_n, log_range=args.dw_l,
                      strip_a=args.strip_a, m_steps=args.grid_m)
    if args.grid_n is None:
        args.grid_n = greeks_mod._default_size(1)
    rows, max_dev = table1.run_table1(
        groupings=groupings, size=args.grid_n, m_steps=args.grid_m,
        strip_a=args.strip_a, dw_cfg=dw_cfg,
        binomial_steps=args.binomial_steps,
        boundary_mode=args.boundary_mode or "corrected")
    import io

    buf = io.StringIO()
    table1.rows_to_csv(rows, max_dev, buf)
    _write_out(args.out, buf.getvalue())
    if max_dev > table1.FFT_TOLERANCE:
        print(f"max deviation {max_dev:.3e} exceeds "
              f"{table1.FFT_TOLERANCE:.0e}", file=sys.stderr)
        return 3
    return 0


def _write_out(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _add_market_flags(p):
    p.add_argument("--spot", action="append", type=float,
                   help="spot price (repeat for baskets)")
    p.add_argument("--strike", type=float)
    p.add_argument("--rate", type=float)
    p.add_argument("--div", action="append", type=float,
                   help="dividend rate (repeat for baskets)")
    p.add_argument("--vol", action="append", type=float,
                   help="volatility (repeat for baskets)")
    p.add_argument("--corr", type=str,
                   help="row-major comma-separated correlation matrix")
    p.add_argument("--tau", type=float, help="time to expiry in years")


def _add_grid_flags(p):
    p.add_argument("--grid-n", type=int, help="FFT points per dimension")
    p.add_argument("--grid-m", type=int, help="premium time steps")
    p.add_argument("--strip-a", type=float, help="contour abscissa")
    p.add_argument("--delta-target", type=float,
                   help="target frequency spacing for grid landing")
    p.add_argument("--dw-n", type=int, help="series terms")
    p.add_argument("--dw-l", type=float, help="series log-price half-range")
    p.add_argument("--binomial-steps", type=int)
    p.add_argument("--mc-paths", type=int)
    p.add_argument("--mc-seed", type=int)
    p.add_argument("--boundary-mode", choices=CRITICAL_PRICE_MODES)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mellin-pricer",
        description="FFT Mellin-inversion pricer for European and American "
                    "basket put/call options")
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="price a single option")
    p_price.add_argument("--method", choices=METHODS)
    p_price.add_argument("--style", choices=STYLES, required=False)
    _add_market_flags(p_price)
    _add_grid_flags(p_price)
    p_price.add_argument("--config")
    p_price.set_defaults(fn=cmd_price)

    p_greeks = sub.add_parser("greeks", help="sensitivities as JSON")
    p_greeks.add_argument("--style", choices=("euro-put", "amer-put"))
    _add_market_flags(p_greeks)
    _add_grid_flags(p_greeks)
    p_greeks.add_argument("--config")
    p_greeks.add_argument("--out")
    p_greeks.set_defaults(fn=cmd_greeks)

    p_surface = sub.add_parser(
        "surface", help="full lattice to CSV/JSON, central half trusted")
    p_surface.add_argument("--style",
                           choices=("euro-put", "amer-put", "premium"))
    _add_market_flags(p_surface)
    _add_grid_flags(p_surface)
    p_surface.add_argument("--config")
    p_surface.add_argument("--out")
    p_surface.add_argument("--format", choices=("csv", "json"))
    p_surface.set_defaults(fn=cmd_surface)

    p_boundary = sub.add_parser("boundary", help="critical price curve CSV")
    _add_market_flags(p_boundary)
    _add_grid_flags(p_boundary)
    p_boundary.add_argument("--config")
    p_boundary.add_argument("--out")
    p_boundary.set_defaults(fn=cmd_boundary)

    p_table = sub.add_parser("table1", help="benchmark table reproduction")
    p_table.add_argument("--groupings",
                         help="comma list of groupings (default all)")
    _add_grid_flags(p_table)
    p_table.add_argument("--config")
    p_table.add_argument("--out")
    p_table.set_defaults(fn=cmd_table1)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config(args, parser)
    try:
        return args.fn(args, parser)
    except (ImagResidualTooLarge, SurfaceQualityError) as exc:
        print(f"numerical quality failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, NotImplementedError, PricingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
