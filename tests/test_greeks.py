"""Sensitivities: multiplier factors, pipeline values, finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GROUPING_PARAMS, assert_close
from mellin_pricer.boundary import boundary_curve, premium_time_grid
from mellin_pricer import fft_pricer
from mellin_pricer import greeks as gk
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, build_grid,
                                      contour_sum,
                                      discounted_payoff_transform,
                                      invert_transform_lattice,
                                      lattice_pieces, price_surface,
                                      put_boundary, sample_transform)
from mellin_pricer.greeks import GreekKind, greek, greek_fd, greek_multiplier
from mellin_pricer.mellin_core import BasketSpec
from mellin_pricer.oracles import american_put_node_sum, black_scholes


class TestGreekKind:
    def test_validation(self):
        with pytest.raises(ValueError):
            GreekKind("delta2", i=1, j=1)
        with pytest.raises(ValueError):
            GreekKind("frob")
        with pytest.raises(ValueError):
            gk.delta1(2).validate(1)


class TestMultiplier:
    def setup_method(self):
        self.spec = BasketSpec.single(100.0, 1.0, 0.05, 0.02, 0.2)

    def test_delta1_factor(self):
        w = np.array([[2.0 + 0j]])
        f_e, f_p = greek_multiplier(gk.delta1(), w, [100.0], 1.0, 0.0,
                                    self.spec)
        assert_close(complex(f_e[0]), -0.02, atol=1e-15)
        assert_close(complex(f_p[0]), +0.02, atol=1e-15)

    def test_paper_gamma_root_at_unit(self):
        # the published display factor w(1-w) vanishes at w = 1
        w = np.array([[1.0 + 0j]])
        f_e, f_p = greek_multiplier(gk.gamma(), w, [100.0], 1.0, 0.0,
                                    self.spec, mode="paper")
        assert complex(f_e[0]) == 0
        assert complex(f_p[0]) == 0

    def test_kernel_gamma_differs_from_paper(self):
        w = np.array([[1.5 + 2j]])
        k_e, _ = greek_multiplier(gk.gamma(), w, [100.0], 1.0, 0.0, self.spec)
        p_e, _ = greek_multiplier(gk.gamma(), w, [100.0], 1.0, 0.0,
                                  self.spec, mode="paper")
        assert abs(complex(k_e[0]) - complex(p_e[0])) > 1e-6

    def test_nu_single_asset_collapse(self):
        # n = 1: no cross terms; kernel gives sigma w (w+1), the published
        # display gives sigma w (w-1)
        w = np.array([[3.0 + 0j]])
        k_e, _ = greek_multiplier(gk.nu(), w, [100.0], 1.0, 0.0, self.spec)
        assert_close(complex(k_e[0]), 1.0 * 0.2 * 3.0 * 4.0, rtol=1e-13)
        p_e, _ = greek_multiplier(gk.nu(), w, [100.0], 1.0, 0.0, self.spec,
                                  mode="paper")
        assert_close(complex(p_e[0]), 1.0 * 0.2 * 3.0 * 2.0, rtol=1e-13)

    def test_delta1_same_both_modes(self):
        w = np.array([[1.1 + 5j]])
        k = greek_multiplier(gk.delta1(), w, [90.0], 0.5, 0.1, self.spec)
        p = greek_multiplier(gk.delta1(), w, [90.0], 0.5, 0.1, self.spec,
                             mode="paper")
        assert complex(k[0][0]) == complex(p[0][0])
        assert complex(k[1][0]) == complex(p[1][0])


class TestEuropeanKernelVsClosedForm:
    """Kernel-mode Greeks against the dividend-adjusted closed form."""

    def setup_method(self):
        self.spec = BasketSpec.single(100.0, 1.0, 0.05, 0.02, 0.2)
        self.bs = black_scholes(100, 100, 0.05, 0.02, 0.2, 1.0, "put")

    @pytest.mark.parametrize("kind,attr", [
        (gk.delta1(), "delta"), (gk.gamma(), "gamma"), (gk.theta(), "theta"),
        (gk.rho(), "rho"), (gk.nu(), "vega"), (gk.xi(), "dividend_rho")])
    def test_matches_black_scholes(self, kind, attr):
        got = greek(kind, [100.0], 1.0, self.spec, EUROPEAN_PUT)
        want = getattr(self.bs, attr)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


class TestFiniteDifferences:
    def setup_method(self):
        self.spec = BasketSpec.single(100.0, 1.0, 0.05, 0.02, 0.2)

    def test_fd_matches_analytic_delta_atm(self):
        a = greek(gk.delta1(), [100.0], 1.0, self.spec, EUROPEAN_PUT)
        f = greek_fd(gk.delta1(), [100.0], 1.0, self.spec, EUROPEAN_PUT,
                     h_rel=1e-4)
        assert abs(a - f) <= 1e-4 * abs(a)

    def test_fd_of_constant_price_is_zero(self):
        # injected price function ignores every parameter
        const = lambda s, t, sp: 7.25
        for kind in (gk.delta1(), gk.gamma(), gk.theta(), gk.rho(), gk.nu(),
                     gk.xi()):
            assert greek_fd(kind, [100.0], 1.0, self.spec, EUROPEAN_PUT,
                            h_rel=1e-3, price_fn=const) == 0.0

    def test_deep_itm_payoff_slope(self):
        # near expiry and deep in the money the put price is K - S
        spec = BasketSpec.single(100.0, 0.01, 0.05, 0.0, 0.2)
        f = greek_fd(gk.delta1(), [50.0], 0.01, spec, EUROPEAN_PUT,
                     h_rel=1e-4)
        assert abs(f - (-1.0 * np.exp(-0.0))) < 1e-3

    def test_h_rel_validation(self):
        with pytest.raises(ValueError):
            greek_fd(gk.delta1(), [100.0], 1.0, self.spec, EUROPEAN_PUT,
                     h_rel=0.5)


class TestEuropeanProperties:
    def setup_method(self):
        self.spec = BasketSpec.single(100.0, 1.0, 0.05, 0.02, 0.2)

    def test_deep_itm_delta_limit(self):
        # put delta tends to -exp(-q tau) deep in the money
        got = greek(gk.delta1(), [20.0], 1.0, self.spec, EUROPEAN_PUT)
        assert abs(got - (-np.exp(-0.02))) < 1e-4

    def test_gamma_nonnegative_central(self):
        for spot in (60.0, 80.0, 100.0, 130.0, 170.0):
            got = greek(gk.gamma(), [spot], 1.0, self.spec, EUROPEAN_PUT)
            assert got >= -1e-10

    def test_paper_mode_gamma_fails_fd(self):
        # the published display factor disagrees with the finite
        # difference; the kernel derivation is the shipped default
        fd = greek_fd(gk.gamma(), [100.0], 1.0, self.spec, EUROPEAN_PUT,
                      h_rel=1e-4)
        paper = greek(gk.gamma(), [100.0], 1.0, self.spec, EUROPEAN_PUT,
                      mode="paper")
        kernel = greek(gk.gamma(), [100.0], 1.0, self.spec, EUROPEAN_PUT)
        assert abs(kernel - fd) <= 1e-4 * abs(fd)
        assert abs(paper - fd) > 0.1 * abs(fd)

    def test_paper_mode_mismatch_record(self):
        # fixture of which published factors disagree with the kernel
        # derivation at the reference point (informational regression pin)
        mismatched = []
        for name, kind in [("delta1", gk.delta1()), ("gamma", gk.gamma()),
                           ("theta", gk.theta()), ("rho", gk.rho()),
                           ("nu", gk.nu()), ("xi", gk.xi())]:
            k = greek(kind, [100.0], 1.0, self.spec, EUROPEAN_PUT)
            p = greek(kind, [100.0], 1.0, self.spec, EUROPEAN_PUT,
                      mode="paper")
            if abs(k - p) > 1e-6 * max(1.0, abs(k)):
                mismatched.append(name)
        assert mismatched == ["gamma", "rho", "nu", "xi"]


class TestAmerican:
    def setup_method(self):
        r, q, sig = GROUPING_PARAMS[1]
        # swapped market; boundary at tau = 0.5 sits near 84
        self.spec = BasketSpec.single(100.0, 0.5, q, r, sig)

    @pytest.mark.parametrize("spot", [95.0, 110.0])
    def test_delta_vs_fd_away_from_boundary(self, spot):
        a = greek(gk.delta1(), [spot], 0.5, self.spec, AMERICAN_PUT)
        f = greek_fd(gk.delta1(), [spot], 0.5, self.spec, AMERICAN_PUT,
                     h_rel=1e-4)
        assert abs(a - f) <= 1e-3 * abs(f)

    def test_gamma_vs_fd_away_from_boundary(self):
        a = greek(gk.gamma(), [100.0], 0.5, self.spec, AMERICAN_PUT)
        f = greek_fd(gk.gamma(), [100.0], 0.5, self.spec, AMERICAN_PUT,
                     h_rel=1e-4)
        assert abs(a - f) <= 1e-3 * abs(f)

    @pytest.mark.parametrize("spot", [70.0, 90.0])
    @pytest.mark.parametrize("name", ["delta1", "gamma", "rho", "xi", "nu"])
    def test_kernel_greeks_differentiate_the_node_sum(self, name, spot):
        # with the boundary frozen, the kernel greeks are the derivatives
        # of the closed-form node sum; s*_0 = 73.85, so at 70 they take
        # premium node 0's step in S space.  Richardson-extrapolated
        # central differences in S, r, q and sigma.
        spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
        curve = boundary_curve(spec, premium_time_grid(250, 0.5))
        market = {"s": spot, "r": 0.06, "q": 0.02, "v": 0.3}
        bump, h = {"delta1": ("s", 0.2), "gamma": ("s", 0.2),
                   "rho": ("r", 1e-3), "xi": ("q", 1e-3),
                   "nu": ("v", 1e-3)}[name]

        def node_sum(x):
            m = dict(market, **{bump: x})
            return american_put_node_sum(m["s"], BasketSpec.single(
                100.0, 0.5, m["r"], m["q"], m["v"]), curve)

        def diff(h):
            x = market[bump]
            if name == "gamma":
                return (node_sum(x + h) - 2 * node_sum(x)
                        + node_sum(x - h)) / h**2
            return (node_sum(x + h) - node_sum(x - h)) / (2 * h)

        want = diff(h / 2) + (diff(h / 2) - diff(h)) / 3
        got = greek(getattr(gk, name)(), [spot], 0.5, spec, AMERICAN_PUT)
        assert abs(got - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("spot", [65.0, 70.0])
    def test_theta_inside_the_exercise_region_vs_fd(self, spot):
        # below s*_0 = 73.85 kernel theta takes the early-exercise value
        # rK - qS and node 0's image in S space; with node 0 transformed on
        # the lattice it was 0.6 to 1.7 below the difference.  What is
        # left (about 1e-2) is the boundary's own motion in tau, which the
        # kernel freezes.
        spec = BasketSpec.single(100.0, 0.5 + 1e-3, 0.06, 0.02, 0.3)
        a = greek(gk.theta(), [spot], 0.5, spec, AMERICAN_PUT)
        f = greek_fd(gk.theta(), [spot], 0.5, spec, AMERICAN_PUT)
        assert abs(a - f) <= 2e-2

    def test_multi_asset_american_rejected(self, basket2_spec):
        with pytest.raises(NotImplementedError):
            greek(gk.delta1(), [50.0, 50.0], 0.5, basket2_spec, AMERICAN_PUT)


class TestBasketCrossDelta:
    def test_uncorrelated_cross_delta_vs_fd(self):
        spec = BasketSpec(n=2, strike=100.0, maturity=0.5, rate=0.05,
                          dividends=[0.02, 0.03], vols=[0.2, 0.3],
                          corr=np.eye(2))
        a = greek(gk.delta2(1, 2), [50.0, 50.0], 0.5, spec, EUROPEAN_PUT)
        f = greek_fd(gk.delta2(1, 2), [50.0, 50.0], 0.5, spec, EUROPEAN_PUT,
                     h_rel=1e-3)
        assert abs(a - f) <= 1e-3 * abs(f)

    def test_correlated_cross_delta_vs_fd(self, basket2_spec):
        a = greek(gk.delta2(1, 2), [50.0, 50.0], 0.5, basket2_spec,
                  EUROPEAN_PUT)
        f = greek_fd(gk.delta2(1, 2), [50.0, 50.0], 0.5, basket2_spec,
                     EUROPEAN_PUT, h_rel=1e-3)
        assert abs(a - f) <= 1e-3 * abs(f)


class TestLandingSum:
    """A greek reads its one point with the direct landing sum."""

    def test_greek_never_runs_the_inverse_fft(self, monkeypatch,
                                              basket2_spec):
        def refuse(*args, **kwargs):
            raise AssertionError("greek ran the full inverse FFT")

        monkeypatch.setattr(fft_pricer, "invert_transform_lattice", refuse)
        assert not hasattr(gk, "invert_transform_lattice")
        spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
        for style in (EUROPEAN_PUT, AMERICAN_PUT):
            greek(gk.gamma(), [100.0], 0.5, spec, style, size=2**10,
                  m_steps=20)
        greek(gk.delta2(1, 2), [50.0, 45.0], 0.5, basket2_spec, size=2**6)

    def test_european_greeks_build_no_time_grid(self, monkeypatch,
                                                basket2_spec):
        # only an American greek reads the premium's time grid
        def refuse(*args, **kwargs):
            raise AssertionError("a European greek built the time grid")

        monkeypatch.setattr(gk, "premium_time_grid", refuse)
        spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
        want = black_scholes(100.0, 100.0, 0.06, 0.02, 0.3, 0.5, "put")
        got = greek(gk.delta1(), [100.0], 0.5, spec, size=2**12)
        assert abs(got - want.delta) <= 1e-6
        assert np.isfinite(greek(gk.delta1(1), [50.0, 45.0], 0.5,
                                 basket2_spec, size=2**6))

    @settings(max_examples=20, deadline=None)
    # basket_book seed 25's first market, refused by price_surface on this
    # grid: its edge frequencies are far from negligible
    @example(rho=-0.27499, vol1=0.150094, vol2=0.21498, q1=0.0294423,
             q2=0.000162097, r=0.0235158, tau=0.25, s1=55.7387, s2=42.4256)
    @given(rho=st.floats(-0.5, 0.9), vol1=st.floats(0.15, 0.45),
           vol2=st.floats(0.15, 0.45), q1=st.floats(0.0, 0.08),
           q2=st.floats(0.0, 0.08), r=st.floats(0.01, 0.08),
           tau=st.sampled_from((0.25, 0.5, 1.0)),
           s1=st.floats(40.0, 60.0), s2=st.floats(40.0, 60.0))
    def test_basket_landing_sum_is_the_fft_read(self, rho, vol1, vol2, q1,
                                                q2, r, tau, s1, s2):
        spec = BasketSpec(n=2, strike=100.0, maturity=tau, rate=r,
                          dividends=[q1, q2], vols=[vol1, vol2],
                          corr=[[1.0, rho], [rho, 1.0]])
        spot = np.array([s1, s2])
        grid = build_grid(2, 2**9, 1.0, spot)
        for kind in (gk.delta1(1), gk.delta2(1, 2), gk.gamma(2), gk.theta(),
                     gk.rho(), gk.nu(1), gk.xi(2)):
            # the pointwise multiplier on the points of each piece
            samples = sample_transform(grid, lambda axes: greek_multiplier(
                kind, np.stack(np.meshgrid(*(ax.points for ax in axes),
                                           indexing="ij"), axis=-1),
                spot, tau, 0.0, spec)[0]
                * discounted_payoff_transform(axes, spec, tau))
            want = invert_transform_lattice(grid, *samples,
                                            strike=spec.strike)[0][
                grid.landing_index]
            # K times the pieces' strike-1 sums at S/K
            got = spec.strike * sum(
                contour_sum(*piece, spot / spec.strike)
                for piece in lattice_pieces(grid, *samples))
            assert abs(got - want) <= 1e-12 * spec.strike, kind


@pytest.mark.parametrize("tau", [0.0, -0.1, float("nan"), float("inf")])
@pytest.mark.parametrize("style", [EUROPEAN_PUT, AMERICAN_PUT])
def test_bad_tau_is_refused(tau, style):
    # NaN and inf used to give an all-NaN surface that passed every gate,
    # and greek had no check at all
    spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
    grid = build_grid(1, 2**10, 1.0, [100.0], m_steps=20)
    bnd = put_boundary(style, spec, premium_time_grid(20, 0.5))
    with pytest.raises(ValueError, match="tau must be positive"):
        price_surface(spec, grid, tau, style, boundary=bnd)
    with pytest.raises(ValueError, match="tau must be positive"):
        greek(gk.delta1(), [100.0], tau, spec, style, size=2**10, m_steps=20)
