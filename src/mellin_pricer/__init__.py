"""Mellin-transform option pricer with FFT and series numerical inversion.

European and American (basket) put/call options under correlated,
dividend-paying geometric Brownian motion.  ``mellin-pricer --help``
describes the command line; the module docstrings describe the numerics,
starting with :mod:`mellin_pricer.fft_pricer`.
"""

from .boundary import (BoundaryCurve, boundary_curve, boundary_residual_cap,
                       capf_residual, critical_price_approx)
from .errors import PricingError
from .fft_pricer import (AMERICAN_CALL, AMERICAN_PUT, EARLY_EXERCISE_PREMIUM,
                         EUROPEAN_CALL, EUROPEAN_PUT, MellinFftGrid,
                         PriceQuote, PriceSurface, build_grid, contour_sum,
                         price_american_call, price_at, price_put,
                         price_surface, put_transform, reduce_to_put,
                         simpson_weight)
from .greeks import GreekKind, greek, greek_fd, greek_multiplier
from .mellin_core import (BasketSpec, CovStruct, early_exercise_mellin,
                          lgamma_complex, multinomial_beta, payoff_mellin,
                          riskneutral_drift)
from .oracles import (BsQuote, McConfig, american_put_node_sum,
                      binomial_price, black_scholes, mc_basket_euro_put,
                      price_direct_trapezoid)
from .series_pricer import DwConfig, dw_price

__version__ = "0.1.0"

__all__ = [
    "AMERICAN_CALL", "AMERICAN_PUT", "EARLY_EXERCISE_PREMIUM",
    "EUROPEAN_CALL", "EUROPEAN_PUT", "BasketSpec", "BoundaryCurve",
    "BsQuote", "CovStruct", "DwConfig", "GreekKind", "McConfig",
    "MellinFftGrid", "PriceQuote", "PriceSurface", "PricingError",
    "american_put_node_sum", "binomial_price", "black_scholes", "boundary_curve",
    "boundary_residual_cap", "build_grid", "capf_residual", "contour_sum",
    "critical_price_approx", "dw_price", "early_exercise_mellin", "greek",
    "greek_fd", "greek_multiplier", "lgamma_complex", "mc_basket_euro_put",
    "multinomial_beta", "payoff_mellin", "price_american_call", "price_at",
    "price_direct_trapezoid", "price_put", "price_surface", "put_transform",
    "reduce_to_put", "riskneutral_drift", "simpson_weight",
]
