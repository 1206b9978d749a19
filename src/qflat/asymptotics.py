"""Closed-form small-tau and large-tau laws for the radial integrals.

These serve as independent oracles against the quadrature routines: the
two-term Watson expansion controls tau -> 0, a saddle-free Laplace argument
controls tau -> infinity, and the central-sequence identities predict how
the whole isotype family collapses onto the n = 0 integral when the
curvature is isotype-independent.

The large-tau laws are given in log form only: their values overflow
together with the integrals they approximate, so comparisons against
quadrature at large tau are made on logarithms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from ._gamma import gamma_value
from .quadrature import _as_float_coeffs

__all__ = [
    "CentralPrediction",
    "watson2",
    "fseries2",
    "log_tail_gauss_exp",
    "log_qp_large_tau",
    "central_predict",
]

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class CentralPrediction:
    """What centrality forces on the degree-n member of a polynomial family.

    ``alpha_n`` is the exponential rate n(nu+kappa+n) by which Q_{P_n}
    outruns Q_{P_0}; ``c_n1`` the forced linear coefficient
    -2n(nu+kappa+n)/(mu+kappa+1); ``c_nn_magnitude`` the forced magnitude
    4^n ((nu+kappa)/(nu+kappa+2n))^mu of the top coefficient, whose sign is
    (-1)^n.
    """

    alpha_n: Fraction
    c_n1: Fraction
    c_nn_magnitude: float


def _half(x) -> object:
    """x/2 keeping Fractions exact so gamma can take its exact route."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x) / 2
    return float(x) / 2.0


def watson2(P, mu, kappa, nu, tau: float) -> float:
    """Two-term small-tau expansion of the radial integral.

    (tau^(r/2)/2) (Gamma(r/2) c0 + Gamma(r/2+1) (-c1 + kappa/6 + nu/2) tau)
    with r = mu + kappa + 1.  Gamma is evaluated exactly at integer and
    half-integer arguments.  The first-order coefficient assumes the profile
    is normalized to constant term c0 = 1, as every polynomial family used
    downstream is.
    """
    c0, coef = fseries2(P, kappa, nu)
    rr, g0, g1 = _watson_gammas(mu, kappa)
    return tau ** (rr / 2.0) / 2.0 * (g0 * c0 + g1 * coef * tau)


@functools.lru_cache(maxsize=256, typed=True)
def _watson_gammas(mu, kappa) -> tuple[float, float, float]:
    """r = mu + kappa + 1, Gamma(r/2) and Gamma(r/2 + 1) as floats.

    Typed, so float arguments keep math.gamma's values although 1.5 and
    Fraction(3, 2) hash alike; exact arguments take the exact route.
    """
    if isinstance(mu, (int, Fraction)) and isinstance(kappa, (int, Fraction)):
        r = Fraction(mu) + Fraction(kappa) + 1
    else:
        r = float(mu) + float(kappa) + 1.0
    if float(r) <= 0.0:
        raise ValueError(f"need r = mu + kappa + 1 > 0, got {r}")
    g0 = gamma_value(_half(r))
    g1 = gamma_value(_half(r) + 1)
    return float(r), g0, g1


def fseries2(P, kappa, nu) -> tuple[float, float]:
    """Value and half second derivative at 0 of the even integrand profile.

    For f(t) = P(-sinh^2 t) (sinh t / t)^kappa cosh(t)^nu with P(0) = 1:
    f(0) = c0 and f''(0)/2 = -c1 + kappa/6 + nu/2.
    """
    c0, c1 = (_as_float_coeffs(P) + (0.0,))[:2]
    return c0, -c1 + float(kappa) / 6.0 + float(nu) / 2.0


def log_tail_gauss_exp(lam: float, mu: float, tau: float) -> float:
    """Log of the leading large-tau value of int_0^inf e^(-t^2/tau) t^mu e^(lam t) dt.

    Completing the square centres a Gaussian of width sqrt(tau) at
    t = lam tau/2; taking t^mu there gives
    sqrt(pi tau) (lam tau/2)^mu e^(lam^2 tau/4).
    """
    if lam <= 0.0:
        raise ValueError(f"need lambda > 0, got {lam}")
    if mu <= -1.0:
        raise ValueError(f"need mu > -1, got {mu}")
    if tau <= 0.0:
        raise ValueError(f"need tau > 0, got {tau}")
    return (
        mu * math.log(lam / 2.0)
        + 0.5 * math.log(math.pi)
        + (mu + 0.5) * math.log(tau)
        + lam * lam * tau / 4.0
    )


def log_qp_large_tau(P, mu, kappa, nu, tau: float) -> tuple[float, float]:
    """(log magnitude, sign) of the leading large-tau form of the radial integral.

    Q_P(tau) ~ (-1)^n c_n sqrt(pi) (nu+kappa+2n)^mu / 2^(mu+nu+kappa+2n)
    * tau^(mu+1/2) e^((kappa+nu+2n)^2 tau / 4), with c_n the top coefficient
    of P.  Requires kappa > 0 and nu > 0.
    """
    if float(nu) <= 0.0 or float(kappa) <= 0.0:
        raise ValueError(f"need nu > 0 and kappa > 0, got nu={nu}, kappa={kappa}")
    if float(mu) + float(kappa) <= -1.0:
        raise ValueError("need mu + kappa > -1")
    if tau <= 0.0:
        raise ValueError(f"need tau > 0, got {tau}")
    cs = _as_float_coeffs(P)
    cn, n = cs[-1], len(cs) - 1
    mu, kappa, nu = float(mu), float(kappa), float(nu)
    lam = kappa + nu + 2.0 * n
    logmag = (
        math.log(abs(cn))
        + 0.5 * math.log(math.pi)
        + mu * math.log(lam)
        - (mu + nu + kappa + 2.0 * n) * math.log(2.0)
        + (mu + 0.5) * math.log(tau)
        + lam * lam * tau / 4.0
    )
    sign = math.copysign(1.0, cn) * (1.0 if n % 2 == 0 else -1.0)
    return logmag, sign


def central_predict(n: int, mu: Rational, kappa: Rational,
                    nu: Rational) -> CentralPrediction:
    """Exact centrality predictions for the degree-n member of a family."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    mu_f = Fraction(mu)
    kappa_f = Fraction(kappa)
    nu_f = Fraction(nu)
    alpha = n * (nu_f + kappa_f + n)
    c_n1 = Fraction(-2 * n) * (nu_f + kappa_f + n) / (mu_f + kappa_f + 1)
    if n == 0:
        mag = 1.0
    else:
        base = (nu_f + kappa_f) / (nu_f + kappa_f + 2 * n)
        mag = 4.0 ** n * float(base) ** float(mu_f)
    return CentralPrediction(alpha_n=alpha, c_n1=c_n1, c_nn_magnitude=mag)
