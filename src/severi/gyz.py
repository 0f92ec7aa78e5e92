"""Surface invariants, plane generating series, B1/B2 extraction, prediction.

The product formula sum_delta n_delta u(q)^delta =
B1(q)^z B2(q)^y B3(q)^chi B4(q)^(-nu/2) leaves exactly two unknown
series once u, B3, B4 are fixed.  Both directions work on its log.
For the plane (z = 9, y = -3d, chi = (d^2 + 3d)/2 + 1) the log is a
quadratic in d, which `nodepoly.quadratic_log` reads once: its d^2 part
is log(B3)/2, as the read takes it from q(u)/u (the engine's
"Counts past degree lo + 2"), and its d and constant parts give log(B2)
and log(B1) in exact arithmetic.  Prediction reads the solution's linear
`forms` and composes them with the engine's q(u).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .engine import CacheStore, InternalInconsistency, low_degree, q_over_u, severi_degree
from .forms import form_catalog
from .nodepoly import quadratic_log
from .series import RatSeries
from .tangency import InvalidState


class DegreeTooSmall(ValueError):
    """A degree is below the regime d >= engine.low_degree(order), where
    N^{d,delta} = T_delta(d) for every delta <= order."""


class NonIntegralPrediction(InternalInconsistency):
    """A predicted count came out non-integral."""


@dataclass(frozen=True)
class Invariants:
    """(x, y, z, t) = (L.L, L.K, K.K, c2) for a line bundle L on a surface."""

    x: int
    y: int
    z: int
    t: int

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, int):
                raise ValueError(f"invariant {name} = {value!r} is not an int")
        if (self.z + self.t) % 12 != 0 or (self.x - self.y) % 2 != 0:
            raise ValueError(
                f"(x,y,z,t) = ({self.x},{self.y},{self.z},{self.t}) "
                "needs z + t = 0 (mod 12) and x = y (mod 2)"
            )

    @property
    def nu(self) -> int:
        return (self.z + self.t) // 12

    @property
    def chi(self) -> int:
        return (self.x - self.y) // 2 + self.nu


def plane_invariants(d: int) -> Invariants:
    """Degree-d plane curves: (d^2, -3d, 9, 3), so nu = 1, chi = (d^2+3d)/2 + 1."""
    if d < 1:
        raise ValueError("degree must be positive")
    return Invariants(x=d * d, y=-3 * d, z=9, t=3)


@dataclass(frozen=True)
class BSeriesSolution:
    """log B1, log B2, log B3, log B4 to `order`; d_used echoes the requested
    degrees, each >= engine.low_degree(order)."""

    order: int
    logs: tuple[RatSeries, RatSeries, RatSeries, RatSeries]
    d_used: tuple[int, ...]

    @cached_property  # each is an exp; bseries reads them twice
    def b1(self) -> RatSeries:
        return self.logs[0].exp()

    @cached_property
    def b2(self) -> RatSeries:
        return self.logs[1].exp()

    @cached_property
    def forms(self) -> tuple[RatSeries, RatSeries, RatSeries, RatSeries]:
        """(X, Y, Z, T) with log F = x.X + y.Y + z.Z + t.T, F = B1^z B2^y B3^chi B4^(-nu/2).

        With L_i = log B_i, nu = (z + t)/12 and chi = (x - y)/2 + nu,
        log F = z.L1 + y.L2 + chi.L3 - nu/2.L4
              = x.L3/2 + y.(L2 - L3/2) + z.(L1 + c) + t.c,  c = L3/12 - L4/24.
        Gottsche's linear form a_kappa(x, y, z, t) is then kappa! times
        [u^kappa] of (x.X + y.Y + z.Z + t.T) o q, and n_delta is
        [u^delta] exp(sum a_kappa u^kappa/kappa!).
        """
        l1, l2, l3, l4 = self.logs
        c = l3 * Fraction(1, 12) - l4 * Fraction(1, 24)
        return l3 * Fraction(1, 2), l2 - l3 * Fraction(1, 2), l1 + c, c

    @property
    def integral(self) -> bool:
        return all(c.denominator == 1 for c in (*self.b1.coeffs, *self.b2.coeffs))


def _check_degree(d: int, order: int) -> None:
    if d < low_degree(order):
        raise DegreeTooSmall(
            f"degree {d} is below low_degree({order}) = {low_degree(order)}; "
            "all delta <= order must sit in the polynomial regime"
        )


def plane_generating_series(d: int, order: int, cache: CacheStore | None = None) -> RatSeries:
    """Left side of the product formula for degree d: sum N^{d,delta} u(q)^delta.
    A float order: InvalidState."""
    if not isinstance(order, int):
        raise InvalidState(f"a generating series needs an int order, got {order!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    _check_degree(d, order)
    counts = [severi_degree(d, delta, cache=cache) for delta in range(order + 1)]
    return RatSeries(counts).compose(form_catalog(max(order, 1)).u)  # u needs order >= 1


def extract_b_series(
    order: int,
    d_list: "list[int] | tuple[int, ...] | set[int]",
    cache: CacheStore | None = None,
) -> BSeriesSolution:
    """Solve for B1, B2 from `nodepoly.quadratic_log`, one checked read.

    Composed with u, log sum_delta T_delta(d) u^delta = A.d^2 + B.d + C
    is 9.log(B1) - 3d.log(B2) + chi(d).log(B3) - log(B4)/2, chi(d) =
    (d^2 + 3d)/2 + 1.  The read's formula gives A = -log(q(u)/u)/2, so
    A o u is log(B3)/2, the form X, and log(B3) is 2.(A o u); B o u and
    C o u then give log(B2) and log(B1).  d_list needs two distinct
    degrees >= engine.low_degree(order); no count at them is read.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    degrees = tuple(sorted(set(map(operator.index, d_list))))
    if len(degrees) < 2:
        raise ValueError("extraction needs at least two distinct degrees")
    _check_degree(degrees[0], order)
    quadratic = quadratic_log(order, cache)  # before u: a float order is InvalidState
    forms = form_catalog(max(order, 1))
    a, b, c = (s.compose(forms.u) for s in quadratic)
    log_b3, log_b4 = 2 * a, forms.b4.truncate(order).log()
    log_b2 = a - b * Fraction(1, 3)
    log_b1 = (c - log_b3 + log_b4 * Fraction(1, 2)) * Fraction(1, 9)
    return BSeriesSolution(order=order, logs=(log_b1, log_b2, log_b3, log_b4), d_used=degrees)


def gyz_predict(
    inv: Invariants,
    sol: BSeriesSolution,
    order: int | None = None,
) -> list[int]:
    """Counts n_delta for delta <= order from the four invariants."""
    if order is None:
        order = sol.order
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > sol.order:
        raise ValueError(f"order {order} exceeds the solution's {sol.order}")
    x, y, z, t = (form.truncate(order) for form in sol.forms)
    q = RatSeries((0, *q_over_u(order + 1)), max(order, 1))  # q(u) = u.Q
    in_u = (inv.x * x + inv.y * y + inv.z * z + inv.t * t).compose(q).exp()
    for delta, c in enumerate(in_u.coeffs):
        if c.denominator != 1:
            raise NonIntegralPrediction(f"n_{delta} = {c} is not an integer")
    return [int(c) for c in in_u.coeffs]
