"""The fixed quasimodular series u(q), B3(q), B4(q) and the discriminant.

With G2 = -1/24 + sum sigma1(n) q^n and D = q.d/dq:
u = D(G2), B3 = D(G2)/q, B4 = (Delta/q).(D^2(G2)/q).  All four series
have integer coefficients; u = q.B3 identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .series import RatSeries


def sigma1(n: int) -> int:
    """Sum of the divisors of n.

    >>> sigma1(6)
    12
    """
    if n < 1:
        raise ValueError("sigma1 is defined for positive integers")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            other = n // d
            if other != d:
                total += other
    return total


def u_series(order: int) -> RatSeries:
    """u = D(G2): coefficient of q^n is n.sigma1(n)."""
    if order < 1:
        raise ValueError("u needs order >= 1")
    return RatSeries([0] + [n * sigma1(n) for n in range(1, order + 1)])


def b3_series(order: int) -> RatSeries:
    """B3 = D(G2)/q: coefficient of q^m is (m+1).sigma1(m+1)."""
    if order < 1:
        raise ValueError("B3 needs order >= 1")
    return RatSeries([(m + 1) * sigma1(m + 1) for m in range(order + 1)])


def delta_series(order: int) -> RatSeries:
    """The discriminant Delta = q . prod_{n>=1} (1 - q^n)^24.

    The product is Euler's pentagonal series: prod (1 - q^n) is the sum
    over all integers k of (-1)^k q^{k(3k-1)/2}.
    """
    if order < 1:
        raise ValueError("Delta needs order >= 1")
    euler = [0] * order  # q^0 .. q^(order-1)
    for k in range(-order, order + 1):
        n = k * (3 * k - 1) // 2
        if n < order:
            euler[n] = -1 if k % 2 else 1
    return RatSeries([0, *(RatSeries(euler) ** 24).coeffs])


def b4_series(order: int) -> RatSeries:
    """B4 = (Delta/q).(D^2(G2)/q), where D^2(G2) has coefficient n^2.sigma1(n)."""
    if order < 1:
        raise ValueError("B4 needs order >= 1")
    delta_over_q = RatSeries(delta_series(order + 1).coeffs[1:])
    ddg2_over_q = RatSeries([(m + 1) ** 2 * sigma1(m + 1) for m in range(order + 1)])
    return delta_over_q * ddg2_over_q


@dataclass(frozen=True)
class FormCatalog:
    """The forms needed by the B-series pipeline, all at one order."""

    order: int
    u: RatSeries
    b3: RatSeries
    b4: RatSeries
    delta_form: RatSeries

    def __post_init__(self) -> None:
        assert self.u[0] == 0 and self.u[1] == 1
        assert self.b3[0] == 1
        assert self.b4[0] == 1
        assert self.delta_form[0] == 0 and self.delta_form[1] == 1


def form_catalog(order: int) -> FormCatalog:
    """Build u, B3, B4 and Delta at the given truncation order."""
    return FormCatalog(
        order=order,
        u=u_series(order),
        b3=b3_series(order),
        b4=b4_series(order),
        delta_form=delta_series(order),
    )
