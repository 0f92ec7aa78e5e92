"""The fixed quasimodular series u(q), B3(q), B4(q) and the discriminant.

With G2 = -1/24 + sum sigma1(n) q^n and D = q.d/dq:
u = D(G2), B3 = D(G2)/q, B4 = (Delta/q).(D^2(G2)/q).  All four series
have integer coefficients; u = q.B3 identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import sigma1
from .series import RatSeries


def u_series(order: int) -> RatSeries:
    """u = D(G2): coefficient of q^n is n.sigma1(n)."""
    if order < 1:
        raise ValueError("u needs order >= 1")
    return RatSeries([0] + [n * sigma1(n) for n in range(1, order + 1)])


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
    return RatSeries([0, *RatSeries(euler).pow_rat(24).coeffs])


@dataclass(frozen=True)
class FormCatalog:
    """The forms needed by the B-series pipeline, all at one order."""

    order: int
    u: RatSeries
    b3: RatSeries
    b4: RatSeries
    delta_form: RatSeries

    def __post_init__(self) -> None:
        assert self.u.coeffs[:2] == (0, 1)[: self.order + 1]
        assert self.b3[0] == 1
        assert self.b4[0] == 1
        assert self.delta_form.coeffs[:2] == (0, 1)[: self.order + 1]


def form_catalog(order: int) -> FormCatalog:
    """Build u, B3, B4 and Delta at the given truncation order.

    u and Delta are built once, to order + 1, and B3 and B4 read off
    them: B3 = u/q, and D^2(G2)/q has coefficient (m+1).B3_m at q^m.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    u, delta = u_series(order + 1), delta_series(order + 1)
    b3 = RatSeries(u.coeffs[1:])
    ddg2_over_q = RatSeries([(m + 1) * c for m, c in enumerate(b3.coeffs)])
    return FormCatalog(
        order=order,
        u=u.truncate(order),
        b3=b3,
        b4=RatSeries(delta.coeffs[1:]) * ddg2_over_q,
        delta_form=delta.truncate(order),
    )
