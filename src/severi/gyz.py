"""Surface invariants, plane generating series, B1/B2 extraction, prediction.

The product formula sum_delta n_delta u(q)^delta =
B1(q)^z B2(q)^y B3(q)^chi B4(q)^(-nu/2) leaves exactly two unknown
series once u, B3, B4 are fixed.  Plane data (z = 9, y = -3d)
turns each q-order into an overdetermined linear system for the log
coefficients of B1 and B2, solved pairwise in exact arithmetic; any
pair disagreement is a hard error, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import CacheStore, severi_degree
from .forms import FormCatalog, form_catalog
from .series import RatSeries


class DegreeTooSmall(ValueError):
    """A degree is below the safe regime d >= order + 1."""


class InconsistentSystem(RuntimeError):
    """Two extraction degrees disagree; the forms or the engine are wrong."""


class NonIntegralPrediction(RuntimeError):
    """A predicted count came out non-integral."""


class InvalidInvariants(ValueError):
    """(x, y, z, t) violates z + t = 0 (mod 12) or x = y (mod 2)."""


@dataclass(frozen=True)
class Invariants:
    """(x, y, z, t) = (L.L, L.K, K.K, c2) for a line bundle L on a surface."""

    x: int
    y: int
    z: int
    t: int

    def __post_init__(self) -> None:
        if (self.z + self.t) % 12 != 0 or (self.x - self.y) % 2 != 0:
            raise InvalidInvariants(
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
    """Extracted B1, B2 with the evidence for them."""

    order: int
    b1: RatSeries
    b2: RatSeries
    log_b1: RatSeries
    log_b2: RatSeries
    d_used: tuple[int, ...]
    consistency: tuple[int, ...]  # agreeing degree pairs per order 1..M
    integral: bool

    @property
    def consistent(self) -> bool:
        return all(npairs >= 1 for npairs in self.consistency)


def plane_generating_series(
    d: int,
    order: int,
    cache: CacheStore | None = None,
    forms: FormCatalog | None = None,
) -> RatSeries:
    """Left side of the product formula for degree d: sum N^{d,delta} u(q)^delta."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if d < order + 1:
        raise DegreeTooSmall(
            f"degree {d} is below order + 1 = {order + 1}; "
            "all delta <= order must sit in the polynomial regime"
        )
    if order == 0:
        return RatSeries.one(0)
    if forms is None or forms.order < order:
        forms = form_catalog(order)
    counts = [severi_degree(d, delta, cache=cache) for delta in range(order + 1)]
    return RatSeries(counts).compose(forms.u)


def extract_b_series(
    order: int,
    d_list: "list[int] | tuple[int, ...] | set[int]",
    cache: CacheStore | None = None,
    forms: FormCatalog | None = None,
) -> BSeriesSolution:
    """Solve for B1, B2 from plane data at the given degrees.

    For each degree, R_d = log(plane series) - chi(d).log(B3)
    + (1/2).log(B4); each order m then demands
    9.l1[m] - 3d.l2[m] = R_d[m], and every pair of degrees must produce
    the same exact solution (l1[m], l2[m]).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    degrees = tuple(sorted(set(int(d) for d in d_list)))
    if len(degrees) < 2:
        raise ValueError("extraction needs at least two distinct degrees")
    too_small = [d for d in degrees if d < order + 1]
    if too_small:
        raise DegreeTooSmall(
            f"degrees {too_small} are below order + 1 = {order + 1}"
        )
    if order == 0:
        one = RatSeries.one(0)
        zero = RatSeries.zero(0)
        return BSeriesSolution(
            order=0, b1=one, b2=one, log_b1=zero, log_b2=zero,
            d_used=degrees, consistency=(), integral=True,
        )
    if forms is None or forms.order < order:
        forms = form_catalog(order)
    log_b3 = forms.b3.truncate(order).log()
    log_b4 = forms.b4.truncate(order).log()
    residues = {}
    for d in degrees:
        plane = plane_generating_series(d, order, cache=cache, forms=forms)
        chi = plane_invariants(d).chi
        residues[d] = plane.log() - chi * log_b3 + Fraction(1, 2) * log_b4
    l1 = [Fraction(0)] * (order + 1)
    l2 = [Fraction(0)] * (order + 1)
    pair_counts = []
    for m in range(1, order + 1):
        solution = None
        pairs = 0
        for i in range(len(degrees)):
            for j in range(i + 1, len(degrees)):
                di, dj = degrees[i], degrees[j]
                ri, rj = residues[di][m], residues[dj][m]
                # subtracting the two equations eliminates l1
                y = (ri - rj) / (3 * (dj - di))
                x = (ri + 3 * di * y) / 9
                if solution is None:
                    solution = (x, y)
                elif solution != (x, y):
                    raise InconsistentSystem(
                        f"order {m}: degrees ({di},{dj}) give {(x, y)}, "
                        f"previous pairs gave {solution}"
                    )
                pairs += 1
        l1[m], l2[m] = solution
        pair_counts.append(pairs)
    log_b1 = RatSeries(l1)
    log_b2 = RatSeries(l2)
    b1 = log_b1.exp()
    b2 = log_b2.exp()
    integral = all(c.denominator == 1 for c in (*b1.coeffs, *b2.coeffs))
    return BSeriesSolution(
        order=order, b1=b1, b2=b2, log_b1=log_b1, log_b2=log_b2,
        d_used=degrees, consistency=tuple(pair_counts), integral=integral,
    )


def gyz_predict(
    inv: Invariants,
    sol: BSeriesSolution,
    forms: FormCatalog | None = None,
    order: int | None = None,
) -> list[int]:
    """Counts n_delta for delta <= order from the four invariants.

    Builds F = B1^z B2^y B3^chi B4^(-nu/2) and reads off the
    u-coefficients through reversion of u(q).
    """
    if order is None:
        order = sol.order
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > sol.order:
        raise ValueError(f"order {order} exceeds the solution's {sol.order}")
    if order == 0:
        return [1]
    if forms is None or forms.order < order:
        forms = form_catalog(order)
    product = (
        sol.b1.truncate(order).pow_rat(inv.z)
        * sol.b2.truncate(order).pow_rat(inv.y)
        * forms.b3.truncate(order).pow_rat(inv.chi)
        * forms.b4.truncate(order).pow_rat(Fraction(-inv.nu, 2))
    )
    u_inverse = forms.u.truncate(order).revert()
    in_u = product.compose(u_inverse)
    values = []
    for delta in range(order + 1):
        c = in_u[delta]
        if c.denominator != 1:
            raise NonIntegralPrediction(f"n_{delta} = {c} is not an integer")
        values.append(int(c))
    return values
