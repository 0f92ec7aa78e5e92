"""Node polynomials T_delta(d), thresholds, and the exp/log structure.

T_delta is the degree-2delta polynomial that equals N^{d,delta} for all
large d.  It is fitted by exact interpolation inside the polynomial
regime d >= delta that Block proves (arXiv:1006.0218) and never assumed
below it; the threshold scan finds where agreement actually starts.
The log of the generating function sum_delta T_delta(d) u^delta is
quadratic in d: the plane shadow of the B-series solution's linear
`forms`.  The Bell-polynomial reconstruction inverts that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .engine import CacheStore, InternalInconsistency, severi_degree
from .series import RatSeries, Scalar


class DegreeCheckFailed(InternalInconsistency):
    """The fitted polynomial missed the held-out guard point."""


def interpolate(xs: Sequence[int], ys: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Exact polynomial through (xs[i], ys[i]), as monomial coefficients.

    Newton divided differences expanded to the monomial basis, lowest
    degree first.  Data is exact, so no least squares: len(xs) points
    determine the unique polynomial of degree < len(xs).
    """
    n = len(xs)
    if n == 0 or n != len(ys):
        raise ValueError("interpolation needs matching nonempty samples")
    if len(set(xs)) != n:
        raise ValueError("interpolation nodes must be distinct")
    dd = [Fraction(y) for y in ys]
    # dd[i] becomes the order-i divided difference f[x_0..x_i]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # multiply by (x - xs[i]) and add dd[i]
        carry = Fraction(0)
        for j in range(n):
            coeffs[j], carry = carry - xs[i] * coeffs[j], coeffs[j]
        coeffs[0] += dd[i]
    return tuple(coeffs)


def _poly_eval(coeffs: Sequence[Fraction], d: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * d + c
    return acc


@dataclass(frozen=True)
class NodePolynomial:
    """T_delta with the window it was fitted on; the guard point held."""

    delta: int
    coeffs: tuple[Fraction, ...]  # lowest degree first, length 2*delta + 1
    fit_range: tuple[int, ...]

    def __call__(self, d: int) -> Fraction:
        return _poly_eval(self.coeffs, d)


def fit_node_polynomial(delta: int, cache: CacheStore | None = None) -> NodePolynomial:
    """Interpolate N^{d,delta} at d = delta+2 .. 3delta+2, guard at 3delta+3.

    The window sits inside the regime d >= delta where Block
    (arXiv:1006.0218) proves N^{d,delta} = T_delta(d), so the fit does
    not presuppose the conjectured threshold.
    """
    if delta < 0:
        raise ValueError("node count must be nonnegative")
    xs = tuple(range(delta + 2, 3 * delta + 3))
    ys = [severi_degree(d, delta, cache=cache) for d in xs]
    coeffs = interpolate(xs, ys)
    guard = 3 * delta + 3
    predicted = _poly_eval(coeffs, guard)
    actual = severi_degree(guard, delta, cache=cache)
    if predicted != actual:
        raise DegreeCheckFailed(
            f"T_{delta}({guard}) = {predicted} but the count is {actual}"
        )
    if delta >= 1 and coeffs[-1] == 0:
        raise DegreeCheckFailed(f"T_{delta} degenerated below degree {2 * delta}")
    return NodePolynomial(delta=delta, coeffs=coeffs, fit_range=xs)


class ThresholdWitness(NamedTuple):
    d: int
    predicted: Fraction
    actual: int


@dataclass(frozen=True)
class ThresholdResult:
    delta: int
    threshold: int
    witness: ThresholdWitness | None  # the mismatch at threshold - 1


def threshold_report(delta: int, cache: CacheStore | None = None) -> ThresholdResult:
    """Least d* with T_delta(d) = N^{d,delta} on all of [d*, 3delta+3].

    The fit already checked every d in [delta+2, 3delta+3], its nodes and
    guard, so the scan starts at delta+1 and stops at the first mismatch
    going down: accidental agreement below a gap does not shrink the answer.
    """
    if delta < 1:
        raise ValueError("threshold needs delta >= 1")
    poly = fit_node_polynomial(delta, cache=cache)
    least = delta + 2
    witness = None
    for d in range(delta + 1, 0, -1):
        predicted = poly(d)
        actual = severi_degree(d, delta, cache=cache)
        if predicted == actual:
            least = d
        else:
            witness = ThresholdWitness(d, predicted, actual)
            break
    return ThresholdResult(delta=delta, threshold=least, witness=witness)


def threshold(delta: int, cache: CacheStore | None = None) -> int:
    return threshold_report(delta, cache=cache).threshold


@dataclass(frozen=True)
class LogForm:
    """q_kappa(d) = a2.d^2 + a1.d + a0, the plane shadow of a linear form."""

    kappa: int
    a2: Fraction
    a1: Fraction
    a0: Fraction

    def __call__(self, d: int) -> Fraction:
        return _poly_eval((self.a0, self.a1, self.a2), d)


def log_forms(delta_max: int, cache: CacheStore | None = None) -> list[LogForm]:
    """The forms q_kappa(d) = kappa! [u^kappa] log sum_delta T_delta(d) u^delta.

    The plane shadow (x, y, z, t) = (d^2, -3d, 9, 3) of the B-series
    solution's `forms` (X, Y, Z, T): a2, a1, a0 = X, -3Y, 9Z + 3T, each
    composed with q.  B1, B2 come from the counts at d = delta_max + 1 and
    delta_max + 2, where N^{d,delta} = T_delta(d) for every delta <=
    delta_max (Block, arXiv:1006.0218); d = delta_max + 3 is held out and
    must agree, else InconsistentSystem.
    """
    from . import gyz

    if delta_max < 1:
        raise ValueError("log forms need delta_max >= 1")
    low = delta_max + 1
    sol = gyz.extract_b_series(delta_max, (low, low + 1, low + 2), cache=cache)
    x, y, z, t = sol.forms
    plane = [s.compose(sol.q) for s in (x, -3 * y, 9 * z + 3 * t)]
    return [
        LogForm(kappa, *(math.factorial(kappa) * s[kappa] for s in plane))
        for kappa in range(1, delta_max + 1)
    ]


def _egf_exp(a: Sequence[Scalar]) -> RatSeries:
    """exp(sum a_k u^k/k!) to order len(a), with a_k = a[k-1]."""
    return RatSeries(
        [0] + [Fraction(x) / math.factorial(k) for k, x in enumerate(a, 1)]
    ).exp()


def bell_polynomial(delta: int, a: Sequence[Scalar]) -> Fraction:
    """Complete Bell polynomial P_delta = delta! [u^delta] exp(sum a_k u^k/k!)."""
    if delta < 0:
        raise ValueError("node count must be nonnegative")
    if len(a) < delta:
        raise ValueError(f"P_{delta} needs {delta} arguments, got {len(a)}")
    return _egf_exp(a[:delta])[delta] * math.factorial(delta)


def reconstruct_from_log_forms(
    delta_max: int, d: int, forms: Sequence[LogForm]
) -> list[Fraction]:
    """n_delta = P_delta(q_1(d), ..., q_delta(d))/delta! for delta <= delta_max.

    Equals [u^delta] exp(sum q_kappa(d) u^kappa/kappa!), which must
    reproduce the node-polynomial values T_delta(d).
    """
    by_kappa = {f.kappa: f for f in forms}
    if not by_kappa.keys() >= set(range(1, delta_max + 1)):
        raise ValueError("forms must cover every kappa <= delta_max")
    return list(_egf_exp([by_kappa[k](d) for k in range(1, delta_max + 1)]).coeffs)
