"""Truncated formal power series with exact rational coefficients.

A series is known modulo q^(M+1) where M is its truncation order.  All
arithmetic is exact over Fraction; binary operations truncate to the
minimum of the two orders so precision loss is always explicit.

The inner sums of multiplication, inversion, exp and log run on Python
ints: each operand is scaled to integer numerators over the lcm of its
denominators, and the coefficients already computed are kept over one
running common denominator.  Each output coefficient is then a single
reduced Fraction, so a series still holds reduced Fractions only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class SeriesError(ValueError):
    """Base class for precondition violations on series operations."""


class ZeroConstantTerm(SeriesError):
    """Inversion requires a nonzero constant term."""


class NonzeroConstantTerm(SeriesError):
    """exp requires constant term 0."""


class ConstantTermNotOne(SeriesError):
    """log and rational powers require constant term 1."""


class PositiveValuationRequired(SeriesError):
    """Composition requires the inner series to have constant term 0."""


class NotReversible(SeriesError):
    """Reversion requires constant term 0 and an invertible linear term."""


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _scaled(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators: c_k = nums[k]/den."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _push(nums: list[int], den: int, c: Fraction, w: int = 1) -> int:
    """Append w.c to the numerators over den and return the new den.

    The list is rescaled in place only when c's denominator does not
    divide den.
    """
    q = c.denominator
    if den % q:
        f = q // gcd(den, q)
        nums[:] = [n * f for n in nums]
        den *= f
    nums.append(w * c.numerator * (den // q))
    return den


class RatSeries:
    """A power series truncated at an explicit order, coefficients exact.

    >>> s = RatSeries([1, 1, 1])        # 1 + q + q^2, order 2
    >>> (s * s).coeffs
    (Fraction(1, 1), Fraction(2, 1), Fraction(3, 1))
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        self._coeffs = tuple(cs)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "RatSeries":
        return cls([0], order=order)

    @classmethod
    def one(cls, order: int) -> "RatSeries":
        return cls([1], order=order)

    @classmethod
    def identity(cls, order: int) -> "RatSeries":
        """The series q."""
        if order < 1:
            raise ValueError("q needs order >= 1")
        return cls([0, 1], order=order)

    # -- structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, m: int) -> Fraction:
        if not 0 <= m <= self.order:
            raise IndexError(f"coefficient {m} outside truncation order {self.order}")
        return self._coeffs[m]

    def truncate(self, order: int) -> "RatSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return RatSeries(self._coeffs[: order + 1])

    def to_strings(self) -> list[str]:
        """Coefficients as "num/den" (or "num" when the denominator is 1)."""
        return [str(c) for c in self._coeffs]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:7])
        if self.order > 6:
            shown += ", ..."
        return f"RatSeries([{shown}]; order={self.order})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "RatSeries | Scalar") -> "RatSeries":
        if isinstance(other, (int, Fraction)):
            cs = list(self._coeffs)
            cs[0] += other
            return RatSeries(cs)
        if not isinstance(other, RatSeries):
            return NotImplemented
        M = min(self.order, other.order)
        return RatSeries([self._coeffs[m] + other._coeffs[m] for m in range(M + 1)])

    __radd__ = __add__

    def __neg__(self) -> "RatSeries":
        return RatSeries([-c for c in self._coeffs])

    def __sub__(self, other: "RatSeries | Scalar") -> "RatSeries":
        if not isinstance(other, (int, Fraction, RatSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "RatSeries":
        return (-self) + other

    def __mul__(self, other: "RatSeries | Scalar") -> "RatSeries":
        if isinstance(other, (int, Fraction)):
            return RatSeries([c * other for c in self._coeffs])
        if not isinstance(other, RatSeries):
            return NotImplemented
        M = min(self.order, other.order)
        a, da = _scaled(self._coeffs[: M + 1])
        b, db = _scaled(other._coeffs[: M + 1])
        den = da * db
        return RatSeries(
            [Fraction(sum(map(mul, a[: k + 1], b[k::-1])), den) for k in range(M + 1)]
        )

    __rmul__ = __mul__

    def inverse(self) -> "RatSeries":
        """Multiplicative inverse by back-substitution; needs a[0] != 0."""
        if self._coeffs[0] == 0:
            raise ZeroConstantTerm("cannot invert a series with constant term 0")
        M = self.order
        a, da = _scaled(self._coeffs)
        # out_m = -(1/a_0) sum_{k=1..m} a_k.out_{m-k}, with out_j = nums[j]/den
        c = Fraction(da, a[0])
        out, nums, den = [c], [c.numerator], c.denominator
        for m in range(1, M + 1):
            c = Fraction(-sum(map(mul, a[1 : m + 1], nums[m - 1 :: -1])), den * a[0])
            den = _push(nums, den, c)
            out.append(c)
        return RatSeries(out)

    def exp(self) -> "RatSeries":
        """Formal exponential; needs a[0] = 0.

        Recurrence from f' = a'.f in q-derivative form:
        m.f_m = sum_{k=1..m} k.a_k.f_{m-k}.
        """
        if self._coeffs[0] != 0:
            raise NonzeroConstantTerm("exp needs constant term 0")
        M = self.order
        a, da = _scaled(self._coeffs)
        ka = [k * x for k, x in enumerate(a)]
        # f_j = nums[j]/den
        f, nums, den = [Fraction(1)], [1], 1
        for m in range(1, M + 1):
            c = Fraction(sum(map(mul, ka[1 : m + 1], nums[m - 1 :: -1])), m * da * den)
            den = _push(nums, den, c)
            f.append(c)
        return RatSeries(f)

    def log(self) -> "RatSeries":
        """Formal logarithm; needs a[0] = 1.

        Recurrence from a.g' = a' in q-derivative form:
        m.g_m = m.a_m - sum_{k=1..m-1} k.g_k.a_{m-k}.
        """
        if self._coeffs[0] != 1:
            raise ConstantTermNotOne("log needs constant term 1")
        M = self.order
        a, da = _scaled(self._coeffs)
        # k.g_k = nums[k]/den
        g, nums, den = [Fraction(0)], [0], 1
        for m in range(1, M + 1):
            s = m * a[m] * den - sum(map(mul, nums[1:m], a[m - 1 : 0 : -1]))
            c = Fraction(s, m * da * den)
            den = _push(nums, den, c, m)
            g.append(c)
        return RatSeries(g)

    def pow_rat(self, e: Scalar) -> "RatSeries":
        """a^e for rational e as exp(e.log(a)); needs a[0] = 1."""
        if self._coeffs[0] != 1:
            raise ConstantTermNotOne("rational powers need constant term 1")
        e = _as_fraction(e)
        return (self.log() * e).exp()

    def __pow__(self, e: Scalar) -> "RatSeries":
        # nonnegative integer exponents work on any series; everything else
        # goes through exp/log and needs constant term 1
        if isinstance(e, int) and e >= 0:
            result = RatSeries.one(self.order)
            base = self
            n = e
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result
        return self.pow_rat(e)

    def compose(self, inner: "RatSeries") -> "RatSeries":
        """self(inner(q)) truncated; needs inner[0] = 0."""
        if inner._coeffs[0] != 0:
            raise PositiveValuationRequired("composition needs inner constant term 0")
        M = min(self.order, inner.order)
        g = inner.truncate(M) if inner.order > M else inner
        out = RatSeries([self._coeffs[min(self.order, M)]], order=M)
        # Horner from the top coefficient down
        for i in range(min(self.order, M) - 1, -1, -1):
            out = out * g + self._coeffs[i]
        return out

    def revert(self) -> "RatSeries":
        """Compositional inverse by Lagrange inversion.

        Needs g[0] = 0 and g[1] != 0.  With the unit series p = q/g,
        n.h_n = [q^(n-1)] p^n.  Reverting q + q^2 gives signed Catalan numbers:

        >>> RatSeries([0, 1, 1], order=4).revert().coeffs
        (Fraction(0, 1), Fraction(1, 1), Fraction(-1, 1), Fraction(2, 1), Fraction(-5, 1))
        """
        g = self._coeffs
        if g[0] != 0 or self.order < 1 or g[1] == 0:
            raise NotReversible("reversion needs g[0] = 0 and g[1] != 0")
        M = self.order
        p = RatSeries(g[1:]).inverse()
        power = RatSeries.one(M - 1)
        h = [Fraction(0)]
        for n in range(1, M + 1):
            power = power * p
            h.append(power[n - 1] / n)
        return RatSeries(h)
