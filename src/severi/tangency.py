"""Tangency sequences and the state bookkeeping of the recursion.

A tangency sequence stores, at index k-1, the number of tangency
conditions of order k against the fixed line.  Canonical form has no
trailing zeros; equality is structural.
"""

from __future__ import annotations

from typing import Iterable

TangencySeq = tuple[int, ...]
SeveriKey = tuple[int, int, TangencySeq, TangencySeq]


class InvalidState(ValueError):
    """Raised when (d, delta, alpha, beta) violates the state invariants."""


def canonical(parts: Iterable[int]) -> TangencySeq:
    """Trim trailing zeros; reject negative entries.

    >>> canonical([2, 0, 1, 0, 0])
    (2, 0, 1)
    """
    out = list(parts)
    for p in out:
        if p < 0:
            raise ValueError("tangency multiplicities must be nonnegative")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def weight(s: TangencySeq) -> int:
    """I(s) = sum of k.s_k over orders k."""
    return sum((i + 1) * v for i, v in enumerate(s))


def seq_to_text(s: TangencySeq) -> str:
    """Comma-separated parts; the empty sequence is the empty string."""
    return ",".join(str(v) for v in s)


def seq_from_text(text: str) -> TangencySeq:
    """The canonical sequence of comma-separated parts; "" is ()."""
    try:
        return canonical(int(p) for p in text.split(",")) if text else ()
    except ValueError as exc:
        raise ValueError(f"bad tangency text {text!r}: {exc}") from None


def state_key(
    d: int, delta: int, alpha: Iterable[int], beta: Iterable[int]
) -> SeveriKey:
    """The key (d, delta, alpha, beta) of a valid state: ints, alpha and beta canonical."""
    a, b = canonical(alpha), canonical(beta)
    wa, wb = weight(a), weight(b)  # a float or Fraction part makes its weight one too
    if not (isinstance(d, int) and isinstance(delta, int) and isinstance(wa + wb, int)):
        raise InvalidState(f"state {(d, delta, a, b)} has a number that is not an int")
    if d < 1:
        raise InvalidState(f"degree must be positive, got {d}")
    if delta < 0:
        raise InvalidState(f"node count must be nonnegative, got {delta}")
    if wa + wb != d:
        raise InvalidState(f"weight(alpha) + weight(beta) = {wa}+{wb} != d = {d}")
    return (d, delta, a, b)
