"""Memoized computation of relative Severi degrees N^{d,delta}(alpha,beta).

The count satisfies, with I = weight and |.| = size:

  N^{d,delta}(alpha,beta) =
      sum_{k: beta_k >= 1} k . N^{d,delta}(alpha+e_k, beta-e_k)
    + sum N^{d-1,delta'}(alpha',beta')
          . C(alpha,alpha') . C(beta',beta) . I^(beta'-beta)

where the second sum runs over alpha' <= alpha and beta' >= beta with
I(alpha') + I(beta') = d-1 and delta' = delta + |beta'| - |beta| - (d-1)
in the range 0 <= delta' <= (d-1)(d-2)/2.  Base cases: zero when
delta > d(d-1)/2 or the point count is negative; degree 1 counts a
single line when delta = 0.

Evaluation is iterative (explicit work stack): dependency chains have
length about d(d+3)/2 and must not touch the native call stack.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Iterator

from .tangency import (
    InvalidState,
    SeveriKey,
    TangencySeq,
    canonical,
    point_count,
    seq_from_text,
    seq_to_text,
    state_key,
    weight,
)

CACHE_MAGIC = "SEVERI-CACHE"
CACHE_VERSION = "v1"


class CacheCorruption(RuntimeError):
    """A stored value was contradicted; mathematical truth is immutable."""


class VersionMismatch(ValueError):
    """Cache file carries an unsupported version tag."""


class ParseError(ValueError):
    """Cache file is empty or malformed."""


class CacheStore:
    """Memo table keyed by canonical (d, delta, alpha, beta).

    Inserts through put() are conflict-checked: writing a different value
    for an existing key raises CacheCorruption.  The roots are the keys
    stored through put() or found by get(): the counts callers asked for,
    and all that cache_save persists.  hits and misses count root lookups
    through get(); the evaluation loop writes intermediate states into the
    table directly.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._data: dict[SeveriKey, int] = {}
        self._roots: set[SeveriKey] = set()

    def get(self, key: SeveriKey) -> int | None:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._roots.add(key)
        return value

    def put(self, key: SeveriKey, value: int) -> None:
        old = self._data.setdefault(key, value)
        if old != value:
            raise CacheCorruption(
                f"key {key} already holds {old}, refusing to store {value}"
            )
        self._roots.add(key)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: SeveriKey) -> bool:
        return key in self._data

    def items(self) -> Iterator[tuple[SeveriKey, int]]:
        return iter(sorted(self._data.items()))

    def roots(self) -> Iterator[tuple[SeveriKey, int]]:
        """The persisted part of the table, sorted like items()."""
        return iter(sorted((key, self._data[key]) for key in self._roots))

    @property
    def root_count(self) -> int:
        return len(self._roots)


_DEFAULT_CACHE = CacheStore()


def default_cache() -> CacheStore:
    """The process-wide memo table used when no cache is passed."""
    return _DEFAULT_CACHE


def _max_nodes(d: int) -> int:
    # a reduced degree-d curve has at most d(d-1)/2 nodes (d general lines)
    return d * (d - 1) // 2


def _immediate(d: int, delta: int, alpha: TangencySeq, beta: TangencySeq) -> int | None:
    if delta > _max_nodes(d):
        return 0
    if point_count(d, delta, beta) < 0:
        return 0
    if d == 1:
        return 1 if delta == 0 else 0
    return None


_PARTITIONS: dict[int, tuple[tuple[int, ...], ...]] = {0: ((),)}


def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n into parts >= 1, each descending."""
    got = _PARTITIONS.get(n)
    if got is not None:
        return got
    out: list[tuple[int, ...]] = []
    stack = [(n, n, ())]
    while stack:
        rem, maxp, cur = stack.pop()
        if rem == 0:
            out.append(cur)
            continue
        for p in range(1, min(rem, maxp) + 1):
            stack.append((rem - p, p, cur + (p,)))
    result = tuple(out)
    _PARTITIONS[n] = result
    return result


def _alpha_candidates(
    alpha: TangencySeq, wlo: int, whi: int
) -> Iterator[tuple[TangencySeq, int, int]]:
    """Sub-sequences alpha' <= alpha with weight in [wlo, whi].

    Yields (alpha', weight, C(alpha, alpha')).  Orders >= 2 are walked
    explicitly (their multiplicities are tiny); the order-1 entry is then
    forced by the target weight.
    """
    high = [i for i in range(1, len(alpha)) if alpha[i] > 0]
    a1 = alpha[0] if alpha else 0

    def walk(pos: int, wh: int, counts: dict[int, int], binom: int):
        if pos == len(high):
            lo = max(wlo, wh)
            for wprime in range(lo, whi + 1):
                c1 = wprime - wh
                if 0 <= c1 <= a1:
                    parts = [0] * len(alpha)
                    if alpha:
                        parts[0] = c1
                    for i, c in counts.items():
                        parts[i] = c
                    yield canonical(parts), wprime, binom * math.comb(a1, c1)
            return
        i = high[pos]
        for c in range(alpha[i] + 1):
            counts[i] = c
            yield from walk(pos + 1, wh + c * (i + 1), counts, binom * math.comb(alpha[i], c))
        del counts[i]

    yield from walk(0, 0, {}, 1)


def _transitions(key: SeveriKey) -> list[tuple[int, SeveriKey]]:
    """Weighted children of a state; the state's value is the dot product."""
    d, delta, alpha, beta = key
    out: list[tuple[int, SeveriKey]] = []
    if __debug__:
        pc = point_count(d, delta, beta)

    # move one unassigned order-k tangency onto an assigned point
    for i, b in enumerate(beta):
        if b:
            a2 = list(alpha) + [0] * (i + 1 - len(alpha))
            a2[i] += 1
            b2 = list(beta)
            b2[i] -= 1
            child = (d, delta, canonical(a2), canonical(b2))
            if __debug__:
                assert point_count(d, delta, child[3]) == pc - 1
            out.append((i + 1, child))

    # degenerate to degree d-1: alpha' <= alpha, beta' = beta + gamma,
    # I(gamma) = I(alpha) - I(alpha') - 1, delta' = delta + |gamma| - (d-1)
    ia = weight(alpha)
    mn_next = _max_nodes(d - 1)
    # 0 <= delta' <= mn_next pins I(alpha') to a window of width delta
    wlo = max(0, ia - d)
    whi = min(ia - 1, ia - d + delta)
    if whi < wlo:
        return out
    for alpha_p, wprime, c_alpha in _alpha_candidates(alpha, wlo, whi):
        W = ia - wprime - 1  # total weight of gamma
        e_hi = min(W, delta + W - (d - 1))  # excess(gamma) caps delta'
        e_lo = max(0, W - (mn_next + (d - 1) - delta))
        for excess in range(e_lo, e_hi + 1):
            for mu in _partitions(excess):
                # gamma has one order-(p+1) part per part p of mu, plus
                # m1 order-1 parts filling the weight budget
                m1 = W - excess - len(mu)
                if m1 < 0:
                    continue
                delta_p = delta + (W - excess) - (d - 1)
                coef = c_alpha
                top = mu[0] if mu else 0
                b2 = list(beta) + [0] * max(0, top + 1 - len(beta))
                if m1:
                    coef *= math.comb(b2[0] + m1, m1)
                    b2[0] += m1
                run_val = run_len = 0
                for p in mu + (-1,):
                    if p == run_val:
                        run_len += 1
                        continue
                    if run_len:
                        coef *= (run_val + 1) ** run_len
                        coef *= math.comb(b2[run_val] + run_len, run_len)
                        b2[run_val] += run_len
                    run_val, run_len = p, 1
                child = (d - 1, delta_p, alpha_p, canonical(b2))
                if __debug__:
                    assert 0 <= delta_p <= mn_next
                    assert point_count(d - 1, delta_p, child[3]) == pc - 1
                out.append((coef, child))
    return out


def _evaluate(root: SeveriKey, cache: CacheStore) -> int:
    cached = cache.get(root)
    if cached is not None:
        return cached
    # each state is stored once, so the DFS writes the table directly;
    # only the root goes through put(), which marks it for persistence
    data = cache._data
    stack = [root]
    children: dict[SeveriKey, list[tuple[int, SeveriKey]]] = {}
    while stack:
        key = stack[-1]
        if key in data:
            stack.pop()
            continue
        deps = children.get(key)
        if deps is None:
            value = _immediate(*key)
            if value is not None:
                data[key] = value
                stack.pop()
                continue
            deps = children[key] = _transitions(key)
        # post-order: a state is stored once all of its children are
        missing = [c for _, c in deps if c not in data]
        if missing:
            stack.extend(missing)
            continue
        data[key] = sum(coef * data[child] for coef, child in deps)
        del children[key]
        stack.pop()
    cache.put(root, data[root])
    return data[root]


def relative_severi(
    d: int,
    delta: int,
    alpha: Iterable[int] = (),
    beta: Iterable[int] | None = None,
    cache: CacheStore | None = None,
) -> int:
    """N^{d,delta}(alpha,beta): nodal degree-d curves with line tangencies.

    beta defaults to the absolute choice: all of the remaining weight
    d - weight(alpha) as order-1 intersections.
    """
    if beta is None:
        alpha = canonical(alpha)
        # an alpha heavier than d leaves beta empty, which state_key rejects
        beta = [max(d - weight(alpha), 0)]
    key = state_key(d, delta, alpha, beta)
    return _evaluate(key, cache if cache is not None else _DEFAULT_CACHE)


def severi_degree(d: int, delta: int, cache: CacheStore | None = None) -> int:
    """N^{d,delta}: delta-nodal degree-d curves through general points."""
    return relative_severi(d, delta, (), (d,), cache=cache)


def severi_table(
    dmax: int,
    deltamax: int,
    cache: CacheStore | None = None,
) -> list[list[int]]:
    """All N^{d,delta} for d <= dmax, delta <= deltamax, as rows per degree."""
    if dmax < 1 or deltamax < 0:
        raise InvalidState("table needs dmax >= 1 and deltamax >= 0")
    store = cache if cache is not None else _DEFAULT_CACHE
    queries = [(d, delta) for d in range(1, dmax + 1) for delta in range(deltamax + 1)]
    values = [severi_degree(d, delta, cache=store) for d, delta in queries]
    width = deltamax + 1
    return [values[i : i + width] for i in range(0, len(values), width)]


def cache_save(cache: CacheStore, path: str | os.PathLike[str]) -> None:
    """Write the store's roots, merged with the file's, as sorted lines.

    Each line reads "d delta alpha beta N" under a version header.  Saves
    to one path take an exclusive lock on "<path>.lock", re-read the file
    under it and keep its entries (a conflicting value raises
    CacheCorruption), then replace it through a synced temporary file in
    the same directory, so concurrent processes lose no entry.
    """
    import fcntl
    import tempfile

    path = os.fspath(path)
    with open(path + ".lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        merged = dict(cache.roots())
        mode = 0o644  # mkstemp creates 0o600; reuse the file's mode, or this
        if os.path.exists(path):
            mode = os.stat(path).st_mode & 0o777
            for key, value in cache_load(path).items():
                held = cache._data.get(key, value)
                if held != value:
                    raise CacheCorruption(
                        f"{path} holds {value} for key {key}, the store holds {held}"
                    )
                merged[key] = value
        lines = [f"{CACHE_MAGIC} {CACHE_VERSION}"]
        for (d, delta, alpha, beta), value in sorted(merged.items()):
            at = seq_to_text(alpha) or "-"
            bt = seq_to_text(beta) or "-"
            lines.append(f"{d} {delta} {at} {bt} {value}")
        directory, name = os.path.split(path)
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory or ".")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
                fh.flush()
                os.fchmod(fh.fileno(), mode)
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def cache_load(path: str | os.PathLike[str]) -> CacheStore:
    """Parse a cache file; every entry read is a root of the returned store.

    The round trip through cache_save is bit-exact.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(f"cache file {path} is empty")
    header = lines[0].split()
    if len(header) != 2 or header[0] != CACHE_MAGIC:
        raise ParseError(f"cache file {path} has no {CACHE_MAGIC} header")
    if header[1] != CACHE_VERSION:
        raise VersionMismatch(
            f"cache file {path} is version {header[1]}, expected {CACHE_VERSION}"
        )
    store = CacheStore()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        try:
            d, delta = int(fields[0]), int(fields[1])
            alpha = seq_from_text(fields[2] if fields[2] != "-" else "")
            beta = seq_from_text(fields[3] if fields[3] != "-" else "")
            key = state_key(d, delta, alpha, beta)  # InvalidState is a ValueError
            value = int(fields[4])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        store.put(key, value)
    return store
