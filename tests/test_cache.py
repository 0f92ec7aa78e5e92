"""Cache store semantics and the persistent file format."""

import errno
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from severi import (
    CacheCorruption,
    CacheStore,
    InvalidState,
    ParseError,
    VersionMismatch,
    relative_severi,
    severi_degree,
    severi_table,
)
from severi import engine
from severi.engine import CACHE_MAGIC, CACHE_VERSION, cache_load, cache_save
from severi.tangency import state_key


def reference_cache_load(path):
    """The per-line loader that cache_load replaced, kept as its reference:
    every field parsed, the key built by state_key, stored by put."""
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(f"cache file {path} is empty")
    header = lines[0].split()
    if len(header) != 2 or header[0] != CACHE_MAGIC:
        raise ParseError(f"cache file {path} has no {CACHE_MAGIC} header")
    if header[1] != CACHE_VERSION:
        raise VersionMismatch(f"cache file {path} is version {header[1]}")

    def parts(text):
        return [int(p) for p in text.split(",")] if text != "-" else []

    store = CacheStore()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        try:
            d, delta = int(fields[0]), int(fields[1])
            key = state_key(d, delta, parts(fields[2]), parts(fields[3]))
            value = int(fields[4])
            if value < 0 or str(value) != fields[4]:
                raise ValueError(f"count {fields[4]!r} is not a plain nonnegative decimal")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        store.put(key, value)
    return store


def test_put_get_and_counters():
    store = CacheStore()
    key = (2, 1, (), (2,))
    assert store.get(key) is None
    assert store.misses == 1
    store.put(key, 3)
    assert store.get(key) == 3
    assert store.hits == 1
    assert len(store) == 1
    assert key in dict(store.items())


def test_put_same_value_is_idempotent():
    store = CacheStore()
    key = (2, 1, (), (2,))
    store.put(key, 3)
    store.put(key, 3)
    assert len(store) == 1


def test_put_refuses_degree_zero_and_the_store_still_saves(tmp_path):
    # a d = 0 line is one cache_load refuses, so the store must not hold it
    store = CacheStore()
    store.put((2, 1, (), (2,)), 3)
    with pytest.raises(InvalidState):
        store.put((0, 0, (), ()), 5)
    path = tmp_path / "severi.cache"
    cache_save(store, path)
    assert list(cache_load(path).items()) == [((2, 1, (), (2,)), 3)]


@pytest.mark.parametrize("value", [-5, 2.5, 3.0, True, "3", None])
def test_put_refuses_a_count_that_is_not_a_nonnegative_int(tmp_path, value):
    # cache_save would write it and cache_load refuse the file from then on
    store = CacheStore()
    store.put((2, 1, (), (2,)), 3)
    with pytest.raises(ValueError, match="a count must be an int >= 0"):
        store.put((3, 1, (), (3,)), value)
    path = tmp_path / "severi.cache"
    cache_save(store, path)
    assert list(cache_load(path).items()) == [((2, 1, (), (2,)), 3)]


def test_conflicting_put_is_a_hard_error():
    store = CacheStore()
    key = (2, 1, (), (2,))
    store.put(key, 3)
    with pytest.raises(CacheCorruption):
        store.put(key, 4)


def test_round_trip_is_bit_exact(tmp_path):
    store = CacheStore()
    severi_table(4, 3, cache=store)
    severi_degree(3, 1, cache=store)
    path = tmp_path / "severi.cache"
    cache_save(store, path)
    first = path.read_bytes()
    assert first.startswith(b"SEVERI-CACHE v1\n")
    loaded = cache_load(path)
    assert dict(loaded.items()) == dict(store.roots())
    cache_save(loaded, path)
    assert path.read_bytes() == first
    # a blank line between two entries is skipped
    lines = first.decode().splitlines(keepends=True)
    path.write_text("".join([*lines[:2], "\n", *lines[2:]]))
    assert dict(cache_load(path).items()) == dict(store.roots())


def test_loaded_cache_serves_queries(tmp_path):
    store = CacheStore()
    expected = severi_degree(4, 2, cache=store)
    path = tmp_path / "severi.cache"
    cache_save(store, path)
    warm = cache_load(path)
    assert severi_degree(4, 2, cache=warm) == expected
    assert warm.hits >= 1


def test_header_only_file_is_empty_cache(tmp_path):
    path = tmp_path / "c"
    path.write_text("SEVERI-CACHE v1\n")
    assert len(cache_load(path)) == 0


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "c"
    path.write_text("")
    with pytest.raises(ParseError):
        cache_load(path)


def test_unknown_version_is_rejected(tmp_path):
    path = tmp_path / "c"
    path.write_text("SEVERI-CACHE v2\n1 0 - 1 1\n")
    with pytest.raises(VersionMismatch):
        cache_load(path)


def test_foreign_header_is_a_parse_error(tmp_path):
    path = tmp_path / "c"
    path.write_text("not a cache\n")
    with pytest.raises(ParseError):
        cache_load(path)


@pytest.mark.parametrize(
    "line",
    [
        "1 0 - 1",  # missing value
        "1 0 - 1 x",  # non-integer value
        "1 0 - 2 1",  # weight inconsistent with degree
        "0 0 - - 1",  # degree out of range
        "1 0 - -1 1",  # negative part
        # counts read back only as cache_save writes them
        "3 1 - 3 -7",
        "3 1 - 3 +12",
        "3 1 - 3 1_5",
        "3 1 - 3 007",
        "3 1 - 3 -0",
        # and so are the key fields: each of these would read as (3, 1, (), (3,))
        "+3 1 - 3 12",
        "3 01 - 3 12",
        "3 1 - +3 12",
        "3 1 - 03 12",
        "3 1 - 3,0 12",
        "3 1 0 3 12",
        "3 1_0 - 3 12",  # (3, 10, (), (3,))
        "3 -1 - 3 12",
    ],
)
def test_malformed_lines_are_parse_errors(tmp_path, line):
    path = tmp_path / "c"
    path.write_text(f"SEVERI-CACHE v1\n{line}\n")
    with pytest.raises(ParseError):
        cache_load(path)
    # again below lines that bring up the texts "-" and "1".."3", so that
    # the line's sequences are read from the load's text table
    path.write_text(f"SEVERI-CACHE v1\n1 0 - 1 1\n2 0 - 2 1\n3 0 - 3 1\n{line}\n")
    with pytest.raises(ParseError) as err:
        cache_load(path)
    assert ":5:" in str(err.value)


def test_inconsistent_state_line_names_the_broken_invariant(tmp_path):
    path = tmp_path / "c"
    path.write_text("SEVERI-CACHE v1\n1 0 - 2 1\n")
    with pytest.raises(ParseError) as err:
        cache_load(path)
    assert ":2:" in str(err.value)
    assert "weight(alpha) + weight(beta)" in str(err.value)


def test_rejected_lines_leave_the_sequence_table_alone(tmp_path):
    far = "0," * 96 + "1"  # one tangency of order 97, which no computation reaches
    seqs = len(engine._SEQS)
    for line in (
        f"1 0 - {far} 1",  # d is not I(alpha) + I(beta)
        f"97 1_0 - {far} 5",
        f"97 1 - {far} +5",
        f"97 1 - {far},0 5",
        f"97 1 {far},0 - 5",
    ):
        path = tmp_path / "c"
        path.write_text(f"SEVERI-CACHE v1\n{line}\n")
        for _ in range(2):
            with pytest.raises(ParseError):
                cache_load(path)
        assert len(engine._SEQS) == seqs


def test_conflicting_file_entries_are_corruption(tmp_path):
    path = tmp_path / "c"
    path.write_text("SEVERI-CACHE v1\n2 1 - 2 3\n2 1 - 2 4\n")
    with pytest.raises(CacheCorruption):
        cache_load(path)


def test_tangency_text_round_trips_in_file(tmp_path):
    store = CacheStore()
    store.put((3, 1, (1,), (0, 1)), 7)
    store.put((4, 0, (2, 1), ()), 9)
    path = tmp_path / "c"
    cache_save(store, path)
    body = path.read_text().splitlines()[1:]
    assert body == ["3 1 1 0,1 7", "4 0 2,1 - 9"]
    assert dict(cache_load(path).items()) == dict(store.items())


# ------------------------------------------------------ what the file persists

DATA = pathlib.Path(__file__).resolve().parent / "data"


def test_fresh_table_file_holds_exactly_the_grid(tmp_path):
    store = CacheStore()
    severi_table(10, 6, cache=store)
    path = tmp_path / "c"
    cache_save(store, path)
    grid = {(d, delta, (), (d,)) for d in range(1, 11) for delta in range(7)}
    assert len(store) > len(grid)  # the memo still holds every state
    assert {key for key, _ in cache_load(path).items()} == grid
    assert len(path.read_text().splitlines()) == 1 + 70


def test_file_with_intermediate_lines_still_loads(tmp_path):
    # written by the version that persisted every state: `table --dmax 5
    # --deltamax 3` then `count --d 4 --delta 1 --alpha 1 --beta 3`
    old = DATA / "parent_v1.cache"
    loaded = cache_load(old)
    assert len(loaded) == 127
    fresh = CacheStore()
    assert severi_table(5, 3, cache=loaded) == severi_table(5, 3, cache=fresh)
    assert relative_severi(4, 1, (1,), (3,), cache=loaded) == 27
    assert loaded.misses == 0
    # its lines are all roots now, so a save keeps them unchanged
    path = tmp_path / "c"
    cache_save(loaded, path)
    assert path.read_bytes() == old.read_bytes()


def test_save_merges_the_roots_already_in_the_file(tmp_path):
    path = tmp_path / "c"
    first, second = CacheStore(), CacheStore()
    severi_degree(4, 2, cache=first)  # lo + 2 at delta = 2: the recursion's, one root
    relative_severi(4, 1, (1,), (3,), cache=second)
    cache_save(first, path)
    cache_save(second, path)
    assert dict(cache_load(path).items()) == {
        (4, 2, (), (4,)): 225,
        (4, 1, (1,), (3,)): 27,
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "c.lock"]


def test_save_merge_check_counts_no_lookup(tmp_path):
    path = tmp_path / "c"
    first, second = CacheStore(), CacheStore()
    severi_degree(5, 2, cache=first)
    severi_table(5, 3, cache=second)
    cache_save(first, path)
    counters = (second.hits, second.misses, second.root_count)
    cache_save(second, path)
    assert (second.hits, second.misses, second.root_count) == counters


def test_save_refuses_a_file_that_contradicts_the_store(tmp_path):
    path = tmp_path / "c"
    path.write_text("SEVERI-CACHE v1\n2 1 - 2 4\n")
    store = CacheStore()
    severi_degree(2, 1, cache=store)
    with pytest.raises(CacheCorruption):
        cache_save(store, path)
    assert path.read_text() == "SEVERI-CACHE v1\n2 1 - 2 4\n"


def test_load_reads_a_missing_file_as_an_empty_store(tmp_path):
    store = cache_load(tmp_path / "none")
    assert (len(store), store.root_count) == (0, 0)
    assert list(tmp_path.iterdir()) == []  # and creates nothing


def test_save_counts_a_file_removed_under_the_lock_as_empty(tmp_path, monkeypatch):
    path = tmp_path / "c"
    path.write_text("SEVERI-CACHE v1\n2 1 - 2 3\n")
    load = engine.cache_load

    def removed_first(p):
        os.remove(p)  # as by `severi cache clear`, which takes no lock
        return load(p)

    monkeypatch.setattr(engine, "cache_load", removed_first)
    store = CacheStore()
    severi_degree(3, 1, cache=store)
    cache_save(store, path)
    assert path.read_text() == "SEVERI-CACHE v1\n3 1 - 3 12\n"


def test_failed_save_leaves_the_file_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "c"
    first, second = CacheStore(), CacheStore()
    severi_degree(3, 1, cache=first)
    cache_save(first, path)
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", disk_full)
    severi_degree(4, 1, cache=second)
    with pytest.raises(OSError) as exc:
        cache_save(second, path)
    assert exc.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "c.lock"]


# ------------------------------------------------ the loader against its reference


@st.composite
def severi_keys(draw):
    """A valid state key with d <= 12; alpha takes some of the parts."""
    d = draw(st.integers(1, 12))
    alpha, beta = [0] * d, [0] * d
    left = d
    while left:
        k = draw(st.integers(1, left))
        (alpha if draw(st.booleans()) else beta)[k - 1] += 1
        left -= k
    return state_key(d, draw(st.integers(0, 70)), alpha, beta)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(severi_keys(), st.integers(0, 10**40), max_size=30))
def test_load_agrees_with_the_reference_loader(entries):
    store = CacheStore()
    for key, value in entries.items():
        store.put(key, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c"
        cache_save(store, path)
        written = path.read_bytes()
        loaded, reference = cache_load(path), reference_cache_load(path)
        assert list(loaded.items()) == list(reference.items()) == list(store.roots())
        assert list(loaded.roots()) == list(reference.roots())
        again = pathlib.Path(tmp) / "again"
        cache_save(loaded, again)
        assert again.read_bytes() == written
