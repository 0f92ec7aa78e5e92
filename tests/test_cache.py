"""Cache store semantics and the persistent file format."""

import pathlib

import pytest

from severi import (
    CacheCorruption,
    CacheStore,
    ParseError,
    VersionMismatch,
    relative_severi,
    severi_degree,
    severi_table,
)
from severi.engine import cache_load, cache_save


def test_put_get_and_counters():
    store = CacheStore()
    key = (2, 1, (), (2,))
    assert store.get(key) is None
    assert store.misses == 1
    store.put(key, 3)
    assert store.get(key) == 3
    assert store.hits == 1
    assert len(store) == 1
    assert key in store


def test_put_same_value_is_idempotent():
    store = CacheStore()
    key = (2, 1, (), (2,))
    store.put(key, 3)
    store.put(key, 3)
    assert len(store) == 1


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
    ],
)
def test_malformed_lines_are_parse_errors(tmp_path, line):
    path = tmp_path / "c"
    path.write_text(f"SEVERI-CACHE v1\n{line}\n")
    with pytest.raises(ParseError):
        cache_load(path)


def test_inconsistent_state_line_names_the_broken_invariant(tmp_path):
    path = tmp_path / "c"
    path.write_text("SEVERI-CACHE v1\n1 0 - 2 1\n")
    with pytest.raises(ParseError) as err:
        cache_load(path)
    assert ":2:" in str(err.value)
    assert "weight(alpha) + weight(beta)" in str(err.value)


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
    severi_degree(5, 2, cache=first)
    relative_severi(4, 1, (1,), (3,), cache=second)
    cache_save(first, path)
    cache_save(second, path)
    assert dict(cache_load(path).items()) == {
        (5, 2, (), (5,)): 882,
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
