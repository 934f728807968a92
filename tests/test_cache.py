"""The on-disk world cache: keys, hits, misses, corruption."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.paper_report import full_report
from repro.cli import main
from repro.datasets import WorldConfig, build_world
from repro.datasets import cache as cache_module
from repro.datasets.cache import WorldCache, build_or_load_world, cache_key

TINY = WorldConfig(seed=21, n_dasu_users=30, n_fcc_users=8, days_per_year=1.0)


@pytest.fixture()
def cache(tmp_path) -> WorldCache:
    return WorldCache(tmp_path / "worlds")


class TestCacheKey:
    def test_stable_for_equal_configs(self):
        assert cache_key(TINY) == cache_key(dataclasses.replace(TINY))

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 22},
            {"n_dasu_users": 31},
            {"n_fcc_users": 9},
            {"days_per_year": 1.25},
            {"sample_interval_s": 60.0},
            {"ndt_tests_per_period": 11},
            {"address_constraint_rate": 0.2},
            {"price_selection_enabled": False},
            {"quality_suppression_enabled": False},
            {"demand_growth_enabled": False},
        ],
    )
    def test_any_field_change_changes_key(self, change):
        assert cache_key(dataclasses.replace(TINY, **change)) != cache_key(TINY)

    def test_package_version_change_changes_key(self, monkeypatch):
        before = cache_key(TINY)
        monkeypatch.setattr(cache_module, "__version__", "0.0.0-test")
        assert cache_key(TINY) != before

    def test_cache_format_change_changes_key(self, monkeypatch):
        before = cache_key(TINY)
        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION", 999)
        assert cache_key(TINY) != before


class TestWorldCache:
    def test_miss_on_empty_cache(self, cache):
        assert cache.load(TINY) is None

    def test_store_then_hit(self, cache):
        world = build_world(TINY)
        entry = cache.store(world)
        assert entry is not None and entry.is_dir()
        cached = cache.load(TINY)
        assert cached is not None
        assert [u.user_id for u in sorted(
            cached.all_users, key=lambda u: u.user_id
        )] == [u.user_id for u in sorted(
            world.all_users, key=lambda u: u.user_id
        )]
        assert cached.survey.n_plans == world.survey.n_plans
        # Records only: ground truth is never persisted.
        assert cached.ground_truth == {}

    def test_loaded_records_equal_built_records(self, cache):
        # CSV round-trips floats exactly except the %.6g-encoded hourly
        # profile, so compare the analysis-relevant fields (as the io
        # round-trip tests do) rather than whole records.
        world = build_world(TINY)
        cache.store(world)
        cached = cache.load(TINY)
        by_id = {u.user_id: u for u in cached.all_users}
        for user in world.all_users:
            loaded = by_id[user.user_id]
            assert loaded.country == user.country
            assert loaded.capacity_down_mbps == user.capacity_down_mbps
            assert loaded.peak_mbps == user.peak_mbps
            assert loaded.peak_no_bt_mbps == user.peak_no_bt_mbps
            assert loaded.latency_ms == user.latency_ms
            assert len(loaded.observations) == len(user.observations)
            assert loaded.network == user.network

    def test_different_config_misses(self, cache):
        cache.store(build_world(TINY))
        other = dataclasses.replace(TINY, seed=22)
        assert cache.load(other) is None

    def test_corrupt_users_csv_is_a_miss(self, cache):
        world = build_world(TINY)
        entry = cache.store(world)
        (entry / "users.csv").write_text("not,a,valid\nusers,file,at all\n")
        assert cache.load(TINY) is None
        assert not cache.fetch_into(TINY, entry.parent / "out")

    def test_truncated_users_csv_is_a_miss(self, cache):
        world = build_world(TINY)
        entry = cache.store(world)
        raw = (entry / "users.csv").read_bytes()
        (entry / "users.csv").write_bytes(raw[: len(raw) // 2])
        assert cache.load(TINY) is None

    def test_missing_survey_is_a_miss(self, cache):
        entry = cache.store(build_world(TINY))
        (entry / "survey.csv").unlink()
        assert cache.load(TINY) is None

    def test_trace_worlds_bypass_cache(self, cache):
        config = dataclasses.replace(TINY, trace_user_fraction=0.5)
        world = build_world(config)
        assert cache.store(world) is None
        assert cache.load(config) is None

    def test_fetch_into_copies_raw_files(self, cache, tmp_path):
        world = build_world(TINY)
        entry = cache.store(world)
        out = tmp_path / "fetched"
        assert cache.fetch_into(TINY, out)
        for name in ("users.csv", "survey.csv", "config.json"):
            assert (out / name).read_bytes() == (entry / name).read_bytes()

    def test_trace_round_trips_through_cache(self, cache):
        # The build ledger is stored as trace.jsonl next to the datasets
        # and comes back byte-identical on a hit.
        world = build_world(TINY)
        entry = cache.store(world)
        stored = (entry / "trace.jsonl").read_text()
        assert stored == world.ledger.to_jsonl()
        cached = cache.load(TINY)
        assert cached.ledger is not None
        assert cached.ledger.to_jsonl() == stored

    def test_fetch_into_copies_trace(self, cache, tmp_path):
        entry = cache.store(build_world(TINY))
        out = tmp_path / "fetched-trace"
        assert cache.fetch_into(TINY, out)
        assert (out / "trace.jsonl").read_bytes() == (
            entry / "trace.jsonl"
        ).read_bytes()

    def test_entry_without_trace_still_hits(self, cache):
        # Entries written before the ledger existed (or hand-pruned)
        # must stay loadable; they just carry no ledger.
        entry = cache.store(build_world(TINY))
        (entry / "trace.jsonl").unlink()
        cached = cache.load(TINY)
        assert cached is not None
        assert cached.ledger is None

    def test_corrupt_trace_is_a_miss(self, cache):
        entry = cache.store(build_world(TINY))
        (entry / "trace.jsonl").write_text("not json\n")
        assert cache.load(TINY) is None


class TestBuildOrLoad:
    def test_builds_then_loads(self, cache):
        world, from_cache = build_or_load_world(TINY, cache=cache)
        assert not from_cache
        again, from_cache = build_or_load_world(TINY, cache=cache)
        assert from_cache
        assert len(again.all_users) == len(world.all_users)

    def test_use_cache_false_always_builds(self, cache):
        build_or_load_world(TINY, cache=cache)
        world, from_cache = build_or_load_world(
            TINY, cache=cache, use_cache=False
        )
        assert not from_cache
        assert world.ground_truth  # a real build carries ground truth

    def test_corrupt_entry_falls_back_to_clean_build(self, cache):
        build_or_load_world(TINY, cache=cache)
        entry = cache.entry_dir(TINY)
        (entry / "users.csv").write_text("garbage")
        world, from_cache = build_or_load_world(TINY, cache=cache)
        assert not from_cache
        assert world.all_users
        # The rebuild repaired the entry.
        assert cache.load(TINY) is not None


class TestCliCache:
    ARGS = ["--users", "30", "--fcc", "8", "--days", "1.0", "--seed", "21"]

    def _build(self, out, cache_dir, *extra):
        return main(
            ["build", "--out", str(out), "--cache-dir", str(cache_dir)]
            + self.ARGS + list(extra)
        )

    def test_second_build_hits_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert self._build(tmp_path / "w1", cache_dir) == 0
        first = capsys.readouterr().out
        assert "cache hit" not in first
        assert self._build(tmp_path / "w2", cache_dir) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert "skipping build" in second
        assert (
            (tmp_path / "w1" / "users.csv").read_bytes()
            == (tmp_path / "w2" / "users.csv").read_bytes()
        )

    def test_no_cache_forces_rebuild(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert self._build(tmp_path / "w1", cache_dir) == 0
        capsys.readouterr()
        assert self._build(tmp_path / "w2", cache_dir, "--no-cache") == 0
        out = capsys.readouterr().out
        assert "cache hit" not in out
        assert "building world" in out

    def test_corrupt_cache_entry_falls_back(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert self._build(tmp_path / "w1", cache_dir) == 0
        capsys.readouterr()
        entries = [
            p for p in cache_dir.iterdir() if not p.name.startswith(".")
        ]
        assert len(entries) == 1
        (entries[0] / "users.csv").write_text("corrupted beyond repair")
        assert self._build(tmp_path / "w2", cache_dir) == 0
        out = capsys.readouterr().out
        assert "building world" in out
        assert (tmp_path / "w2" / "users.csv").exists()

    def test_report_from_cache_skips_build(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert self._build(tmp_path / "w1", cache_dir) == 0
        capsys.readouterr()
        rc = main(
            ["report", "--cache-dir", str(cache_dir)] + self.ARGS
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache hit" in out
        assert "skipping build" in out
        assert "Reproduction report" in out


class TestStoreRace:
    """Concurrent stores of the same config must both succeed.

    ``os.replace`` onto an existing non-empty directory raises (ENOTEMPTY
    on Linux); the builds are deterministic, so losing the publish race
    is a benign success, not an error.
    """

    def test_lost_race_returns_existing_entry(self, cache):
        world = build_world(TINY)
        first = cache.store(world)
        before = (first / "users.csv").read_bytes()
        # A second store finds the entry path occupied by a valid,
        # equivalent entry: keep it, discard the staging copy.
        second = cache.store(world)
        assert second == first
        assert (first / "users.csv").read_bytes() == before
        assert cache.load(TINY) is not None
        assert not list(cache.root.glob(".staging-*"))

    def test_invalid_occupant_is_replaced(self, cache):
        world = build_world(TINY)
        entry = cache.entry_dir(TINY)
        entry.mkdir(parents=True)
        (entry / "garbage.txt").write_text("not a world")
        stored = cache.store(world)
        assert stored == entry
        assert cache.load(TINY) is not None
        assert not (entry / "garbage.txt").exists()
        assert not list(cache.root.glob(".staging-*"))


class TestCacheKeyCanonicalization:
    """``cache_key`` hashes a canonical JSON payload.

    The old implementation used ``json.dumps(..., default=str)``: any
    unserializable value was silently stringified, so two *different*
    configs could collide (or one config could hash differently across
    platforms whose ``str()`` differs). Numeric scalars now normalize to
    builtin int/float and anything else fails loudly.
    """

    def test_numpy_scalars_hash_like_builtins(self):
        import numpy as np

        assert cache_key(
            dataclasses.replace(TINY, seed=np.int64(TINY.seed))
        ) == cache_key(TINY)
        assert cache_key(
            dataclasses.replace(
                TINY, days_per_year=np.float64(TINY.days_per_year)
            )
        ) == cache_key(TINY)

    def test_non_canonical_value_raises(self):
        from pathlib import Path as _Path

        from repro.exceptions import DatasetError

        bad = dataclasses.replace(TINY, seed=_Path("not-a-seed"))
        with pytest.raises(DatasetError, match="non-JSON-native"):
            cache_key(bad)

    def test_bool_is_not_an_int(self):
        # bool is an Integral subclass; it must stay a JSON bool, not
        # collapse onto 0/1 (which would collide with integer fields).
        assert cache_key(
            dataclasses.replace(TINY, sanitize=False)
        ) != cache_key(dataclasses.replace(TINY, sanitize=True))


class TestColumnarShard:
    """The ``users.npy`` fast path: valid shards load without CSV
    parsing; anything suspect falls back to the CSV byte-for-byte."""

    def test_entry_carries_npy_and_manifest(self, cache):
        entry = cache.store(build_world(TINY))
        assert (entry / "users.npy").exists()
        meta = json.loads((entry / "users.npy.json").read_text())
        assert meta["users_csv_bytes"] == (entry / "users.csv").stat().st_size

    def test_corrupt_npy_falls_back_to_csv(self, cache):
        entry = cache.store(build_world(TINY))
        from_npy = cache.load(TINY)
        (entry / "users.npy").write_bytes(b"\x93NUMPY garbage")
        from_csv = cache.load(TINY)
        assert from_csv is not None
        assert from_csv.dasu.n_users == from_npy.dasu.n_users
        assert from_csv.fcc.n_users == from_npy.fcc.n_users
        assert full_report(
            from_csv.dasu.users, from_csv.fcc.users, from_csv.survey
        ) == full_report(
            from_npy.dasu.users, from_npy.fcc.users, from_npy.survey
        )

    def test_stale_manifest_falls_back_to_csv(self, cache):
        entry = cache.store(build_world(TINY))
        meta = json.loads((entry / "users.npy.json").read_text())
        meta["rows"] = meta["rows"] + 1
        (entry / "users.npy.json").write_text(json.dumps(meta))
        assert cache.load(TINY) is not None

    def test_fetch_into_copies_columnar_shard(self, cache, tmp_path):
        entry = cache.store(build_world(TINY))
        out = tmp_path / "out"
        out.mkdir()
        assert cache.fetch_into(TINY, out)
        for name in ("users.npy", "users.npy.json"):
            assert (out / name).read_bytes() == (entry / name).read_bytes()
