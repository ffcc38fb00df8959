"""Concurrency tests for the sharded on-disk result cache.

``run-all`` shares one cache directory between its pool workers, and any
number of concurrent CLI runs (plus a ``cache prune``) may use the same
directory, so the atomic tmp+replace write discipline has to hold up under
real multi-process traffic: concurrent writers of the same and different
entries, readers racing writers, and a prune sweeping the directory while
writes are in flight.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.common.config import BTBStyle
from repro.experiments.engine import ResultCache, SimJob


def make_job(index: int) -> SimJob:
    return SimJob(
        workload=f"wl{index}",
        instructions=1_000 + index,
        warmup_instructions=100,
        style=BTBStyle.BTBX,
        fdip_enabled=True,
        budget_kib=14.5,
    )


def make_payload(index: int) -> dict:
    return {"result": {"index": index}, "access_counts": {"reads": float(index)}}


def _hammer(cache_dir: str, indices: list, rounds: int) -> int:
    """Worker: repeatedly put+get every job; returns observed good reads."""
    cache = ResultCache(cache_dir)
    good = 0
    for _ in range(rounds):
        for index in indices:
            job = make_job(index)
            cache.put(job, make_payload(index))
            payload = cache.get(job)
            if payload is not None:
                assert payload["result"]["index"] == index
                good += 1
    return good


def _hammer_with_prune(cache_dir: str, indices: list, rounds: int) -> int:
    """Worker: interleave writes with whole-directory prunes."""
    cache = ResultCache(cache_dir)
    for round_number in range(rounds):
        for index in indices:
            cache.put(make_job(index), make_payload(index))
        cache.prune(max_age_seconds=None)
    return rounds


def test_concurrent_writers_same_and_different_entries(tmp_path):
    cache_dir = str(tmp_path / "cache")
    shared = list(range(8))  # every process writes these
    with ProcessPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(_hammer, cache_dir, shared + [100 + worker], 5)
            for worker in range(4)
        ]
        results = [future.result(timeout=120) for future in futures]
    # A process always reads back a valid payload right after its own write
    # (last-writer-wins, but every version of an entry is identical here).
    assert all(good == 5 * 9 for good in results)
    cache = ResultCache(cache_dir)
    assert len(cache) == 8 + 4
    for index in shared:
        assert cache.get(make_job(index)) == make_payload(index)
    # No orphaned temp files: every write completed its atomic replace.
    leftovers = [
        name
        for directory in cache._scan_dirs()
        for name in os.listdir(directory)
        if name.endswith(".tmp")
    ]
    assert leftovers == []


def test_prune_racing_concurrent_writers_never_corrupts(tmp_path):
    cache_dir = str(tmp_path / "cache")
    indices = list(range(6))
    with ProcessPoolExecutor(max_workers=3) as pool:
        futures = [
            pool.submit(_hammer_with_prune, cache_dir, indices, 8)
            for _ in range(3)
        ]
        for future in futures:
            assert future.result(timeout=120) == 8
    # Whatever survived the last prune is readable and valid; a torn or
    # half-deleted entry would surface as a JSON error inside get().
    cache = ResultCache(cache_dir)
    for index in indices:
        payload = cache.get(make_job(index))
        assert payload is None or payload == make_payload(index)


def test_prune_leaves_fresh_inflight_tmp_writes_alone(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    job = make_job(0)
    cache.put(job, make_payload(0))
    shard = cache._shard_dir(job.config_hash())
    fresh_tmp = os.path.join(shard, "inflight-write.tmp")
    stale_tmp = os.path.join(shard, "crash-orphan.tmp")
    for path in (fresh_tmp, stale_tmp):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{partial")
    stale_age = cache._TMP_GRACE_SECONDS + 60
    os.utime(stale_tmp, (time.time() - stale_age, time.time() - stale_age))

    removed = cache.prune(max_age_seconds=None)

    assert removed == 1  # the entry; tmp files are not counted as entries
    assert os.path.exists(fresh_tmp), "prune must not break an in-flight write"
    assert not os.path.exists(stale_tmp), "crash orphans past the grace period go"
    # The in-flight write can still complete its atomic replace afterwards.
    os.replace(fresh_tmp, cache._path(job.config_hash()))


def test_legacy_flat_entries_are_never_served_but_still_pruned(tmp_path):
    """A pre-sharding flat entry is a miss, yet maintenance still sees it."""
    cache = ResultCache(tmp_path / "cache")
    job = make_job(1)
    flat = os.path.join(cache.directory, f"{job.config_hash()}.json")
    with open(flat, "w", encoding="utf-8") as handle:
        json.dump({"job": job.config_dict(), "payload": make_payload(1)}, handle)
    assert cache.get(job) is None
    assert len(cache) == 1
    assert cache.stats()["entries"] == 1
    # A sharded write of the same job is what lookups serve...
    cache.put(job, make_payload(2))
    assert cache.get(job) == make_payload(2)
    # ...and prune sweeps both layouts.
    assert cache.prune(max_age_seconds=None) == 2
    assert not os.path.exists(flat)
    assert cache.get(job) is None
