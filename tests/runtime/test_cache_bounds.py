"""Per-key caches stay bounded: client state and placement.

Keyed workloads touch arbitrarily many registers over a long run; every
per-key lookaside structure must have a hard cap or node/client memory
grows without bound.  These tests drive each cache past a (monkeypatched
where needed) cap and assert the bound holds -- and that correctness
hazards like evicting a *held* write lock are avoided.
"""

import asyncio

import repro.runtime.client as client_module
import repro.sharding.ring as ring_module
from repro.core.keys import key_name
from repro.runtime import LocalCluster
from repro.sharding import KeyspaceConfig


def run(coro):
    return asyncio.run(coro)


# -- client per-key state ---------------------------------------------------

def test_client_key_state_caps_exist():
    assert client_module.MAX_KEY_STATES == 4096


def test_write_locks_and_reader_states_are_bounded(monkeypatch):
    monkeypatch.setattr(client_module, "MAX_KEY_STATES", 8)

    async def scenario():
        cluster = LocalCluster("bsr", f=1,
                               keyspace=KeyspaceConfig(group_size=5))
        await cluster.start()
        try:
            client = cluster.client("c-bounds")
            for i in range(100):
                client._write_lock_for(key_name(i))
                client._reader_state_for(key_name(i))
            assert len(client._write_locks) <= 8
            assert len(client._register_states) <= 8
        finally:
            await cluster.stop()

    run(scenario())


def test_held_write_locks_survive_eviction(monkeypatch):
    monkeypatch.setattr(client_module, "MAX_KEY_STATES", 4)

    async def scenario():
        cluster = LocalCluster("bsr", f=1,
                               keyspace=KeyspaceConfig(group_size=5))
        await cluster.start()
        try:
            client = cluster.client("c-held")
            held = client._write_lock_for("key-held")
            await held.acquire()
            try:
                for i in range(50):
                    client._write_lock_for(key_name(i))
                # The held lock was never shed: evicting it would let a
                # second write to its key overlap the first.
                assert client._write_locks.get("key-held") is held
            finally:
                held.release()
        finally:
            await cluster.stop()

    run(scenario())


# -- placement group cache --------------------------------------------------

def test_placement_group_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(ring_module, "_GROUP_CACHE", 64)
    keyspace = KeyspaceConfig(group_size=3, seed=1)
    placement = keyspace.placement([f"s{i}" for i in range(6)])
    groups = [placement.servers_for(key_name(i)) for i in range(500)]
    assert len(placement._cache) <= 64
    # Eviction never changes resolution, only cost.
    for i in (0, 100, 499):
        assert placement.servers_for(key_name(i)) == groups[i]


def test_placement_group_cache_default_cap():
    assert ring_module._GROUP_CACHE == 65536
