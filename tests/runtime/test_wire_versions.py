"""Real TCP clusters on the one wire format (codec v2, batch-sealed).

Every burst a client or node sends, a burst of one included, travels in
one sealed envelope; these tests drive concurrent, namespaced and
Byzantine traffic through it.
"""

import asyncio

from repro.runtime import LocalCluster


def run(coro):
    return asyncio.run(coro)


def test_concurrent_ops_on_v2_wire_batch_seal():
    """Concurrent in-flight ops ride the batched envelope unharmed."""
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            client = cluster.client("w000", max_inflight=8)
            await client.connect()
            tags = await asyncio.gather(
                *(client.write(f"burst-{i}".encode()) for i in range(8)))
            assert len({t.num for t in tags}) == 8
            reader = cluster.client("r000")
            await reader.connect()
            assert (await reader.read()).startswith(b"burst-")
        finally:
            await cluster.stop()

    run(scenario())


def test_namespaced_registers_on_v2_wire():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, namespaced=True)
        await cluster.start()
        try:
            client = cluster.client("w000")
            await client.connect()
            await client.write(b"alpha", register="a")
            await client.write(b"beta", register="b")
            assert await client.read(register="a") == b"alpha"
            assert await client.read(register="b") == b"beta"
        finally:
            await cluster.stop()

    run(scenario())


def test_forge_tag_tolerated():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, byzantine={2: "forge_tag"})
        await cluster.start()
        try:
            writer = cluster.client("w000")
            reader = cluster.client("r000")
            await writer.connect()
            await reader.connect()
            await writer.write(b"safe-despite-forgery")
            assert await reader.read() == b"safe-despite-forgery"
        finally:
            await cluster.stop()

    run(scenario())
