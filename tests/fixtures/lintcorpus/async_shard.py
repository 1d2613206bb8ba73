"""Corpus: sharded-tier concurrency violations (CONC001 + CONC003).

Seeds the two failure modes specific to the asyncio-frontend /
process-shard architecture: an ``async def`` frontend that talks to
its worker pipe and walks the trie *on the event loop* (a pipe
``.recv()`` or ``.recv_bytes()`` and the CPU-bound ``.walk_batch()``
each stall every connection), and a ``Process(target=...)`` worker whose default
argument cannot cross the pickle boundary into the child.
"""

import threading
from multiprocessing import Pipe, Process


def shard_worker(conn, lock=threading.Lock()):
    """CONC003 target: ``Process(target=...)`` with a Lock default."""
    while True:
        request = conn.recv()
        if request is None:
            break
        conn.send(request)


def start_shard():
    """Boots the worker whose defaults cannot pickle."""
    parent, child = Pipe()
    process = Process(target=shard_worker, args=(child,))
    process.start()
    return parent, process


async def serve_batch(conn, engine, addresses):
    """CONC001: pipe recv and trie walk both block the event loop."""
    conn.send(("serve", addresses))
    reply = conn.recv()
    results = engine.walk_batch(addresses)
    return reply, results


async def await_token(conn, request):
    """CONC001: a raw-bytes reply read on the loop blocks it as well."""
    conn.send_bytes(request)
    return conn.recv_bytes()
