"""A closed-loop HTTP/1.1 client for ``repro serve``: one process, two connections.

Each connection sends its next request only after the previous response
has been read in full.  ``POST /run`` answers keep the connection alive;
``POST /sweep`` streams NDJSON and closes it, so the connection is opened
again before its next request.  ``max_open`` records the most connections
ever open at once, which the benchmark's tests hold to at most two.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from typing import Iterator, List, Optional, Tuple

CONNECTIONS = 2


class Connection:
    """One keep-alive connection, reopened after the server closes it."""

    def __init__(self, client: "Client"):
        self.client = client
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def _open(self) -> None:
        self.client.open += 1
        self.client.max_open = max(self.client.max_open, self.client.open)
        try:
            self.reader, self.writer = await asyncio.open_connection(self.client.host, self.client.port)
        except OSError:
            self.client.open -= 1
            raise

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = self.reader = None
            self.client.open -= 1

    async def request(self, method: str, path: str, body: bytes, rid: str) -> Tuple[int, bytes]:
        """Send one request; return the status and the whole response body."""
        if self.writer is None:
            await self._open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.client.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"X-Bench-Id: {rid}\r\n\r\n"
        )
        self.writer.write(head.encode("ascii") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = None
        closing = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                closing = True
        if length is not None:
            payload = await self.reader.readexactly(length)
        else:
            payload = await self.reader.read()
        if closing or length is None:
            await self.close()
        return status, payload


class Client:
    """Drives a server with a closed loop over ``CONNECTIONS`` connections."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.open = 0
        self.max_open = 0

    async def drive(self, ops: Iterator[Tuple[str, str, str, bytes]]) -> List[tuple]:
        """Run ``(rid, method, path, body)`` operations until ``ops`` ends.

        Returns ``(rid, status, payload, latency_ms, finished_at)`` per
        operation, in completion order.
        """
        results: List[tuple] = []

        async def worker() -> None:
            connection = Connection(self)
            try:
                for rid, method, path, body in ops:
                    start = time.perf_counter()
                    try:
                        status, payload = await connection.request(method, path, body, rid)
                    except (OSError, ValueError, asyncio.IncompleteReadError) as error:
                        # Recorded as a failed operation; the next request reconnects.
                        status, payload = 0, repr(error).encode()
                        await connection.close()
                    end = time.perf_counter()
                    results.append((rid, status, payload, (end - start) * 1000, end))
            finally:
                await connection.close()

        await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
        return results

    def run(self, ops: Iterator[Tuple[str, str, str, bytes]]) -> List[tuple]:
        # The client's own collector pauses would be timed as server latency.
        gc.disable()
        try:
            return asyncio.run(self.drive(ops))
        finally:
            gc.enable()


def post(kind: str, payload: dict) -> Tuple[str, bytes]:
    """The path and body for one workload operation."""
    path = "/sweep" if kind == "sweep" else "/run"
    return path, json.dumps(payload).encode("utf-8")
