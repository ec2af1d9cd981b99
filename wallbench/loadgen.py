"""Load generator pieces: the server process, members, senders, probes.

Everything here runs in the one generator process on one asyncio event
loop.  The sender, the writer, the joiner and the probe client are
full-library :class:`~repro.runtime.client.CoronaClient` instances; every
other group member is a :class:`FrameReader`, a raw socket that counts and
hashes frames without decoding them.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.core.errors import CoronaError
from repro.runtime.client import CoronaClient
from repro.storage.store import GroupStore
from repro.wire import codec
from repro.wire.framing import frame_message
from repro.wire.messages import (
    Delivery,
    GroupMeta,
    Hello,
    HelloReply,
    JoinGroupRequest,
    JoinReply,
    ObjectState,
    TransferPolicy,
    TransferSpec,
    UpdateKind,
    UpdateRecord,
)

HERE = Path(__file__).resolve().parent

_LEN = struct.Struct(">I")
_TAG_DELIVERY = codec.type_code_of(Delivery)
_TAG_JOIN_REPLY = codec.type_code_of(JoinReply)
_TAG_HELLO_REPLY = codec.type_code_of(HelloReply)
# every frame the readers see has a one-byte type tag
assert max(_TAG_DELIVERY, _TAG_JOIN_REPLY, _TAG_HELLO_REPLY) < 0x80

FULL = TransferSpec()
FULL_CHUNKED = TransferSpec(policy=TransferPolicy.FULL, chunked=True)


class BenchError(Exception):
    """The run cannot go on (a check failed or the server misbehaved)."""


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """``server_main.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, proc: asyncio.subprocess.Process, store: Path, log: Path) -> None:
        self.proc = proc
        self.store = store
        self.log = log
        self.port = 0

    @classmethod
    async def spawn(
        cls, store: Path, trace: bool, spans: Path | None, log: Path
    ) -> "ServerProcess":
        args = [
            sys.executable, str(HERE / "server_main.py"),
            "--store", str(store), "--trace", "1" if trace else "0",
        ]
        if spans is not None:
            args += ["--spans", str(spans)]
        with open(log, "wb") as err:
            proc = await asyncio.create_subprocess_exec(
                *args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            )
        server = cls(proc, store, log)
        ready = await server._read()
        if not ready.get("ready"):
            raise BenchError(f"server did not start: {ready}")
        return server

    @property
    def pid(self) -> int:
        return self.proc.pid

    async def _read(self) -> dict:
        assert self.proc.stdout is not None
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        if not line:
            tail = self.log.read_text(errors="replace")[-2000:]
            raise BenchError(f"server process exited; its log ends:\n{tail}")
        return json.loads(line)

    async def command(self, op: str, **args: Any) -> dict:
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps({"op": op, **args}).encode() + b"\n")
        await self.proc.stdin.drain()
        return await self._read()

    async def start(self) -> dict:
        reply = await self.command("start")
        self.port = reply["port"]
        return reply

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    async def close(self) -> None:
        """Ask the process to exit; kill it if it does not, and wait."""
        if self.proc.returncode is None:
            try:
                await asyncio.wait_for(self.command("exit"), 60)
            except (BenchError, OSError, asyncio.TimeoutError, ValueError):
                pass
            try:
                await asyncio.wait_for(self.proc.wait(), 30)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()


class ProcStats:
    """CPU, context switches and peak RSS of another process, from /proc.

    CPU is the sum of every thread's run time in ``schedstat``
    (nanoseconds); ``/proc/<pid>/stat`` counts in 10 ms ticks, too coarse
    for the short join phases.
    """

    def __init__(self, pid: int) -> None:
        self.root = Path(f"/proc/{pid}")

    def _tasks(self) -> list[Path]:
        return list((self.root / "task").iterdir())

    def cpu_s(self) -> float:
        total = 0
        for task in self._tasks():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (OSError, IndexError, ValueError):
                continue  # the thread ended between listing and reading
        return total / 1e9

    def ctx_switches(self) -> int:
        total = 0
        for task in self._tasks():
            try:
                text = (task / "status").read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if "ctxt_switches:" in line:
                    total += int(line.split()[1])
        return total

    def peak_rss_mb(self) -> float:
        for line in (self.root / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in /proc status")


# ---------------------------------------------------------------------------
# seeded persistent groups
# ---------------------------------------------------------------------------


def group_meta(name: str, objects: tuple[ObjectState, ...]) -> bytes:
    return codec.encode(GroupMeta(name, True, objects, 0.0))


def seed_room(
    store: GroupStore, name: str, objects: tuple[ObjectState, ...],
    history: list[tuple[str, bytes]],
) -> None:
    """A persistent group with an initial state and an update history."""
    store.create_group(name, group_meta(name, objects))
    store.append_many(name, [
        (seqno, codec.encode(UpdateRecord(
            seqno, UpdateKind.UPDATE, object_id, data, "seed", 0.0)))
        for seqno, (object_id, data) in enumerate(history)
    ])
    store.flush(name)


def seed_doc(store: GroupStore, name: str, objects: dict[str, bytes]) -> None:
    """A persistent group whose objects were each written once by
    ``bcastState`` (one STATE record per object)."""
    store.create_group(name, group_meta(name, ()))
    store.append_many(name, [
        (seqno, codec.encode(UpdateRecord(
            seqno, UpdateKind.STATE, object_id, data, "seed", 0.0)))
        for seqno, (object_id, data) in enumerate(objects.items())
    ])
    store.flush(name)


# ---------------------------------------------------------------------------
# receive-only members
# ---------------------------------------------------------------------------


class FrameReader(asyncio.Protocol):
    """A group member that only reads: it joins with one pipelined
    Hello + JoinGroupRequest, then counts the Delivery frames after its
    join reply and hashes their bytes, decoding nothing."""

    def __init__(self, client_id: str, group: str) -> None:
        loop = asyncio.get_running_loop()
        self.greeting = frame_message(Hello(client_id)) + frame_message(
            JoinGroupRequest(1, group, transfer=FULL)
        )
        self.joined: asyncio.Future = loop.create_future()
        self.closed: asyncio.Future = loop.create_future()
        self.deliveries = 0
        self.digest = hashlib.blake2b(digest_size=16)
        self.error = ""
        self.transport: asyncio.Transport | None = None
        self._buf = bytearray()
        self._target = 0
        self._reached: asyncio.Future | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.transport.write(self.greeting)

    def connection_lost(self, exc: Exception | None) -> None:
        if not self.joined.done():
            self.joined.set_exception(BenchError("connection lost before join"))
        if not self.closed.done():
            self.closed.set_result(None)
        if self._reached is not None and not self._reached.done():
            self._reached.set_exception(BenchError(
                f"connection lost after {self.deliveries} deliveries"))

    def data_received(self, data: bytes) -> None:
        buf = self._buf
        buf += data
        if self.joined.done():
            self.digest.update(data)
        else:
            del buf[:self._replies(buf)]
            if not self.joined.done() or self.error:
                return
            self.digest.update(buf)
        self._count(buf)

    def _replies(self, buf: bytearray) -> int:
        pos, size = 0, len(buf)
        while pos + 4 <= size:
            (length,) = _LEN.unpack_from(buf, pos)
            end = pos + 4 + length
            if end > size:
                break
            tag = buf[pos + 4]
            pos = end
            if tag == _TAG_JOIN_REPLY:
                self.joined.set_result(time.perf_counter())
                break
            if tag != _TAG_HELLO_REPLY:
                self._fail(f"frame type {tag} before the join reply")
                self.joined.set_exception(BenchError(self.error))
                break
        return pos

    def _count(self, buf: bytearray) -> None:
        pos, size, count = 0, len(buf), 0
        unpack = _LEN.unpack_from
        while pos + 4 <= size:
            (length,) = unpack(buf, pos)
            end = pos + 4 + length
            if end > size:
                break
            if buf[pos + 4] != _TAG_DELIVERY:
                self._fail(f"frame type {buf[pos + 4]} among deliveries")
            count += 1
            pos = end
        del buf[:pos]
        self.deliveries += count
        reached = self._reached
        if reached is not None and self.deliveries >= self._target and not reached.done():
            reached.set_result(time.perf_counter())

    def _fail(self, why: str) -> None:
        if not self.error:
            self.error = why

    @property
    def partial_bytes(self) -> int:
        return len(self._buf)

    async def wait_for(self, target: int, timeout: float) -> float:
        """Wait until *target* deliveries have been counted; returns when."""
        if self.deliveries >= target:
            return time.perf_counter()
        self._target = target
        self._reached = asyncio.get_running_loop().create_future()
        try:
            return await asyncio.wait_for(self._reached, timeout)
        except asyncio.TimeoutError:
            raise BenchError(
                f"a receive-only member counted {self.deliveries} of {target} "
                f"deliveries after {timeout} s") from None

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


async def open_reader(address: tuple[str, int], client_id: str, group: str) -> FrameReader:
    loop = asyncio.get_running_loop()
    _transport, reader = await loop.create_connection(
        lambda: FrameReader(client_id, group), *address
    )
    await asyncio.wait_for(reader.joined, 60.0)
    return reader


# ---------------------------------------------------------------------------
# full-library clients
# ---------------------------------------------------------------------------


async def open_client(
    address: tuple[str, int], client_id: str, join: str | None = None,
) -> CoronaClient:
    client = await CoronaClient.connect(address, client_id, request_timeout=60.0)
    if join is not None:
        await client.join_group(join, transfer=FULL)
    return client


class Sender:
    """One full-library client that keeps a window of ``bcastUpdate``s
    in flight (closed loop) on one group and records its own deliveries.

    A send the client reports as failed is recorded and not expected back;
    the lane goes on with its next update."""

    def __init__(
        self, client: CoronaClient, group: str, object_ids: list[str],
        rng: Any, size: int,
    ) -> None:
        self.client = client
        self.group = group
        self.object_ids = object_ids
        self.rng = rng
        self.size = size
        self.payloads: list[bytes] = []
        self.sent_at: list[float] = []
        #: (seqno, payload id, arrival time) of each own delivery, in order
        self.delivered: list[tuple[int, int, float]] = []
        self.accepted = 0
        #: payload id -> error of every send that failed
        self.failed: dict[int, str] = {}
        self._drained: asyncio.Future | None = None
        client.on_event("delivery", self._on_delivery)

    def _on_delivery(self, event: Any) -> None:
        record = event.record
        if event.group == self.group and record.sender == self.client.client_id:
            self.delivered.append(
                (record.seqno, int.from_bytes(record.data[:8], "big"),
                 time.perf_counter())
            )
            drained = self._drained
            if drained is not None and len(self.delivered) >= self.accepted:
                if not drained.done():
                    drained.set_result(None)

    def object_of(self, index: int) -> str:
        return self.object_ids[index % len(self.object_ids)]

    async def send(self, total: int, window: int) -> None:
        """Keep *window* updates in flight until *total* have been sent
        since the start: each of *window* lanes sends its next update
        once its previous one is acknowledged or has failed."""

        async def lane() -> None:
            while len(self.payloads) < total:
                index = len(self.payloads)
                data = index.to_bytes(8, "big") + self.rng.randbytes(self.size - 8)
                self.payloads.append(data)
                self.sent_at.append(time.perf_counter())
                try:
                    await self.client.bcast_update(self.group, self.object_of(index), data)
                except CoronaError as exc:
                    self.failed[index] = f"{type(exc).__name__}: {exc}"
                    continue
                self.accepted += 1

        await asyncio.gather(*(lane() for _ in range(window)))

    async def wait_delivered(self, timeout: float) -> None:
        """Wait until every accepted update has come back as a delivery
        (call once every send has been answered)."""
        if len(self.delivered) >= self.accepted:
            return
        self._drained = asyncio.get_running_loop().create_future()
        try:
            await asyncio.wait_for(self._drained, timeout)
        except asyncio.TimeoutError:
            raise BenchError(
                f"{self.client.client_id}: {len(self.delivered)} of "
                f"{self.accepted} own deliveries after {timeout} s") from None

    def accepted_ids(self) -> list[int]:
        return [i for i in range(len(self.payloads)) if i not in self.failed]

    def check_order(self, first_seqno: int) -> list[str]:
        """Own deliveries have contiguous seqnos and arrive in send order,
        one for each accepted update and none for a failed one."""
        problems = []
        expected = self.accepted_ids()
        for k, (seqno, ident, _t) in enumerate(self.delivered):
            want = expected[k] if k < len(expected) else None
            if seqno != first_seqno + k or ident != want:
                problems.append(
                    f"{self.client.client_id}: delivery {k} has seqno {seqno} "
                    f"and payload {ident}, expected {first_seqno + k} and {want}")
                break
        if len(self.delivered) != len(expected):
            problems.append(
                f"{self.client.client_id}: {len(self.delivered)} own deliveries "
                f"for {len(expected)} accepted updates")
        return problems


def view_digests(view: Any) -> dict[str, bytes]:
    """Digest of every object of a client's replica, read at once."""
    return {
        obj.object_id: hashlib.blake2b(obj.data, digest_size=16).digest()
        for obj in view.state.materialize_all()
    }


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)

