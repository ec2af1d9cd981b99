"""The two workloads, their seeded inputs and their checks.

Every input (object contents, history, payloads) is drawn from one
``random.Random(seed)``; the program only ever sees the generated bytes.
See README.md for the make-up of each workload and why it was chosen.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable

from loadgen import (
    FULL,
    FULL_CHUNKED,
    BenchError,
    FrameReader,
    ProcStats,
    Sender,
    ServerProcess,
    median,
    open_client,
    open_reader,
    percentile,
    seed_doc,
    seed_room,
    view_digests,
)

from repro.core.errors import CoronaError
from repro.runtime.client import CoronaClient
from repro.storage.store import GroupStore
from repro.wire.messages import ObjectState

#: Times the server is started (store recovery included) and every member
#: connected and joined; ``setup_s`` is the median.
SETUPS = 41
#: The burst's room and its members (one sender, the rest read only).
ROOM = "room"
MEMBERS = 32
#: Burst sender: updates in flight, payload size, updates per round, and
#: the rate that sets how many rounds fit into ``--seconds``.
WINDOW = 64
UPDATE_BYTES = 100
ROUND = 8000
NOMINAL_RATE = 2500
#: Round trips timed after the burst, one update outstanding at a time.
RTT_PROBES = 2000
#: Length of one measured segment of a burst's timed phase (seconds).
SEGMENT_S = 2.0
#: The same for ``join_under_writes``: 1000 writes at the writer's pace,
#: so that 10 lie beyond each segment's p99.
WRITE_SEGMENT_S = 2.5
#: Untimed updates before the timed phase (warms caches).
WARMUP = 1024
#: Seeded room: objects, their initial size, and the update history.
ROOM_OBJECTS = 16
ROOM_OBJECT_BYTES = 256
ROOM_HISTORY = 2048
#: Seeded document groups (``doc``, and ``probe`` in the burst).
DOC_OBJECTS = 256
DOC_OBJECT_BYTES = 2048
#: Monolithic probe joins of ``probe`` after the burst.
PROBE_JOINS = 1024
#: ``join_under_writes``: write size and pace, join period, receive-only
#: members.
WRITE_BYTES = 1000
WRITE_PERIOD = 0.0025
JOIN_PERIOD = 0.05
JUW_READERS = 4

TIMEOUT = 60.0


@dataclass
class Members:
    """Everything connected for one setup."""

    clients: dict[str, CoronaClient] = field(default_factory=dict)
    readers: dict[str, list[FrameReader]] = field(default_factory=dict)

    async def close(self) -> None:
        for client in self.clients.values():
            await client.close()
        for readers in self.readers.values():
            for reader in readers:
                reader.close()
                await asyncio.wait_for(reader.closed, TIMEOUT)


@dataclass
class Ctx:
    """One pass of one workload: the server, the clock readings taken at
    phase boundaries, and what the pass measured."""

    server: ServerProcess
    seed: int
    seconds: float
    tracer: Any = None
    setup_s: list[float] = field(default_factory=list)
    start_s: list[float] = field(default_factory=list)
    marks: dict[str, dict] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def stats(self) -> ProcStats:
        return ProcStats(self.server.pid)

    async def mark(self, name: str) -> dict:
        """Read the clocks (and, traced, the tracers) at a phase boundary."""
        stats = self.stats
        mark = {
            "wall": time.perf_counter(),
            "server_cpu": stats.cpu_s(),
            "gen_cpu": time.process_time(),
            "ctx": stats.ctx_switches(),
        }
        if self.tracer is not None:
            mark["server"] = await self.server.command("trace")
            mark["gauges"] = await self.server.command("gauges")
            mark["generator"] = self.tracer.snapshot()
        self.marks[name] = mark
        return mark

    async def settle(self) -> None:
        """Run a full collection in both processes before a measured
        phase, so that the collections inside it are those its own
        allocations cause, not ones left due by what came before."""
        await self.server.command("collect")
        gc.collect()

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


async def time_setups(
    ctx: Ctx, connect: Callable[[Ctx], Awaitable[Members]], count: int
) -> None:
    """Start the server and connect every member *count* times, tearing
    each set-up down again.  ``run.py`` runs this in a server process of
    its own, so that the set-ups leave nothing behind in the process the
    measured phases run in, and splits the SETUPS set-ups between the
    start and the end of the run, so that a slow stretch of the machine
    a few seconds long cannot hold all of them."""
    for _ in range(count):
        started = await ctx.server.start()
        members = await connect(ctx)
        ctx.setup_s.append(time.perf_counter() - started["t0"])
        ctx.start_s.append(started["start_s"])
        await members.close()
        await ctx.server.command("stop")
    if len(ctx.setup_s) == SETUPS:
        ctx.metrics["setup_s"] = statistics.median(ctx.setup_s)
        await ctx.mark("setup")


@dataclass
class Segment:
    """One stretch of a timed phase: its events and the server CPU used."""

    seconds: float
    cpu_s: float
    latencies: list[float]

    @property
    def rate(self) -> float:
        return len(self.latencies) / self.seconds

    @property
    def cpu_per_event(self) -> float:
        return self.cpu_s / len(self.latencies)


class _Sampler:
    """Reads the server's CPU every *period* seconds of a timed phase,
    so that rates, costs and tail latencies can be taken per segment and
    reported as medians: a stretch when the machine runs slow moves one
    segment, not the whole run."""

    def __init__(self, stats: ProcStats, wall: float, cpu: float, period: float) -> None:
        self.stats = stats
        self.period = period
        self.points = [(wall, cpu)]

    async def run(self) -> None:
        while True:
            await asyncio.sleep(self.points[0][0] + len(self.points) * self.period
                                - time.perf_counter())
            self.points.append((time.perf_counter(), self.stats.cpu_s()))

    def segments(
        self, events: list[tuple[float, float]], end: tuple[float, float]
    ) -> list[Segment]:
        """Split time-ordered ``(time, latency)`` events at the sampling
        points; only whole segments count, unless the phase ended before
        the first one did (then the whole phase is one segment)."""
        points = [p for p in self.points if p[0] <= end[0]]
        if len(points) < 2:
            points = [self.points[0], end]
        out = []
        times = [t for t, _ in events]
        for (t0, c0), (t1, c1) in zip(points, points[1:]):
            lo, hi = bisect.bisect_left(times, t0), bisect.bisect_left(times, t1)
            if hi > lo:
                out.append(Segment(t1 - t0, c1 - c0, [lat for _, lat in events[lo:hi]]))
        if not out:
            raise BenchError("no events in the timed phase's segments")
        return out


def _doc_objects(rng: random.Random, prefix: str) -> dict[str, bytes]:
    return {
        f"{prefix}{i:03d}": rng.randbytes(DOC_OBJECT_BYTES)
        for i in range(DOC_OBJECTS)
    }


# ---------------------------------------------------------------------------
# fanout_burst
# ---------------------------------------------------------------------------


class Burst:
    """``fanout_burst``: one host, one persistent room of MEMBERS; one
    full-library sender keeps WINDOW updates in flight, every other member
    only reads frames."""

    def __init__(self) -> None:
        self.objects: tuple[ObjectState, ...] = ()
        self.history: list[tuple[str, bytes]] = []
        self.probe_objects: dict[str, bytes] = {}

    def seed(self, root: Path, rng: random.Random) -> None:
        self.objects = tuple(
            ObjectState(f"obj{i:02d}", rng.randbytes(ROOM_OBJECT_BYTES))
            for i in range(ROOM_OBJECTS)
        )
        self.history = [
            (self.objects[i % ROOM_OBJECTS].object_id, rng.randbytes(UPDATE_BYTES))
            for i in range(ROOM_HISTORY)
        ]
        self.probe_objects = _doc_objects(rng, "p")
        with GroupStore(root) as store:
            seed_room(store, ROOM, self.objects, self.history)
            seed_doc(store, "probe", self.probe_objects)

    async def connect(self, ctx: Ctx) -> Members:
        address = ctx.server.address
        opened = await asyncio.gather(
            open_client(address, "sender", join=ROOM),
            *(open_reader(address, f"reader-{i}", ROOM) for i in range(MEMBERS - 1)),
        )
        return Members(clients={"sender": opened[0]}, readers={ROOM: list(opened[1:])})

    async def run(self, ctx: Ctx, rng: random.Random) -> None:
        await ctx.server.start()
        members = await self.connect(ctx)
        readers = members.readers[ROOM]
        sender = Sender(members.clients["sender"], ROOM,
                        [obj.object_id for obj in self.objects], rng, UPDATE_BYTES)

        # warm-up: fixed count, untimed
        await sender.send(WARMUP, WINDOW)
        await self._drain(readers, sender)
        warm = len(sender.delivered)

        # timed phase: whole rounds of ROUND updates, as many as
        # NOMINAL_RATE fits into the run's seconds
        rounds = max(1, round(ctx.seconds * NOMINAL_RATE / ROUND))
        await ctx.settle()
        start = await ctx.mark("timed_start")
        sampler = _Sampler(ctx.stats, start["wall"], start["server_cpu"], SEGMENT_S)
        sampling = asyncio.ensure_future(sampler.run())
        try:
            await sender.send(WARMUP + rounds * ROUND, WINDOW)
            end_wall = await self._drain(readers, sender)
        finally:
            sampling.cancel()
        end = await ctx.mark("timed_end")
        end["wall"] = end_wall
        ctx.metrics["server_rss_mb"] = ctx.stats.peak_rss_mb()
        wall = end_wall - start["wall"]
        timed = sender.accepted - warm
        ctx.counts.update(updates=timed, rounds=rounds, wall=wall)
        arrivals = [
            (arrived, (arrived - sender.sent_at[ident]) * 1e3)
            for _seqno, ident, arrived in sender.delivered[warm:]
        ]
        segments = sampler.segments(arrivals, (end_wall, end["server_cpu"]))
        ctx.counts.update(segments=len(segments))
        # not bounded (see README): how many updates the server took in
        # per read and write moved the burst's rate and cost together
        ctx.metrics["updates_per_s"] = median([seg.rate for seg in segments])
        ctx.metrics["burst_cpu_us_per_update"] = median(
            [seg.cpu_per_event * 1e6 for seg in segments])

        # one update outstanding at a time: the Fig. 3 probe, and the
        # server's cost of one update with nothing to batch it with
        await ctx.settle()
        first = len(sender.delivered)
        cpu_before = ctx.stats.cpu_s()
        await sender.send(len(sender.payloads) + RTT_PROBES, 1)
        await self._drain(readers, sender)
        rtts = [(arrived - sender.sent_at[ident]) * 1e3
                for _seqno, ident, arrived in sender.delivered[first:]]
        ctx.counts.update(rtt_samples=len(rtts))
        ctx.metrics["server_cpu_us_per_update"] = (
            (ctx.stats.cpu_s() - cpu_before) / len(rtts) * 1e6)
        ctx.metrics["update_rtt_p50_ms"] = median(rtts)
        ctx.metrics["update_rtt_p99_ms"] = percentile(rtts, 0.99)  # not bounded
        ctx.attempted += len(sender.payloads)
        ctx.failed += len(sender.failed)
        if sender.failed:
            ctx.notes.append(f"{len(sender.failed)} sends failed, "
                             f"first: {next(iter(sender.failed.values()))}")
        self._check_streams(ctx, readers, sender)

        prober = await open_client(ctx.server.address, "prober")
        try:
            await self._check_full_join(ctx, prober, sender)
            await self._probe_joins(ctx, prober)
        finally:
            await prober.close()
        await ctx.mark("end")
        await members.close()

    async def _drain(self, readers: list[FrameReader], sender: Sender) -> float:
        """Wait until every member has every update accepted so far;
        returns the time the last one arrived."""
        await sender.wait_delivered(TIMEOUT)
        arrived = await asyncio.gather(*(
            reader.wait_for(sender.accepted, TIMEOUT) for reader in readers
        ))
        return max([*arrived, *(t for _s, _i, t in sender.delivered[-1:])])

    def _check_streams(self, ctx: Ctx, readers: list[FrameReader], sender: Sender) -> None:
        ctx.problems.extend(sender.check_order(ROOM_HISTORY))
        for reader in readers:
            ctx.check(not reader.error, f"{ROOM}: {reader.error}")
            ctx.check(
                reader.deliveries == sender.accepted,
                f"{ROOM}: a reader counted {reader.deliveries} "
                f"deliveries for {sender.accepted} accepted updates")
            ctx.check(reader.partial_bytes == 0, f"{ROOM}: a reader holds a partial frame")
        ctx.check(len({r.digest.digest() for r in readers}) == 1,
                  f"{ROOM}: readers' delivery streams differ")

    async def _check_full_join(self, ctx: Ctx, prober: CoronaClient, sender: Sender) -> None:
        """A FULL join yields the seeded history followed by the accepted
        payloads in send order, object by object.  The join is counted as
        an operation; when it fails there is nothing to compare."""
        expected: dict[str, list[bytes]] = {obj.object_id: [obj.data] for obj in self.objects}
        for object_id, data in self.history:
            expected[object_id].append(data)
        for index in sender.accepted_ids():
            expected[sender.object_of(index)].append(sender.payloads[index])
        ctx.attempted += 1
        try:
            view = await prober.join_group(ROOM, transfer=FULL)
            got = {obj.object_id: obj.data for obj in view.state.materialize_all()}
            await prober.leave_group(ROOM)
        except CoronaError as exc:
            ctx.failed += 1
            ctx.notes.append(f"{ROOM}: checking FULL join failed: {exc}")
            return
        ctx.check(got == {k: b"".join(v) for k, v in expected.items()},
                  f"{ROOM}: FULL join state differs from the seeded history "
                  f"plus the accepted updates")

    async def _probe_joins(self, ctx: Ctx, prober: CoronaClient) -> None:
        """PROBE_JOINS monolithic FULL joins of the idle ``probe`` group,
        back to back, each followed by a leave and timed from its start."""
        expected = {k: _digest(v) for k, v in self.probe_objects.items()}
        await ctx.settle()
        start = await ctx.mark("joins_start")
        times: list[float] = []
        for _ in range(PROBE_JOINS):
            began = time.perf_counter()
            try:
                view = await prober.join_group("probe", transfer=FULL)
                done = time.perf_counter()
                await prober.leave_group("probe")
            except CoronaError:
                continue
            times.append((done - began) * 1e3)
            ctx.check(view_digests(view) == expected,
                      "probe: join state differs from the seeded objects")
        end = await ctx.mark("joins_end")
        ctx.attempted += PROBE_JOINS
        ctx.failed += PROBE_JOINS - len(times)
        ctx.counts.update(joins=len(times), chunked_joins=0)
        ctx.metrics["join_full_p50_ms"] = median(times)
        ctx.metrics["server_cpu_ms_per_join"] = (
            (end["server_cpu"] - start["server_cpu"]) / len(times) * 1e3)


# ---------------------------------------------------------------------------
# join_under_writes
# ---------------------------------------------------------------------------


@dataclass
class JoinRecord:
    kind: str
    latency_ms: float
    late_ms: float
    next_seqno: int
    digests: dict[str, bytes]


class Writer:
    """One request outstanding, paced: ``bcastState`` of WRITE_BYTES to
    rotating objects, write k due k periods after the first, sent at its
    due time or, when the previous write is still out, as soon as that
    one is delivered.  Each write is timed from its send to the writer's
    own delivery of it.  A write the client reports as failed is counted
    and left out of the reference state."""

    def __init__(self, client: CoronaClient, object_ids: list[str], rng: random.Random) -> None:
        self.client = client
        self.object_ids = object_ids
        self.rng = rng
        #: (seqno, object id, digest) of each accepted write, in order
        self.writes: list[tuple[int, str, bytes]] = []
        self.attempts = 0
        self.failed = 0
        #: (arrival time, round trip in ms) of each accepted write
        self.rtts: list[tuple[float, float]] = []
        #: writes sent later than their turn (the previous one was slow)
        self.late = 0
        self.stop = False
        self._pending: tuple[int, asyncio.Future] | None = None
        client.on_event("delivery", self._on_delivery)

    def _on_delivery(self, event: Any) -> None:
        record = event.record
        pending = self._pending
        if (pending is not None and record.sender == self.client.client_id
                and int.from_bytes(record.data[:8], "big") == pending[0]
                and not pending[1].done()):
            pending[1].set_result((record.seqno, time.perf_counter()))

    async def write(self, count: int | None = None, period: float = 0.0) -> None:
        loop = asyncio.get_running_loop()
        done = 0
        turn = time.perf_counter()
        while not self.stop and (count is None or done < count):
            wait = turn - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            elif period:
                self.late += 1
            index = self.attempts
            self.attempts += 1
            done += 1
            object_id = self.object_ids[index % len(self.object_ids)]
            data = index.to_bytes(8, "big") + self.rng.randbytes(WRITE_BYTES - 8)
            future = loop.create_future()
            self._pending = (index, future)
            sent = time.perf_counter()
            try:
                await self.client.bcast_state("doc", object_id, data)
            except CoronaError:
                self.failed += 1
                self._pending = None
                turn = turn + period if period else time.perf_counter()
                continue
            try:
                seqno, arrived = await asyncio.wait_for(future, TIMEOUT)
            except asyncio.TimeoutError:
                raise BenchError(f"write {index} not delivered to the writer "
                                 f"after {TIMEOUT} s") from None
            self._pending = None
            self.rtts.append((arrived, (arrived - sent) * 1e3))
            self.writes.append((seqno, object_id, _digest(data)))
            turn = turn + period if period else arrived


class JoinUnderWrites:
    """One host; ``doc`` (256 objects of 2 KB) under a paced writer while
    an open-loop joiner alternates monolithic and chunked joins."""

    def __init__(self) -> None:
        self.objects: dict[str, bytes] = {}

    def seed(self, root: Path, rng: random.Random) -> None:
        self.objects = _doc_objects(rng, "d")
        with GroupStore(root) as store:
            seed_doc(store, "doc", self.objects)

    async def connect(self, ctx: Ctx) -> Members:
        address = ctx.server.address
        opened = await asyncio.gather(
            open_client(address, "writer", join="doc"),
            open_client(address, "joiner"),
            *(open_reader(address, f"reader-doc-{i}", "doc")
              for i in range(JUW_READERS)),
        )
        return Members(
            clients={"writer": opened[0], "joiner": opened[1]},
            readers={"doc": list(opened[2:])},
        )

    async def run(self, ctx: Ctx, rng: random.Random) -> None:
        await ctx.server.start()
        members = await self.connect(ctx)
        writer = Writer(members.clients["writer"], list(self.objects), rng)
        joiner = members.clients["joiner"]
        # warm-up: one write to every object, so every timed join sees the
        # same steady-state document size
        await writer.write(DOC_OBJECTS)
        warm_writes = len(writer.writes)

        await ctx.settle()
        start = await ctx.mark("timed_start")
        ctx.marks["joins_start"] = start
        deadline = start["wall"] + ctx.seconds
        sampler = _Sampler(ctx.stats, start["wall"], start["server_cpu"], WRITE_SEGMENT_S)
        sampling = asyncio.ensure_future(sampler.run())
        writing = asyncio.ensure_future(writer.write(period=WRITE_PERIOD))
        try:
            outcomes = await self._join_schedule(joiner, start["wall"], deadline)
        finally:
            writer.stop = True
            await writing
            sampling.cancel()
        end_wall = max([time.perf_counter(), *await asyncio.gather(*(
            reader.wait_for(len(writer.writes), TIMEOUT)
            for reader in members.readers["doc"]
        ))])
        end = await ctx.mark("timed_end")
        end["wall"] = end_wall
        ctx.marks["joins_end"] = end
        ctx.metrics["server_rss_mb"] = ctx.stats.peak_rss_mb()

        joins = [j for j in outcomes if j is not None]
        timed_writes = len(writer.writes) - warm_writes
        wall = end_wall - start["wall"]
        cpu = end["server_cpu"] - start["server_cpu"]
        ctx.counts.update(
            updates=timed_writes, wall=wall, joins=len(joins),
            chunked_joins=sum(1 for j in joins if j.kind == "chunked"),
            rtt_samples=len(writer.rtts) - warm_writes,
        )
        rtts = writer.rtts[warm_writes:]
        segments = sampler.segments(rtts, (end_wall, end["server_cpu"]))
        ctx.metrics["updates_per_s"] = timed_writes / wall
        ctx.metrics["server_cpu_us_per_update"] = cpu / timed_writes * 1e6
        ctx.metrics["update_rtt_p50_ms"] = median([rtt for _arrived, rtt in rtts])
        ctx.metrics["join_full_p50_ms"] = median(
            [j.latency_ms for j in joins if j.kind == "full"])
        # not bounded (see README): p99 per segment, median over segments;
        # chunked joins
        ctx.metrics["update_rtt_p99_ms"] = median(
            [percentile(seg.latencies, 0.99) for seg in segments])
        ctx.metrics["join_chunked_p50_ms"] = median(
            [j.latency_ms for j in joins if j.kind == "chunked"])
        ctx.metrics["server_cpu_ms_per_join"] = cpu / len(joins) * 1e3
        late = [j.late_ms for j in joins]
        ctx.notes.append(
            f"joiner lateness: median {median(late):.3f} ms, "
            f"max {max(late):.3f} ms over {len(joins)} joins due every "
            f"{JOIN_PERIOD * 1e3:.0f} ms; writer: {writer.late} of "
            f"{timed_writes} writes sent after their turn")

        # writer idle: a monolithic and a chunked join at the same seqno
        final = [await self._join(joiner, kind, time.perf_counter())
                 for kind in ("full", "chunked")]
        if None not in final:
            ctx.check(
                final[0].next_seqno == final[1].next_seqno
                and final[0].digests == final[1].digests,
                "doc: monolithic and chunked views at the same seqno differ")
        outcomes += final
        ctx.attempted += writer.attempts + len(outcomes)
        ctx.failed += writer.failed + outcomes.count(None)
        self._check(ctx, members, writer, [j for j in outcomes if j is not None])
        await ctx.mark("end")
        await members.close()

    async def _join(
        self, joiner: CoronaClient, kind: str, due: float
    ) -> JoinRecord | None:
        """One join and its leave; None when the client reports that
        either failed.  The join is timed from its start; how late it
        started is kept apart (see README.md)."""
        began = time.perf_counter()
        try:
            view = await joiner.join_group(
                "doc", transfer=FULL if kind == "full" else FULL_CHUNKED)
            done = time.perf_counter()
            record = JoinRecord(kind, (done - began) * 1e3, (began - due) * 1e3,
                                view.next_seqno, view_digests(view))
            await joiner.leave_group("doc")
        except CoronaError:
            return None
        return record

    async def _join_schedule(
        self, joiner: CoronaClient, start: float, deadline: float
    ) -> list[JoinRecord | None]:
        """Open loop: join k is due at start + (k + 1/2) periods; joins
        come in monolithic/chunked pairs, and no pair starts after the
        deadline."""
        joins: list[JoinRecord | None] = []
        k = 0
        while True:
            due = start + (k + 0.5) * JOIN_PERIOD
            if k % 2 == 0 and due >= deadline:
                return joins
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            joins.append(await self._join(joiner, "full" if k % 2 == 0 else "chunked", due))
            k += 1

    def _check(
        self, ctx: Ctx, members: Members, writer: Writer, joins: list[JoinRecord]
    ) -> None:
        first = len(self.objects)
        seqnos = [w[0] for w in writer.writes]
        ctx.check(seqnos == list(range(first, first + len(seqnos))),
                  "doc: the writer's deliveries are not contiguous from the seed")
        readers = members.readers["doc"]
        for reader in readers:
            ctx.check(not reader.error, f"doc: {reader.error}")
            ctx.check(reader.deliveries == len(writer.writes),
                      f"doc: a reader counted {reader.deliveries} deliveries for "
                      f"{len(writer.writes)} writes")
        ctx.check(len({r.digest.digest() for r in readers}) == 1,
                  "doc: readers' delivery streams differ")
        # reference state at seqno N: the seeded objects overwritten by
        # every write sequenced below N
        history: dict[str, tuple[list[int], list[bytes]]] = {
            object_id: ([-1], [_digest(data)])
            for object_id, data in self.objects.items()
        }
        for seqno, object_id, digest in writer.writes:
            history[object_id][0].append(seqno)
            history[object_id][1].append(digest)
        for join in joins:
            reference = {
                object_id: digests[bisect.bisect_left(seqs, join.next_seqno) - 1]
                for object_id, (seqs, digests) in history.items()
            }
            if join.digests != reference:
                ctx.problems.append(
                    f"doc: a {join.kind} join at next_seqno {join.next_seqno} "
                    f"differs from the reference state")
                break


WORKLOADS: dict[str, Callable[[], Any]] = {
    "fanout_burst": Burst,
    "join_under_writes": JoinUnderWrites,
}
