"""Where the traced run records spans and counts in the program.

Each probe wraps one public function of a layer from outside the program
(see :func:`tracing.patch_everywhere`).  The span and counter names used
here are the ones :mod:`layers` turns into per-layer metrics.
"""

from __future__ import annotations

from typing import Any

from tracing import Tracer, patch_everywhere

from repro.core.client import ClientCore
from repro.core.interpreter import EffectInterpreter
from repro.core.log import StateLog
from repro.core.server import ServerCore
from repro.core import transfer
from repro.core.transfer import OutgoingTransfer
from repro.net.flowcontrol import BoundedOutbox
from repro.net.tcp import TcpConnection
from repro.storage.store import GroupStore
from repro.wire import codec, frames
from repro.wire.messages import Delivery, JoinReply, StateChunk, StateSnapshot

__all__ = ["install_server", "install_generator"]

#: Messages whose encoding is a state transfer (the snapshot itself, its
#: chunks, and the reply that carries a monolithic snapshot).
_SNAPSHOT_TYPES = (StateSnapshot, StateChunk, JoinReply)


def _method(tracer: Tracer, cls: type, attr: str, name: Any, **kwargs: Any) -> None:
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **kwargs))


def install_server(tracer: Tracer) -> None:
    """Wrap the server-side layer boundaries: wire, net, core and
    storage (runtime figures come from the process's own counters)."""
    # wire
    patch_everywhere(codec, "encode", tracer.wrap(
        lambda obj: "wire.encode.snapshot"
        if isinstance(obj, _SNAPSHOT_TYPES) else "wire.encode",
        codec.encode,
    ))
    patch_everywhere(codec, "decode", tracer.wrap("wire.decode", codec.decode))
    original_frame = frames.encoded_frame

    def encoded_frame(message: Any) -> Any:
        tracer.count("wire.encoded_frame")
        return original_frame(message)

    patch_everywhere(frames, "encoded_frame", encoded_frame)

    # net
    def count_frames(args: tuple) -> None:
        tracer.count("net.writes")
        messages = args[1]
        tracer.count("net.frames", len(messages) if isinstance(messages, list) else 1)

    TcpConnection.send = tracer.wrap_coroutine(
        "net.write", TcpConnection.send, before=count_frames
    )
    TcpConnection.send_many = tracer.wrap_coroutine(
        "net.write", TcpConnection.send_many, before=count_frames
    )
    _method(tracer, BoundedOutbox, "push", "net.outbox_push")

    # core
    _method(
        tracer, ServerCore, "handle_message", "core.server_handle",
        trace_id=lambda _core, conn, message: (
            f"{type(message).__name__}:{conn}:{getattr(message, 'request_id', '')}"
        ),
    )
    _method(
        tracer, EffectInterpreter, "execute", "core.execute",
        after=lambda _result, args: tracer.count("core.effects", len(args[1])),
    )
    _method(tracer, StateLog, "append", "core.log_append")
    last_snapshot: dict[str, Any] = {}

    def snapshot_built(snapshot: Any, _args: tuple) -> None:
        tracer.count("core.snapshot_builds")
        if last_snapshot.get(snapshot.group) is snapshot:
            tracer.count("core.snapshot_cache_hits")
        last_snapshot[snapshot.group] = snapshot

    patch_everywhere(transfer, "build_snapshot", tracer.wrap(
        "core.build_snapshot", transfer.build_snapshot, after=snapshot_built
    ))

    def chunks_sent(chunks: list, _args: tuple) -> None:
        tracer.count("core.chunks", len(chunks))
        tracer.count("core.chunk_bytes", sum(len(c.data) for c in chunks))

    _method(tracer, OutgoingTransfer, "next_chunks", "core.next_chunks", after=chunks_sent)
    _method(tracer, OutgoingTransfer, "on_ack", "core.on_ack", after=chunks_sent)

    # storage
    def record_written(_result: Any, _args: tuple) -> None:
        tracer.count("storage.wal_calls")
        tracer.count("storage.wal_records")

    _method(tracer, GroupStore, "append", "storage.wal", after=record_written)

    def batch_written(_result: Any, args: tuple) -> None:
        tracer.count("storage.wal_calls")
        tracer.count("storage.wal_records", len(args[2]))

    _method(tracer, GroupStore, "append_many", "storage.wal", after=batch_written)
    _method(tracer, GroupStore, "flush", "storage.flush")
    _method(tracer, GroupStore, "recover_all", "storage.recover_all")


def install_generator(tracer: Tracer) -> None:
    """Wrap the full-library clients of the load generator: their decode
    and their protocol core."""
    patch_everywhere(codec, "decode", tracer.wrap("client.decode", codec.decode))

    def handled(_result: Any, args: tuple) -> None:
        if type(args[2]) is Delivery:
            tracer.count("client.deliveries")

    _method(
        tracer, ClientCore, "handle_message",
        lambda _core, _conn, message: "client.handle.chunk"
        if type(message) is StateChunk else "client.handle",
        after=handled,
    )
