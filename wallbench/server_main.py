"""The benchmark's server process: one real ``CoronaServer`` over TCP.

Started by ``run.py`` with the store it seeded.  It imports everything,
prints one ``{"ready": ...}`` line, then obeys JSON-line commands on
standard input and answers each with one JSON line on standard output:

``start``    recover the store, bind an ephemeral loopback port, serve;
             answers the port and the clock reading taken just before
             ``CoronaServer.start`` was called.
``stop``     stop serving (connections closed, storage flushed).
``gauges``   the host's flow-control gauges and counters.
``collect``  run a full garbage collection.
``trace``    the tracer's aggregates so far (traced runs only).
``exit``     write the spans (traced runs only) and exit.

With ``--trace 1`` the probes of :mod:`probes` are installed before the
first ``CoronaServer.start``.  Server logs go to standard error, which
the benchmark sends to a file.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from repro.runtime.server import CoronaServer  # noqa: E402
from repro.storage.store import GroupStore  # noqa: E402
from tracing import Tracer  # noqa: E402


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _gauges(server: CoronaServer) -> dict:
    host = server.host
    stats = host.dispatch_stats
    return {
        "outbox_peak_depth": host.outbox_peak_depth,
        "outbox_kicks": stats.outbox_kicks,
        "outbox_coalesced": stats.outbox_coalesced,
    }


async def serve(args: argparse.Namespace) -> None:
    tracer = None
    if args.trace:
        import probes

        tracer = Tracer()
        probes.install_server(tracer)
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    _reply({"ready": True})
    server: CoronaServer | None = None
    while True:
        line = await commands.readline()
        if not line:
            break
        request = json.loads(line)
        op = request["op"]
        if op == "start":
            server = CoronaServer(store=GroupStore(args.store))
            t0 = time.perf_counter()
            address = await server.start("127.0.0.1", 0)
            t1 = time.perf_counter()
            _reply({"port": address[1], "t0": t0, "start_s": t1 - t0})
        elif op == "stop":
            if server is not None:
                await server.stop()
                server = None
            _reply({"stopped": True})
        elif op == "gauges":
            _reply(_gauges(server) if server is not None else {})
        elif op == "collect":
            _reply({"collected": gc.collect()})
        elif op == "trace":
            _reply(tracer.snapshot() if tracer is not None else {})
        elif op == "exit":
            if server is not None:
                await server.stop()
            written = 0
            if tracer is not None and args.spans:
                written = tracer.dump(Path(args.spans), "server")
            _reply({"spans_written": written})
            break
        else:
            _reply({"error": f"unknown op {op!r}"})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
