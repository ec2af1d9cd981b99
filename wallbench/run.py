"""Wall-clock benchmark of the real Corona server.

Usage (from the repository root)::

    python3 wallbench/run.py --workload fanout_burst --seed 1 --seconds 10 --trace 0

Starts ``CoronaServer`` in a process of its own over loopback TCP with a
persistent ``GroupStore`` seeded from ``--seed``, drives one workload from
this process, checks the program's outputs, and prints one JSON object as
its last line: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  A traced run first repeats the
untraced run, then runs again with spans recorded in both processes, and
also prints the per-layer table and the tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for stores, server logs and span files (git-ignored).
WORK = ROOT / ".wallbench_work"
#: Whole-run budget; the run fails instead of hanging past it.
BUDGET_S = 170.0
#: Figures each run prints that are not end-to-end metrics of
#: BENCHMARK.json: runs of the same code did not repeat them within the
#: largest bound allowed (see README.md).
UNBOUNDED = {
    "updates_per_s": "1/s",
    "burst_cpu_us_per_update": "us",
    "update_rtt_p99_ms": "ms",
    "join_chunked_p50_ms": "ms",
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _pin() -> None:
    """Run this process, and so the server processes it starts, on the
    first CPU it may use (see README.md, "Processes")."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


async def _pass(name: str, seed: int, seconds: float, work: Path, tracer) -> "Ctx":
    from loadgen import ServerProcess
    from workloads import SETUPS, WORKLOADS, Ctx, time_setups

    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    rng = random.Random(seed)
    workload = WORKLOADS[name]()
    store = work / "store"
    workload.seed(store, rng)
    # the set-ups recover a copy of the seeded store, which the measured
    # phases' writes never reach
    setup_store = work / "setup-store"
    shutil.copytree(store, setup_store)
    traced = tracer is not None

    async def spawn(role: str, store: Path) -> ServerProcess:
        return await ServerProcess.spawn(
            store, traced,
            work / f"spans-{role}.jsonl" if traced else None, work / f"{role}.log",
        )

    # the timed set-ups get a server process of their own, half of them
    # before the measured phases and half after; the measured phases run
    # in a fresh process that has served nothing before
    setup_server = await spawn("server-setup", setup_store)
    ctx = Ctx(setup_server, seed, seconds, tracer)
    try:
        await time_setups(ctx, workload.connect, SETUPS // 2 + 1)
        ctx.server = await spawn("server", store)
        try:
            await workload.run(ctx, rng)
        finally:
            await ctx.server.close()
        ctx.server = setup_server
        await time_setups(ctx, workload.connect, SETUPS // 2)
    finally:
        await setup_server.close()
    shutil.rmtree(store)
    shutil.rmtree(setup_store)
    if traced:
        tracer.dump(work / "spans-generator.jsonl", "generator")
    return ctx


async def _run(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from layers import format_table, loadgen_busy_share, per_layer

    spec = _spec()
    work = WORK / f"{args.workload}-{args.seed}"
    lines: list[str] = []
    plain = await _pass(args.workload, args.seed, args.seconds, work / "plain", None)
    passes = [plain]
    lines += [f"{args.workload} seed {args.seed}: {note}" for note in plain.notes]
    lines.append(
        f"{args.workload}: runtime.loadgen_busy_share {loadgen_busy_share(plain):.3f}, "
        f"{int(plain.counts['updates'])} timed updates, "
        f"{int(plain.counts['rtt_samples'])} rtt samples, "
        f"{int(plain.counts['joins'])} joins")
    for metric in spec["end_to_end"]:
        lines.append(
            f"  {metric['name']:26s} {plain.metrics[metric['name']]:14.4f} {metric['unit']}")
    for name, unit in UNBOUNDED.items():
        if name in plain.metrics:
            lines.append(f"  {name:26s} {plain.metrics[name]:14.4f} {unit}  (not bounded)")
    if args.trace:
        import probes
        from tracing import Tracer

        tracer = Tracer()
        probes.install_generator(tracer)
        traced = await _pass(args.workload, args.seed, args.seconds, work / "traced", tracer)
        passes.append(traced)
        values = per_layer(traced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        lines += format_table(args.workload, values, units)
        lines.append("tracing overhead (traced minus untraced end-to-end):")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            delta = traced.metrics[name] - plain.metrics[name]
            lines.append(
                f"  {name:26s} {delta:+14.4f} {metric['unit']} "
                f"({delta / plain.metrics[name]:+.1%})")
        lines.append(f"spans written under {work / 'traced'}")
        reported = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        reported = {
            m["name"]: (plain.metrics[m["name"]], m["unit"]) for m in spec["end_to_end"]
        }
        shutil.rmtree(work)
    for ctx in passes:
        lines += [f"CHECK FAILED: {p}" for p in ctx.problems]
    result = {
        "correct": all(not ctx.problems for ctx in passes),
        "attempted": sum(ctx.attempted for ctx in passes),
        "failed": sum(ctx.failed for ctx in passes),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()
        },
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Wall-clock benchmark of the Corona server.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # Full (oldest-generation) collections off in the generator: with the
    # run's payloads and deliveries alive they paused this process for up
    # to 170 ms each, which read as server latency.  Younger generations
    # still collect; the server process keeps its collector as it is.
    young, middle, _full = gc.get_threshold()
    gc.set_threshold(young, middle, 2**31 - 1)
    _pin()
    began = time.perf_counter()
    from loadgen import BenchError
    from repro.core.errors import CoronaError

    try:
        result, lines = asyncio.run(asyncio.wait_for(_run(args), BUDGET_S))
    except (BenchError, CoronaError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except asyncio.TimeoutError:
        print(f"error: run did not finish within {BUDGET_S:.0f} s", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(f"run took {time.perf_counter() - began:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
