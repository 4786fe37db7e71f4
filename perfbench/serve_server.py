"""The server process of the ``serve-*`` workloads.

Builds the Amazon-like tree and its catalog distribution,
compiles :class:`GreedyTreePolicy`, and puts a library-default
:class:`Server` behind a :class:`ServeTransport` on localhost.  Once it
listens it prints one JSON line (port, set-up figures).  After that it
answers commands read from stdin, one per line, each with one JSON line on
stdout:

* ``snap`` — the server's own counters: ``ServerStats``, ``TransportStats``,
  CPU and wall time spent inside ``Server.step`` and the CPU of the
  event-loop thread;
* ``trace 0`` / ``trace 1`` — stop or start recording step spans;
* ``quit`` — drain the transport, write the spans, reply with their
  summary and exit.

``--probe`` exits as soon as the server listens (set-up time probe).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from common import Tracer, emit_line  # noqa: E402


def _timed_server_class():
    from repro.serve import Server

    class TimedServer(Server):
        """``Server`` whose ``step`` is timed (CPU of the stepping thread and
        wall), with the in-flight batch size it advanced."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.step_cpu_s = 0.0
            self.step_wall_s = 0.0
            self.step_batch = 0
            self.tracer = Tracer(False)

        def step(self):
            batch = self.in_flight
            span = self.tracer.begin("server.step")
            cpu = time.thread_time()
            wall = time.perf_counter()
            try:
                return super().step()
            finally:
                self.step_wall_s += time.perf_counter() - wall
                self.step_cpu_s += time.thread_time() - cpu
                self.step_batch += batch
                self.tracer.end(span)

    return TimedServer


def build(scale: str) -> dict:
    """Dataset, tree index and compiled plan; returns them with timings."""
    from repro.plan import compile_policy
    from repro.policies import GreedyTreePolicy

    common.assert_no_defaults()
    start = time.perf_counter()
    hierarchy, distribution = common.load_dataset(scale, "amazon")
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    tin, tout = hierarchy.tree_intervals()
    index_s = time.perf_counter() - start
    hwm = common.peak_rss_mb()
    start = time.process_time()
    plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
    compile_s = time.process_time() - start
    return {
        "hierarchy": hierarchy,
        "distribution": distribution,
        "plan": plan,
        "figures": {
            "hierarchy.build_s": build_s,
            "hierarchy.index_s": index_s,
            "hierarchy.index_mb": (tin.nbytes + tout.nbytes) / 2**20,
            "plan.compile_s": compile_s,
            "plan.decision_nodes": plan.num_questions,
            "plan.compile_rss_mb": common.peak_rss_mb() - hwm,
        },
    }


def snapshot(server, transport) -> dict:
    stats, tstats = server.stats, transport.stats
    return {
        "completed": stats.completed,
        "rejected": stats.rejected,
        "errored": stats.errored,
        "steps": stats.steps,
        "peak_in_flight": stats.peak_in_flight,
        "step_cpu_s": server.step_cpu_s,
        "step_wall_s": server.step_wall_s,
        "step_batch": server.step_batch,
        "loop_cpu_s": common.thread_cpu_s(os.getpid(), os.getpid()),
        "frames_in": tstats.frames_in,
        "frames_out": tstats.frames_out,
        "transport_rejected": tstats.rejected,
        "protocol_errors": tstats.protocol_errors,
        "orphaned": tstats.orphaned,
    }


async def serve(args, built: dict) -> None:
    from repro.serve import ServeTransport

    server = _timed_server_class()(built["plan"])
    transport = ServeTransport(server)
    host, port = await transport.start()
    emit_line({"ready": True, "host": host, "port": port,
               "config_key": built["plan"].config_key, **built["figures"]})
    if args.probe:
        await transport.shutdown(timeout=10.0)
        server.close()
        return
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    try:
        while True:
            line = (await reader.readline()).decode().strip()
            if line == "snap":
                emit_line(snapshot(server, transport))
            elif line.startswith("trace "):
                server.tracer.enabled = line.endswith("1")
                emit_line({"trace": server.tracer.enabled})
            elif line in ("quit", ""):
                break
            else:
                emit_line({"error": f"unknown command {line!r}"})
    finally:
        await transport.shutdown(timeout=10.0)
        server.close()
    server.tracer.write("server")
    emit_line({"spans": server.tracer.summary()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="paper")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    common.make_hermetic()
    common.pin("server")
    built = build(args.scale)
    common.freeze_heap()
    asyncio.run(serve(args, built))
    return 0


if __name__ == "__main__":
    sys.exit(main())
