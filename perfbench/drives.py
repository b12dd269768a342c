"""Direct drives: each layer's public functions timed in isolation.

Every drive is a function ``body(n) -> seconds`` that performs ``n``
operations and times only them (set-up is outside the clock).
:func:`run_drives` sizes ``n`` so one loop lasts at least ``min_time``
seconds and reports the median of ``reps`` loops, per operation.

A drive shows what a layer's primitive costs on its own; how much of an
end-to-end number that explains is read from the folded profile, not
from here (see the interaction table in the README).
"""

from __future__ import annotations

import random
import shutil
import time
from typing import Callable, Dict, Tuple

from .workloads import med

__all__ = ["run_drives"]

_clock = time.perf_counter

CONTROLLERS = ("uncoupled", "ewtcp", "coupled", "semicoupled", "lia", "cubic",
               "olia", "balia", "wvegas")


# -- sim -----------------------------------------------------------------
def _sim_event(n: int) -> float:
    from repro.sim.engine import EventScheduler

    sched = EventScheduler()
    left = [n]

    def tick():
        left[0] -= 1
        if left[0]:
            sched.post_in(0.001, tick)

    sched.post_in(0.001, tick)
    start = _clock()
    sched.run()
    return _clock() - start


def _noop():
    pass


def _sim_cancel(n: int) -> float:
    from repro.sim.engine import EventScheduler

    sched = EventScheduler()
    start = _clock()
    for i in range(n):
        sched.schedule_at(1e6 + i * 1e-3, _noop).cancel()
    return _clock() - start


# -- net -----------------------------------------------------------------
class _Sink:
    def receive(self, packet):
        pass


def _net_hop(n: int) -> float:
    from repro.net.packet import Packet
    from repro.net.pipe import Pipe
    from repro.net.queue import DropTailQueue
    from repro.sim.simulation import Simulation

    sim = Simulation(seed=1)
    queue = DropTailQueue(sim, rate_pps=1e6, capacity=n + 1, jitter=0.0)
    route = (queue, Pipe(sim, delay=0.001), _Sink())
    start = _clock()
    for _ in range(n):
        Packet(route, size=1.0, flow=None).send()
    sim.run()
    return _clock() - start


# -- tcp -----------------------------------------------------------------
def _tcp_scoreboard(n: int) -> float:
    """A synthetic ACK stream: per ten-packet round, two SACK blocks
    around a hole, loss detection after each, then the cumulative ACK —
    five scoreboard calls."""
    from repro.tcp.scoreboard import SackScoreboard

    board = SackScoreboard()
    rounds = max(1, n // 5)
    start = _clock()
    base = 0
    for _ in range(rounds):
        board.mark_sacked(base + 2, base + 5)
        board.detect_losses(3)
        board.mark_sacked(base + 6, base + 9)
        board.detect_losses(3)
        base += 10
        board.advance(base)
    return (_clock() - start) * n / (rounds * 5)


# -- core ----------------------------------------------------------------
class _Clock:
    now = 0.0


class _Subflow:
    """The ``WindowedSubflow`` surface plus what wVegas (``base_rtt``)
    and CUBIC (``sim.now``) read."""

    def __init__(self, cwnd, srtt, clock):
        self.cwnd = cwnd
        self.srtt = srtt
        self.min_cwnd = 1.0
        self.base_rtt = 0.8 * srtt
        self.sim = clock
        self.name = "stub"


def _on_ack(algo: str) -> Callable[[int], float]:
    def body(n: int) -> float:
        from repro.core.registry import make_controller

        clock = _Clock()
        controller = make_controller(algo)
        subflows = [_Subflow(10.0, 0.1, clock), _Subflow(20.0, 0.2, clock)]
        for subflow in subflows:
            controller.add_subflow(subflow)
        on_ack, on_loss = controller.on_ack, controller.on_loss
        start = _clock()
        for i in range(n):
            subflow = subflows[i & 1]
            on_ack(subflow)
            if not i & 255:   # a loss now and then keeps windows in range
                clock.now += 0.1
                on_loss(subflow)
        return _clock() - start
    return body


# -- fluid / hybrid -------------------------------------------------------
def _fluid_step(n: int) -> float:
    from repro.fluid.dynamics import step_windows

    windows = [10.0, 20.0]
    start = _clock()
    for _ in range(n):
        windows = step_windows("lia", windows, [0.01, 0.02], [0.1, 0.2], 0.02)
    return _clock() - start


def _hybrid_step(n: int) -> float:
    """``n`` class-steps: 50 classes on the torus for ``n / 50`` steps."""
    from repro.hybrid import HybridSimulation
    from repro.topology.scenarios import build_torus

    classes, dt = 50, 0.02
    steps = max(1, n // classes)
    sim = HybridSimulation(seed=1, dt=dt)
    scenario = build_torus(sim, [20.0 * 2 * 100 * classes / 5] * 5)
    for c in range(classes):
        sim.add_class(scenario.routes(f"f{c % 5}"), "lia", count=100,
                      name=f"c{c}")
    start = _clock()
    sim.run_until(dt * steps + dt / 2)
    return (_clock() - start) * n / (steps * classes)


# -- obs / check -----------------------------------------------------------
def _emit(make_sink) -> Callable[[int], float]:
    def body(n: int) -> float:
        from repro.obs.trace import TraceBus

        sink = make_sink()
        bus = TraceBus(sinks=[] if sink is None else [sink])
        emit = bus.emit
        start = _clock()
        for i in range(n):
            emit("pkt.enqueue", 0.001 * i, queue="q0", flow="f0", seq=i,
                 occ=3)
        elapsed = _clock() - start
        bus.close()
        return elapsed
    return body


def _recorded_stream(scratch):
    """The trace records of a short monitored torus point."""
    from repro.check.hooks import trace_override
    from repro.exp import ScenarioSpec, TaskSpec, execute_task
    from repro.obs.sinks import MemorySink
    from repro.obs.trace import TraceBus

    sink = MemorySink()
    spec = ScenarioSpec("torus_balance", seed=1, warmup=0.25, duration=0.5,
                        params={"algo": "lia", "capacity_c": 250.0,
                                "check": 1})
    with trace_override(TraceBus(sinks=[sink])):
        execute_task(TaskSpec(0, spec))
    return [r for r in sink if not r["ev"].startswith("check.")]


def _check_write(stream) -> Callable[[int], float]:
    def body(n: int) -> float:
        from repro.check.invariants import InvariantMonitor
        from repro.obs.trace import TraceBus
        from repro.sim.simulation import Simulation

        elapsed, done = 0.0, 0
        while done < n:
            # Replays start from an unbuilt simulation: the per-event
            # checks run on the records alone.
            monitor = InvariantMonitor()
            monitor.attach(Simulation(seed=1, trace=TraceBus()))
            batch = stream[: n - done]
            write = monitor.write
            start = _clock()
            for record in batch:
                write(record)
            elapsed += _clock() - start
            done += len(batch)
        return elapsed
    return body


# -- exp / farm -------------------------------------------------------------
def _cache_ops(scratch) -> Dict[str, Callable[[int], float]]:
    from repro.exp import ResultCache, ScenarioSpec, TaskSpec

    root = scratch / "drive-cache"
    row = {"ratio": 0.93, "m_pps": 372.5, "best_single_pps": 400.25}

    def tasks(n):
        return [TaskSpec(i, ScenarioSpec("rtt_ratio", seed=i,
                                         params={"c2": 400.0, "rtt2": 0.05}))
                for i in range(n)]

    def key(n):
        cache, batch = ResultCache(root, version="drive"), tasks(n)
        start = _clock()
        for task in batch:
            cache.key(task)
        return _clock() - start

    def store(n):
        cache, batch = ResultCache(root, version="drive"), tasks(n)
        keys = [cache.key(task) for task in batch]
        start = _clock()
        for k, task in zip(keys, batch):
            cache.store(k, task, row)
        elapsed = _clock() - start
        shutil.rmtree(root, ignore_errors=True)
        return elapsed

    def load(n):
        # A small hot set read round and round: the parse and the file
        # system's cached-read path, not the disk.
        cache, batch = ResultCache(root, version="drive"), tasks(64)
        keys = [cache.key(task) for task in batch]
        for k, task in zip(keys, batch):
            cache.store(k, task, row)
        start = _clock()
        for i in range(n):
            cache.load(keys[i & 63])
        elapsed = _clock() - start
        shutil.rmtree(root, ignore_errors=True)
        return elapsed

    return {"exp.cache_key_us": key, "exp.cache_store_us": store,
            "exp.cache_load_us": load}


def _farm_ops(scratch) -> Dict[str, Callable[[int], float]]:
    from repro.farm import FarmLayout

    root = scratch / "drive-farm"

    def claim(n):
        layout = FarmLayout(root)
        layout.create_dirs()
        for i in range(n):
            layout.enqueue(i, attempt=1)
        start = _clock()
        for i in range(n):
            layout.claim(i)
        elapsed = _clock() - start
        shutil.rmtree(root, ignore_errors=True)
        return elapsed

    def journal(n):
        layout = FarmLayout(root)
        layout.create_dirs()
        start = _clock()
        for i in range(n):
            layout.journal("lease", task=i, worker="local-0", attempt=1)
        elapsed = _clock() - start
        shutil.rmtree(root, ignore_errors=True)
        return elapsed

    return {"farm.claim_us": claim, "farm.journal_us": journal}


# -- rt ---------------------------------------------------------------------
def _wire_packets():
    from repro.net.packet import AckPacket, DataPacket

    data = DataPacket((), None, seq=1234, timestamp=12.5, dsn=98765)
    ack = AckPacket((), None, ack_seq=1200, echo_timestamp=12.4,
                    data_ack=98000, rwnd=256,
                    sack_blocks=((1202, 1210), (1212, 1220), (1230, 1235)))
    return data, ack


def _codec_encode(n: int) -> float:
    """An MSS-padded DATA frame and an ACK with three SACK blocks."""
    from repro.net.packet import MSS_BYTES
    from repro.rt.codec import encode

    data, ack = _wire_packets()
    start = _clock()
    for _ in range(n // 2 + 1):
        encode(1, data, pad_to=MSS_BYTES)
        encode(1, ack)
    return (_clock() - start) * n / (2 * (n // 2 + 1))


def _codec_decode(n: int) -> float:
    from repro.net.packet import MSS_BYTES
    from repro.rt.codec import decode, encode

    data, ack = _wire_packets()
    frames = (encode(1, data, pad_to=MSS_BYTES), encode(1, ack))
    start = _clock()
    for _ in range(n // 2 + 1):
        decode(frames[0])
        decode(frames[1])
    return (_clock() - start) * n / (2 * (n // 2 + 1))


class _StubTimers:
    now = 0.0

    def schedule_at(self, when, callback, arg=None):
        pass


class _StubRtSim:
    def __init__(self):
        from repro.obs.trace import NULL_TRACE

        self.trace = NULL_TRACE
        self.timers = _StubTimers()
        self.rng = random.Random(1)


def _netem_admit(n: int) -> float:
    """Rate-limited admission with timers stubbed out: the channel's own
    bookkeeping, without asyncio."""
    from repro.rt.netem import NetemChannel, NetemProfile

    sim = _StubRtSim()
    channel = NetemChannel(sim, "p0", "fwd", NetemProfile(
        delay=0.005, rate_mbps=10.0, buffer_pkts=n + 1))
    datagram = bytes(64)
    start = _clock()
    for _ in range(n):
        channel.admit(datagram, 1.0, _noop_send)
    return _clock() - start


def _noop_send(datagram):
    pass


# ---------------------------------------------------------------------------
#: Drives whose set-up writes one file per operation are kept short.
FILE_OPS_CAP = 1000


def _drives(scratch) -> Dict[str, Tuple[Callable[[int], float], float]]:
    """Metric name -> (body, result scale: 1e9 for ns, 1e6 for us)."""
    from repro.obs.sinks import ColumnarSink, JsonlSink

    ns, us = 1e9, 1e6
    table = {
        "sim.event_ns": (_sim_event, ns),
        "sim.cancel_ns": (_sim_cancel, ns),
        "net.hop_ns": (_net_hop, ns),
        "tcp.scoreboard_op_ns": (_tcp_scoreboard, ns),
        "fluid.step_us": (_fluid_step, us),
        "hybrid.step_us_per_class": (_hybrid_step, us),
        "obs.emit_ns.null": (_emit(lambda: None), ns),
        "obs.emit_ns.columnar": (_emit(ColumnarSink), ns),
        "obs.emit_ns.jsonl": (
            _emit(lambda: JsonlSink(str(scratch / "drive-emit.jsonl"))), ns),
        "check.write_ns": (_check_write(_recorded_stream(scratch)), ns),
        "rt.codec_encode_ns": (_codec_encode, ns),
        "rt.codec_decode_ns": (_codec_decode, ns),
        "rt.netem_admit_ns": (_netem_admit, ns),
    }
    for algo in CONTROLLERS:
        table[f"core.on_ack_ns.{algo}"] = (_on_ack(algo), ns)
    for name, body in {**_cache_ops(scratch), **_farm_ops(scratch)}.items():
        table[name] = (body, us)
    return table


def run_drives(scratch, min_time: float, reps: int) -> Dict[str, float]:
    """Median cost per operation of every drive: each loop is sized
    from a short trial to last about ``min_time`` seconds and run
    ``reps`` times."""
    capped = {"exp.cache_store_us", "farm.claim_us"}
    out = {}
    for name, (body, scale) in _drives(scratch).items():
        trial = 500
        per_op = max(body(trial) / trial, 1e-9)
        n = max(trial, int(min_time / per_op))
        if name in capped:
            n = min(n, FILE_OPS_CAP)
        out[name] = scale * med([body(n) / n for _ in range(reps)])
    return out
