"""The ledger's own load generator: seeded inputs, raw samples, checks.

Inputs are generated before anything is timed: the frames
a connection will send are pre-encoded and each one carries the outcome
the service must produce. That outcome is known up front because a
connection only touches its own address slice and the service preserves
admission order per address (same-address requests join the in-flight
request's waiter chain), so the model state *at send position* is what
every get/delete must observe even when responses overtake each other
on the wire — the same argument ``repro.serve.loadgen`` makes for its
open-loop client.

The client frames its own messages (``json`` + ``struct`` here, not
``repro.serve.protocol``), so the traced ``serve.protocol`` spans are
the server's alone. Latencies are raw ``perf_counter_ns`` samples.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_LEN = struct.Struct(">I")
_now = time.perf_counter_ns

#: Request ids are ``connection * ID_STRIDE + sequence``.
ID_STRIDE = 10_000_000

PUT_SHARE, GET_SHARE = 0.5, 0.4  # the rest deletes


@dataclass
class Planned:
    """One generated request and the outcome the model predicts."""

    op: str
    addr: int
    value: object
    #: For get: the stored value (None = absent); for delete: whether
    #: the address held a block; unused for put.
    expected: object


#: Seeds the *shape* of every request stream: the order of operations
#: and which requests share an address. It is not ``--seed``: at
#: 1 600-8 400 requests the shape alone decides how many dummy paths the
#: label queue schedules, which moved ``buckets_per_op`` by 1-3 % and
#: ``latency_p50_ms`` by up to 6 % from one seed to the next.
SHAPE_SEED = 41


def plan_requests(
    stream: str,
    seed: int,
    count: int,
    addr_base: int,
    addr_span: int,
    binary_values: int = 0,
) -> List[Planned]:
    """``count`` requests, 50/40/10 put/get/delete, uniform addresses.

    The shape comes from :data:`SHAPE_SEED` and ``stream`` (one name
    per connection); ``seed`` only marks the payloads. ``binary_values``
    > 0 makes put payloads ``bytes`` of exactly that length (what
    :class:`CounterModeCipher` stores and returns); otherwise they are
    short strings, as the wire protocol requires.
    """
    rng = random.Random(f"ledger-shape:{SHAPE_SEED}:{stream}")
    tag = f"{stream}-{seed}"
    model: Dict[int, object] = {}
    planned: List[Planned] = []
    for sequence in range(count):
        addr = addr_base + rng.randrange(addr_span)
        roll = rng.random()
        if roll < PUT_SHARE:
            text = f"{tag}-s{sequence}"
            value: object = (
                text.encode().ljust(binary_values, b".")
                if binary_values
                else text
            )
            planned.append(Planned("put", addr, value, None))
            model[addr] = value
        elif roll < PUT_SHARE + GET_SHARE:
            planned.append(Planned("get", addr, None, model.get(addr)))
        else:
            planned.append(
                Planned("delete", addr, None, model.get(addr) is not None)
            )
            model[addr] = None
    return planned


def outcome_matches(plan: Planned, found: bool, value: object) -> bool:
    if plan.op == "get":
        return (found, value) == (plan.expected is not None, plan.expected)
    if plan.op == "delete":
        return found == plan.expected
    return True


def encode_request(ident: int, plan: Planned) -> bytes:
    message: Dict[str, object] = {"id": ident, "op": plan.op, "addr": plan.addr}
    if plan.op == "put":
        message["value"] = plan.value
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(body)) + body


@dataclass
class Tally:
    """What one connection (or the direct driver) saw in one phase."""

    attempted: int = 0
    completed: int = 0
    refused: int = 0  # ok: false
    wrong: int = 0  # contradicts the model, or an unknown id
    latencies_ns: List[int] = field(default_factory=list)
    late_ns: List[int] = field(default_factory=list)
    last_response_ns: int = 0

    @property
    def failed(self) -> int:
        """Refused, wrong, or never answered (lost / past deadline)."""
        return self.refused + self.wrong + (self.attempted - self.completed)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.completed += other.completed
        self.refused += other.refused
        self.wrong += other.wrong
        self.latencies_ns.extend(other.latencies_ns)
        self.late_ns.extend(other.late_ns)
        self.last_response_ns = max(
            self.last_response_ns, other.last_response_ns
        )


class Connection:
    """One pipelined TCP session over a planned request sequence."""

    def __init__(
        self,
        index: int,
        plans: Sequence[Planned],
        trace: Callable[[Callable], Callable] = lambda fn: fn,
    ) -> None:
        self.index = index
        self.plans = plans
        #: Wraps the coroutines this connection spawns as tasks (the
        #: traced pass attributes their running time to the load generator).
        self._trace = trace
        self.base_id = index * ID_STRIDE
        self.frames = [
            encode_request(self.base_id + sequence, plan)
            for sequence, plan in enumerate(plans)
        ]
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self._buffer = b""

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass

    def _score(self, message: dict, tally: Tally, first: int, last: int) -> int:
        """Check one response against its plan; returns its sequence
        number, or -1 when the id is not one this phase is waiting on."""
        ident = message.get("id")
        sequence = ident - self.base_id if isinstance(ident, int) else -1
        if not first <= sequence < last:
            tally.wrong += 1
            return -1
        tally.completed += 1
        if not message.get("ok"):
            tally.refused += 1
        elif not outcome_matches(
            self.plans[sequence], bool(message.get("found")), message.get("value")
        ):
            tally.wrong += 1
        return sequence

    async def _read_batch(self) -> Tuple[int, List[dict]]:
        """Wait for bytes; returns ``(arrival_ns, messages)`` — every
        whole frame now buffered — or ``(0, [])`` once the peer closed."""
        reader = self.reader
        assert reader is not None
        data = await reader.read(1 << 16)
        if not data:
            return 0, []
        arrival = _now()
        buffer = self._buffer + data
        header = _LEN.size
        messages: List[dict] = []
        offset = 0
        while len(buffer) - offset >= header:
            (length,) = _LEN.unpack_from(buffer, offset)
            end = offset + header + length
            if end > len(buffer):
                break
            messages.append(json.loads(buffer[offset + header : end]))
            offset = end
        self._buffer = buffer[offset:]
        return arrival, messages

    async def run_closed(
        self, first: int, last: int, window: int, tally: Tally
    ) -> None:
        """Closed loop: ``window`` requests outstanding, the next one
        sent the moment a response arrives. Results land in ``tally``
        as they come, so they survive a deadline cancelling the phase."""
        assert self.writer is not None
        write = self.writer.write
        frames = self.frames
        sent_at: Dict[int, int] = {}
        cursor = first
        while cursor < min(first + window, last):
            sent_at[cursor] = _now()
            write(frames[cursor])
            cursor += 1
        while tally.completed < tally.attempted:
            arrival, messages = await self._read_batch()
            if not arrival:
                break  # peer closed: the rest are lost
            for message in messages:
                sequence = self._score(message, tally, first, last)
                if sequence >= 0:
                    tally.latencies_ns.append(arrival - sent_at.pop(sequence))
                    tally.last_response_ns = arrival
                if cursor < last:
                    sent_at[cursor] = _now()
                    write(frames[cursor])
                    cursor += 1

    async def run_open(
        self, first: int, due_ns: Sequence[int], tally: Tally
    ) -> None:
        """Open loop: request ``first + i`` is sent at ``due_ns[i]``
        whatever the service is doing; latency runs from the due time."""
        last = first + len(due_ns)
        sender = asyncio.ensure_future(
            self._trace(self._send_on_clock)(first, due_ns, tally)
        )
        try:
            while tally.completed < tally.attempted:
                arrival, messages = await self._read_batch()
                if not arrival:
                    break
                for message in messages:
                    sequence = self._score(message, tally, first, last)
                    if sequence >= 0:
                        tally.latencies_ns.append(
                            arrival - due_ns[sequence - first]
                        )
                        tally.last_response_ns = arrival
        finally:
            sender.cancel()
            await asyncio.gather(sender, return_exceptions=True)

    async def _send_on_clock(
        self, first: int, due_ns: Sequence[int], tally: Tally
    ) -> None:
        assert self.writer is not None
        write = self.writer.write
        frames = self.frames
        for offset, due in enumerate(due_ns):
            delay = due - _now()
            if delay > 1_500_000:
                # The selector rounds timeouts up to a millisecond:
                # sleep short of the due time, then yield until it.
                await asyncio.sleep((delay - 1_200_000) / 1e9)
            while _now() < due:
                await asyncio.sleep(0)
            tally.late_ns.append(_now() - due)
            write(frames[first + offset])


def uniform_arrivals_ns(stream: str, count: int, duration_s: float) -> List[int]:
    """``count`` arrival offsets of a Poisson process conditioned on
    exactly ``count`` arrivals in ``duration_s`` (sorted uniforms), so
    the offered rate is exact. Part of the stream's shape: drawn from
    :data:`SHAPE_SEED`, not from ``--seed``."""
    rng = random.Random(f"ledger-arrivals:{SHAPE_SEED}:{stream}")
    span = int(duration_s * 1e9)
    return sorted(rng.randrange(span) for _ in range(count))


async def drive_engine(
    engine,
    plans: Sequence[Planned],
    first: int,
    last: int,
    outstanding: int,
    make_request,
    clock,
    tally: Tally,
) -> None:
    """Drive an engine directly: submit until refused or ``outstanding``
    requests are in flight, run one access, reap completions."""
    in_flight: List[Tuple[int, object]] = []
    held = None
    cursor = first
    while tally.completed < tally.attempted:
        while cursor < last and len(in_flight) < outstanding:
            if held is None:
                plan = plans[cursor]
                held = make_request(plan, clock())
            if not engine.submit(held):
                break
            in_flight.append((cursor, held))
            held = None
            cursor += 1
        await engine.run_access()
        still: List[Tuple[int, object]] = []
        for sequence, request in in_flight:
            if not request.status:
                still.append((sequence, request))
                continue
            tally.completed += 1
            tally.latencies_ns.append(
                int(request.completed_ns - request.arrival_ns)
            )
            if request.status == "failed":
                tally.refused += 1
            elif not outcome_matches(
                plans[sequence], request.found, request.result
            ):
                tally.wrong += 1
        in_flight = still
