"""Load generation against a running query server.

The client side of ``serve-nodes``: at most two TCP connections from
one process.  Request frames are encoded before the clock starts; the
responses are kept as raw bytes and decoded and checked only after the
phase ends, so the generator spends its time sending and receiving.

* :func:`open_loop` sends request ``i`` at ``t0 + i / rate`` whatever
  the server is doing, on the connection with the fewest outstanding
  requests (requests pipeline in order on a connection).  Latency runs
  from when a request was due, so a stall also charges the requests
  queued behind it; ``late`` records how far the sender itself fell
  behind its schedule.  Given a :class:`~speed.Speed`, it probes the
  CPU back to back whenever no request is outstanding, so the CPU never
  idles before a request (as in the in-process workloads, where probes
  and operations alternate) and each request is scaled by the many
  probes beside it.
* :func:`closed_loop` keeps exactly one request outstanding on each
  connection — the server's capacity with two callers that each wait.
"""

from __future__ import annotations

import json
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from common import WrongAnswer

_PREFIX = struct.Struct(">I")
#: Time left before a request's due time that still has room for one
#: more speed probe (about 2 ms) without delaying the request.
_PROBE_ROOM = 0.004


@dataclass
class Record:
    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    body: Optional[bytes] = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def oracle_json(rows) -> list:
    """Oracle rows in the wire's JSON shape (tuples become lists)."""
    return json.loads(json.dumps(rows))


#: The message the server sends when a response overflows MAX_FRAME.
FRAME_CAP = "response exceeded the frame size cap"


def classify(payload: dict, window, expected) -> str:
    """``ok`` for a correct answer; ``frame_cap`` for the known
    MAX_FRAME overflow; ``refused:<CODE>`` for any other error
    response.  A successful response with a wrong cell raises."""
    if not payload.get("ok"):
        error = payload.get("error") or {}
        if error.get("code") == "INTERNAL" and FRAME_CAP in error.get("message", ""):
            return "frame_cap"
        return f"refused:{error.get('code')}"
    start, stop = window
    if payload.get("results") != expected[start:stop]:
        raise WrongAnswer(f"serve-nodes window {tuple(window)} differs from the oracle")
    return "ok"


def connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=60.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def read_body(sock: socket.socket) -> bytes:
    """One frame body, raw (the length prefix stripped)."""
    (length,) = _PREFIX.unpack(_read_exact(sock, _PREFIX.size))
    return _read_exact(sock, length)


def _read_exact(sock: socket.socket, count: int) -> bytes:
    parts = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionError("server closed the connection mid-frame")
        parts.append(chunk)
        count -= len(chunk)
    return b"".join(parts)


class _Connection:
    """One pipelined connection: records wait in ``pending`` in send
    order; a receiver thread pairs each response with the oldest."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.pending: "queue.Queue[Optional[Record]]" = queue.Queue()
        self.outstanding = 0
        self.lock = threading.Lock()

    def receive(self) -> None:
        record = None
        try:
            while True:
                record = self.pending.get()
                if record is None:
                    return
                body = read_body(self.sock)
                record.done = time.perf_counter()
                record.body = body
                with self.lock:
                    self.outstanding -= 1
                record = None
        except OSError as exc:
            stranded = [record] if record is not None else []
            while not self.pending.empty():
                item = self.pending.get_nowait()
                if item is not None:
                    stranded.append(item)
            for item in stranded:
                item.error = f"{type(exc).__name__}: {exc}"
                item.done = time.perf_counter()


def open_loop(
    host: str,
    port: int,
    frames: Sequence[bytes],
    rate: float,
    speed=None,
    connections: int = 2,
    drain_seconds: float = 60.0,
) -> List[Record]:
    """Send ``frames`` at a fixed ``rate`` (requests per second)."""
    conns = [_Connection(connect(host, port)) for _ in range(connections)]
    threads = [threading.Thread(target=c.receive, daemon=True) for c in conns]
    for thread in threads:
        thread.start()
    records: List[Record] = []
    began = time.perf_counter() + 0.05
    try:
        for i, frame in enumerate(frames):
            due = began + i / rate
            while True:
                pause = due - time.perf_counter()
                if pause <= 0:
                    break
                if speed is None or pause < _PROBE_ROOM:
                    time.sleep(pause)
                elif any(c.outstanding for c in conns):
                    time.sleep(min(pause - _PROBE_ROOM, 0.002))
                else:
                    speed.sample()
            record = Record(i, due)
            conn = min(conns, key=lambda c: c.outstanding)
            with conn.lock:
                conn.outstanding += 1
            conn.pending.put(record)
            record.sent = time.perf_counter()
            conn.sock.sendall(frame)
            records.append(record)
        for conn in conns:
            conn.pending.put(None)
        deadline = time.perf_counter() + drain_seconds
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.perf_counter()))
    finally:
        for conn in conns:
            conn.sock.close()
        for thread in threads:
            thread.join(timeout=5.0)
    for record in records:
        if record.body is None and record.error is None:
            record.error = "no response before the drain deadline"
            record.done = record.done or time.perf_counter()
    return records


def closed_loop(
    host: str, port: int, frames: Sequence[bytes], connections: int = 2
) -> List[Record]:
    """Each connection sends its next frame when its last one answered."""
    records = [Record(i, 0.0) for i in range(len(frames))]
    cursor = [0]
    lock = threading.Lock()

    def caller() -> None:
        sock = connect(host, port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(frames):
                    return
                record = records[i]
                record.due = record.sent = time.perf_counter()
                try:
                    sock.sendall(frames[i])
                    record.body = read_body(sock)
                except OSError as exc:
                    record.error = f"{type(exc).__name__}: {exc}"
                record.done = time.perf_counter()
        finally:
            sock.close()

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    return records
