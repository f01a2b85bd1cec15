"""Open-loop load generator for `cdp serve`.

A generator thread releases each request at its due time into a queue,
whatever the state of earlier requests; `connections` client threads, each
holding one persistent connection, take requests from the queue in order
and wait for the terminal `DONE`/`ERR` line. Every request is timed from
when it was due, so a stall also charges the wait it imposes on the
requests queued behind it.
"""

import collections
import socket
import threading
import time


class Result:
    __slots__ = ("due", "spec", "cold", "released", "sent", "first_event", "done",
                 "lines", "bytes", "terminal", "events")

    def __init__(self, due, spec, cold):
        self.due, self.spec, self.cold = due, spec, cold
        self.released = self.sent = self.first_event = self.done = None
        self.lines = self.bytes = 0
        self.terminal = None
        self.events = []

    @property
    def ok(self):
        return self.terminal is not None and self.terminal.startswith("DONE ")

    @property
    def latency(self):
        return self.done - self.due


class Connection:
    """One line-oriented client connection.

    The client acknowledges every segment at once (`TCP_QUICKACK`, re-armed
    before each read, since the kernel clears it). The server writes many
    small lines per job without `TCP_NODELAY`, so against a delayed-ACK
    client its last lines wait up to 40 ms for an acknowledgement, and
    whether they do depends on how long the connection sat idle. Latency
    would then read the client's ACK timer rather than the server.
    """

    def __init__(self, port, timeout=60.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.buffer = b""

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def read_line(self):
        while True:
            end = self.buffer.find(b"\n")
            if end >= 0:
                raw, self.buffer = self.buffer[:end + 1], self.buffer[end + 1:]
                return raw
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk

    def request(self, line):
        """Send one request and return its terminal line."""
        self.send(line)
        while True:
            text = self.read_line().decode().rstrip("\n")
            if not text.startswith("EVENT "):
                return text

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def run_open_loop(port, schedule, connections):
    """Replay `schedule` (a list of `(due offset s, spec, cold)`) against
    the server and return one `Result` per request, timed in seconds from
    the schedule's origin. `EVENT front` lines (NSGA-II progress) are kept
    on the result."""
    results = [Result(due, spec, cold) for due, spec, cold in schedule]
    queue = collections.deque()
    cond = threading.Condition()
    finished = threading.Event()
    origin = time.perf_counter() + 0.05

    def generate():
        for r in results:
            delay = origin + r.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            with cond:
                r.released = time.perf_counter() - origin
                queue.append(r)
                cond.notify()
        finished.set()
        with cond:
            cond.notify_all()

    def client():
        conn = Connection(port)
        r = None
        try:
            while True:
                with cond:
                    while not queue and not finished.is_set():
                        cond.wait()
                    if not queue:
                        return
                    r = queue.popleft()
                r.sent = time.perf_counter() - origin
                conn.send("JOB " + r.spec)
                while True:
                    raw = conn.read_line()
                    now = time.perf_counter() - origin
                    r.lines += 1
                    r.bytes += len(raw)
                    text = raw.decode().rstrip("\n")
                    if text.startswith("EVENT "):
                        if r.first_event is None:
                            r.first_event = now
                        if text.startswith("EVENT front "):
                            r.events.append(text)
                        continue
                    r.done = now
                    r.terminal = text
                    break
        except (OSError, ConnectionError) as e:
            if r is not None and r.terminal is None:
                r.terminal = f"ERR client: {e}"
                r.done = time.perf_counter() - origin
        finally:
            conn.close()

    threads = [threading.Thread(target=generate)]
    threads += [threading.Thread(target=client) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in results:
        if r.terminal is None:
            r.terminal = "ERR never sent"
            r.done = time.perf_counter() - origin
    return results


def backlog_at(results, t):
    """Requests released before offset `t` and not yet sent to the server
    at `t`."""
    return sum(1 for r in results
               if r.released is not None and r.released < t and (r.sent is None or r.sent > t))
