"""The daemon workload's client: an open-loop generator.

Requests go out on a seeded schedule whatever the daemon is doing, so a
stall shows up as lateness in every later request. Each job is timed from
the moment it was due, not from when it was sent. Completions are observed
through inotify on the daemon's append-only journal (the daemon appends
and flushes one record per finished job), so no status poll quantizes the
latency.
"""

import collections
import ctypes
import json
import os
import select
import socket
import time

_IN_MODIFY = 0x2


class JournalWatch:
    """New complete records of an append-only JSONL journal."""

    def __init__(self, path):
        libc = ctypes.CDLL(None, use_errno=True)
        self.fd = libc.inotify_init1(os.O_NONBLOCK | os.O_CLOEXEC)
        if self.fd < 0:
            raise OSError(ctypes.get_errno(), "inotify_init1 failed")
        if libc.inotify_add_watch(self.fd, os.fsencode(path), _IN_MODIFY) < 0:
            err = ctypes.get_errno()
            os.close(self.fd)
            raise OSError(err, f"inotify_add_watch failed: {path}")
        self.file = open(path, "rb")
        self.file.seek(0, os.SEEK_END)
        self.partial = b""

    def _read(self):
        # Drain the event queue before reading the file: a write that lands
        # after the read leaves an event behind, so select() wakes for it.
        try:
            while os.read(self.fd, 4096):
                pass
        except BlockingIOError:
            pass
        *lines, self.partial = (self.partial + self.file.read()).split(b"\n")
        return [json.loads(line) for line in lines if line]

    def wait(self, timeout):
        """Records appended since the last call, waiting up to `timeout`
        seconds for the first one."""
        records = self._read()
        if records:
            return records
        ready, _, _ = select.select([self.fd], [], [], max(0.0, timeout))
        return self._read() if ready else []

    def close(self):
        os.close(self.fd)
        self.file.close()


class Client:
    """One connection to lsiq_flowd: one request line, one response line."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def request(self, fields):
        self.sock.sendall((json.dumps(fields, separators=(",", ":")) + "\n")
                          .encode())
        line = self.reader.readline()
        if not line:
            raise ConnectionError("lsiq_flowd closed the connection")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def open_loop(schedule, submit, wait, clock=time.perf_counter, lead_s=0.05,
              timeout_s=60.0):
    """Send `schedule` [(offset_s, spec)] open loop and time every job.

    submit(spec) sends one request and returns True when it was admitted.
    wait(timeout) returns [(spec, record)] for completions observed, waiting
    at most `timeout` seconds. Returns one dict per job with its clock
    times: due, sent (request written), acked (response read) and done
    (completion observed; None when it never completed), its record and
    whether it was refused.
    """
    start = clock() + lead_s
    jobs = [{"due": start + offset, "spec": spec, "sent": None, "acked": None,
             "done": None, "record": None, "refused": False}
            for offset, spec in schedule]
    pending = collections.defaultdict(collections.deque)
    give_up = start + (schedule[-1][0] if schedule else 0.0) + timeout_s
    sent = 0
    outstanding = 0
    while sent < len(jobs) or outstanding:
        now = clock()
        if now > give_up:
            break
        if sent < len(jobs) and now >= jobs[sent]["due"]:
            job = jobs[sent]
            sent += 1
            job["sent"] = clock()
            admitted = submit(job["spec"])
            job["acked"] = clock()
            if admitted:
                pending[job["spec"]].append(job)
                outstanding += 1
            else:
                job["refused"] = True
            continue
        horizon = jobs[sent]["due"] if sent < len(jobs) else give_up
        for spec, record in wait(horizon - now):
            waiting = pending.get(spec)
            if not waiting:
                continue  # a record this run did not submit
            job = waiting.popleft()
            job["done"] = clock()
            job["record"] = record
            outstanding -= 1
    return jobs
