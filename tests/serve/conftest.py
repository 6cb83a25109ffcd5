"""Shared fixtures for the ingest-daemon tests.

The daemon runs in-process (``api.serve`` blocks in the test thread's
event loop) while clients run in plain background threads talking real
sockets — the same shape as production, minus the subprocess.  The
SIGTERM path, which needs a real process to signal, lives in
``tests/integration/test_serve_sigterm.py``.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.synth import generate_web_trace
from repro.trace.framing import END_OF_STREAM, frame

CONNECT_TIMEOUT = 5.0
SERVE_DEADLINE = 60.0
"""Seconds a daemon test may run before the watchdog stops its daemon."""


@pytest.fixture(scope="module")
def workload():
    """A deterministic ~5k-packet trace and its raw TSH bytes."""
    trace = generate_web_trace(duration=12.0, flow_rate=30.0, seed=21)
    return trace, trace.to_tsh_bytes()


def connect_unix(path: str, timeout: float = CONNECT_TIMEOUT) -> socket.socket:
    """Connect to the daemon's unix socket, retrying until ``timeout``.

    ``asyncio.start_unix_server`` binds (creating the socket file)
    before it listens, so a client can see the file and still be
    refused; either error is retried until the deadline.
    """
    deadline = time.monotonic() + timeout
    while True:
        client = socket.socket(socket.AF_UNIX)
        try:
            client.connect(path)
            return client
        except (ConnectionRefusedError, FileNotFoundError):
            client.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def send_framed(
    sock_path: str,
    data: bytes,
    *,
    frame_bytes: int = 9973,
    end_of_stream: bool = True,
) -> None:
    """Connect to a daemon unix socket and stream ``data`` in odd frames."""
    client = connect_unix(sock_path)
    try:
        for start in range(0, len(data), frame_bytes):
            client.sendall(frame(data[start : start + frame_bytes]))
        if end_of_stream:
            client.sendall(END_OF_STREAM)
    finally:
        client.close()


class ClientThread(threading.Thread):
    """A background client whose failure fails the test that joins it.

    An exception in the client is stored instead of being lost on the
    thread, and :meth:`join` re-raises it; a client still running when
    the join times out is a failure too.
    """

    error: BaseException | None = None

    def run(self) -> None:
        try:
            super().run()
        except BaseException as exc:  # noqa: BLE001 — re-raised on join
            self.error = exc

    def join(self, timeout: float | None = None) -> None:
        super().join(timeout)
        assert not self.is_alive(), f"client thread still running after {timeout} s"
        if self.error is not None:
            raise self.error


def in_thread(target, *args, **kwargs) -> ClientThread:
    thread = ClientThread(target=target, args=args, kwargs=kwargs, daemon=True)
    thread.start()
    return thread


@pytest.fixture
def serve_watchdog():
    """Stop a daemon that outlives :data:`SERVE_DEADLINE`, then fail.

    A test whose client thread dies waits in ``api.serve`` for a packet
    budget that never arrives.  The watchdog sends SIGINT, which the
    daemon handles as a stop request: ``api.serve`` returns, and the
    test fails instead of hanging.
    """
    fired = threading.Event()

    def interrupt() -> None:
        fired.set()
        os.kill(os.getpid(), signal.SIGINT)

    timer = threading.Timer(SERVE_DEADLINE, interrupt)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
    if fired.is_set():
        pytest.fail(f"daemon test ran past its {SERVE_DEADLINE:.0f} s watchdog")
