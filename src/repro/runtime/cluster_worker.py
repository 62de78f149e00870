"""The cluster worker process (``repro.runtime.cluster`` spawns this).

One worker embodies one instance (or shard group) of a deployed
architecture, in the paper's libcompart sense: all traffic addressed
to the instance physically transits this OS process over a framed TCP
link, and the death of this process *is* the instance's failure — the
coordinator's supervisor detects it (process exit, socket EOF, or
missed heartbeats) and feeds it into the failover machinery as a real
fault.

The protocol is deliberately tiny — length-prefixed frames whose first
byte is an opcode:

========  =========================  =============================
opcode    direction                  meaning
========  =========================  =============================
``H``     worker → coordinator       hello: payload is the worker name
``P``     coordinator → worker       heartbeat ping (opaque payload)
``O``     worker → coordinator       heartbeat pong (echoes payload)
``M``     coordinator → worker       a runtime message for one of this
                                     worker's instances (serde frame)
``D``     worker → coordinator       delivery: the message bytes, having
                                     transited this process
``S``     coordinator → worker       graceful shutdown request
========  =========================  =============================

This module is **stdlib-only on purpose** and is executed by *file
path* (``python .../cluster_worker.py``), not as a package module: the
worker must come up in tens of milliseconds, and importing ``repro``
costs about twenty times its own imports (median cumulative ``-X
importtime`` on a 2-vCPU host: ~210 ms against ~10 ms; docs/RUNTIME.md,
"Import cost").  The frame constants below are
therefore duplicated from :mod:`repro.runtime.wire` — keep them in
sync (``tests/engine/test_cluster.py`` asserts they match).
"""

from __future__ import annotations

import argparse
import signal
import socket
import struct
import sys

# keep in sync with repro.runtime.wire (stdlib-only duplication; see
# module docstring)
LEN_PREFIX = struct.Struct("<I")
MAX_FRAME_LEN = 8 * 1024 * 1024

OP_HELLO = b"H"
OP_PING = b"P"
OP_PONG = b"O"
OP_MSG = b"M"
OP_DELIVER = b"D"
OP_SHUTDOWN = b"S"


def send_frame(sock: socket.socket, body: bytes) -> None:
    sock.sendall(LEN_PREFIX.pack(len(body)) + body)


def recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or ``None`` on EOF."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> bytes | None:
    header = recv_exact(sock, LEN_PREFIX.size)
    if header is None:
        return None
    (length,) = LEN_PREFIX.unpack(header)
    if length > MAX_FRAME_LEN:
        raise ValueError(f"frame length {length} exceeds {MAX_FRAME_LEN}")
    return recv_exact(sock, length)


def serve(sock: socket.socket, name: str) -> int:
    send_frame(sock, OP_HELLO + name.encode("utf-8"))
    while True:
        body = recv_frame(sock)
        if body is None:
            return 0  # coordinator went away: nothing left to serve
        op, payload = body[:1], body[1:]
        if op == OP_PING:
            send_frame(sock, OP_PONG + payload)
        elif op == OP_MSG:
            # the compartment hop: the message bytes enter this process
            # and leave it again — delivery only happens while this
            # process is alive and scheduled
            send_frame(sock, OP_DELIVER + payload)
        elif op == OP_SHUTDOWN:
            return 0
        # unknown opcodes are ignored (forward compatibility)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="C-Saw cluster worker")
    ap.add_argument("--connect", required=True, metavar="HOST:PORT",
                    help="coordinator endpoint to dial back to")
    ap.add_argument("--name", required=True, help="worker (group) name")
    args = ap.parse_args(argv)
    host, _, port = args.connect.rpartition(":")

    sock = socket.create_connection((host, int(port)), timeout=10.0)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _graceful(signum, frame):  # noqa: ARG001 - signal signature
        # drain is trivial for a relay: close the link and exit cleanly
        try:
            sock.close()
        finally:
            sys.exit(0)

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)

    try:
        return serve(sock, args.name)
    except (ConnectionError, OSError):
        return 0  # link reset under us — coordinator teardown
    except ValueError:
        return 2  # framing violation: corrupt/hostile peer
    finally:
        try:
            sock.close()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
