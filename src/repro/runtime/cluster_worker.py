"""The cluster worker process (``repro.runtime.cluster`` forks it and
the child runs :func:`run`).

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

The worker is a fork of the coordinator, so it starts with no
interpreter start-up and no import: everything it runs is already
loaded, the frame constants come from :mod:`repro.runtime.wire`, and
:func:`run` dials a numeric address, so nothing resolves a name or takes
a lock another coordinator thread could have held at the fork.
"""

from __future__ import annotations

import socket

from .wire import LEN_PREFIX, MAX_FRAME_LEN

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


def run(host: str, port: int, name: str) -> int:
    """Dial the coordinator at the numeric address ``host:port`` and
    serve the link as worker ``name``; returns the process's exit code:
    0 once the coordinator closes the link or asks for shutdown, 2 on a
    framing violation (a corrupt or hostile peer).  A numeric address
    is connected to as is, with no name lookup."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.connect((host, port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return serve(sock, name)
    except OSError:
        return 0  # link reset under us — coordinator teardown
    except ValueError:
        return 2
    finally:
        sock.close()
