#!/usr/bin/env python3
"""End-to-end crash-recovery smoke: kill -9 a loaded harmonyd, restart it
from its --state-dir, and assert every session reattaches with its prior
instance id.

Speaks the wire protocol directly (u32 BE length prefix + UTF-8 text, one
request frame then one response frame — see docs/PROTOCOL.md), so the
whole cycle runs from a stock Python without any client library:

    python3 scripts/recovery_smoke.py <path-to-harmonyd> <state-dir> <port>

Exit status 0 means the full cycle held: seed sessions under a coalescing
window, SIGKILL mid-window, recover, reattach both sessions by their old
ids, confirm the status snapshot reports the recovery, let the recovered
coalescing window fire, and finally take a clean stdin-EOF shutdown
checkpoint whose life prints no decision or retirement line (it received
no verb and had nothing left to decide). A restart writes no snapshot: the
second life adds no `.snap` file, the third replays the second life's
records from the same generation, and no `.snap.tmp` is left behind.
"""

import json
import os
import re
import socket
import struct
import subprocess
import sys
import time

BAG_BUNDLE = """harmonyBundle bag:1 config {
  {run
    {variable workerNodes {1 2 4 8}}
    {node worker {replicate workerNodes} {seconds {1200 / workerNodes}} {memory 32}}
    {communication {0.5 * workerNodes * workerNodes}}
    {performance {1 1200} {2 620} {4 340} {8 230}}}
}
"""


def call(sock, text):
    payload = text.encode()
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    header = sock.recv(4, socket.MSG_WAITALL)
    if len(header) != 4:
        raise ConnectionError("short frame header")
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("short frame body")
        body += chunk
    return body.decode()


def connect(port, deadline=15.0):
    end = time.monotonic() + deadline
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=10)
        except OSError:
            if time.monotonic() >= end:
                raise
            time.sleep(0.1)


def files(state_dir, suffix):
    return sorted(name for name in os.listdir(state_dir) if name.endswith(suffix))


def expect(reply, prefix, context):
    if not reply.startswith(prefix):
        sys.exit(f"FAIL {context}: expected `{prefix}…`, got `{reply}`")
    return reply


def main():
    harmonyd, state_dir, port = sys.argv[1], sys.argv[2], int(sys.argv[3])
    addr = f"127.0.0.1:{port}"
    args = [harmonyd, "--demo", "--coalesce", "2", "--state-dir", state_dir, addr]

    print(f"smoke: first life: {' '.join(args)}")
    daemon = subprocess.Popen(args)
    try:
        # Two sessions under load: the second bundle opens a coalescing
        # window (the deferred re-evaluation of the first), so the kill
        # lands mid-window.
        c1, c2 = connect(port), connect(port)
        r = expect(call(c1, "startup bag"), "registered bag ", "startup 1")
        id1 = int(r.split()[-1])
        expect(call(c1, f"bundle bag.{id1} {{{BAG_BUNDLE}}}"), "ok", "bundle 1")
        r = expect(call(c2, "startup bag"), "registered bag ", "startup 2")
        id2 = int(r.split()[-1])
        expect(call(c2, f"bundle bag.{id2} {{{BAG_BUNDLE}}}"), "ok", "bundle 2")
        expect(call(c1, f"heartbeat bag.{id1}"), "ok", "heartbeat")
        # The WAL's documented durability window is one group-commit flush
        # interval (5 ms): give it a couple of ticks so the seed traffic is
        # on disk, then kill. The kill still lands inside the 2 s
        # coalescing window opened by the second bundle.
        time.sleep(0.3)
        print(f"smoke: sessions bag.{id1} and bag.{id2} live; killing daemon (SIGKILL)")
    finally:
        daemon.kill()  # SIGKILL: no shutdown checkpoint, the WAL is all that survives
    daemon.wait()
    snapshots = files(state_dir, ".snap")

    print("smoke: second life: recovering from the state dir")
    daemon = subprocess.Popen(args)
    try:
        c3 = connect(port)
        r = expect(call(c3, f"reattach bag.{id1}"), "registered bag ", "reattach 1")
        if int(r.split()[-1]) != id1:
            sys.exit(f"FAIL: reattach returned a different id: {r}")
        r = expect(call(c3, f"reattach bag.{id2}"), "registered bag ", "reattach 2")
        if int(r.split()[-1]) != id2:
            sys.exit(f"FAIL: reattach returned a different id: {r}")
        # A reattached session converges by polling the replayed values.
        expect(call(c3, f"poll bag.{id1}"), f"update bag.{id1}", "poll after reattach")
        status = expect(call(c3, "status"), "status ", "status")
        if '"recovery"' not in status or '"snapshot_loaded"' not in status:
            sys.exit("FAIL: status snapshot does not report the recovery")
        if '"replayed":0,' in status.replace(" ", ""):
            sys.exit("FAIL: recovery replayed no WAL records")
        print("smoke: both sessions reattached with prior ids; status reports recovery")
        # Let the recovered coalescing window fire in this life, so the
        # third life has nothing left to decide: its replay re-derives
        # these decisions, and it must not print them again.
        end = time.monotonic() + 15.0
        while json.loads(call(c3, "status")[len("status {"):-1])["scheduler"]["pending"]:
            if time.monotonic() >= end:
                sys.exit("FAIL: the recovered coalescing window never fired")
            time.sleep(0.2)
        time.sleep(0.3)  # one group-commit flush, as before the first kill
        persistence = json.loads(call(c3, "status")[len("status {"):-1])["persistence"]
        print("smoke: the recovered coalescing window fired")
    finally:
        daemon.kill()
    daemon.wait()
    if files(state_dir, ".snap") != snapshots:
        sys.exit(f"FAIL: the second life wrote a snapshot: {snapshots} -> "
                 f"{files(state_dir, '.snap')}")
    second = persistence["recovery"]

    # Third life: a clean stdin-EOF shutdown must write a final checkpoint.
    # It receives no verb, so it applies no decision and retires nothing:
    # a `harmonyd: t=` line would be an earlier life's, printed again.
    print("smoke: third life: graceful stdin-EOF shutdown")
    out = subprocess.run(
        args + ["--stdin-shutdown"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if "shutdown checkpoint written" not in out.stdout or out.returncode != 0:
        sys.exit(f"FAIL: graceful shutdown: rc={out.returncode}\n{out.stdout}\n{out.stderr}")
    recovered = re.search(r"recovered from .*\(snapshot gen (\d+), (\d+) WAL record\(s\) "
                          r"replayed.*writing generation (\d+)", out.stdout)
    if not recovered:
        sys.exit(f"FAIL: third life did not recover prior state\n{out.stdout}")
    loaded, replayed, generation = map(int, recovered.groups())
    if (loaded, generation) != (second["snapshot_loaded"], second["generation"]):
        sys.exit(f"FAIL: third life recovered snapshot gen {loaded} and writes generation "
                 f"{generation}, the second life {second}")
    if replayed < second["replayed"] + persistence["appends"]:
        sys.exit(f"FAIL: third life replayed {replayed} record(s), fewer than the second "
                 f"life's {second['replayed']} plus the {persistence['appends']} it appended")
    if files(state_dir, ".snap.tmp"):
        sys.exit(f"FAIL: snapshot temp files left behind: {files(state_dir, '.snap.tmp')}")
    reprinted = [line for line in out.stdout.splitlines() if line.startswith("harmonyd: t=")]
    if reprinted:
        sys.exit("FAIL: third life printed decisions or retirements it did not make\n"
                 + "\n".join(reprinted))
    print("smoke: PASS")


if __name__ == "__main__":
    main()
