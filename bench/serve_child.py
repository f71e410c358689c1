"""The HTTP server child of ``serve_http``: the one extra process the
system under test gets.

``python -m bench.serve_child SNAPSHOT`` boots the standard service from a
snapshot file, starts the stdlib HTTP server on an OS-chosen port, prints
one JSON line (``port``, ``publish_from_file_s``) and serves until its
stdin closes.  Each line written to its stdin meanwhile is answered with one
JSON line of calibration readings taken on the server's own core
(``bench/calib.py``), so phase B can be scaled by both processes' speed.
"""

from __future__ import annotations

import json
import sys
import time

from repro.serve.server import start_server

from bench.calib import calibrate
from bench.workloads.serving import make_service


def main(snapshot: str) -> int:
    service = make_service()
    started = time.perf_counter()
    service.publish_from_file(snapshot)
    publish_s = time.perf_counter() - started
    server, thread = start_server(service, port=0)
    try:
        print(
            json.dumps({"port": server.server_address[1], "publish_from_file_s": publish_s}),
            flush=True,
        )
        for _ in sys.stdin:
            print(json.dumps(calibrate()), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
