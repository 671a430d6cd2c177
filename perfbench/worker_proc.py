"""Launcher for the read worker process of ``serve_mixed``.

Bootstraps one :class:`Follower` from the primary's data directory and
serves it through :class:`WorkerServer` on an ephemeral port, tailing the
WAL in the background.  Prints one JSON ready line, then takes JSON
commands on standard input (``{"cmd": "trace"}`` installs the worker
timers, ``{"cmd": "snapshot"}`` replies with what they recorded).
Closing standard input stops the worker.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import threading

from common import Tracer, command_loop, use_source


def main() -> None:
    parser = argparse.ArgumentParser(prog="perfbench/worker_proc.py")
    parser.add_argument("--data-dir", required=True, type=pathlib.Path)
    args = parser.parse_args()
    use_source()

    from layers import install_worker
    from serve import factory

    from repro.replication import Follower
    from repro.replication.worker import WorkerServer

    follower = Follower(0, args.data_dir, factory())
    server = WorkerServer(("127.0.0.1", 0), follower)
    host, port = server.server_address[:2]
    serving = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    server.start_tailing()
    serving.start()
    tracer = Tracer()

    def trace(_: dict) -> dict:
        install_worker(tracer)
        return {"ok": True}

    try:
        print(json.dumps({"addr": f"{host}:{port}"}), flush=True)
        command_loop({"trace": trace, "snapshot": lambda _: tracer.snapshot()})
    finally:
        server.stop()
        serving.join()
        server.server_close()


if __name__ == "__main__":
    main()
