"""Run a primary + HTTP gateway from the command line.

``python -m repro.gateway --data-dir state --structure SWConnectivityEager
--n 1024 --port 8080 --workers 127.0.0.1:9001,127.0.0.1:9002`` recovers
(or creates) the durable primary in ``--data-dir``, attaches the given
out-of-process worker fleet for read routing, and serves until SIGINT /
SIGTERM.  The deployment walkthrough -- one primary plus N
``python -m repro.replication.worker`` processes sharing one WAL
directory -- lives in ``docs/gateway.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys
import threading

from repro.gateway.server import Gateway, GatewayConfig
from repro.replication.replicated import ReplicatedService
from repro.replication.worker import STRUCTURES, build_factory
from repro.service.service import ServiceConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="Serve a replicated sliding-window structure over "
        "HTTP/JSON (see docs/gateway.md for the wire protocol).",
    )
    parser.add_argument("--data-dir", required=True, help="primary WAL/snapshot directory (shared with workers)")
    parser.add_argument("--structure", default="SWConnectivityEager",
                        choices=sorted(STRUCTURES))
    parser.add_argument("--n", type=int, required=True, help="vertex count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kwargs", default="{}",
                        help="extra structure kwargs as JSON")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="HTTP port (0: ephemeral; printed on startup)")
    parser.add_argument("--followers", type=int, default=0,
                        help="in-process fallback replicas to attach")
    parser.add_argument("--workers", default="",
                        help="comma-separated host:port worker processes")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync every committed round (durable writes)")
    parser.add_argument("--snapshot-every", type=int, default=256,
                        help="rounds between checkpoints (0: never)")
    parser.add_argument("--replication-interval", type=float, default=0.002,
                        help="in-process follower poll interval, seconds")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    try:
        extra = json.loads(args.kwargs)
        if not isinstance(extra, dict):
            raise ValueError("--kwargs must be a JSON object")
    except ValueError as exc:
        print(f"bad --kwargs: {exc}", file=sys.stderr)
        return 2
    factory = build_factory(args.structure, args.n, args.seed, extra)
    data_dir = pathlib.Path(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    cfg = ServiceConfig(
        fsync=args.fsync, snapshot_every=args.snapshot_every
    )
    workers = tuple(w.strip() for w in args.workers.split(",") if w.strip())
    stop = threading.Event()

    def _terminate(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    with ReplicatedService(
        factory, data_dir, cfg, followers=args.followers
    ) as rs:
        if args.followers:
            rs.start_replication(interval=args.replication_interval)
        gw = Gateway(
            rs,
            GatewayConfig(host=args.host, port=args.port, workers=workers),
        ).start()
        print(
            f"repro-gateway listening on {gw.url} "
            f"(lsn {rs.primary.next_lsn}, epoch {rs.epoch}, "
            f"{args.followers} in-process follower(s), "
            f"{len(workers)} worker(s))",
            flush=True,
        )
        try:
            stop.wait()
        finally:
            gw.close()
    print("repro-gateway stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
