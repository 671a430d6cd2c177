"""Launcher for the gateway process of ``serve_mixed``.

Builds the durable primary (:class:`ReplicatedService` over
:class:`SWConnectivityEager`, default service config), preloads the
window, and serves it through :class:`Gateway` on an ephemeral port.
Prints one JSON ready line, then takes JSON commands on standard input:

- ``{"cmd": "workers", "addrs": [...]}``: route reads to these workers
  (an empty list serves every read in-process);
- ``{"cmd": "trace"}``: install the write-path and gateway timers;
- ``{"cmd": "snapshot"}``: reply with everything the timers recorded.

Closing standard input stops the gateway and the primary.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib

from common import Tracer, command_loop, use_source


def main() -> None:
    parser = argparse.ArgumentParser(prog="perfbench/gateway_proc.py")
    parser.add_argument("--data-dir", required=True, type=pathlib.Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    use_source()

    from layers import install_gateway, install_write_path
    from serve import factory, preload_rounds

    from repro.gateway import Gateway, GatewayConfig
    from repro.replication import ReplicatedService
    from repro.service import ServiceConfig

    rs = ReplicatedService(factory(), args.data_dir, ServiceConfig())
    for edges in preload_rounds(args.seed):
        rs.write(edges)
    gw = Gateway(rs, GatewayConfig(port=0)).start()
    tracer = Tracer()

    def trace(_: dict) -> dict:
        install_write_path(tracer)
        install_gateway(tracer)
        return {"ok": True}

    def workers(cmd: dict) -> dict:
        gw.set_workers(cmd["addrs"])
        return {"ok": True}

    try:
        cost = rs.primary.structure.cost
        print(
            json.dumps(
                {
                    "url": gw.url,
                    "lsn": rs.primary.next_lsn,
                    "work": cost.work,
                    "span": cost.span,
                    "pid": os.getpid(),
                }
            ),
            flush=True,
        )
        command_loop(
            {"workers": workers, "trace": trace, "snapshot": lambda _: tracer.snapshot()}
        )
    finally:
        gw.close()
        rs.close()


if __name__ == "__main__":
    main()
