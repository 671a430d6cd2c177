"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Prints the result object as the last
line of standard output; see ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse

from common import use_source

WORKLOADS = ("ingest_bulk", "serve_mixed")


def main() -> None:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    use_source()
    if args.workload == "serve_mixed":
        import serve

        serve.run(args.seed, args.seconds, bool(args.trace))
    else:
        import ingest

        ingest.run(args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
