"""``python -m repro.service`` — run the advisor service on loopback.

Prints ``repro advisor service listening on HOST:PORT`` once bound
(``--port 0``, the default, picks a free port) and serves until a
client sends a SHUTDOWN frame.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import Sequence

from repro.service.config import ServiceConfig
from repro.service.server import serve


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the service flags to ``parser``.

    Shared by ``python -m repro.service`` and ``repro-partition serve``,
    so both entry points accept the same flags and build the same
    :class:`ServiceConfig` from them (see :func:`run`).
    """
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: loopback)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind (default: 0 = pick a free one; "
                             "the bound address is printed once listening)")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="bounded pending-solve queue depth")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="per-client requests/second (0 disables)")
    parser.add_argument("--burst", type=int, default=8,
                        help="per-client token-bucket burst size")
    parser.add_argument("--max-clients", type=int, default=1024,
                        help="rate-limiter client-table bound (LRU)")
    parser.add_argument("--result-cache", type=int, default=128,
                        help="result-cache capacity (0 disables)")
    parser.add_argument("--coefficient-cache", type=int, default=None,
                        help="advisor coefficient-cache capacity "
                             "(default: unbounded)")
    parser.add_argument("--shed-threshold", type=int, default=0,
                        help="queue depth that starts light shedding "
                             "(qp-family requests served by sa-portfolio; "
                             "0 disables shedding)")
    parser.add_argument("--shed-hard-threshold", type=int, default=0,
                        help="queue depth that starts hard shedding "
                             "(degradable requests served by greedy)")
    parser.add_argument("--shed-sa-options", default=None, metavar="JSON",
                        help="JSON options for shed sa/sa-portfolio runs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the partitioning advisor over loopback TCP.",
    )
    add_service_arguments(parser)
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    shed_sa_options = (
        json.loads(args.shed_sa_options) if args.shed_sa_options else {}
    )
    return ServiceConfig(
        max_pending=args.max_pending,
        rate_limit=args.rate,
        rate_burst=args.burst,
        max_clients=args.max_clients,
        result_cache_capacity=args.result_cache,
        shed_threshold=args.shed_threshold,
        shed_hard_threshold=args.shed_hard_threshold,
        shed_sa_options=shed_sa_options,
    )


def run(args: argparse.Namespace) -> int:
    """Serve with the flags of :func:`add_service_arguments` until shut down."""
    from repro.api.advisor import Advisor

    advisor = Advisor(coefficient_capacity=args.coefficient_cache)
    try:
        asyncio.run(
            serve(
                host=args.host,
                port=args.port,
                config=config_from_args(args),
                advisor=advisor,
                announce=True,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
