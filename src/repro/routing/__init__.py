"""Radix-tree routing benchmarks (section 6).

The paper validates decompressed traces with three benchmark programs —
Route (Netbench), NAT (Netbench) and RTR (CommBench) — that "all ...
involve the Radix Tree Routing inside their algorithms".  This subpackage
provides the from-scratch instrumented radix tree, synthetic routing
tables, and the three applications.
"""

from repro.routing.radix import RadixNodeLayout, RadixTree
from repro.routing.table import RouteEntry, RoutingTableConfig, build_routing_table, table_covering_trace
from repro.routing.base import BenchmarkApp, BenchmarkResult
from repro.routing.route import RouteApp
from repro.routing.nat import NatApp, NatConfig
from repro.routing.rtr import RtrApp, RtrConfig

__all__ = [
    "RadixNodeLayout",
    "RadixTree",
    "RouteEntry",
    "RoutingTableConfig",
    "build_routing_table",
    "table_covering_trace",
    "BenchmarkApp",
    "BenchmarkResult",
    "RouteApp",
    "NatApp",
    "NatConfig",
    "RtrApp",
    "RtrConfig",
]
