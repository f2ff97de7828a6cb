"""Simulator and optimization library for cooperative D2D-enabled wireless
caching networks."""

from .cdl import CdlConfig, CdlSchedule, allocate_cdl_power, schedule_cdl
from .content import Catalog, ContentState, build_content_state
from .harness import (
    DropMetrics,
    DropResult,
    SimConfig,
    run_drop,
    run_sweep,
    simulate_drop,
    write_results,
)
from .ndl import NdlConfig, NdlSchedule, dc_power_allocation, schedule_ndl
from .topology import SimGeometry, Topology, build_topology

__all__ = [
    "Catalog",
    "CdlConfig",
    "CdlSchedule",
    "ContentState",
    "DropMetrics",
    "DropResult",
    "NdlConfig",
    "NdlSchedule",
    "SimConfig",
    "SimGeometry",
    "Topology",
    "allocate_cdl_power",
    "build_content_state",
    "build_topology",
    "dc_power_allocation",
    "run_drop",
    "run_sweep",
    "schedule_cdl",
    "schedule_ndl",
    "simulate_drop",
    "write_results",
]

__version__ = "0.1.0"
