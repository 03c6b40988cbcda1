"""Parallel execution substrate: execution context and cost model."""

from .costmodel import DEFAULT_BARRIER_COST, ParallelCostModel, RegionCost, SpeedupPoint
from .threadpool import BACKEND_NAMES, ExecutionContext, ParallelRegionRecord

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BARRIER_COST",
    "ParallelCostModel",
    "RegionCost",
    "SpeedupPoint",
    "ExecutionContext",
    "ParallelRegionRecord",
]
