"""Shared primitives: errors, units, ids, statistics, tables."""

from repro.common.cdf import CdfPoint, EmpiricalCdf, describe_cdf
from repro.common.errors import (
    CapacityExceeded,
    ConfigurationError,
    ContainerError,
    ContainerNotFound,
    ContainerStateError,
    EventAlreadyTriggered,
    FunctionNotRegistered,
    MultiplexerError,
    ProcessInterrupted,
    ReproError,
    SchedulingError,
    SimulationError,
    StopSimulation,
    WorkloadError,
)
from repro.common.ids import IdFactory
from repro.common.stats import Ewma, SampleStats, mean, percentile
from repro.common.tables import render_table, to_csv

__all__ = [
    "CapacityExceeded",
    "CdfPoint",
    "ConfigurationError",
    "ContainerError",
    "ContainerNotFound",
    "ContainerStateError",
    "EmpiricalCdf",
    "EventAlreadyTriggered",
    "Ewma",
    "FunctionNotRegistered",
    "IdFactory",
    "MultiplexerError",
    "ProcessInterrupted",
    "ReproError",
    "SampleStats",
    "SchedulingError",
    "SimulationError",
    "StopSimulation",
    "WorkloadError",
    "describe_cdf",
    "mean",
    "percentile",
    "render_table",
    "to_csv",
]
