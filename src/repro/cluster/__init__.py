"""Simulated training cluster: workers, parameter server, time models."""

from repro.cluster.compute import ComputeModel
from repro.cluster.elastic import ElasticContext, ElasticController
from repro.cluster.memory import MemoryModel, measure_activation_bytes
from repro.cluster.worker import SimWorker
from repro.cluster.server import ParameterServer
from repro.cluster.simclock import Event, EventQueue

__all__ = [
    "ComputeModel",
    "ElasticContext",
    "ElasticController",
    "MemoryModel",
    "measure_activation_bytes",
    "SimWorker",
    "ParameterServer",
    "Event",
    "EventQueue",
]
