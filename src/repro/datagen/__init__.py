"""Synthetic workload generation.

The paper builds its experimental graphs from a COVID-19 contact-tracing
trajectory data set (Ojagh et al.) expanded to 100,000 individuals.  That
data set is not redistributable, so this package implements the closest
synthetic equivalent:

* :mod:`repro.datagen.trajectory` — a trajectory simulator producing
  room-visit records per person over a configurable number of 5-minute
  windows;
* :mod:`repro.datagen.contact_tracing` — conversion of trajectories into
  an interval-timestamped TPG with ``Person``/``Room`` nodes and
  ``visits``/``meets`` edges, the 18% high-risk assignment and the
  positivity-rate control used in the experiments;
* :mod:`repro.datagen.streaming` — the same workload replayed as a
  stream: an initial prefix graph plus time-ordered
  :class:`~repro.streaming.delta.DeltaBatch` sequences for the
  streaming evaluation harnesses;
* :mod:`repro.datagen.scale` — the scale factors (S1…S6) standing in for
  the paper's G1…G10;
* :mod:`repro.datagen.random_graphs` — small random TPGs and random
  NavL expressions used by the property-based tests.
"""

from repro.datagen.trajectory import TrajectoryConfig, TrajectorySimulator, VisitRecord
from repro.datagen.contact_tracing import ContactTracingConfig, generate_contact_tracing_graph
from repro.datagen.streaming import ContactTracingStream, contact_tracing_stream
from repro.datagen.scale import ScaleFactor, SCALE_FACTORS, scale_factor, default_scale_name
from repro.datagen.random_graphs import random_itpg, random_path_expression

__all__ = [
    "TrajectoryConfig",
    "TrajectorySimulator",
    "VisitRecord",
    "ContactTracingConfig",
    "generate_contact_tracing_graph",
    "ContactTracingStream",
    "contact_tracing_stream",
    "ScaleFactor",
    "SCALE_FACTORS",
    "scale_factor",
    "default_scale_name",
    "random_itpg",
    "random_path_expression",
]
