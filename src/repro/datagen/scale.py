"""Scale factors for the experimental graphs.

The paper's graphs G1–G10 range from 1,000 to 100,000 Person nodes and
up to 32 million temporal edges (Table I), produced on a 64 GB cluster
node by a Rust implementation.  A pure-Python reproduction cannot process
graphs of that size within the benchmark time budget, so the harnesses
use the scale factors below (S1–S6) whose *relative* sizes sweep the same
range of growth; the absolute counts are smaller.  (ROADMAP.md item 5
tracks the paper-vs-measured write-up at larger scales.)

The environment variable ``REPRO_SCALE`` selects the largest scale used
by the benchmarks (default ``S4`` to keep a full benchmark run in the
order of minutes); set it to ``S6`` for the most faithful sweep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.datagen.contact_tracing import ContactTracingConfig
from repro.datagen.trajectory import TrajectoryConfig


@dataclass(frozen=True)
class ScaleFactor:
    """One experimental scale: a name plus the generator configuration."""

    name: str
    num_persons: int
    num_locations: int
    num_rooms: int

    def config(self, positivity_rate: float = 0.05, seed: int = 11) -> ContactTracingConfig:
        """Generator configuration for this scale factor."""
        return ContactTracingConfig(
            trajectory=TrajectoryConfig(
                num_persons=self.num_persons,
                num_locations=self.num_locations,
                num_rooms=self.num_rooms,
                num_windows=48,
                seed=seed,
            ),
            positivity_rate=positivity_rate,
            seed=seed,
        )


#: Scale factors standing in for the paper's G1…G10 (see module docstring).
SCALE_FACTORS: dict[str, ScaleFactor] = {
    "S1": ScaleFactor("S1", num_persons=100, num_locations=60, num_rooms=15),
    "S2": ScaleFactor("S2", num_persons=200, num_locations=80, num_rooms=20),
    "S3": ScaleFactor("S3", num_persons=400, num_locations=100, num_rooms=25),
    "S4": ScaleFactor("S4", num_persons=600, num_locations=120, num_rooms=30),
    "S5": ScaleFactor("S5", num_persons=800, num_locations=140, num_rooms=35),
    "S6": ScaleFactor("S6", num_persons=1000, num_locations=160, num_rooms=40),
}


def scale_factor(name: str) -> ScaleFactor:
    """Look up a scale factor by name (``S1`` … ``S6``)."""
    try:
        return SCALE_FACTORS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown scale factor {name!r}; available: {', '.join(SCALE_FACTORS)}"
        ) from exc


def default_scale_name() -> str:
    """The largest scale the benchmarks use, controlled by ``REPRO_SCALE``."""
    name = os.environ.get("REPRO_SCALE", "S4")
    if name not in SCALE_FACTORS:
        raise KeyError(
            f"REPRO_SCALE={name!r} is not a known scale factor; "
            f"available: {', '.join(SCALE_FACTORS)}"
        )
    return name


def scales_up_to(name: str) -> list[ScaleFactor]:
    """All scale factors from S1 up to (and including) ``name``."""
    names = list(SCALE_FACTORS)
    index = names.index(name)
    return [SCALE_FACTORS[n] for n in names[: index + 1]]
