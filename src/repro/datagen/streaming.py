"""Streaming contact-tracing workloads: a prefix graph plus delta batches.

The contact-tracing generator (:mod:`repro.datagen.contact_tracing`) is
naturally append-only: visits and co-location contacts are events with a
start time, so a tracked population *is* a stream.  This module replays
the same synthetic trajectories as a stream:

* events (room visits, presence stays, co-location contacts) are sorted
  by start time;
* a configurable prefix becomes the **initial graph** — built by
  applying one unsequenced :class:`~repro.streaming.delta.DeltaBatch`
  to an empty :class:`~repro.model.itpg.IntervalTPG`, so the stream
  machinery constructs its own starting point;
* the remaining events are chunked into sequenced delta batches that
  append person/room existence, ``visits``/``meets`` edges and the
  derived properties (``name``/``risk``/``bldg``, the positivity mark).

Person/room identities, risk assignment and positivity times are drawn
from the *full* trajectory set up front, so an entity keeps its
properties as it grows across batches.  By default the temporal domain
spans the whole study horizon from the start (the natural streaming
shape: a fixed horizon filled in by arriving events);
``advance_horizon=True`` instead starts the domain at the prefix's last event and extends it
batch by batch, exercising the
:meth:`~repro.model.itpg.IntervalTPG.extend_domain` path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datagen.contact_tracing import (
    ContactTracingConfig,
    _assign_positivity,
    _assign_risk,
    _presence_by_person,
    _select_rooms,
)
from repro.datagen.trajectory import TrajectorySimulator, VisitRecord, co_location_contacts
from repro.model.itpg import IntervalTPG
from repro.streaming.delta import DeltaBatch, apply_delta

import random


@dataclass(frozen=True)
class ContactTracingStream:
    """A streaming workload: initial graph plus ordered delta batches.

    ``initial`` is a live graph the caller may feed to a streaming
    engine (and thereby mutate); ``initial_payload`` is the pristine
    JSON snapshot taken at construction, from which
    :meth:`fresh_initial` and :meth:`replay` rebuild independent copies.
    """

    initial: IntervalTPG
    initial_payload: dict
    batches: tuple[DeltaBatch, ...]
    config: ContactTracingConfig
    total_events: int
    initial_events: int

    def fresh_initial(self) -> IntervalTPG:
        """An independent copy of the initial graph (pre-stream state)."""
        from repro.model.io import from_json_dict

        return from_json_dict(self.initial_payload)

    def replay(self, upto: int | None = None) -> IntervalTPG:
        """Materialize the graph after the first ``upto`` batches (all by default)."""
        graph = self.fresh_initial()
        batches = self.batches if upto is None else self.batches[:upto]
        for batch in batches:
            apply_delta(graph, batch)
        return graph


def contact_tracing_stream(
    config: ContactTracingConfig | None = None,
    *,
    num_batches: int | None = None,
    batch_size: int | None = None,
    initial_fraction: float = 0.5,
    advance_horizon: bool = False,
) -> ContactTracingStream:
    """Build a streaming contact-tracing workload.

    Exactly one of ``num_batches`` / ``batch_size`` sizes the stream
    (default: 8 batches).  ``initial_fraction`` of the events form the
    initial graph; the rest arrive in start-time order.
    """
    if num_batches is not None and batch_size is not None:
        raise ValueError("pass either num_batches or batch_size, not both")
    config = config or ContactTracingConfig()
    trajectory_cfg = config.trajectory
    rng = random.Random(config.seed)

    visits = TrajectorySimulator(trajectory_cfg).generate()
    room_ids = _select_rooms(visits, trajectory_cfg.num_rooms)
    other_visits = [v for v in visits if v.location not in room_ids]
    person_presence = _presence_by_person(visits)
    risk = _assign_risk(sorted(person_presence), config.high_risk_share, rng)
    positives = _assign_positivity(person_presence, config.positivity_rate, rng)

    # One event per visit (room visits also create the edge) plus one per
    # co-location contact; visits sort before contacts at equal start so
    # a contact's presence prerequisites always precede it.
    events: list[tuple[tuple[int, int, int], str, object]] = []
    for position, visit in enumerate(visits):
        kind = "visit" if visit.location in room_ids else "presence"
        events.append(((visit.start, 0, position), kind, visit))
    for position, contact in enumerate(co_location_contacts(other_visits)):
        events.append(((contact[3], 1, position), "meet", contact))
    events.sort(key=lambda event: event[0])

    if num_batches is None and batch_size is None:
        num_batches = 8
    initial_count = max(1, min(len(events) - 1, round(len(events) * initial_fraction)))
    remaining = len(events) - initial_count
    if batch_size is not None:
        batch_size = max(1, batch_size)
    else:
        batch_size = max(1, -(-remaining // max(1, num_batches)))

    full_end = trajectory_cfg.num_windows - 1
    if advance_horizon:
        domain_end = max(
            _event_end(event) for event in events[:initial_count]
        )
    else:
        domain_end = full_end
    graph = IntervalTPG((0, domain_end))

    builder = _StreamBuilder(room_ids, risk, positives)
    initial_batch = DeltaBatch()
    for event in events[:initial_count]:
        builder.emit(initial_batch, event)
    apply_delta(graph, initial_batch)

    batches: list[DeltaBatch] = []
    horizon = domain_end
    position = initial_count
    sequence = 1
    while position < len(events):
        chunk = events[position : position + batch_size]
        position += batch_size
        batch = DeltaBatch(sequence=sequence)
        sequence += 1
        if advance_horizon:
            chunk_end = max(_event_end(event) for event in chunk)
            if chunk_end > horizon:
                horizon = chunk_end
                batch.extend_domain(horizon)
        for event in chunk:
            builder.emit(batch, event)
        batches.append(batch)
    from repro.model.io import to_json_dict

    return ContactTracingStream(
        initial=graph,
        initial_payload=to_json_dict(graph),
        batches=tuple(batches),
        config=config,
        total_events=len(events),
        initial_events=initial_count,
    )


def _event_end(event: tuple) -> int:
    _key, kind, payload = event
    if kind == "meet":
        return payload[4]
    return payload.end


class _StreamBuilder:
    """Emits graph updates for one event into the current batch.

    Tracks which persons/rooms have already appeared so the first event
    of an entity adds the node (with its properties over the new
    interval) and later events only extend it.  Identifier scheme
    matches the batch generator (``p…``/``r…`` nodes, ``v…`` visit
    edges, ``m…``/``m…_rev`` meet edges) with counters in event order.
    """

    def __init__(
        self,
        room_ids: set[int],
        risk: dict[int, str],
        positives: dict[int, int],
    ) -> None:
        self._room_ids = room_ids
        self._risk = risk
        self._positives = positives
        self._persons_seen: set[int] = set()
        #: Room → start of its first visit (the fixed left edge of the
        #: running hull span).
        self._room_first_start: dict[int, int] = {}
        self._visit_count = 0
        self._meet_count = 0

    def emit(self, batch: DeltaBatch, event: tuple) -> None:
        _key, kind, payload = event
        if kind == "meet":
            self._emit_meet(batch, payload)
            return
        visit = payload
        self._emit_presence(batch, visit.person, visit.start, visit.end)
        if kind == "visit":
            self._emit_room_visit(batch, visit)

    def _emit_presence(self, batch: DeltaBatch, person: int, start: int, end: int) -> None:
        node_id = f"p{person}"
        if person not in self._persons_seen:
            self._persons_seen.add(person)
            batch.add_node(node_id, "Person", [(start, end)])
        else:
            batch.add_existence(node_id, start, end)
        batch.set_property(node_id, "name", f"person_{person}", start, end)
        batch.set_property(node_id, "risk", self._risk[person], start, end)
        positive_from = self._positives.get(person)
        if positive_from is not None and positive_from <= end:
            batch.set_property(node_id, "test", "pos", max(start, positive_from), end)

    def _emit_room_visit(self, batch: DeltaBatch, visit: VisitRecord) -> None:
        # Rooms carry the *running hull* span (first entrance to latest
        # exit, gaps covered), matching the one-shot generator's
        # first-to-last-visit span — so a fully replayed stream answers
        # room-existence-sensitive queries identically to
        # generate_contact_tracing_graph on the same trajectories.
        # Events arrive in start order, so the hull's left edge is fixed
        # at the first visit's start and each later visit extends the
        # span to its own end.
        room_id = f"r{visit.location}"
        first_start = self._room_first_start.get(visit.location)
        if first_start is None:
            first_start = self._room_first_start[visit.location] = visit.start
            batch.add_node(room_id, "Room", [(visit.start, visit.end)])
        else:
            batch.add_existence(room_id, first_start, visit.end)
        batch.set_property(room_id, "num", visit.location, first_start, visit.end)
        batch.set_property(
            room_id, "bldg", f"B{visit.location % 7}", first_start, visit.end
        )
        edge_id = f"v{self._visit_count}"
        self._visit_count += 1
        batch.add_edge(
            edge_id, "visits", f"p{visit.person}", room_id,
            [(visit.start, visit.end)],
        )

    def _emit_meet(self, batch: DeltaBatch, contact: tuple) -> None:
        a, b, location, start, end = contact
        loc_name = f"loc_{location}"
        forward_id = f"m{self._meet_count}"
        backward_id = f"m{self._meet_count}_rev"
        self._meet_count += 1
        batch.add_edge(forward_id, "meets", f"p{a}", f"p{b}", [(start, end)])
        batch.set_property(forward_id, "loc", loc_name, start, end)
        batch.add_edge(backward_id, "meets", f"p{b}", f"p{a}", [(start, end)])
        batch.set_property(backward_id, "loc", loc_name, start, end)
