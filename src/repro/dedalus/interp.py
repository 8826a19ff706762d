"""The Dedalus temporal interpreter.

Semantics per timestep t = 0, 1, 2, ...:

1. the *base* at t = EDB facts with timestamp t (temporal input)
   ∪ facts derived for t by inductive rules at t−1
   ∪ async-rule facts whose (seeded-random) arrival timestamp is t;
2. the *state* S_t = stratified fixpoint of the deductive rules over
   the base, with the reserved ``Now`` relation holding {t};
3. inductive rules fire on S_t producing base facts for t+1; async
   rules fire producing facts scheduled at t+1+delay, delay drawn from
   a seeded RNG (eventual delivery is guaranteed — delays are bounded).

The run stops at *stabilization* — the base repeats, no arrivals are
pending, and the state (minus ``Now``) repeats — which is exactly the
paper's eventual consistency: ∃n ∀m ≥ n: Π(I)|m = Π(I)|n.  Programs
that never stabilize exhaust ``max_steps`` and are reported unstable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Mapping

from ..db.fact import Fact
from ..db.instance import Instance
from ..db.schema import DatabaseSchema
from ..lang.datalog import fire_rule, stratified_fixpoint
from ..lang.engine import make_pool, resolve_engine
from .ast import NOW_RELATION, DedalusRule
from .program import DedalusProgram


@dataclass
class DedalusTrace:
    """The (truncated) trace of a Dedalus run."""

    states: dict[int, Instance]
    stabilized_at: int | None
    steps: int

    @property
    def stable(self) -> bool:
        return self.stabilized_at is not None

    def final(self) -> Instance:
        """The last computed state."""
        return self.states[max(self.states)]

    def holds_eventually(self, relation: str) -> bool:
        """Is *relation* nonempty in the stabilized state?"""
        return bool(self.final().relation(relation))

    def first_time(self, relation: str) -> int | None:
        """The first timestep at which *relation* is nonempty."""
        for t in sorted(self.states):
            if self.states[t].relation(relation):
                return t
        return None

    def __repr__(self) -> str:
        return (
            f"DedalusTrace(steps={self.steps}, "
            f"stabilized_at={self.stabilized_at})"
        )


def temporal_input(
    instance: Instance, arrivals: Mapping[Fact, int] | None = None
) -> dict[int, frozenset[Fact]]:
    """Build a temporal EDB: each fact tagged with an arrival timestamp.

    With no *arrivals* mapping, everything arrives at time 0.  The
    Theorem 18 benches use staggered arrivals to exercise "input facts
    can arrive at any timestamp".
    """
    out: dict[int, set[Fact]] = {}
    for f in instance.facts():
        t = 0 if arrivals is None else arrivals.get(f, 0)
        if t < 0:
            raise ValueError(f"negative timestamp for {f!r}")
        out.setdefault(t, set()).add(f)
    return {t: frozenset(facts) for t, facts in out.items()}


class DedalusInterpreter:
    """Evaluates a :class:`~repro.dedalus.program.DedalusProgram`."""

    def __init__(self, program: DedalusProgram, engine: str | None = None):
        if engine is not None:
            resolve_engine(engine)  # validate eagerly; resolved per run
        self.engine = engine
        self.program = program
        self._full_schema = program.schema.union(
            DatabaseSchema({NOW_RELATION: 1})
        )
        # Shared across _fire_temporal calls and timesteps: the pool is
        # value-keyed and size-capped, so unchanged extents (e.g. a large
        # EDB) keep their indexes — or columnar encodings — for the run.
        self._pool = make_pool(resolve_engine(engine))

    # -- single pieces -------------------------------------------------------

    def deductive_closure(self, base: frozenset[Fact], t: int) -> Instance:
        """S_t: the stratified model of the deductive rules over *base*."""
        facts = set(base)
        facts.add(Fact(NOW_RELATION, (t,)))
        instance = Instance(self._full_schema, facts)
        if self.program.deductive_program is None:
            return instance
        result = stratified_fixpoint(
            self.program.deductive_program, instance, pool=self._pool,
            engine=self.engine,
        )
        # stratified_fixpoint works over its own schema; re-expand,
        # sharing the partitioned storage (no fact materialization).
        return result.expand_schema(self._full_schema)

    def _fire_temporal(
        self, rules: tuple[DedalusRule, ...], state: Instance
    ) -> set[Fact]:
        # Partitioned storage: extents are shared references, no per-fact
        # rebuild of a relation dict each timestep.
        relations = state.relations_map()
        domain = state.active_domain()  # cached on the instance
        pool = self._pool
        empty: frozenset = frozenset()
        out: set[Fact] = set()
        for drule in rules:
            rule = drule.evaluation_rule()
            sources = [
                relations.get(atom.relation, empty)
                for atom in rule.positive_body_atoms()
            ]
            for row in fire_rule(rule, sources, relations, domain, pool=pool,
                                 engine=self.engine):
                out.add(Fact(rule.head.relation, row))
        return out

    # -- the run -----------------------------------------------------------------

    def run(
        self,
        edb: Mapping[int, frozenset[Fact]] | Instance,
        max_steps: int = 500,
        seed: int = 0,
        max_async_delay: int = 3,
        keep_trace: bool = True,
        batch_async: bool = False,
        faults=None,
    ) -> DedalusTrace:
        """Run the program on a temporal EDB until stabilization.

        *edb* maps timestamps to fact sets (or is a plain instance,
        arriving entirely at time 0).

        *batch_async* is the interpreter's batched-delivery mode: every
        async-rule derivation arrives at ``t + 1`` in one batch instead
        of at a seeded random timestamp.  This collapses the arrival
        nondeterminism, which is only output-sound for programs that are
        monotone in the shipped relations — e.g. everything
        :func:`repro.dedalus.distributed.localize` produces (the
        Section 8 argument); the stabilized state is then reached in
        fewer timesteps.

        *faults* (a :class:`~repro.net.faults.FaultPlan`) applies the
        plan's *message-level* faults to async-rule derivations — the
        interpreter's messages: a loss roll discards the derivation, a
        duplication roll schedules a second arrival, a delay roll adds
        a bounded extra hold.  Crash and partition fields are ignored
        here (the interpreter has no node processes to kill).  Rolls
        come from a dedicated RNG derived from ``(plan.seed, seed)``
        over the derivations in sorted order, so a faulty Dedalus run
        is bit-reproducible across processes; with ``faults=None`` the
        schedule is byte-identical to what it was before the fault
        plane existed.  NOTE: :func:`~repro.dedalus.distributed.localize`
        ships each fact at most once per edge (the ``Sent_`` ledger),
        so a *lost* shipment is permanent there — under loss a
        localized run may legitimately stabilize on divergent node
        views.  Duplication and delay preserve the stabilized state of
        monotone localized programs.
        """
        if isinstance(edb, Instance):
            edb = temporal_input(edb)
        for t, facts in edb.items():
            for f in facts:
                if f.relation not in self.program.edb_schema:
                    raise ValueError(f"EDB fact {f!r} outside the EDB schema")

        rng = random.Random(seed)
        fault_rng = None
        if faults is not None and not faults.is_noop():
            # A dedicated stream, seeded from the plan and the run seed
            # (string seeds hash via SHA-512 — process-independent), so
            # fault rolls never perturb the base arrival schedule.
            fault_rng = random.Random(f"dedalus|{faults.seed}|{seed}")
        last_edb_time = max(edb, default=-1)
        pending_async: dict[int, set[Fact]] = {}
        carryover: frozenset[Fact] = frozenset()
        states: dict[int, Instance] = {}
        previous_base: frozenset[Fact] | None = None
        previous_state: dict[str, frozenset] | None = None
        stabilized_at: int | None = None

        t = 0
        while t < max_steps:
            base = set(carryover)
            base |= edb.get(t, frozenset())
            base |= pending_async.pop(t, set())
            base_frozen = frozenset(base)

            state = self.deductive_closure(base_frozen, t)
            if keep_trace:
                states[t] = state
            else:
                states.clear()
                states[t] = state

            carryover = frozenset(
                self._fire_temporal(self.program.inductive_rules(), state)
            )
            fired = self._fire_temporal(self.program.async_rules(), state)
            if fault_rng is not None:
                # Sorted order makes the roll sequence a pure function
                # of (plan, seed, derivations) — set iteration order is
                # process-dependent and would break replay.
                fired = sorted(fired, key=repr)
            for f in fired:
                if batch_async:
                    arrival = t + 1
                else:
                    arrival = t + 1 + rng.randrange(max_async_delay + 1)
                if fault_rng is not None:
                    if faults.loss > 0.0 and fault_rng.random() < faults.loss:
                        continue
                    if faults.delay > 0.0 and fault_rng.random() < faults.delay:
                        arrival += 1 + fault_rng.randrange(faults.max_delay)
                    if (
                        faults.duplication > 0.0
                        and fault_rng.random() < faults.duplication
                    ):
                        extra = arrival + 1 + fault_rng.randrange(
                            faults.max_delay
                        )
                        pending_async.setdefault(extra, set()).add(f)
                pending_async.setdefault(arrival, set()).add(f)

            # Compare extents directly (partitioned storage) rather than
            # materializing and filtering a flat fact set every timestep.
            state_minus_now = {
                name: rows
                for name, rows in state.nonempty_relations().items()
                if name != NOW_RELATION
            }
            quiet = (
                t > last_edb_time
                and not pending_async
                and previous_base == base_frozen
                and previous_state == state_minus_now
            )
            if quiet:
                stabilized_at = t
                break
            previous_base = base_frozen
            previous_state = state_minus_now
            t += 1

        return DedalusTrace(
            states=states,
            stabilized_at=stabilized_at,
            steps=t,
        )


def run_program(
    program: DedalusProgram,
    edb: Mapping[int, frozenset[Fact]] | Instance,
    engine: str | None = None,
    **kwargs,
) -> DedalusTrace:
    """Convenience one-shot runner."""
    return DedalusInterpreter(program, engine=engine).run(edb, **kwargs)
