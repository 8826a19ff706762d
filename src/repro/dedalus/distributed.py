"""Distributed Dedalus via location specifiers (Section 8, closing remark).

"Distribution is not built in Dedalus and must be simulated using data
elements serving as location specifiers.  The above theorem can be
extended to a distributed setting where different peers send around
their input data to their peers.  The receiving peer treats these
messages as EDB facts.  This works without coordination since the
program is monotone in the EDB relations.  More generally, it seems one
can define a syntactic class of 'oblivious' Dedalus programs in analogy
to our notion of oblivious transducers.  The restriction would amount
to disallowing joins on location specifiers."

:func:`localize` implements exactly this transform:

* every relation gains a leading *location* column;
* user rules become single-location ("oblivious": one location variable
  per rule, never joined against data — the paper's restriction);
* each broadcast EDB relation is persisted (``R_loc`` twins) and
  shipped to neighbours by an ``@async`` rule over the ``Link``
  relation, whose nondeterministic arrival timestamps model the
  asynchronous network;
* the topology is data: ``Link(v, w)`` facts, one per directed edge.

Running the localized program on the single-machine interpreter *is*
the distributed execution — the locations partition the state exactly
as a transducer network's configuration would.
"""

from __future__ import annotations

from ..db.fact import Fact
from ..db.instance import Instance
from ..db.schema import DatabaseSchema, SchemaError
from ..lang.ast import Atom, Literal, Rule, Var
from ..net.network import Network
from ..net.partition import HorizontalPartition
from .ast import DedalusRule, RuleKind
from .program import DedalusProgram

LINK_RELATION = "Link"
LOC_SUFFIX = "_loc"
LOCATION_VAR = Var("loc")


def localize(
    program: DedalusProgram,
    broadcast: set[str] | None = None,
) -> DedalusProgram:
    """The location-tagged, network-shipping version of *program*.

    *broadcast* selects which EDB relations are flooded to peers
    (default: all of them).  The result's EDB schema is the original
    one with a leading location column on every relation, plus
    ``Link/2``.
    """
    if broadcast is None:
        broadcast = set(program.edb_schema.relation_names())
    unknown = broadcast - set(program.edb_schema.relation_names())
    if unknown:
        raise SchemaError(f"cannot broadcast non-EDB relations {sorted(unknown)}")

    edb: dict[str, int] = {LINK_RELATION: 2}
    for name in program.edb_schema.relation_names():
        edb[name] = program.edb_schema[name] + 1

    rules: list[DedalusRule] = []

    def loc_atom(atom: Atom, twin: bool) -> Atom:
        name = atom.relation + (LOC_SUFFIX if twin else "")
        return Atom(name, (LOCATION_VAR,) + atom.terms)

    # Persist the topology: Link facts arrive once (at t=0) but shipping
    # rules must keep firing as copies hop across the network.
    la, lb = Var("la"), Var("lb")
    link_twin = Atom(LINK_RELATION + LOC_SUFFIX, (la, lb))
    link_raw = Atom(LINK_RELATION, (la, lb))
    rules.append(
        DedalusRule(Rule(link_twin, (Literal(link_raw),)), RuleKind.DEDUCTIVE)
    )
    rules.append(
        DedalusRule(Rule(link_twin, (Literal(link_twin),)), RuleKind.INDUCTIVE)
    )

    # Persist every EDB relation into a location-tagged twin, and ship
    # broadcast relations to the neighbours.
    for name in program.edb_schema.relation_names():
        arity = program.edb_schema[name]
        xs = tuple(Var(f"x{i + 1}") for i in range(arity))
        raw = Atom(name, (LOCATION_VAR,) + xs)
        twin = Atom(name + LOC_SUFFIX, (LOCATION_VAR,) + xs)
        rules.append(DedalusRule(Rule(twin, (Literal(raw),)), RuleKind.DEDUCTIVE))
        rules.append(DedalusRule(Rule(twin, (Literal(twin),)), RuleKind.INDUCTIVE))
        if name in broadcast:
            here = Var("here")
            there = Var("there")
            source = Atom(name + LOC_SUFFIX, (here,) + xs)
            target = Atom(name + LOC_SUFFIX, (there,) + xs)
            link = Atom(LINK_RELATION + LOC_SUFFIX, (here, there))
            # Send-once ledger: a peer records what it already shipped on
            # each edge (purely local knowledge), so the async rule stops
            # firing once every fact has been sent everywhere — without
            # this the run would never stabilize.  Classic gossip dedup.
            sent = Atom("Sent_" + name, (here, there) + xs)
            rules.append(
                DedalusRule(
                    Rule(
                        target,
                        (
                            Literal(source),
                            Literal(link),
                            Literal(sent, positive=False),
                        ),
                    ),
                    RuleKind.ASYNC,
                )
            )
            rules.append(
                DedalusRule(
                    Rule(sent, (Literal(source), Literal(link))),
                    RuleKind.INDUCTIVE,
                )
            )
            rules.append(
                DedalusRule(Rule(sent, (Literal(sent),)), RuleKind.INDUCTIVE)
            )

    # Localize the user rules: one location variable everywhere (the
    # "oblivious Dedalus" restriction: no joins on location specifiers).
    for drule in program.rules:
        head = loc_atom(drule.head, twin=False)
        body: list[Literal] = []
        bound = False
        for lit in drule.body:
            if isinstance(lit.atom, Atom):
                twin = lit.atom.relation in program.edb_schema
                body.append(Literal(loc_atom(lit.atom, twin), lit.positive))
                bound = bound or lit.positive
            else:
                body.append(lit)
        if not bound:
            raise SchemaError(
                f"cannot localize rule with no positive relational atom: {drule!r}"
            )
        rules.append(DedalusRule(Rule(head, tuple(body)), drule.kind))

    return DedalusProgram(tuple(rules), DatabaseSchema(edb))


def place(
    partition: HorizontalPartition,
    network: Network,
) -> Instance:
    """The localized EDB: partition fragments tagged with their node,
    plus ``Link`` facts for both directions of every network edge."""
    schema: dict[str, int] = {LINK_RELATION: 2}
    facts: set[Fact] = set()
    for edge in network.edges:
        a, b = tuple(edge)
        facts.add(Fact(LINK_RELATION, (a, b)))
        facts.add(Fact(LINK_RELATION, (b, a)))
    for node in network.sorted_nodes():
        fragment = partition.fragment(node)
        for f in fragment.facts():
            schema.setdefault(f.relation, f.arity + 1)
            facts.add(Fact(f.relation, (node,) + f.values))
        for name in fragment.schema.relation_names():
            schema.setdefault(name, fragment.schema[name] + 1)
    return Instance(DatabaseSchema(schema), facts)


def run_distributed(
    program: DedalusProgram,
    network: Network,
    partition: HorizontalPartition,
    broadcast: set[str] | None = None,
    batch_async: bool = False,
    seeds: tuple[int, ...] | None = None,
    run_cache=None,
    engine=None,
    lang_engine: str | None = None,
    faults=None,
    **run_kwargs,
):
    """Localize *program*, place *partition* on *network*, and run.

    The one-call distributed execution of Section 8: the localized
    program on the single-machine interpreter *is* the distributed run.
    *batch_async* opts into the interpreter's batched-delivery mode —
    every shipped fact arrives at the next timestep in one batch.  This
    is sound here by construction: :func:`localize` only emits oblivious
    rules (no joins on location specifiers) and the shipping rules are
    monotone in the shipped relations, so arrival order — and hence
    coalescing — cannot change the stabilized state (the same CALM
    argument the transducer runtime's batched mode rests on).
    Remaining ``run_kwargs`` go to
    :meth:`repro.dedalus.interp.DedalusInterpreter.run`.

    With *seeds* (a tuple of arrival-schedule seeds), the run becomes a
    sweep: the localized program is executed once per seed — in
    parallel on a parallel *engine*, see :mod:`repro.net.executor` —
    and a list of traces comes back in seed order, identical to running
    the seeds serially.  That is the Section 8 analogue of quantifying
    consistency over fair runs: every arrival schedule must stabilize
    to the same state.

    *run_cache* (a :class:`~repro.net.runcache.RunCache`) memoizes
    whole traces — a seeded localized run is a pure function of
    ``(program, network, partition, seed, kwargs)``, and Dedalus
    programs always fingerprint canonically (their rules are plain
    ASTs).  *engine* (a
    :class:`~repro.net.executor.SweepEngine`, e.g. a
    ``persistent``-lifetime one; ``None`` is serial) fans a seeds
    sweep over its workers.

    *lang_engine* selects the local evaluation engine of
    :mod:`repro.lang.engine` ("nested", "indexed" or "columnar") for
    every interpreter run — distinct from *engine*, which picks the
    sweep executor.  Engines are bit-identical by contract, so the
    run cache is shared across them (keys do not include it).

    *faults* (a :class:`~repro.net.faults.FaultPlan`) applies the
    plan's message-level faults (loss, duplication, delay) to the
    async shipments — see
    :meth:`repro.dedalus.interp.DedalusInterpreter.run` for the exact
    semantics and the loss caveat of the send-once ledger.  The plan
    becomes part of every run-cache key, so faulty and clean traces
    never alias.
    """
    from ..net.runcache import resolve_run_cache
    from .interp import run_program

    run_cache = resolve_run_cache(run_cache)
    if faults is not None:
        run_kwargs["faults"] = faults
    if seeds is not None:
        return sweep_distributed(
            program,
            network,
            [partition],
            seeds=seeds,
            broadcast=broadcast,
            batch_async=batch_async,
            run_cache=run_cache,
            engine=engine,
            lang_engine=lang_engine,
            **run_kwargs,
        )
    localized = localize(program, broadcast)
    if run_cache is not None:
        key = _distributed_key(localized, network, partition,
                               run_kwargs.get("seed", 0), batch_async,
                               run_kwargs)
        cached = run_cache.get(key)
        if cached is not None:
            return cached
    edb = place(partition, network)
    trace = run_program(localized, edb, engine=lang_engine,
                        batch_async=batch_async, **run_kwargs)
    if run_cache is not None:
        run_cache.record(key, trace)
    return trace


def _distributed_task(context, task):
    """Sweep worker: one localized run (module-level for fork shipping)."""
    from .interp import run_program

    localized, network, batch_async, lang_engine, run_kwargs = context
    partition, seed = task
    edb = place(partition, network)
    return run_program(
        localized, edb, seed=seed, batch_async=batch_async,
        engine=lang_engine, **run_kwargs
    )


def _distributed_key(localized, network, partition, seed, batch_async,
                     run_kwargs) -> tuple:
    """The run-cache key of one localized-run cell (kwargs frozen;
    ``seed`` is keyed positionally, like the transducer sweeps)."""
    from ..net.runcache import program_fingerprint, run_key

    kwargs = {k: v for k, v in run_kwargs.items() if k != "seed"}
    kwargs["batch_async"] = batch_async
    return run_key(
        "dedalus",
        network,
        program_fingerprint(localized),
        partition,
        seed,
        kwargs,
    )


def sweep_distributed(
    program: DedalusProgram,
    network: Network,
    partitions: list[HorizontalPartition],
    seeds: tuple[int, ...] = (0,),
    broadcast: set[str] | None = None,
    batch_async: bool = False,
    run_cache=None,
    engine=None,
    lang_engine: str | None = None,
    faults=None,
    **run_kwargs,
) -> list:
    """Run the partitions × seeds grid of distributed Dedalus runs.

    The localization is compiled once and shared; each (partition,
    seed) cell is an independent interpreter run, so the grid fans out
    over the :class:`~repro.net.executor.SweepEngine` exactly like a
    transducer consistency sweep.  Traces return in grid order
    (partitions outer, seeds inner) for every worker count.

    *run_cache* short-circuits cells whose trace is already recorded
    (keys include the localized program's fingerprint, the network,
    the partition, the seed and the kwargs) — the shared
    :class:`~repro.net.executor.CacheSplice` bookkeeping, so equal
    cells inside one grid also collapse to a single run.  *engine*
    selects the executor (``None`` is serial).  *lang_engine* picks
    the local evaluation engine inside every cell, as in
    :func:`run_distributed`.  *faults* injects the same seeded
    :class:`~repro.net.faults.FaultPlan` into every cell (and into
    every cell's cache key).
    """
    from ..net.executor import CacheSplice, SweepEngine
    from ..net.runcache import resolve_run_cache
    from ..lang.engine import resolve_engine as resolve_lang_engine

    run_cache = resolve_run_cache(run_cache)
    if lang_engine is not None:
        resolve_lang_engine(lang_engine)  # validate before fan-out
    if faults is not None:
        run_kwargs["faults"] = faults
    localized = localize(program, broadcast)
    context = (localized, network, batch_async, lang_engine, run_kwargs)
    tasks = [(partition, seed) for partition in partitions for seed in seeds]

    splice = CacheSplice(
        tasks,
        run_cache,
        lambda task: _distributed_key(
            localized, network, task[0], task[1], batch_async, run_kwargs
        ),
    )
    eng = engine if engine is not None else SweepEngine()
    return splice.fill(eng.map(_distributed_task, context, splice.pending_tasks))


def node_view(state: Instance, relation: str, node) -> frozenset:
    """The tuples of a localized relation at one node (location stripped)."""
    if relation not in state.schema:
        return frozenset()
    return frozenset(
        row[1:] for row in state.relation(relation) if row[0] == node
    )
