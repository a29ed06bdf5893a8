(** Portfolio CDCL solving: K diversified workers take turns on one
    instance.

    Each worker is a {!Sat.clone} of the master solver — taken after
    {!Sat.prepare}, so clones snapshot the {e post-preprocessing} clause
    database — with its own {!Sat.strategy} (seeded polarity, restart
    schedule, VSIDS decay) and exchange callbacks wired to a bounded
    clause ring.  The workers run on the calling domain in fixed
    round-robin slices of conflicts.  They export low-LBD/short learnt
    clauses as they learn them and import peers' exports at restart
    boundaries.  The first worker with a definitive verdict wins: its
    model, interrupt reason and search counters are folded back into
    the master with {!Sat.adopt}.  The ring is banked into the master's
    learnt database afterwards, so later incremental queries (the next
    BMC depth) start ahead.

    The win is strategy diversity plus the clause exchange, not
    parallelism: a worker whose strategy suits the instance answers
    within its first slices, helped by its peers' clauses.

    Sharing is sound because learnt clauses are implied by the problem
    clauses alone: assumptions enter the search as reasonless decisions
    and are never resolved into learnt clauses (see docs/SOLVER.md).

    Observability: [sat.portfolio.*] counters (solves, workers,
    exported, imported, banked, lost, wins) and
    [portfolio.worker.start]/[won]/[lost]/[exhausted]
    flight-recorder events with per-worker import/export totals. *)

val solve : ?assumptions:Sat.lit list -> k:int -> Sat.t -> Sat.result
(** [solve ~k s] runs [k] diversified workers on clones of [s] and
    returns the winning verdict through the master, exactly as a plain
    {!Sat.solve} would have: the model is read with {!Sat.value}, the
    interrupt reason with {!Sat.last_interrupt}, and [s] stays fully
    reusable (further clauses, further solves).  [k <= 1] falls through
    to {!Sat.solve} with zero portfolio overhead.

    The exchange schedule is a deterministic function of the search and
    the verdict is the first definitive answer in worker order, so
    repeat runs produce bit-identical verdicts and {!Sat.stats}.

    Like {!Sat.solve}, the run is bounded by the calling domain's budget
    ({!Sqed_resil.Budget.current}): the workers share one budget with
    its deadline and remaining conflict allowance, and the winner's
    conflicts are charged to the caller's budget once.  A cancellation
    of the caller's budget is seen between slices.  When no worker
    answers, {!Sat.last_interrupt} gives the reason that ended the
    run. *)
