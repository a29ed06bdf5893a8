(** Portfolio CDCL solving: K diversified workers race on one instance.

    Each worker is a {!Sat.clone} of the master solver — taken after
    {!Sat.prepare}, so clones snapshot the {e post-preprocessing} clause
    database — with its own {!Sat.strategy} (seeded polarity, restart
    schedule, VSIDS decay), its own cancellable
    {!Sqed_resil.Budget.t}, and exchange callbacks wired to a bounded
    shared clause ring.  Workers export low-LBD/short learnt clauses as
    they learn them and import peers' exports at restart boundaries.
    The first worker with a definitive verdict wins: it cancels the
    peers' budgets (observed at the CDCL loop's cooperative poll sites)
    and its model, interrupt reason and search counters are folded back
    into the master with {!Sat.adopt}.  The shared ring is banked into
    the master's learnt database afterwards, so later incremental
    queries (the next BMC depth) start ahead.

    Sharing is sound because learnt clauses are implied by the problem
    clauses alone: assumptions enter the search as reasonless decisions
    and are never resolved into learnt clauses (see docs/SOLVER.md).

    Observability: [sat.portfolio.*] counters (solves, workers,
    exported, imported, banked, cancelled, wins),
    [portfolio.worker.start]/[won]/[cancelled]/[exhausted] flight-recorder
    events with per-worker import/export totals, and — in parallel mode —
    per-worker sample series for free, since each worker domain records
    into its own {!Sqed_obs.Trace} ring. *)

val solve :
  ?assumptions:Sat.lit list ->
  ?deterministic:bool ->
  k:int ->
  Sat.t ->
  Sat.result
(** [solve ~k s] races [k] diversified workers on clones of [s] and
    returns the winning verdict through the master, exactly as a plain
    {!Sat.solve} would have: the model is read with {!Sat.value}, the
    interrupt reason with {!Sat.last_interrupt}, and [s] stays fully
    reusable (further clauses, further solves).  [k <= 1] falls through
    to {!Sat.solve} with zero portfolio overhead.

    Like {!Sat.solve}, the race is bounded by the calling domain's
    budget ({!Sqed_resil.Budget.current}).  Each parallel worker runs
    under its own cancellable budget with that deadline and the full
    remaining conflict allowance (portfolio effort is accounted per
    engine); round-robin workers share one such budget.  The winner's
    conflicts are charged to the caller's budget once.  A cancellation
    of the caller's budget mid-race reaches the workers: the controller
    relays it in parallel mode, the scheduler checks for it between
    round-robin slices.  When no worker answers, {!Sat.last_interrupt}
    gives the reason that ended the race.

    [deterministic] (for reproducible CI runs) keeps every worker on the
    calling domain and runs them in fixed round-robin slices with a
    deterministic exchange schedule; the verdict is the first definitive
    answer in worker order, so repeat runs produce bit-identical
    verdicts and {!Sat.stats}.  Parallel mode (the default) spawns one
    domain per worker and the verdict is the first finisher — faster,
    but which worker wins can vary run to run.

    On a host where the runtime recommends a single domain, parallel
    mode falls back to the round-robin scheduler: timesharing [k]
    domains on one core makes every worker [k] times slower, while
    round-robin harvests the same strategy diversity (a lucky worker
    still answers within its first slices) at sequential cost.  Set
    {!force_spawn} to suppress the fallback. *)

val force_spawn : bool ref
(** Test hook: when [true], {!solve}'s parallel mode always spawns
    domains, even on a single-core host where it would otherwise fall
    back to the round-robin scheduler.  Default [false]. *)
