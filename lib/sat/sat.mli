(** A CDCL SAT solver.

    Features: clauses stored inline in one flat int-array arena,
    two-watched-literal propagation with dedicated binary-clause
    watch lists (a binary watcher is a single blocker literal, so binary
    propagation never touches clause memory), VSIDS decision heuristic with
    phase saving, first-UIP conflict analysis with iterative clause
    minimization, Luby restarts, learnt-clause database reduction, and
    solving under assumptions.  Built for the bit-blasted QF_BV queries
    issued by {!Sqed_smt} (CEGIS and BMC workloads).

    For the cross-layer invariants this solver's incremental API rests on
    (frozen variables, restore-on-add, budget poll sites, clause-database
    cloning for the portfolio), see [docs/SOLVER.md]. *)

type t
(** A solver instance: clause database, assignment trail and heuristic
    state.  Single-owner mutable — never share one instance across
    domains; the portfolio layer gives each worker its own {!clone}. *)

type lit = int
(** Literals are [2 * var] (positive) or [2 * var + 1] (negated). *)

val create : unit -> t
(** A fresh, empty solver (no variables, no clauses, default
    {!default_strategy}). *)

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val num_vars : t -> int
(** Number of variables allocated so far. *)

val num_clauses : t -> int
(** Number of live problem clauses (learnt clauses not included). *)

val pos : int -> lit
(** Positive literal of a variable. *)

val neg_of_var : int -> lit
(** Negative literal of a variable. *)

val negate : lit -> lit
(** The opposite-polarity literal of the same variable. *)

val var_of : lit -> int
(** The variable a literal mentions. *)

val is_pos : lit -> bool
(** Whether a literal is the positive occurrence of its variable. *)

val add_clause : t -> lit list -> unit
(** Add a clause.  Adding the empty clause (or a clause that simplifies to
    it) makes the instance permanently unsatisfiable. *)

val add_clause_a : t -> lit array -> unit
(** Array variant of {!add_clause} (the array is copied, not
    captured). *)

val add_clause2 : t -> lit -> lit -> unit
(** [add_clause2 s a b] adds the clause [a ∨ b] exactly as
    [add_clause_a s [| a; b |]] would — same normalization, same
    restore of eliminated variables, same unsatisfiable outcome — but
    writes the literals straight into clause storage, allocating
    nothing.  The encoder's gate clauses go through here. *)

val add_clause3 : t -> lit -> lit -> lit -> unit
(** [add_clause3 s a b c] is [add_clause_a s [| a; b; c |]] without the
    array (see {!add_clause2}). *)

(** {2 Preprocessing}

    A SatELite-style simplifier ({!Simplify}: bounded variable
    elimination, subsumption, self-subsuming resolution, failed-literal
    probing) can run between [solve] calls.  It is off by default on a
    raw solver; {!Sqed_smt.Solver} turns it on.  Eliminated variables are
    transparent to the caller: models are extended over them, and adding
    a clause (or assuming a literal) that mentions one restores its
    defining clauses first, so the incremental API keeps its meaning. *)

val set_simplify : t -> bool -> unit
(** Enable/disable automatic simplification.  When enabled, [solve] may
    run a pass at any restart boundary, solve entry included, of an
    instance that has already been solved once.  A pass runs only when
    the problem database has grown since the last pass (by 256 clauses
    and by a quarter, so long incremental runs pay few passes) and the
    search has spent one conflict per 200 problem clauses since then (a
    pass costs time linear in the database, so a shallow re-solve of a
    large instance never pays for one).  The very first [solve] of a
    fresh instance never simplifies — one-shot queries are
    encoding-bound and a pass would cost more than it saves; use
    {!simplify_now} to force one. *)

val simplify_now : t -> unit
(** Run one simplification pass immediately (no-op unless the solver is
    at decision level 0 and still satisfiable-so-far). *)

val freeze : t -> int -> unit
(** Exempt a variable from elimination, restoring it first if a previous
    pass eliminated it.  Callers freeze variables whose clauses must
    survive verbatim — e.g. the bit-blaster freezes every literal it
    caches, because future blasts emit new clauses over those literals.
    Assumption variables are frozen automatically by [solve]. *)

val is_eliminated : t -> int -> bool
(** Has the variable been eliminated (and not restored)?  Mostly for
    tests and debugging. *)

type result = Sat | Unsat | Unknown
(** Verdict of a {!solve} call; [Unknown] means a budget/limit interrupt
    (see {!last_interrupt} for which one). *)

val solve : ?assumptions:lit list -> t -> result
(** Solve under the given assumptions.  The solver is reusable: further
    clauses may be added and [solve] called again (incremental use) —
    including after an interrupted ([Unknown]) search, which backtracks
    to the root state before returning.  The search is bounded by the
    calling domain's budget ({!Sqed_resil.Budget.current}, read once at
    entry): its remaining conflict allowance caps the search, its
    deadline and a {!Sqed_resil.Budget.cancel} are polled every 1024
    conflicts and at restart and learnt-DB reduction boundaries, and the
    conflicts spent are charged to it on return.  When it runs out the
    answer is [Unknown].  Narrow it for one call with
    {!Sqed_resil.Budget.within}. *)

val last_interrupt : t -> Sqed_resil.Budget.reason option
(** Why the most recent {!solve} returned [Unknown] — [Deadline] for a
    wall-clock limit, [Conflicts] for a conflict cap, [Cancelled] for an
    explicit {!Sqed_resil.Budget.cancel}.  [None] after [Sat]/[Unsat]
    (and before any solve). *)

val note_interrupt : t -> Sqed_resil.Budget.reason -> unit
(** Record an interrupt reason on behalf of the solver ({!Portfolio}
    plumbing, for [Unknown]s decided outside the CDCL loop — e.g. a
    budget found spent before any worker was spawned). *)

(** {1 Resource budgets}

    A solver holds no budget.  Searching ({!solve}), preprocessing and
    the encoding layers all read the calling domain's
    {!Sqed_resil.Budget.current}, so one budget bounds bit-blasting,
    preprocessing and the CDCL loop alike. *)

val check_budget : unit -> unit
(** Cooperative cancellation point for encoding work feeding a solver: a
    {!Sqed_resil.Budget.check} of the calling domain's budget, raising
    {!Sqed_resil.Budget.Exhausted} once it is spent. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer.  Unconstrained variables
    read [false].  Raises [Failure] if the last call did not return [Sat]. *)

val lit_value : t -> lit -> bool
(** Model value of a literal (see {!value}). *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
}
(** Cumulative search counters over the solver's lifetime. *)

val stats : t -> stats
(** Read the counters (cheap; plain field loads). *)

(** {1 Portfolio hooks}

    The building blocks {!Portfolio} assembles into K diversified
    workers racing on one instance.  They are exposed here rather than
    kept private because the portfolio lives in a separate module of
    this library; ordinary clients never need them. *)

type strategy = {
  var_decay : float;
      (** VSIDS activity decay factor in (0, 1]; default 0.95.  Smaller
          values make the heuristic more reactive to recent conflicts. *)
  restart_luby : bool;
      (** Luby restarts (default) vs. geometric when [false]. *)
  restart_base : float;
      (** Conflicts before the first restart (Luby unit / geometric
          start); default 100. *)
  restart_growth : float;
      (** Geometric growth factor, used only when [restart_luby] is
          [false]; default 1.5. *)
  seed : int;
      (** PRNG seed for randomized polarity; 0 (default) keeps the
          solver fully deterministic. *)
  random_pol_freq : int;
      (** Pick a random phase on roughly 1 in [random_pol_freq]
          decisions; 0 (default) always uses the saved phase. *)
  invert_pol : bool;
      (** Flip every saved phase once when the strategy is installed, so
          the worker starts its search in the complementary half of the
          assignment space. *)
}
(** Search-diversification knobs.  {!default_strategy} reproduces the
    solver's historical constants exactly, so installing it is a no-op
    behavior-wise. *)

val default_strategy : strategy
(** The stock strategy every fresh solver starts with. *)

val set_strategy : t -> strategy -> unit
(** Install a strategy.  [invert_pol] takes effect immediately (the
    saved-phase array is flipped once); the other knobs steer subsequent
    {!solve} calls.  Raises [Invalid_argument] if [var_decay] is outside
    (0, 1]. *)

type exchange = {
  max_lbd : int;  (** export learnt clauses with LBD at most this... *)
  max_len : int;  (** ...or at most this many literals. *)
  export : lit array -> int -> unit;
      (** Called inside conflict analysis for each export-worthy learnt
          clause with a fresh literal-array copy and its LBD.  Learnt
          units are always exported (with LBD 1).  Runs on the solver's
          domain; must not block. *)
  import : unit -> (lit array * int) list;
      (** Called at restart boundaries (decision level 0); returned
          clauses are spliced into the learnt database and propagated.
          Runs on the solver's domain. *)
}
(** Learnt-clause exchange callbacks.  Learnt clauses are implied by the
    problem clauses alone — assumptions enter the search as reasonless
    decisions and are never resolved into learnt clauses — so they are
    sound to share between solvers working on clones of one instance. *)

val set_exchange : t -> exchange option -> unit
(** Install (or with [None] remove) the exchange callbacks. *)

val prepare : ?assumptions:lit list -> t -> bool
(** Run the pre-search phase of {!solve} — freeze assumption variables,
    propagate to the level-0 fixpoint, auto-simplify if due — so that
    {!clone} snapshots the post-preprocessing clause database.  Returns
    [false] when the instance is already UNSAT (no portfolio needed). *)

val clone : t -> t
(** Deep-copy the solver for an independent worker: problem and learnt
    clauses (fresh literal arrays — propagation mutates them in place),
    level-0 trail, saved phases, activities and elimination state.  The
    clone has auto-simplify off, no exchange, zero counters
    and {!default_strategy}.  Only valid at decision level 0. *)

val adopt : t -> winner:t -> unit
(** After a portfolio race, fold the winning clone back into the master:
    copy its model (if any) and {!last_interrupt}, and add its search
    counters to the master's {!stats}. *)

val import_clauses : t -> (lit array * int) list -> unit
(** Splice peer-learnt clauses (with their LBDs) into the learnt
    database at decision level 0 and propagate any resulting units; used
    to bank a portfolio's shared clauses in the master so later
    incremental queries start ahead.  Clauses mentioning eliminated
    variables are skipped defensively. *)

val to_dimacs : t -> string
(** The problem clauses (not learnt ones) in DIMACS format, for
    cross-checking instances with external SAT solvers.  Level-0 trail
    literals are exported as unit clauses (units are absorbed into the
    trail when added, so they never appear in the clause database) and a
    derived empty clause is exported explicitly: the result is always
    equisatisfiable with the solver state. *)
