(** Incremental bounded model checking of a QED verification model.

    Unrolls the model one step at a time into a single SMT solver
    (clauses are shared across bounds), permanently asserting the
    input-constraint obligations and the QED-consistent initial state, and
    querying the [bad] output at each depth under an assumption literal.
    This is the BMC engine role Pono plays in the paper. *)

type outcome =
  | Counterexample of Trace.t
  | No_counterexample  (** the property holds up to the bound *)
  | Gave_up of int
      (** every depth below this one is clean and this depth is not
          settled: the budget ran out before or while checking it;
          [stats.gave_up] says whether the wall-clock deadline, the
          conflict cap or a cancel ended it *)

type stats = {
  bounds_checked : int;
  solve_time : float;
  clauses : int;
  sat_conflicts : int;
  sat : Sqed_sat.Sat.stats;
      (** full solver counters (decisions, propagations, restarts, ...) *)
  gave_up : Sqed_resil.Budget.reason option;
      (** why the run gave up ([Deadline], [Conflicts], [Cancelled]),
          when the outcome is [Gave_up]/[Proof_gave_up]; [None] on a
          definitive verdict *)
}

val default_portfolio_from : int
(** Default depth threshold past which a BMC query opts into portfolio
    solving (when the solver was created with width above 1). *)

val check :
  ?time_budget:float ->
  ?start_bound:int ->
  ?progress:(int -> float -> unit) ->
  bound:int ->
  Sqed_qed.Qed_top.t ->
  outcome * stats
(** [time_budget] (seconds) bounds the whole run, unrolling and encoding
    included: it narrows the calling domain's budget with
    {!Sqed_resil.Budget.within}; a conflict cap for the run is set the
    same way, by the caller.  [progress] is called after each depth with
    the depth and the elapsed seconds.  The budget is polled before each
    depth, so a budget that ends after the last depth leaves
    [No_counterexample].  [start_bound] skips the (expensive,
    necessarily clean) property checks below the given depth when the
    shortest possible counterexample length is known; constraints are
    still asserted for every step.  Depths at or past
    {!default_portfolio_from} gate portfolio solving on — shallow
    queries are cheap enough that cloning the clause database would
    dominate —
    which has no effect unless the run sets a portfolio width above 1
    ({!Sqed_smt.Solver.config}). *)

val extract_trace :
  Sqed_qed.Qed_top.t -> Sqed_rtl.Unroll.t -> Sqed_smt.Solver.t -> int -> Trace.t
(** [extract_trace model u solver depth] reads the counterexample of
    length [depth] out of [solver]'s last model of the unrolling [u]:
    per-step outputs and raw inputs, the final architectural registers
    and the symbolic initial state.  All reads share one
    {!Sqed_smt.Solver.model_evaluator}, so the unrolled cone is walked
    once, not once per read. *)

val replay : Sqed_qed.Qed_top.t -> Trace.t -> bool
(** Witness validation: re-run the counterexample's exact inputs and
    initial state on the concrete cycle simulator and confirm the model's
    [bad] output fires at the recorded depth.  A sound trace always
    replays; this cross-checks the symbolic unrolling, the bit-blaster and
    the SAT model against the independent simulation semantics. *)

(** {1 k-induction} *)

type proof_outcome =
  | Proved of int  (** the property is inductive at this k: holds at all depths *)
  | Base_cex of Trace.t  (** the base case found a real counterexample *)
  | Not_inductive of int  (** no k up to the limit closed the induction *)
  | Proof_gave_up of int
      (** every k below this one was settled (clean base case, spurious
          step) and this k is not: the budget ran out before or while
          checking it *)

val prove :
  ?time_budget:float ->
  max_k:int ->
  Sqed_qed.Qed_top.t ->
  proof_outcome * stats
(** Temporal (k-)induction, the unbounded-proof engine Pono pairs with
    BMC: the base case checks depths 1..k from the initial states; the
    inductive step starts from an arbitrary state satisfying the input
    constraints with k clean steps and asks whether step k+1 can fail.
    UNSAT closes the property for every depth.  Properties whose
    invariant depends on reachability (like QED-consistency over the
    commit counters) typically need auxiliary invariants and come back
    [Not_inductive]; the engine is exercised on circuits with inductive
    properties in the test suite. *)

val shrink : Sqed_qed.Qed_top.t -> Trace.t -> Trace.t
(** Greedy counterexample reduction by concrete replay: try suppressing
    each injected original instruction (forcing [orig_valid] low at that
    step) and keep the suppression whenever the violation still fires;
    finally trim idle suffix cycles.  The result replays by
    construction. *)
