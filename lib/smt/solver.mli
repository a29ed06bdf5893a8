(** QF_BV satisfiability on top of {!Bitblast} and {!Sqed_sat.Sat}.

    A solver instance accumulates assertions (incremental: more assertions
    may be added after a [check]).  Checking under assumptions does not
    retract anything.

    Every instance runs the SAT core's CNF preprocessor ({!Sqed_sat.Simplify})
    unless its {!config} turns it off: the bit-blaster freezes each
    literal it hands out, so the simplifier only ever eliminates
    gate-internal variables and incremental use (more assertions,
    assumptions, further [check]s) stays sound.

    Bit-blasting goes through the {!Aig} gate layer (structural hashing,
    rewriting, polarity-aware CNF conversion). *)

module Bv = Sqed_bv.Bv

type t

type result = Sat | Unsat | Unknown

(** {1 Configuration} *)

type config = {
  simplify : bool;
      (** Run the SAT core's CNF preprocessor (the `--no-simplify` flag
          turns it off). *)
  portfolio : int;
      (** Portfolio width, 1 = single engine (the `--portfolio K` flag).
          Width alone does not engage the portfolio; see
          {!set_portfolio_active}. *)
}
(** The knobs that shape every solver of a run.  Two runs are only
    comparable when their configs match, so the run ledger stamps this
    record into each entry's provenance. *)

val default_config : config
(** [{ simplify = true; portfolio = 1 }]. *)

val set_config : config -> unit
(** Set the run-wide config that {!create} uses when given no
    [?config].  Front-ends call this once, from their flags, before any
    solver exists.  The portfolio width is clamped to at least 1. *)

val config : unit -> config
(** The run-wide config ({!default_config} until {!set_config}). *)

val create : ?config:config -> unit -> t
(** A fresh solver configured by [config] (default: the run-wide
    {!config}[ ()]).  The portfolio width is clamped to at least 1.  A
    width above 1 changes nothing by itself: a [check] dispatches to
    {!Sqed_sat.Portfolio.solve} only while {!set_portfolio_active} has
    gated the portfolio on, so callers decide per query whether cloning
    the clause database into the workers is worth it (the BMC engine
    enables it past a depth threshold). *)

val set_portfolio_active : t -> bool -> unit
(** Per-query portfolio gate (off on a fresh solver).  No-op unless the
    solver was created with a portfolio width above 1. *)

val last_unknown : t -> Sqed_resil.Budget.reason option
(** Why the most recent {!check} returned [Unknown]: the SAT core's
    {!Sqed_sat.Sat.last_interrupt}, or the budget-exhaustion reason when
    encoding work raised before the search started.  [None] after
    [Sat]/[Unsat]. *)

val assert_ : t -> Term.t -> unit
(** Assert a width-1 term.  Under a limited calling-domain budget
    ({!Sqed_resil.Budget.current}) this may raise
    {!Sqed_resil.Budget.Exhausted} mid-encoding; the partial work is
    remembered and finished automatically by the next {!check}. *)

val check : ?assumptions:Term.t list -> ?max_conflicts:int -> t -> result
(** The call runs under the calling domain's budget
    ({!Sqed_resil.Budget.current}), narrowed by
    {!Sqed_resil.Budget.within} to [max_conflicts] when given; that one
    budget bounds the whole call — bit-blasting of assumptions and
    pending asserts as well as the CDCL search (encoding dominates on
    blast-heavy instances).  A caller that wants a deadline for the call
    wraps it in [Budget.within ~deadline].  Budget exhaustion anywhere in
    the call yields [Unknown]; the solver stays reusable (incremental
    state intact, unfinished encoding completed on the next call). *)

val model_var : t -> Term.t -> Bv.t
(** Value of a variable term in the last model.  Variables the solver never
    saw evaluate to zero.  Raises [Failure] without a model. *)

val model_value : t -> Term.t -> Bv.t
(** Evaluate an arbitrary term under the last model's variable values. *)

val model_evaluator : t -> Term.t -> Bv.t
(** [model_evaluator s] evaluates terms under the last model like
    {!model_value}, with one memo table shared by every term it is
    applied to: reading many outputs of one unrolled circuit costs one
    walk of their common cone.  Valid until the next {!check}.  Raises
    [Failure] without a model. *)

val num_clauses : t -> int
val num_vars : t -> int

val to_dimacs : t -> string
(** The bit-blasted clause database in DIMACS format (assertions only),
    for archiving hard instances and external cross-checks. *)

val stats : t -> Sqed_sat.Sat.stats

val check_valid : ?max_conflicts:int -> Term.t -> result * (string * Bv.t) list
(** One-shot validity check of a width-1 term: returns [Unsat] if the term
    is valid (its negation has no model), or [Sat] with a countermodel
    (variable assignments) otherwise. *)
