(** Bit-blasting of QF_BV terms onto the CDCL solver.

    Each term is lowered to a vector of {!Aig} edges (LSB first); the
    translation is memoized per term id, so shared sub-DAGs are encoded
    once.  Word-level operators use standard circuits: ripple-carry
    adders, shift-and-add multipliers, barrel shifters, long-division
    restoring dividers and borrow-chain comparators.  The graph hash-conses
    and rewrites the circuits as they are built, and converts them to CNF
    (polarity-aware, incrementally) only when a root is asserted or
    assumed. *)

type t

val create : Sqed_sat.Sat.t -> t
(** A blaster over the given solver, with an empty term memo and its
    own {!Aig} graph (which allocates the constant-true variable). *)

val blast : t -> Term.t -> Sqed_sat.Sat.lit array
(** Literals of the term, least-significant bit first.  This forces both
    polarity halves of each bit's cone into the CNF and freezes the
    literals, since they escape to the caller; prefer {!assert_bool} /
    {!assume_bool}, which encode only the needed polarity. *)

val blast_bool : t -> Term.t -> Sqed_sat.Sat.lit
(** The single literal of a width-1 term (both polarities, as {!blast}). *)

val assert_bool : t -> Term.t -> unit
(** Assert a width-1 term as a unit clause (positive-polarity cone
    only).

    Blasting honors the solver's budget ({!Sqed_sat.Sat.check_budget}):
    on {!Sqed_resil.Budget.Exhausted} the partially-encoded assert is
    remembered and MUST be finished via {!complete} before the next
    solve ({!Solver.check} does this automatically). *)

val complete : t -> unit
(** Finish any encoding work left over from budget-aborted operations:
    drains the AIG conversion queue and replays pending asserts.  No-op
    when nothing is outstanding; may itself raise
    {!Sqed_resil.Budget.Exhausted} (and remain completable later). *)

val assume_bool : t -> Term.t -> Sqed_sat.Sat.lit
(** Literal for a width-1 term to be passed to [Sat.solve ~assumptions]
    (positive-polarity cone only; [solve] freezes assumption variables
    for the call). *)

val var_lits : t -> string -> width:int -> Sqed_sat.Sat.lit array option
(** Literals allocated for a variable, if it was blasted. *)
