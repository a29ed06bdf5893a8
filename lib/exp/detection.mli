(** Paper Table 1 and Fig. 4: bug detection, SEPE-SQED against SQED.

    Table 1 injects each single-instruction bug, which SEPE-SQED detects
    and SQED's self-consistency cannot observe; Fig. 4 injects the
    multiple-instruction bugs, which both methods detect.  Both
    experiments run one {!Sqed_par.Campaign} task per bug on the tiny
    core and share one typed {!row} and one journal {!codec}.  The bench
    harness calls {!table1} and {!fig4}; tests call the per-bug
    functions directly. *)

(** {1 Rows} *)

type outcome =
  | Found of int  (** a counterexample of this trace length *)
  | Clean of int  (** no counterexample up to this bound *)
  | Gave_up of int * Sqed_resil.Budget.reason option
      (** this depth was not settled; the budget reason when known *)

type cell = {
  outcome : outcome;
  seconds : float;
      (** [Engine.stats.solve_time], at journal precision
          ({!Print.seconds}) *)
  conflicts : int;  (** the run's SAT conflicts (deterministic per cell) *)
}
(** The summary of one {!Sepe_sqed.Verifier.run}. *)

type row = { bug : Sqed_proc.Bug.t; sepe : cell; sqed : cell }
(** One bug, checked by both methods. *)

val codec : row Sqed_par.Campaign.codec
(** The journal record of a row: a JSON object with the bug's name and
    one object per cell.  A record that is not such an object (a string
    row, for instance) decodes to [None], so its task is recomputed. *)

(** {1 Table 1} *)

val table1_row : ?fast:bool -> Sqed_proc.Bug.t -> row
(** [table1_row bug] runs the SEPE-SQED cell (focused on the mutated
    class, from just below the class-minimum depth), then the SQED
    control to the SEPE trace length capped at 9 (8 when SEPE found
    nothing).  [fast] shortens the budgets. *)

val table1_line : row -> string
(** The row as Table 1 prints it. *)

val table1 :
  ?fast:bool -> ?jobs:int -> ?checkpoint:string -> unit ->
  Sqed_resil.Verdict.summary
(** [table1 ()] prints Table 1 over every single-instruction bug (ADD,
    XOR and SW with [fast]) and returns the campaign's summary.
    [?jobs] and [?checkpoint] go to {!Sqed_par.Campaign.run}; rows are
    journaled under [table1/<bug>]. *)

(** {1 Fig. 4} *)

val fig4_row : ?fast:bool -> Sqed_proc.Bug.t -> row
(** [fig4_row bug] runs SQED, then SEPE-SQED, both to bound 14.  [fast]
    shortens the budget. *)

val fig4_line : row -> string
(** The row as Fig. 4 prints it, with the time and length ratios when
    both methods found a trace. *)

val fig4 :
  ?fast:bool -> ?jobs:int -> ?checkpoint:string -> unit ->
  Sqed_resil.Verdict.summary
(** [fig4 ()] prints Fig. 4 over every multiple-instruction bug (two
    with [fast]) and returns the campaign's summary; rows are journaled
    under [fig4/<bug>]. *)
