(** Top-level verification driver: build the chosen QED model around the
    (optionally mutated) core and bounded-model-check the universal
    property [QED-ready => QED-consistent]. *)

module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug

type method_ = Sqed | Sepe_sqed

val method_name : method_ -> string

type result = {
  method_ : method_;
  bug : Bug.t option;
  bound : int;
  outcome : Sqed_bmc.Engine.outcome;
  stats : Sqed_bmc.Engine.stats;
}

val min_cex_depth : method_:method_ -> ?bug:Bug.t -> Config.t -> int option
(** Lower bound on the depth of any counterexample exposing the given
    single-instruction bug: the original instruction, its full
    duplicate/equivalent sequence, the pipeline drain and the QED-ready
    evaluation.  [None] when no class-based bound applies (multi-instruction
    bugs, or no bug). *)

val run :
  ?bug:Bug.t ->
  ?table:Sqed_qed.Equiv_table.t ->
  ?check_mem:bool ->
  ?focus:Sqed_qed.Equiv_table.key ->
  ?core:Sqed_qed.Qed_top.core ->
  ?time_budget:float ->
  ?start_bound:int ->
  ?progress:(int -> float -> unit) ->
  method_:method_ ->
  bound:int ->
  Config.t ->
  result

val detected : result -> bool
(** True when a counterexample (bug trace) was found. *)

val trace : result -> Sqed_bmc.Trace.t option

val outcome_to_string : result -> string
