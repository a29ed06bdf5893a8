(** Console layout shared by the experiments ({!Fig3}, {!Detection})
    and the bench harness. *)

val line : string
(** The 72-dash rule that frames section titles and table headers. *)

val section : string -> unit
(** [section title] prints [title] between two {!line}s. *)

val seconds : float -> float
(** [seconds t] is [t] at the precision a checkpoint journal stores it
    ({!Sqed_obs.Json.Float}'s three decimals).  A cell keeps its seconds
    this way from the start, so a fresh row and the same row resumed
    from the journal print the same digits. *)
