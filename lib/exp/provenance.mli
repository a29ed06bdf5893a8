(** The solver-configuration stamp of a run-ledger entry.

    Both ledger writers (the bench harness and the [sepe] CLI) build the
    provenance [config] object here, from the run-wide
    {!Sqed_smt.Solver.config} that configured every solver of the run,
    so the stamp cannot drift from what actually ran. *)

val config : jobs:int -> fast:bool -> (string * Sqed_obs.Json.t) list
(** [{jobs, fast, simplify, portfolio}]: the campaign shape given by
    the caller plus the solver knobs read back from
    {!Sqed_smt.Solver.config}[ ()].  Two runs are only compared when
    these fields match ({!Sqed_obs.History.compatible}). *)
