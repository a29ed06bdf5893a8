(** One run session, shared by the [sepe] subcommands and the bench
    harness.

    Both front-ends run the same sequence around their work: read the
    shared flags ({!term}), install the run-wide solver config and the
    recorders, run the body, then write the trace, the metrics JSON, the
    HTML report and the metrics table, gate the run against its
    [--baseline] ledger, append it to the [--ledger] archive and pick
    the exit code.  {!run} is that sequence; each front-end only adds
    its own flags and the body. *)

type t
(** The flags every front-end shares: the recorders ([--metrics],
    [--metrics-json], [--trace], [--log], [--log-level], [--progress]),
    the run artifacts ([--report], [--ledger], [--baseline]), the solver
    config ([--no-simplify], [--portfolio]) and [--fault-inject], whose
    spec is armed when the term is evaluated, so a malformed one is a
    usage error. *)

val term : t Cmdliner.Term.t
(** The shared flags as one cmdliner term. *)

val exits : Cmdliner.Cmd.Exit.info list
(** Cmdliner's default exit codes plus the session's 3, 4 and 5. *)

val exit_code : Sqed_resil.Verdict.summary -> regressed:bool -> int
(** The process exit code of a finished run: the campaign's degraded
    code (3 inconclusive, 4 failed) when it has one, else 5 when the
    sentinel tripped, else 0.  Degradation outranks the sentinel: a run
    that was not clean has no trustworthy performance numbers. *)

val run :
  t ->
  kind:string ->
  label:string ->
  jobs:int ->
  fast:bool ->
  ?payload:(unit -> Sqed_obs.Json.t) ->
  (unit -> Sqed_resil.Verdict.summary) ->
  int
(** [run s ~kind ~label ~jobs ~fast body] installs [s]'s solver config
    and recorders, runs [body] and returns {!exit_code} of
    its verdict summary.  In a [finally] (so a raising body still leaves
    its artifacts) it writes the trace, metrics JSON, report and metrics
    table, runs the [--baseline] sentinel ({!band_check}) and appends
    the ledger entry.

    The entry and the sentinel's probe carry [kind] (the producing
    binary), [label] (the subcommand or experiment list), [payload ()]
    (default: the report's run snapshot) and a provenance config built
    from [jobs], [fast] and the installed solver config.  A degraded or
    resumed campaign prints its {!Sqed_resil.Verdict.summary_line}; on a
    degraded exit the last warning events are dumped to stderr. *)

(** {1 Comparing against the ledger} *)

val load_ledger : string -> Sqed_obs.Json.t list
(** {!Sqed_obs.History.load}'s entries, after printing a note when torn
    or invalid lines were dropped. *)

val report_deltas :
  ?all:bool -> Sqed_obs.Diff.delta list -> Sqed_obs.Diff.delta list
(** Print the gated deltas and any that left their band (with [~all],
    every delta, counters included) and a verdict line; return the
    gated regressions ({!Sqed_obs.Diff.regressions}). *)

val band_check :
  ?all:bool -> history:Sqed_obs.Json.t list -> Sqed_obs.Json.t ->
  Sqed_obs.Diff.delta list
(** [band_check ~history entry] checks [entry]'s run payload against the
    noise band of the config-compatible entries of [history] (oldest
    first) and reports the deltas ({!report_deltas}), returning the
    gated regressions.  The bench sentinel and
    [sepe runs compare --against-history] both call it. *)

val config_note : string -> string
(** [config_note what] is ["note: <what> a different {jobs,...} config"],
    the key set read from {!Provenance.config}. *)
