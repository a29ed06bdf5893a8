(** Supervised, checkpointed campaigns: the one loop behind every
    fan-out of independent cases (the Fig. 3 cells, the Table-1 bugs,
    verifier sweeps, per-instruction table synthesis).

    {!run} resumes the tasks a checkpoint journal already holds, fans
    the rest out over a {!Pool} with supervision ({!Pool.map_result})
    under a {!Sqed_obs.Progress} campaign, journals each [Ok] result as
    soon as its task finishes, turns task errors into verdicts, notes
    one {!Sqed_obs.Report} row per task and returns the verdicts in
    input order with their summary.  Rendering the rows is left to the
    caller. *)

type 'b codec = {
  encode : 'b -> Sqed_obs.Json.t;
  decode : Sqed_obs.Json.t -> 'b option;
      (** [None] for a journal record that does not decode: the task is
          recomputed. *)
}
(** How a task's result is stored in the checkpoint journal. *)

val run :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?task_budget:float ->
  ?checkpoint:string * 'b codec ->
  ?detail:('b -> string) ->
  key:('a -> string) ->
  string ->
  ('a -> 'b Sqed_resil.Verdict.t) ->
  'a list ->
  'b Sqed_resil.Verdict.t list * Sqed_resil.Verdict.summary
(** [run ~key label f tasks] runs [f] on every task and returns one
    verdict per task, in input order, plus their
    {!Sqed_resil.Verdict.summary}.

    - [?pool] runs the tasks on a caller-owned pool; otherwise a fresh
      pool of [?jobs] workers (default {!Pool.default_jobs}) is created
      for the call.
    - [?task_budget] is the per-task budget in seconds that
      {!Sqed_obs.Progress} uses for stall detection; it does not limit the task.
      A task that needs a limit sets one itself with
      {!Sqed_resil.Budget.within}.
    - [?checkpoint (path, codec)] opens the {!Sqed_resil.Journal} at
      [path].  A task whose [key] is journaled and decodes comes back
      as [Ok] without running, counted in [skipped] (not in [ok]).
      Every other task's [Ok] result is journaled under [key] when it
      finishes; a failed append prints a note and leaves the task
      unjournaled, so a later resume recomputes it.
    - A task that raises becomes [Failed "<error> (attempts: N)"], or
      [Unknown] with the same message when the final attempt exhausted
      its {!Sqed_resil.Budget}.  A task may also return [Unknown] or
      [Failed] itself.  Each degraded task prints one
      [UNKNOWN]/[FAILED] line naming its key.
    - Each task notes one report row under [key]: [Skipped] when
      resumed, otherwise its verdict with the task's wall time (summed
      over attempts) and, for [Ok], [detail result] (default ["ok"]).

    [label] names the progress line and the [<label>.start] and
    [<label>.done] log events. *)
