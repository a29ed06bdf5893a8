(** Paper Fig. 3: HPF-CEGIS vs iterative CEGIS synthesis times.

    Shared by the bench harness and the [sepe fig3] subcommand. *)

val run :
  ?fast:bool ->
  ?jobs:int ->
  ?witness:bool ->
  ?checkpoint:string ->
  ?cases:string list ->
  ?seeds:int list ->
  ?k:int ->
  ?time_budget:float ->
  unit ->
  Sqed_resil.Verdict.summary
(** [run ~fast ~jobs ~witness ()] prints the Fig. 3 table and returns
    the campaign's verdict summary (all-ok on a clean run).  [?jobs]
    goes to {!Sqed_par.Campaign.run}.  [witness] appends one tiny BMC
    verification (SEPE-SQED on the ADD mutation) so traces of this
    command also exercise the BMC layer.

    The per-cell fan-out is a {!Sqed_par.Campaign}: a cell whose task
    crashes or exhausts its budget prints a [FAILED]/[UNKNOWN] line before
    the table (its row shows ["-"] for the missing mean) instead of
    aborting the run.  [?checkpoint FILE] journals each completed cell to
    [FILE] under [fig3/<case>/<engine>/<seed>]; a rerun with the same file
    resumes, skipping journaled cells and reusing their stored numbers;
    cell times are kept at journal precision ({!Print.seconds}), so a
    resumed table prints the same digits.  [?cases], [?seeds],
    [?k] and [?time_budget] override the fast/full defaults (used by the
    resilience smoke test to shrink the campaign). *)
