(** The end-to-end SEPE-SQED flow of Fig. 1: synthesize semantically
    equivalent programs with HPF-CEGIS (upper half), build the EDSEP-V
    equivalence table from them, then verify the DUV (lower half). *)

module Config = Sqed_proc.Config

type synthesized_case = {
  case : string;  (** the original instruction's mnemonic *)
  programs : Sqed_synth.Program.t list;
  chosen : Sqed_synth.Program.t option;
      (** program installed in the table (shortest that fits the
          partition's temporaries, avoiding same-name single lines) *)
  elapsed : float;
}

val synthesize_table :
  ?options:Sqed_synth.Engine.options ->
  ?cases:string list ->
  ?jobs:int ->
  ?pool:Sqed_par.Pool.t ->
  Config.t ->
  Sqed_qed.Equiv_table.t * synthesized_case list * Sqed_resil.Verdict.summary
(** Run HPF-CEGIS per case at the configuration's XLEN and fold the
    results into an equivalence table (classes without a usable
    synthesized program keep their built-in template).  [?jobs] fans the
    per-instruction runs out over that many worker domains (default: the
    [SEPE_JOBS] environment knob, see {!Sqed_par.Pool.default_jobs});
    [?pool] reuses a caller-owned pool instead (useful to read
    {!Sqed_par.Pool.stats} afterwards).

    The fan-out is a {!Sqed_par.Campaign} keyed [synth/<case>]: a case
    whose synthesis task crashes or exhausts its budget degrades to its
    built-in template ([chosen = None], no programs) rather than
    aborting the whole table, and counts in the returned summary. *)

val builtin_table : Config.t -> Sqed_qed.Equiv_table.t
