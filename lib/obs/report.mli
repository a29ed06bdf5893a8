(** Self-contained per-run HTML report plus a machine-readable
    [run.json] sidecar.

    {!write} snapshots the whole flight recorder — metrics registry,
    sampler series, log-ring tail, trace drop count — together with the
    per-case verdict rows the campaign pushed through {!note_case}, and
    renders a single HTML file with no external assets: stat tiles,
    inline-SVG sparklines per sampler series, the phase-timer table,
    histogram summaries, the verdict table and the log tail. The
    sidecar (same path with a [.json] extension) carries the same data
    as checked JSON so CI re-parses it with [Json.parse].

    Case rows are plain data pushed by the campaign drivers ([lib/exp],
    [lib/synth], the CLIs) — the dependency points that way because
    [lib/resil] links against this library, not the reverse. *)

(** Per-case outcome, mirroring [lib/resil] verdicts plus the
    checkpoint-resume case. *)
type status = Ok | Unknown | Failed | Skipped

type case_row = {
  rc_key : string;  (** stable case key, e.g. the journal key *)
  rc_status : status;
  rc_detail : string;  (** human-readable verdict detail *)
  rc_dur : float;  (** seconds; 0 when unknown (e.g. resumed) *)
}

val note_case : case_row -> unit
(** Append a row to the run's verdict table. Thread-safe. *)

val cases : unit -> case_row list
(** Rows noted so far, in arrival order. *)

val heap_json : unit -> Json.t
(** The heap at the end of the run: [live_words] and [top_heap_words]
    after one [Gc.full_major], and the process's allocation totals
    [minor_words] (allocated on the minor heap) and [promoted_words]
    (copied from it to the major heap).  The first call since
    {!reset} collects and reads; later calls return that reading, so
    call it only once the run's work is done.  {!write} and
    {!run_payload} embed it as [heap]. *)

val run_payload : ?title:string -> ?cmdline:string -> unit -> Json.t
(** The machine-readable run snapshot ([schema sepe.flight/1]): the
    same object {!write} puts in the sidecar, for callers that archive
    it elsewhere — e.g. appending to a {!History} ledger. *)

val write :
  ?title:string -> ?cmdline:string -> ?history:Json.t list ->
  path:string -> unit -> string
(** Write the HTML report to [path] and the sidecar next to it;
    returns the sidecar path.  [history] (ledger entries, oldest
    first) adds a cross-run section: per-metric sparklines across the
    archived runs with this run appended, noise-band verdicts from
    {!Diff}, regression rows highlighted. *)

val reset : unit -> unit
(** Drop noted cases and the heap reading, and restart the run clock.
    Test helper. *)
