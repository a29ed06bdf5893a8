(** Low-overhead periodic time-series sampler.

    Piggybacks on the cooperative check points that already exist for
    budget polling (the CDCL 1024-conflict poll, bit-blast word loops,
    pool worker boundaries): each call site reports the live values it
    owns ({!poll_sat}, {!note_aig_nodes}) or just offers a sampling
    opportunity ({!poll_quick}), and the sampler records a row into the
    calling domain's ring whenever {!interval} has elapsed —
    conflict and propagation rates, learnt-DB size, AIG node count and
    [Gc.quick_stat] heap words.

    With {!enabled} unset every entry point costs one boolean load
    (plus one for the {!Progress} heartbeat it forwards), matching the
    [Metrics.enabled] discipline. Live values must be pushed by the
    owning hot loop because solver counters are only flushed to the
    metrics registry when a solve returns. *)

val enabled : bool ref
(** Master switch; set by [--report] (the report embeds the series). *)

val set_interval_us : int -> unit
(** Minimum microseconds between samples on one domain (default
    50_000). [0] samples on every poll — test use. *)

type sample = {
  sm_ts : float;  (** microseconds since the recorder epoch *)
  sm_conflicts_s : float;  (** conflict rate since the previous sample *)
  sm_props_s : float;  (** propagation rate since the previous sample *)
  sm_learnts : int;  (** learnt-clause DB size at the sample *)
  sm_aig_nodes : int;  (** AIG node count at the sample *)
  sm_heap_words : int;  (** [Gc.quick_stat] major-heap words *)
}

val poll_sat : conflicts:int -> propagations:int -> learnts:int -> unit
(** Report live CDCL totals and maybe sample; called from the solver's
    1024-conflict poll. Also forwards a {!Progress.beat}. *)

val poll_quick : unit -> unit
(** Sampling opportunity with no new values (bit-blast word loops, pool
    workers); tick-masked internally so even the enabled path only
    reads the clock every 64th call — except before the calling
    domain's first sample, where the mask is bypassed so short runs
    still record a series. Also forwards a {!Progress.beat}. *)

val note_aig_nodes : int -> unit
(** Report the current AIG node count for the calling domain. *)

val series : unit -> (int * sample list) list
(** Per-domain series, oldest sample first, sorted by domain id. *)

val to_json : unit -> Json.t
(** [{"interval_us":…,"domains":[{"dom":…,"samples":[…]}]}] — embedded
    in [run.json]. *)

val reset : unit -> unit
(** Drop all series and restart the recorder clock shared with {!Trace}
    and {!Log}. Test helper. *)
