(** The flight recorder: one typed event stream per domain.

    Every recorded event is one {!entry}: a timestamp on the recorder
    clock (microseconds since the epoch in {!Ring}), the emitting domain,
    a name and a {!body} that is a span, a point or a sample.

    - {b Spans} are timing brackets around pipeline phases. With
      {!enabled} set, each closed span is recorded; {!export} writes
      them as complete ("ph":"X") events of a Chrome [trace_event] array
      that opens in [chrome://tracing] / Perfetto. When only
      [Metrics.enabled] is set, spans feed the per-kind
      {!Metrics.timer} and nothing is recorded.
    - {b Points} are leveled log records with typed fields. Records at
      {!Info} and above are always recorded, even with no sink attached,
      so the tail of the flight can be dumped into degraded-exit
      summaries; {!set_sink} also streams them as JSON-lines.
    - {b Samples} are periodic rows of live solver values (conflict and
      propagation rates, learnt-DB size, AIG nodes, heap words) taken at
      the cooperative check points while {!sampling} is set.

    Each domain appends to its own bounded ring with no lock; the views
    below merge the rings on demand. A ring holds {!ring_capacity}
    entries of every kind together and overwrites its oldest entry when
    full, so a long run keeps its newest events, and spans can evict
    older log records. Switched off, every entry point costs one boolean
    load or one level comparison. *)

(** {1 Spans} *)

val enabled : bool ref
(** Span recording switch (independent of [Metrics.enabled]). *)

type kind
(** A statically-registered span name + category, carrying its phase
    timer. Create once at module-init time. *)

val kind : ?cat:string -> string -> kind

val with_span : ?args:(string * string) list -> kind -> (unit -> 'a) -> 'a
(** Run [f] inside a span. Exception-safe: the span closes (and the
    timer records) even if [f] raises. *)

val with_span_named : ?cat:string -> string -> (unit -> 'a) -> 'a
(** Dynamic-name variant for cold paths (e.g. per-experiment brackets). *)

(** {1 Points} *)

(** Severity, in increasing order. *)
type level = Debug | Info | Warn | Error

(** Typed field values; rendered as the matching JSON scalar. *)
type field = Str of string | I of int | F of float | B of bool

val logs : level -> bool
(** [logs lvl] is true when a point at [lvl] would be recorded. Use it
    to guard field construction at hot sites; {!Debug} points are
    recorded only while a [Debug]-level sink is attached. *)

val debug : string -> (string * field) list -> unit
val info : string -> (string * field) list -> unit
val warn : string -> (string * field) list -> unit
val error : string -> (string * field) list -> unit

val set_sink : ?level:level -> string -> unit
(** Open [path] and stream subsequent points at [level] (default
    {!Info}) or above to it as JSON-lines, one {!to_json} object per
    line: [{"ts_us":…,"dom":…,"level":…,"ev":…,"fields":{…}}]. Path
    ["-"] selects stderr. [Warn]/[Error] points flush immediately; the
    rest on {!close_sink}. Replaces any previous sink. *)

val close_sink : unit -> unit
(** Flush and detach the sink ([stderr] is flushed, not closed). *)

(** {1 Samples} *)

val sampling : bool ref
(** Sampling switch; set by [--report] (the report embeds the series). *)

val set_interval_us : int -> unit
(** Minimum microseconds between samples on one domain (default
    50_000). [0] samples on every poll — test use. *)

val poll_sat : conflicts:int -> propagations:int -> learnts:int -> unit
(** Report live CDCL totals and maybe sample; called from the solver's
    1024-conflict poll, because solver counters reach the metrics
    registry only when a solve returns. *)

val poll_quick : unit -> unit
(** Sampling opportunity with no new values (bit-blast word loops);
    tick-masked so the enabled path reads the clock every 64th call,
    except before the calling domain's first sample, so short runs
    still record a series. *)

val note_aig_nodes : int -> unit
(** Report the current AIG node count for the calling domain. *)

(** {1 The stream} *)

type sample = {
  sm_conflicts_s : float;  (** conflict rate since the previous sample *)
  sm_props_s : float;  (** propagation rate since the previous sample *)
  sm_learnts : int;  (** learnt-clause DB size at the sample *)
  sm_aig_nodes : int;  (** AIG node count at the sample *)
  sm_heap_words : int;  (** [Gc.quick_stat] major-heap words *)
}

type body =
  | Span of {
      cat : string;
      dur : float;  (** microseconds *)
      depth : int;  (** nesting depth within its domain at begin time *)
      args : (string * string) list;
    }
  | Point of { level : level; fields : (string * field) list }
  | Sample of sample

type entry = {
  ts : float;  (** microseconds since the recorder epoch *)
  dom : int;  (** emitting domain id *)
  name : string;  (** span kind, point event name or ["sample"] *)
  body : body;
}

val ring_capacity : int
(** Entries of all kinds retained per domain. *)

val to_json : entry -> Json.t
(** A span as its Chrome trace event, a point as its JSON-lines record,
    a sample as its run.json row. *)

val reset : unit -> unit
(** Drop every recorded entry and drop count, zero the live sample
    values and restart the recorder clock; the sink stays attached. *)

(** {2 Span view} *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : float;  (** microseconds since the recorder epoch *)
  ev_dur : float;  (** microseconds *)
  ev_tid : int;  (** domain id *)
  ev_depth : int;  (** nesting depth within its domain at begin time *)
  ev_args : (string * string) list;
}

val events : unit -> event list
(** All held spans, merged across domains, sorted by start time. *)

val dropped : unit -> int
(** Spans overwritten since the last {!reset}. Each overwrite also bumps
    the [obs.trace.dropped] counter as it happens. *)

val held : unit -> int
(** Spans currently held across domains — the number {!export} writes —
    counted without merging or sorting them. *)

val export : string -> unit
(** Write the Chrome trace JSON array (one event per line) to a file, or
    to stdout when the path is ["-"]. When spans were dropped, also
    records a [warn] point. *)

val validate_export : string -> (int, string) result
(** Re-parse an exported trace with the checked JSON parser and verify
    the trace_event shape; [Ok n] is the event count. *)

(** {2 Point view} *)

val tail : ?min_level:level -> int -> entry list
(** The last [n] held points at [min_level] (default {!Debug}) or
    above, merged across domains in timestamp order. *)

val log_dropped : unit -> int
(** Points overwritten since the last {!reset}; each also bumps
    [obs.log.dropped]. *)

(** {2 Sample view} *)

val series : unit -> (int * (float * sample) list) list
(** Per-domain [(timestamp, sample)] series, oldest first, sorted by
    domain id. *)

val samples_json : unit -> Json.t
(** [{"interval_us":…,"domains":[{"dom":…,"samples":[…]}]}] — embedded
    in [run.json]. *)
