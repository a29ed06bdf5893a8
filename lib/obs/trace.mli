(** Span tracer with Chrome [trace_event] export.

    Spans are timing brackets around pipeline phases. When tracing is on,
    each closed span becomes a complete ("ph":"X") event in a per-domain
    buffer; {!export} merges the buffers into a JSON array that opens in
    [chrome://tracing] / Perfetto. When only metrics are on, spans feed
    the per-kind {!Metrics.timer} and no events are stored. When neither
    flag is set, {!with_span} is a single boolean check around [f ()]. *)

val enabled : bool ref
(** Tracing switch (independent of [Metrics.enabled]). *)

type kind
(** A statically-registered span name + category, carrying its phase
    timer. Create once at module-init time. *)

val kind : ?cat:string -> string -> kind

val with_span : ?args:(string * string) list -> kind -> (unit -> 'a) -> 'a
(** Run [f] inside a span. Exception-safe: the span closes (and the
    timer records) even if [f] raises. *)

val with_span_named : ?cat:string -> string -> (unit -> 'a) -> 'a
(** Dynamic-name variant for cold paths (e.g. per-experiment brackets). *)

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
(** All recorded events, merged across domains, sorted by start time. *)

val ring_capacity : int
(** Events retained per domain; older events are overwritten. *)

val dropped : unit -> int
(** Events overwritten because a per-domain ring wrapped (the newest
    events are kept, the oldest evicted). Each overwrite also bumps the
    [obs.trace.dropped] counter as it happens. *)

val held : unit -> int
(** Events currently held across domains — the number {!export} writes —
    counted without merging or sorting them. *)

val export : string -> unit
(** Write the Chrome trace JSON array (one event per line) to a file, or
    to stdout when the path is ["-"]. When events were dropped, also
    emits a [warn] record through {!Log}. *)

val validate_export : string -> (int, string) result
(** Re-parse an exported trace with the checked JSON parser and verify
    the trace_event shape; [Ok n] is the event count. *)

val reset : unit -> unit
(** Drop all buffered events and restart the recorder clock shared
    with {!Log} and {!Sampler}. *)
