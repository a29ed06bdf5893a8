(** Leveled, domain-safe structured logger: the event-log half of the
    flight recorder.

    Every record carries a timestamp (microseconds since the recorder
    epoch shared with {!Trace} and {!Sampler}), the emitting domain id,
    an event name and typed key/value fields. Records at {!Info} and above always land in a
    bounded per-domain in-memory ring — even with no sink attached — so
    the tail of the flight can be dumped into crash/degraded-exit
    summaries. Attaching a sink with {!set_sink} additionally streams
    records as JSON-lines to a file (or stderr for ["-"]).

    Hot-path call sites emit at {!Debug} and guard with {!logs}, which
    costs one comparison against a cached threshold when logging is
    quiet — the same discipline as [Metrics.enabled]. *)

(** Severity, in increasing order. *)
type level = Debug | Info | Warn | Error

(** Typed field values; rendered as the matching JSON scalar. *)
type field = Str of string | I of int | F of float | B of bool

type event = {
  lg_ts : float;  (** microseconds since the recorder epoch *)
  lg_dom : int;  (** emitting domain id *)
  lg_level : level;
  lg_ev : string;  (** event name, dot-separated ["layer.thing.verb"] *)
  lg_fields : (string * field) list;
}

val ring_capacity : int
(** Events retained per domain; older records are overwritten. *)

val logs : level -> bool
(** [logs lvl] is true when a record at [lvl] would be captured. Use it
    to guard field construction at hot sites; {!Debug} records are
    captured only while a [Debug]-level sink is attached. *)

val debug : string -> (string * field) list -> unit
val info : string -> (string * field) list -> unit
val warn : string -> (string * field) list -> unit
val error : string -> (string * field) list -> unit

(** {1 Sink} *)

val set_sink : ?level:level -> string -> unit
(** Open [path] and stream subsequent records at [level] (default
    {!Info}) or above to it as JSON-lines, one object per line:
    [{"ts_us":…,"dom":…,"level":…,"ev":…,"fields":{…}}]. Path ["-"]
    selects stderr so CI pipelines can capture the stream without temp
    files. [Warn]/[Error] records flush immediately; the rest on
    {!close_sink}. Replaces any previous sink. *)

val close_sink : unit -> unit
(** Flush and detach the sink ([stderr] is flushed, not closed). *)

(** {1 Ring inspection} *)

val tail : ?min_level:level -> int -> event list
(** Last [n] captured events at [min_level] (default {!Debug}) or
    above, merged across domains in timestamp order. *)

val dump_tail : ?min_level:level -> int -> out_channel -> unit
(** Write {!tail} as JSON-lines; used by degraded-exit summaries. *)

val dropped : unit -> int
(** Events overwritten in the rings since the last {!reset}. *)

val to_json : event -> Json.t

val reset : unit -> unit
(** Clear the rings and restart the recorder clock shared with {!Trace}
    and {!Sampler}; the sink is left attached.
    Test helper. *)
