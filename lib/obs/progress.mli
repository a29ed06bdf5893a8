(** Live campaign telemetry: a single rewriting TTY status line showing
    cases done/total, ETA, in-flight workers and stall warnings.

    A campaign is opened with {!with_campaign} around a pool fan-out;
    [Pool] marks task boundaries with {!task_begin}/{!task_end}, and
    the cooperative check points inside solver code call {!beat} so a
    worker grinding through one long solve still proves liveness. ETA
    is projected from completed-case durations ({!eta}); a worker whose
    last heartbeat is older than [stall_factor ×] the per-case budget
    is flagged as stalled and logged once as a {!Trace} point.

    Everything is inert until {!enabled} is set (the [--progress] flag)
    and a campaign is active: {!beat} then costs one boolean load plus
    a tick-masked clock read. The line renders to stderr so it never
    corrupts piped stdout output. *)

val enabled : bool ref
(** Master switch, flipped by [--progress]. *)

val with_campaign :
  ?out:out_channel ->
  ?task_budget:float ->
  ?jobs:int ->
  total:int ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_campaign ~total label f] runs [f] with a live status line
    (cleared on exit, even on exceptions). [task_budget] is the
    per-case budget in seconds, used for stall detection; [jobs] the
    worker count, used by the ETA projection. Nested calls and calls
    with {!enabled} unset run [f] unchanged. *)

val task_begin : int -> unit
(** Mark the calling domain as running a task on worker slot [w]. *)

val task_end : float -> unit
(** Mark a case complete with its duration in seconds. *)

val beat : unit -> unit
(** Heartbeat from a cooperative check point; also refreshes the
    rendered line (throttled). Safe from any domain at any time. *)

val eta : done_:int -> total:int -> sum_dur:float -> jobs:int -> float option
(** Projected seconds remaining given [done_] completed cases taking
    [sum_dur] seconds in total across [jobs] parallel workers; [None]
    until the first case completes. Pure — unit-tested directly. *)

val render_line : unit -> string
(** Current status line (without the carriage-return prefix); exposed
    for tests. Empty when no campaign is active. *)
