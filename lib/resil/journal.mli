(** Crash-safe append-only checkpoint journal.

    One JSON object per line: [{"key": <string>, "result": <json>}],
    stored as a {!Sqed_obs.Jsonl} file like the run ledger.  An append
    is a single buffered write followed by a flush, so a crash can lose
    at most the line being written; {!open_} drops and counts a torn
    trailing line, which makes resume after [kill -9] safe.

    A journal is mutex-protected — worker-pool tasks may {!record}
    concurrently.  Keys are free-form; campaigns use stable per-case
    identifiers (e.g. ["fig3/ADD/hpf/1"]) so a rerun with the same
    [--checkpoint FILE] can skip completed cases via {!mem}. *)

type t

val open_ : string -> t
(** [open_ path] loads existing entries from [path] (if any) and opens
    it for appending.  Raises [Sys_error] when the file cannot be
    created or read. *)

val mem : t -> string -> bool
(** Has a result for this key been journaled (including by a previous
    process)? *)

val find : t -> string -> Sqed_obs.Json.t option
(** The journaled result for a key, if any (last write wins). *)

val record : t -> string -> Sqed_obs.Json.t -> unit
(** [record t key result] appends one line and flushes.  Checks the
    [checkpoint.write] fault site first, so injected faults fail the
    append {e before} the in-memory table is updated — callers catch,
    count, and continue. *)

val try_record : t -> string -> Sqed_obs.Json.t -> (unit, string) result
(** Like {!record} but degrades instead of raising: a failed append
    (injected fault or real write error) is counted under
    [resil.checkpoint.errors] and returned as [Error msg].  The result
    is simply not journaled — the campaign keeps its in-memory copy and
    a future resume recomputes the case. *)

val entries : t -> int
(** Number of distinct journaled keys. *)

val close : t -> unit
