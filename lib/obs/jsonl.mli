(** Crash-safe append-only JSON Lines files.

    One JSON value per line.  Every record is a single buffered write
    followed by a flush, so a crash can lose at most the line being
    written.  A crash can also leave the file without its trailing
    newline (a torn last line); opening a file for appending terminates
    such a line first, so the torn fragment stays one droppable line
    and the next record lands on a line of its own.  {!load} drops and
    counts every line that does not parse instead of failing.

    The substrate of both append-only stores: the run ledger
    ({!History}) and the checkpoint journal ([Sqed_resil.Journal]). *)

type writer
(** An open append handle.  Not synchronised: a writer shared between
    domains needs the caller's lock. *)

val open_writer : string -> writer
(** [open_writer path] opens [path] for appending, creating it if
    needed, after terminating a torn last line.  Raises [Sys_error]
    when the file cannot be read or opened. *)

val write : writer -> Json.t -> unit
(** Append one value as one line and flush.  Raises [Sys_error] on a
    write error. *)

val close : writer -> unit
(** Close the handle; never raises. *)

val append : string -> Json.t -> unit
(** [append path v] is {!open_writer}, {!write}, {!close}: one record
    appended to [path] with the same torn-tail guard. *)

val load : string -> Json.t list * int
(** [load path] is every line of [path] that parses, oldest first, and
    the number of non-blank lines dropped because they did not (a torn
    trailing line, or any corrupt one).  A missing file is [([], 0)]. *)
