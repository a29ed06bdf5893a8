(** Cooperative resource budgets.

    A budget bounds a unit of work by an absolute wall-clock deadline
    and/or a conflict cap.  Work that honors a budget calls {!check} at
    cooperative cancellation points (bit-blaster word loops, AIG
    conversion, preprocessing passes, CDCL restart/reduce boundaries);
    when the budget is exhausted, {!check} raises {!Exhausted} and the
    caller unwinds to a consistent state, typically reporting [Unknown]
    rather than an error.

    Budgets are deliberately cheap to poll: an unlimited budget costs a
    single boolean load per {!check}, and limited budgets sample the
    clock only every few hundred ticks.  A budget is single-owner
    mutable state — share one across domains only through
    {!with_current}, which binds it to the calling domain. *)

type reason =
  | Deadline   (** absolute wall-clock deadline passed *)
  | Conflicts  (** conflict cap consumed *)
  | Cancelled  (** explicitly cancelled via {!cancel} *)

exception Exhausted of reason
(** Raised by {!check} (and only by {!check}) once the budget is spent.
    Subsequent {!check} calls keep raising until the budget is replaced. *)

type t

val unlimited : t
(** The shared never-exhausted budget.  {!check} on it is a boolean
    load; it is never mutated and is safe to share freely. *)

val create : ?deadline:float -> ?max_conflicts:int -> unit -> t
(** [create ?deadline ?max_conflicts ()] makes a fresh budget.
    [deadline] is an absolute {!Unix.gettimeofday} timestamp;
    [max_conflicts] a total conflict allowance consumed via {!charge}.
    With neither limit, returns {!unlimited}. *)

val is_unlimited : t -> bool

val deadline : t -> float
(** Absolute deadline, or [infinity] when none. *)

val conflicts_remaining : t -> int
(** Remaining conflict allowance, or [max_int] when uncapped. *)

val check : t -> unit
(** Cooperative cancellation point.  Raises {!Exhausted} if the budget
    is spent; otherwise returns quickly.  The wall clock is sampled
    every few hundred calls, so place checks at loop granularity
    without worrying about syscall cost. *)

val over : t -> reason option
(** Non-raising poll: [Some r] once the budget is spent.  Unlike
    {!check} this always samples the clock, so reserve it for coarse
    boundaries (per preprocessing operation, per restart). *)

val charge : t -> int -> unit
(** [charge b n] consumes [n] conflicts from the cap (no-op when
    uncapped).  Does not raise; the next {!check} will. *)

val cancel : t -> unit
(** Marks the budget spent with reason {!Cancelled}. *)

val string_of_reason : reason -> string

(** {1 The calling domain's budget}

    Solving and encoding read their limits from one place: the budget
    bound to the calling domain.  A worker pool binds a per-task budget
    with {!with_current}; a caller that wants a tighter limit for part
    of its work narrows the current budget with {!within}.  No layer
    takes a budget or a limit of its own. *)

val with_current : t -> (unit -> 'a) -> 'a
(** [with_current b f] runs [f] with [b] as the calling domain's
    budget, restoring the previous binding on exit. *)

val current : unit -> t
(** The calling domain's budget ({!unlimited} when none). *)

val within : ?deadline:float -> ?max_conflicts:int -> (unit -> 'a) -> 'a
(** [within ?deadline ?max_conflicts f] runs [f] under a child of
    {!current}: its deadline is the earlier of [deadline] and the
    parent's, its allowance the smaller of [max_conflicts] and the
    parent's remaining conflicts, and it sees a {!cancel} of any
    ancestor.  On exit, normal or by an exception, the parent is
    charged the conflicts charged to the child.  With neither limit it
    is exactly [f ()] under the unchanged binding. *)
