(** A fixed-size domain worker pool for embarrassingly parallel solver
    campaigns (per-instruction synthesis, per-bug BMC).

    The pool owns [jobs - 1] worker domains plus the caller's domain; a
    Mutex/Condition task queue feeds them.  {!create} is the one place
    the libraries spawn domains, and {!map_result} the one way to run
    work on them.  Tasks must be independent: the SMT term universe is
    domain-local (see {!Sqed_smt.Term}), so a task must build every term
    it uses itself and must only return plain data (or terms it created)
    to the caller.

    Nested use of the same pool from inside a task deadlocks and is not
    supported; create an inner pool or run inline instead. *)

type t

val default_jobs : unit -> int
(** Worker count used when [?jobs] is omitted: the [SEPE_JOBS] environment
    variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] is clamped
    to at least 1).  With [jobs = 1] no domains are spawned and every task
    runs inline on the caller, in submission order. *)

val jobs : t -> int
(** The pool's worker count, the caller's domain included: [jobs] as
    given to {!create}, clamped to at least 1. *)

(** {1 Supervised mapping} *)

type task_error = {
  error : string;  (** printed form of the final attempt's exception *)
  attempts : int;  (** attempts made, including the first *)
  exhausted : bool;
      (** the final failure was {!Sqed_resil.Budget.Exhausted} — an
          inconclusive timeout rather than a hard error *)
}

val map_result : t -> ('a -> 'b) -> 'a list -> ('b, task_error) result list
(** Supervised parallel map preserving input order: each task yields
    [Ok result] or [Error task_error].  Blocks until the batch has
    drained; the batch always runs to completion, so one crashing case
    cannot take down a campaign.  This is the one way to run work on
    the pool's domains.

    A failed task is retried once, after 0.05 s — except on
    {!Sqed_resil.Budget.Exhausted} (the work is simply over budget;
    retrying would recur) and {!Sqed_resil.Fault.Injected}
    (deterministic by design), which fail immediately.  Retries are
    counted in [resil.retries] and wrapped in [resil.retry] spans;
    final failures in [resil.task_failures].

    Each attempt runs under an unlimited ambient
    {!Sqed_resil.Budget.current}; a task that needs a limit narrows it
    itself with {!Sqed_resil.Budget.within}, so the task's budget is its
    only limit channel.  Tasks also hit the [pool.task] fault injection
    site before each attempt. *)

type worker_stats = {
  worker : int;  (** 0 is the slot used by inline execution ([jobs = 1]) *)
  tasks : int;  (** tasks completed by this worker *)
  busy : float;  (** wall-clock seconds spent inside tasks *)
  queue_wait : float;
      (** seconds tasks spent queued before this worker picked them up;
          always 0 with [jobs = 1] (inline execution never queues) *)
}

val stats : t -> worker_stats list
(** Per-worker task counts, busy time and queue wait since [create].
    The same numbers are visible globally (summed over every pool) as
    the registry counters [par.worker.<i>.tasks] / [.busy_us] /
    [.queue_wait_us]; this returns the per-pool delta. *)

val shutdown : t -> unit
(** Drain outstanding tasks, stop the workers and join their domains.
    Idempotent; using the pool afterwards raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down afterwards,
    also on exceptions. *)
