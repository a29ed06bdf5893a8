(** The flight recorder's storage and clock: one bounded ring that
    overwrites its oldest entry, per-domain values that outlive their
    domain, and the epoch that {!Trace} stamps its spans, log records
    and samples against, so their timestamps lie on one axis.

    A ring is indexed by [total], the monotone count of pushes: entry
    [i] sits in slot [i mod capacity] and is held while
    [i >= total - capacity].  A ring takes no lock; it is written by one
    domain, or under its owner's lock. *)

type 'a t

val create : ?on_drop:('a -> unit) -> int -> 'a t
(** [create cap] is an empty ring holding at most [cap > 0] entries.
    The slot array is allocated by the first push and grows by doubling
    up to [cap], so a ring that holds a few entries holds a few slots.
    [on_drop] receives each entry as it is overwritten. *)

val push : 'a t -> 'a -> unit

val total : 'a t -> int
(** Entries pushed since {!create} or the last {!clear}. *)

val dropped : 'a t -> int
(** Entries overwritten: [max 0 (total - capacity)]. *)

val read_from : 'a t -> int -> 'a list
(** [read_from r cursor]: the held entries with index [>= cursor],
    oldest first.  A cursor behind [total - capacity] is clipped. *)

val to_list : 'a t -> 'a list
(** Every held entry, oldest first. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** [fold f acc r] folds [f] over the held entries, oldest first,
    without building a list. *)

val clear : 'a t -> unit
(** Empty the ring, release its slots and zero {!total}. *)

(** {1 Per-domain values} *)

type 'a per_domain

val per_domain : (unit -> 'a) -> 'a per_domain
(** A value made by the given function on each domain's first use and
    registered in a list that outlives the domain, so what a joined
    domain recorded stays readable. *)

val key : 'a per_domain -> 'a Domain.DLS.key
(** For hot paths: [Domain.DLS.get (key p)] is the calling domain's
    value. *)

val all : 'a per_domain -> 'a list
(** Every value made so far, on any domain. *)

(** {1 Clock} *)

val stamp : float -> float
(** [stamp t]: the [Unix.gettimeofday] time [t] in microseconds since
    the recorder epoch. *)

val restart_clock : unit -> unit
(** Move the epoch to now. *)
