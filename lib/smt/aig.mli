(** And-Inverter Graph between the bit-blaster and the CNF solver.

    The blaster builds word-level circuits as AIG edges instead of emitting
    Tseitin clauses directly.  Construction performs two-level structural
    hashing: AND nodes are hash-consed on their (normalized) children, and
    constant / idempotence / absorption / contradiction folding plus a
    bounded set of one-level rewrite rules (subsumption, substitution,
    resolution — Brummayer–Biere style) run before a node is allocated, so
    the shared XOR/ITE/adder chains the blaster emits collapse onto one
    node each.

    CNF conversion is {e polarity-aware} (Plaisted–Greenbaum): a node
    referenced only positively gets the [lit -> cone] half of its Tseitin
    clauses, only negatively the converse half, and the missing half is
    emitted later if a new root ever needs it.  XOR and ITE shapes are
    detected structurally at conversion time and encoded compactly (2
    clauses per polarity) rather than through their decomposed AND pairs.
    Conversion is incremental: each (node, polarity) is emitted at most
    once per solver lifetime, so repeated [check] calls over shared cones
    pay nothing for already-converted structure.

    Incremental soundness: primary inputs carry pre-allocated, frozen SAT
    variables; internal gate variables are deliberately {e not} frozen —
    if {!Sqed_sat.Simplify} eliminates one between checks, any later clause
    we emit over it (the other polarity half, or a new parent's defining
    clauses) triggers the SAT core's restore-on-add machinery, which
    reinstates the eliminated definition first. *)

module Sat = Sqed_sat.Sat

type t

type edge = int
(** A complemented edge: [2 * node + complement].  Node 0 is the constant
    TRUE node, so [etrue = 0] and [efalse = 1].  Edges are plain ints so
    callers can store them in arrays and compare them directly. *)

val create : Sat.t -> t
(** Allocates the constant-true SAT variable (unit-asserted and
    frozen). *)

val etrue : edge
(** The constant-true edge (node 0, uncomplemented). *)

val efalse : edge
(** The constant-false edge, [enot etrue]. *)

val enot : edge -> edge
(** The complemented edge: flips the low bit, allocates no node. *)

val is_true : edge -> bool
(** Whether the edge is {!etrue}. *)

val is_false : edge -> bool
(** Whether the edge is {!efalse}. *)

val is_const : edge -> bool
(** Whether the edge is one of the two constants. *)

val fresh_input : t -> edge
(** A primary input, backed by a fresh frozen SAT variable. *)

(** {1 Construction (hash-consed, folding, rewriting)} *)

val and_ : t -> edge -> edge -> edge
(** The AND of two edges: constants and one-level rewrites fold first,
    otherwise the hash-consed node for the (normalized) pair. *)

val or_ : t -> edge -> edge -> edge
(** [or_ t a b] is [enot (and_ t (enot a) (enot b))]: an OR costs no
    node of its own. *)

val xor_ : t -> edge -> edge -> edge
(** Built as [AND(not AND(a,b), not AND(not a, not b))] so the inner
    [AND(a,b)] structurally hashes with a full adder's carry term. *)

val mux : t -> edge -> edge -> edge -> edge
(** [mux t s a b] is [if s then a else b]. *)

val and_many : t -> edge array -> edge
(** Balanced AND tree (empty array is [etrue]); keeps comparator and
    reduction chains shallow so local rewriting sees both operands. *)

val or_many : t -> edge array -> edge
(** Balanced OR tree, the dual of {!and_many} (empty array is
    [efalse]). *)

val num_nodes : t -> int

(** {1 CNF conversion (incremental Plaisted–Greenbaum)} *)

type polarity = Pos | Neg | Both

val encode : t -> edge -> polarity -> unit
(** Emit the still-missing clause halves of the edge's cone for the given
    polarity ([Pos] means "the edge's literal may be constrained true").
    Complement bits flip the polarity on the way down.  Idempotent per
    (node, polarity).

    Conversion honors the solver's budget ({!Sat.check_budget}) between
    nodes; on {!Sqed_resil.Budget.Exhausted} the unconverted work stays
    queued and MUST be completed via {!drain} before the next solve —
    {!Bitblast} and {!Solver} take care of this. *)

val drain : t -> unit
(** Finish any conversion work left queued by a budget-aborted
    {!encode}.  No-op when nothing is pending; may itself raise
    {!Sqed_resil.Budget.Exhausted} (leaving the remainder queued). *)

val lit : t -> edge -> Sat.lit
(** The SAT literal of an edge, materializing the node's variable if
    needed.  Emits no clauses — combine with {!encode} (or use
    {!assert_edge} / {!assume_lit}). *)

val freeze : t -> edge -> unit
(** Freeze the edge's underlying variable (for literals that escape to
    callers who may emit their own clauses over them). *)

val check_budget : t -> unit
(** {!Sat.check_budget} on the underlying solver. *)

val assert_edge : t -> edge -> unit
(** Encode the positive-polarity cone and add the edge's literal as a
    unit clause.  [etrue] is a no-op; [efalse] makes the instance
    unsatisfiable. *)

val assume_lit : t -> edge -> Sat.lit
(** Encode the positive-polarity cone and return the literal for use in
    [Sat.solve ~assumptions] (which freezes it for the call). *)
