(** Hash-consed QF_BV terms with constant folding.

    Terms are hash-consed per domain: within one domain, structurally equal
    terms that are alive at the same time are physically equal and carry
    the same [id], which the bit-blaster exploits for sharing.  Each domain
    owns an independent term universe ([Domain.DLS]).

    Interning is weak: the universe does not keep its terms alive, so a
    term nothing references is collected, and building it again yields a
    fresh term with a fresh [id].  Ids are drawn from disjoint per-domain
    blocks and never reused, so an id-keyed cache never confuses two
    terms, across collections or across domains (terms from different
    domains merely don't share).  {!Bitblast} pins every term it encoded
    for its solver's lifetime, so inside a live solver a rebuilt term is
    always the encoded one.

    A solver instance and all terms it sees should be built on a single
    domain.  Booleans are bitvectors of width 1.  All constructors check
    operand widths and raise [Invalid_argument] on mismatch. *)

module Bv = Sqed_bv.Bv

type t = private { id : int; width : int; node : node }

and node =
  | Var of string * int
  | Const of Bv.t
  | Not of t
  | Neg of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Udiv of t * t
  | Urem of t * t
  | Shl of t * t
  | Lshr of t * t
  | Ashr of t * t
  | Eq of t * t
  | Ult of t * t
  | Slt of t * t
  | Ite of t * t * t
  | Extract of int * int * t
  | Zext of int * t
  | Sext of int * t
  | Concat of t * t

val width : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Leaves} *)

val var : string -> int -> t
(** [var name width].  The same name used at different widths denotes
    distinct variables (hash-consing keys on both); a single solver
    instance must use each name at one width only. *)

val const : Bv.t -> t
val of_int : width:int -> int -> t
val tt : t
val ff : t
val of_bool : bool -> t

(** {1 Bitvector operators} *)

val not_ : t -> t
val neg : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t
val eq : t -> t -> t
val distinct : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val ugt : t -> t -> t
val uge : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t
val ite : t -> t -> t -> t
val extract : hi:int -> lo:int -> t -> t
val zext : t -> int -> t
val sext : t -> int -> t
val concat : t -> t -> t
(** [concat hi lo]. *)

val bit : t -> int -> t
(** [bit t i] extracts bit [i] as a width-1 term. *)

val redor : t -> t
val redand : t -> t

(** {1 Boolean helpers (width-1 terms)} *)

val implies : t -> t -> t
val conj : t list -> t
val disj : t list -> t

(** {1 Misc} *)

val is_const : t -> Bv.t option
val eval : (string -> Bv.t) -> t -> Bv.t
(** Concrete evaluation; [lookup] supplies variable values and is applied
    once per distinct variable occurrence (results are memoized per call). *)

val evaluator : (string -> int -> Bv.t) -> t -> Bv.t
(** [evaluator lookup] is a concrete evaluator whose memo table is shared
    by every term it is applied to, so evaluating many terms over one
    DAG (an unrolled circuit read step by step) visits each shared node
    once.  [lookup name width] supplies a variable's value and must
    return a vector of that width; it is applied once per distinct
    variable node. *)

val vars : t -> (string * int) list
(** Free variables, sorted by name, without duplicates. *)

val size : t -> int
(** Number of distinct subterms (DAG size). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
