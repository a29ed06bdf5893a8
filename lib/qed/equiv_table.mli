(** The correspondence store R of Algorithm 1: for every instruction class,
    a template for a semantically equivalent instruction sequence.

    Templates are written over {e roles} rather than concrete registers:
    [Rd]/[Rs1]/[Rs2] stand for the original instruction's (mapped) operand
    registers, [Tmp i] for partition temporaries, and immediates can copy
    the original's immediate field (optionally redirected into the shadow
    memory half).  The same machinery instantiates templates at three
    levels: concrete instruction sequences (program-level transform,
    Listing 2), and — in {!Qed_top} — combinational instruction words
    inside the QED module circuit.

    EDDI-V duplication is expressed in the same language: every class maps
    to the single-instruction template that reproduces the original with
    mapped operands, so one QED module implementation serves both methods. *)

module Insn = Sqed_isa.Insn

type treg = Rd | Rs1 | Rs2 | Tmp of int | X0

type timm =
  | Imm_const of int
  | Imm_orig  (** the original instruction's 12-bit immediate field *)
  | Imm_orig_shamt
      (** the original's 5-bit shift amount (the immediate field of shift
          instructions excludes the funct7 bits) *)
  | Imm_orig_shadow  (** [Imm_orig] plus the shadow-memory offset *)

type timm20 = Imm20_orig | Imm20_const of int

type tinsn =
  | TR of Insn.rop * treg * treg * treg
  | TI of Insn.iop * treg * treg * timm
  | TLui of treg * timm20  (** LUI with the original's or a fixed imm20 *)
  | TLw of treg * timm  (** load into [treg] from [timm](x0) *)
  | TSw of treg * timm  (** store [treg] to [timm](x0) *)

type key = Kr of Insn.rop | Ki of Insn.iop | Klui | Klw | Ksw

type t = (key * tinsn list) list

val key_of_insn : Insn.t -> key
val key_name : key -> string

val key_of_name : string -> key option
(** The class a {!key_name} (an instruction mnemonic such as ["ADD"],
    ["XORI"] or ["SW"]) names, or [None]. *)

val all_keys : ext_m:bool -> ext_div:bool -> key list

val builtin : xlen:int -> n_temp:int -> t
(** The built-in, property-tested EDSEP-V table.  Templates are chosen per
    datapath width (narrow widths admit shorter sign-flip tricks) and per
    available temporary count.  Raises if [n_temp] < 2. *)

val duplicate : t
(** The EDDI-V "table": each class expands to its own remapped copy. *)

val lookup : t -> key -> tinsn list
val seq_len : t -> key -> int
val max_seq_len : t -> int
val max_temps : t -> int

val expand : t -> Partition.t -> Insn.t -> Insn.t list
(** Program-level instantiation: original registers are mapped through the
    partition, temporaries drawn from T.  Raises on an original that is
    not confined to O or whose class is missing from the table. *)

val of_synthesis :
  (key * Sqed_synth.Program.t) list -> fallback:t -> t
(** Build a table from synthesized programs (classes not covered fall back
    to the given table).  The program's inputs are wired to [Rs1]/[Rs2] (or
    the immediate field for I-type specs), its temporaries to [Tmp]s. *)

val validate :
  cfg:Sqed_proc.Config.t ->
  partition:Partition.t ->
  ?samples:int ->
  ?seed:int ->
  t ->
  (unit, string) result
(** Independent sanity check of a table against the golden interpreter:
    for random original instructions and random QED-consistent states,
    executing the original on the O side and its expansion on the E side
    must leave the compared register pair (and, for stores, the shadow
    word) equal, with equivalent-sequence writes confined to E and T.
    Used by the synthesis flow before installing a synthesized table. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse the {!to_string} format (one class per line,
    [KEY -> [INSN; INSN; ...]]), so users can supply hand-written
    transformation tables to the verifier.  Round-trips with
    {!to_string}. *)
