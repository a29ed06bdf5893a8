(** The mutation-testing catalog (Section 6.2).

    {b Single-instruction bugs} (one per Table-1 row) corrupt the datapath
    of exactly one decoded instruction, uniformly in its operands, so the
    original instruction and its EDDI-V duplicate misbehave identically and
    SQED's self-consistency cannot observe them.  The SW row follows the
    store-data forwarding reading of the paper's mutation: the corruption
    fires only when the stored register was produced by the immediately
    preceding instruction — the EDSEP-V transform always creates exactly
    that pattern (ADDI t, rs2'; SW t), while EDDI-V interleaving never
    does.

    {b Multiple-instruction bugs} (Fig. 4) sit in the pipeline's
    inter-instruction machinery — forwarding muxes, hazard stalls, write
    scheduling — and require specific instruction interleavings to fire;
    both SQED and SEPE-SQED can detect them. *)

type t =
  (* single-instruction bugs (Table 1) *)
  | Bug_add  (** R-type ADD computes a+b+1 *)
  | Bug_sub  (** R-type SUB result has bit 0 flipped *)
  | Bug_xor  (** R-type XOR result has its MSB flipped *)
  | Bug_or  (** R-type OR computes XOR instead *)
  | Bug_and  (** R-type AND computes a AND NOT b *)
  | Bug_slt  (** R-type SLT result inverted *)
  | Bug_sltu  (** R-type SLTU result inverted *)
  | Bug_sra  (** R-type SRA performs a logical shift *)
  | Bug_mulh  (** MULH result +1 *)
  | Bug_xori  (** XORI computes OR-immediate *)
  | Bug_slli  (** SLLI shift amount bit 0 flipped *)
  | Bug_srai  (** SRAI performs a logical shift *)
  | Bug_sw  (** store data +1 when the stored register is forwarded *)
  (* multiple-instruction bugs (Fig. 4) *)
  | Bug_fwd_mem_rs1  (** MEM->EX forwarding dropped for operand 1 *)
  | Bug_fwd_mem_rs2  (** MEM->EX forwarding dropped for operand 2 *)
  | Bug_fwd_wb  (** WB->EX forwarding dropped *)
  | Bug_fwd_priority  (** WB wins over MEM when both match (stale value) *)
  | Bug_load_use_stall  (** load-use hazard stall missing *)
  | Bug_wb_bypass  (** regfile read-during-write bypass missing *)
  | Bug_fwd_value  (** forwarded MEM value corrupted (+1) *)
  | Bug_store_interference
      (** store data corrupted when another store occupies EX *)
  | Bug_wb_clobber_on_store
      (** WB write-back data corrupted whenever a store occupies MEM *)
  | Bug_stall_corrupt  (** the held instruction's rd flips bit 0 on stall *)

val all_single : t list
val all_multi : t list
val all : t list

val name : t -> string
val describe : t -> string

val table1_row : t -> string option
(** The Table-1 "Type" column for single-instruction bugs. *)

val of_name : string -> t option

val is_single : t -> bool

val needs_m : t -> bool
(** True when the bug sits in the multiplier datapath (needs [ext_m]). *)

val config_for : t -> Config.t -> Config.t
(** The core a bug is checked on: [cfg] itself, with the multiplier
    turned on when the bug needs it ({!needs_m}) and [cfg] lacks it.
    Width, registers and memory never change, so [tiny] + MULH is
    [tiny_m]. *)
