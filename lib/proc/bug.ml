type t =
  | Bug_add
  | Bug_sub
  | Bug_xor
  | Bug_or
  | Bug_and
  | Bug_slt
  | Bug_sltu
  | Bug_sra
  | Bug_mulh
  | Bug_xori
  | Bug_slli
  | Bug_srai
  | Bug_sw
  | Bug_fwd_mem_rs1
  | Bug_fwd_mem_rs2
  | Bug_fwd_wb
  | Bug_fwd_priority
  | Bug_load_use_stall
  | Bug_wb_bypass
  | Bug_fwd_value
  | Bug_store_interference
  | Bug_wb_clobber_on_store
  | Bug_stall_corrupt

let all_single =
  [
    Bug_add; Bug_sub; Bug_xor; Bug_or; Bug_and; Bug_slt; Bug_sltu; Bug_sra;
    Bug_mulh; Bug_xori; Bug_slli; Bug_srai; Bug_sw;
  ]

let all_multi =
  [
    Bug_fwd_mem_rs1; Bug_fwd_mem_rs2; Bug_fwd_wb; Bug_fwd_priority;
    Bug_load_use_stall; Bug_wb_bypass; Bug_fwd_value; Bug_store_interference;
    Bug_wb_clobber_on_store; Bug_stall_corrupt;
  ]

let all = all_single @ all_multi

let name = function
  | Bug_add -> "add"
  | Bug_sub -> "sub"
  | Bug_xor -> "xor"
  | Bug_or -> "or"
  | Bug_and -> "and"
  | Bug_slt -> "slt"
  | Bug_sltu -> "sltu"
  | Bug_sra -> "sra"
  | Bug_mulh -> "mulh"
  | Bug_xori -> "xori"
  | Bug_slli -> "slli"
  | Bug_srai -> "srai"
  | Bug_sw -> "sw"
  | Bug_fwd_mem_rs1 -> "fwd-mem-rs1"
  | Bug_fwd_mem_rs2 -> "fwd-mem-rs2"
  | Bug_fwd_wb -> "fwd-wb"
  | Bug_fwd_priority -> "fwd-priority"
  | Bug_load_use_stall -> "load-use-stall"
  | Bug_wb_bypass -> "wb-bypass"
  | Bug_fwd_value -> "fwd-value"
  | Bug_store_interference -> "store-interference"
  | Bug_wb_clobber_on_store -> "wb-clobber-on-store"
  | Bug_stall_corrupt -> "stall-corrupt"

let describe = function
  | Bug_add -> "ADD computes a+b+1"
  | Bug_sub -> "SUB result bit 0 flipped"
  | Bug_xor -> "XOR result MSB flipped"
  | Bug_or -> "OR computes XOR"
  | Bug_and -> "AND computes a AND NOT b"
  | Bug_slt -> "SLT result inverted"
  | Bug_sltu -> "SLTU result inverted"
  | Bug_sra -> "SRA loses the sign fill"
  | Bug_mulh -> "MULH result +1"
  | Bug_xori -> "XORI computes ORI"
  | Bug_slli -> "SLLI shift amount bit 0 flipped"
  | Bug_srai -> "SRAI performs a logical shift"
  | Bug_sw -> "store data +1 when the stored register is forwarded"
  | Bug_fwd_mem_rs1 -> "MEM->EX forwarding dropped for operand 1"
  | Bug_fwd_mem_rs2 -> "MEM->EX forwarding dropped for operand 2"
  | Bug_fwd_wb -> "WB->EX forwarding dropped"
  | Bug_fwd_priority -> "stale WB value wins over MEM when both match"
  | Bug_load_use_stall -> "load-use hazard stall missing"
  | Bug_wb_bypass -> "regfile read-during-write bypass missing"
  | Bug_fwd_value -> "forwarded MEM value corrupted (+1)"
  | Bug_store_interference -> "store data corrupted when another store is at EX"
  | Bug_wb_clobber_on_store -> "WB write-back data corrupted while a store is at MEM"
  | Bug_stall_corrupt -> "held instruction's rd flips bit 0 on stall"

let table1_row = function
  | Bug_add -> Some "ADD"
  | Bug_sub -> Some "SUB"
  | Bug_xor -> Some "XOR"
  | Bug_or -> Some "OR"
  | Bug_and -> Some "AND"
  | Bug_slt -> Some "SLT"
  | Bug_sltu -> Some "SLTU"
  | Bug_sra -> Some "SRA"
  | Bug_mulh -> Some "MULH"
  | Bug_xori -> Some "XORI"
  | Bug_slli -> Some "SLLI"
  | Bug_srai -> Some "SRAI"
  | Bug_sw -> Some "SW"
  | Bug_fwd_mem_rs1 | Bug_fwd_mem_rs2 | Bug_fwd_wb | Bug_fwd_priority
  | Bug_load_use_stall | Bug_wb_bypass | Bug_fwd_value | Bug_store_interference
  | Bug_wb_clobber_on_store | Bug_stall_corrupt ->
      None

let of_name n = List.find_opt (fun b -> name b = n) all

let is_single b = List.mem b all_single

let needs_m = function Bug_mulh -> true | _ -> false

let config_for bug cfg =
  if needs_m bug && not cfg.Config.ext_m then { cfg with Config.ext_m = true }
  else cfg
