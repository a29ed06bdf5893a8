module C = Sqed_rtl.Circuit
module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module Decode = Sqed_proc.Decode
module Pipeline = Sqed_proc.Pipeline
module Insn = Sqed_isa.Insn
module Term = Sqed_smt.Term

type t = {
  circuit : C.t;
  cfg : Config.t;
  partition : Partition.t;
  table : Equiv_table.t;
  check_mem : bool;
}

(* Major opcodes (duplicated from the ISA encoder; the QED module is real
   hardware and assembles instruction words by itself). *)
let op_rtype = 0b0110011
let op_itype = 0b0010011
let op_lui = 0b0110111
let op_load = 0b0000011
let op_store = 0b0100011

let rop_functs op =
  match op with
  | Insn.ADD -> (0b000, 0b0000000)
  | Insn.SUB -> (0b000, 0b0100000)
  | Insn.SLL -> (0b001, 0b0000000)
  | Insn.SLT -> (0b010, 0b0000000)
  | Insn.SLTU -> (0b011, 0b0000000)
  | Insn.XOR -> (0b100, 0b0000000)
  | Insn.SRL -> (0b101, 0b0000000)
  | Insn.SRA -> (0b101, 0b0100000)
  | Insn.OR -> (0b110, 0b0000000)
  | Insn.AND -> (0b111, 0b0000000)
  | Insn.MUL -> (0b000, 0b0000001)
  | Insn.MULH -> (0b001, 0b0000001)
  | Insn.MULHU -> (0b011, 0b0000001)
  | Insn.DIV -> (0b100, 0b0000001)
  | Insn.DIVU -> (0b101, 0b0000001)
  | Insn.REM -> (0b110, 0b0000001)
  | Insn.REMU -> (0b111, 0b0000001)

let iop_funct3 = function
  | Insn.ADDI -> 0b000
  | Insn.SLTI -> 0b010
  | Insn.SLTIU -> 0b011
  | Insn.XORI -> 0b100
  | Insn.ORI -> 0b110
  | Insn.ANDI -> 0b111
  | Insn.SLLI -> 0b001
  | Insn.SRLI -> 0b101
  | Insn.SRAI -> 0b101

let is_shift_iop = function
  | Insn.SLLI | Insn.SRLI | Insn.SRAI -> true
  | Insn.ADDI | Insn.SLTI | Insn.SLTIU | Insn.XORI | Insn.ORI | Insn.ANDI ->
      false

type core = Five_stage | Three_stage

let build ?bug ?(check_mem = true) ?focus ?(core = Five_stage) ~table
    ~partition cfg =
  Config.validate cfg;
  if Equiv_table.max_temps table > partition.Partition.n_temp then
    failwith "Qed_top.build: table needs more temporaries than the partition has";
  let p = partition in
  let n_orig = p.Partition.n_orig in
  let b = C.create "qed_top" in
  let ( &&& ) = C.and_ b and ( ||| ) = C.or_ b in
  let not_ = C.not_ b in
  let c5 v = C.consti b ~width:5 v in

  let orig_instr = C.input b "orig_instr" 32 in
  let orig_valid = C.input b "orig_valid" 1 in
  let sel = C.input b "sel" 1 in

  (* ---- queue of accepted originals (depth 2) ------------------------- *)
  let q0 = C.reg_const b ~name:"q0_instr" ~width:32 0 in
  let q0_valid = C.reg_const b ~name:"q0_valid" ~width:1 0 in
  let q1 = C.reg_const b ~name:"q1_instr" ~width:32 0 in
  let q1_valid = C.reg_const b ~name:"q1_valid" ~width:1 0 in
  let step = C.reg_const b ~name:"qed_step" ~width:5 0 in

  (* ---- input constraints on the original instruction ------------------ *)
  let dor = Decode.decode b cfg orig_instr in
  let in_o field = C.ult b field (c5 n_orig) in
  let rd_ok =
    (* Stores write no register; everything else must write into O \ {x0}. *)
    dor.Decode.is_store
    ||| (in_o dor.Decode.rd &&& C.neq b dor.Decode.rd (c5 0))
  in
  let rs1_ok = not_ dor.Decode.uses_rs1 ||| in_o dor.Decode.rs1 in
  let rs2_ok = not_ dor.Decode.uses_rs2 ||| in_o dor.Decode.rs2 in
  let imm_i_field = C.extract b ~hi:31 ~lo:20 orig_instr in
  let imm_s_field =
    C.concat b
      (C.extract b ~hi:31 ~lo:25 orig_instr)
      (C.extract b ~hi:11 ~lo:7 orig_instr)
  in
  let mem_ok =
    (* Loads and stores address the original half through x0. *)
    let half = p.Partition.mem_half in
    let imm_in_half imm12 = C.ult b imm12 (C.consti b ~width:12 half) in
    let base_x0 = C.eq b dor.Decode.rs1 (c5 0) in
    not_ (dor.Decode.is_load ||| dor.Decode.is_store)
    ||| (base_x0
        &&& C.mux b dor.Decode.is_store (imm_in_half imm_s_field)
              (imm_in_half imm_i_field))
  in
  (* Does a decoded instruction belong to a table class?  Used on the
     original stream (the class focus) and on the queue head (the
     template lookup). *)
  let key_match d = function
    | Equiv_table.Kr op ->
        d.Decode.is_r
        &&& C.eq b d.Decode.alu_op
              (C.consti b ~width:5 (Decode.alu_code_of_rop op))
    | Equiv_table.Ki op ->
        d.Decode.is_i
        &&& C.eq b d.Decode.alu_op
              (C.consti b ~width:5 (Decode.alu_code_of_iop op))
    | Equiv_table.Klui -> d.Decode.is_lui
    | Equiv_table.Klw -> d.Decode.is_load
    | Equiv_table.Ksw -> d.Decode.is_store
  in
  let focus_ok =
    (* Optional class focus for witness queries (see the interface). *)
    match focus with None -> C.vdd b | Some key -> key_match dor key
  in
  let input_ok =
    dor.Decode.legal &&& rd_ok &&& rs1_ok &&& rs2_ok &&& mem_ok &&& focus_ok
  in

  (* ---- template expansion of the queue head --------------------------- *)
  let dq = Decode.decode b cfg q0 in
  let q_imm_i = C.extract b ~hi:31 ~lo:20 q0 in
  let q_imm_s =
    C.concat b (C.extract b ~hi:31 ~lo:25 q0) (C.extract b ~hi:11 ~lo:7 q0)
  in
  let q_imm12 = C.mux b dq.Decode.is_store q_imm_s q_imm_i in
  let q_shamt12 = C.zext b (C.extract b ~hi:24 ~lo:20 q0) 12 in
  let q_imm_shadow =
    C.add b q_imm12 (C.consti b ~width:12 p.Partition.mem_half)
  in
  let q_imm20 = C.extract b ~hi:31 ~lo:12 q0 in
  let map_field f = C.add b f (c5 n_orig) in
  let treg = function
    | Equiv_table.Rd -> map_field dq.Decode.rd
    | Equiv_table.Rs1 -> map_field dq.Decode.rs1
    | Equiv_table.Rs2 -> map_field dq.Decode.rs2
    | Equiv_table.Tmp i -> c5 (Partition.temp_reg p i)
    | Equiv_table.X0 -> c5 0
  in
  let timm = function
    | Equiv_table.Imm_const v -> C.consti b ~width:12 v
    | Equiv_table.Imm_orig -> q_imm12
    | Equiv_table.Imm_orig_shamt -> q_shamt12
    | Equiv_table.Imm_orig_shadow -> q_imm_shadow
  in
  let word fields =
    (* Most-significant field first; widths must add up to 32. *)
    match fields with
    | [] -> invalid_arg "word"
    | f :: rest -> List.fold_left (fun acc g -> C.concat b acc g) f rest
  in
  let encode_tinsn ti =
    match ti with
    | Equiv_table.TR (op, d, a, bb) ->
        let f3, f7 = rop_functs op in
        word
          [
            C.consti b ~width:7 f7; treg bb; treg a; C.consti b ~width:3 f3;
            treg d; C.consti b ~width:7 op_rtype;
          ]
    | Equiv_table.TI (op, d, a, v) ->
        let imm = timm v in
        let imm12 =
          if is_shift_iop op then
            let f7 = if op = Insn.SRAI then 0b0100000 else 0 in
            C.concat b (C.consti b ~width:7 f7) (C.extract b ~hi:4 ~lo:0 imm)
          else imm
        in
        word
          [
            imm12; treg a; C.consti b ~width:3 (iop_funct3 op); treg d;
            C.consti b ~width:7 op_itype;
          ]
    | Equiv_table.TLui (d, v) ->
        let imm20 =
          match v with
          | Equiv_table.Imm20_orig -> q_imm20
          | Equiv_table.Imm20_const c -> C.consti b ~width:20 c
        in
        word [ imm20; treg d; C.consti b ~width:7 op_lui ]
    | Equiv_table.TLw (d, v) ->
        word
          [
            timm v; c5 0; C.consti b ~width:3 0b010; treg d;
            C.consti b ~width:7 op_load;
          ]
    | Equiv_table.TSw (src, v) ->
        let imm = timm v in
        word
          [
            C.extract b ~hi:11 ~lo:5 imm; treg src; c5 0;
            C.consti b ~width:3 0b010; C.extract b ~hi:4 ~lo:0 imm;
            C.consti b ~width:7 op_store;
          ]
  in
  let exp_len =
    C.onehot_mux b
      (List.map
         (fun (k, seq) ->
           (key_match dq k, C.consti b ~width:5 (List.length seq)))
         table)
      ~default:(C.consti b ~width:5 1)
  in
  let exp_insn =
    let cases =
      List.concat_map
        (fun (k, seq) ->
          let km = key_match dq k in
          List.mapi
            (fun i ti ->
              (km &&& C.eq b step (c5 i), encode_tinsn ti))
            seq)
        table
    in
    C.onehot_mux b cases ~default:(C.consti b ~width:32 0)
  in

  (* ---- dispatch --------------------------------------------------------- *)
  let queue_full = q1_valid in
  let orig_avail = orig_valid &&& input_ok &&& not_ queue_full in
  let equiv_avail = q0_valid in
  let dispatch_orig = orig_avail &&& (sel ||| not_ equiv_avail) in
  let dispatch_equiv = equiv_avail &&& not_ dispatch_orig in
  let core_instr = C.mux b dispatch_orig orig_instr exp_insn in
  let core_valid = dispatch_orig ||| dispatch_equiv in

  let core_build =
    match core with
    | Five_stage -> Pipeline.build
    | Three_stage -> Sqed_proc.Pipeline3.build
  in
  let pipe = core_build ~b ?bug cfg ~instr:core_instr ~instr_valid:core_valid in
  let consumed = core_valid &&& not_ pipe.Pipeline.stall in
  let orig_consumed = dispatch_orig &&& consumed in
  let equiv_consumed = dispatch_equiv &&& consumed in

  (* ---- queue update ------------------------------------------------------ *)
  let step_next = C.add b step (c5 1) in
  let seq_done = equiv_consumed &&& C.eq b step_next exp_len in
  let pop = seq_done in
  let push = orig_consumed in
  (* push and pop are mutually exclusive (one dispatch per cycle). *)
  C.connect b q0
    (C.mux b pop q1 (C.mux b (push &&& not_ q0_valid) orig_instr q0));
  C.connect b q0_valid
    (C.mux b pop q1_valid (q0_valid ||| push));
  C.connect b q1
    (C.mux b (push &&& q0_valid) orig_instr q1);
  C.connect b q1_valid
    (C.mux b pop (C.gnd b) (q1_valid ||| (push &&& q0_valid)));
  C.connect b step
    (C.mux b pop (c5 0) (C.mux b equiv_consumed step_next step));

  (* ---- commit counters ---------------------------------------------------- *)
  let cnt name = C.reg_const b ~name ~width:6 0 in
  let o_wb_cnt = cnt "o_wb_cnt" and e_wb_cnt = cnt "e_wb_cnt" in
  let o_st_cnt = cnt "o_st_cnt" and e_st_cnt = cnt "e_st_cnt" in
  let bump cond c = C.connect b c (C.mux b cond (C.add b c (C.consti b ~width:6 1)) c) in
  let wb_in_o = pipe.Pipeline.wb_valid &&& C.ult b pipe.Pipeline.wb_rd (c5 n_orig) in
  let wb_in_e =
    pipe.Pipeline.wb_valid
    &&& C.ule b (c5 n_orig) pipe.Pipeline.wb_rd
    &&& C.ult b pipe.Pipeline.wb_rd (c5 (2 * n_orig))
  in
  let abits = Config.addr_bits cfg in
  let addr_msb = C.bit b pipe.Pipeline.store_addr (abits - 1) in
  let st_in_o = pipe.Pipeline.store_valid &&& not_ addr_msb in
  let st_in_e = pipe.Pipeline.store_valid &&& addr_msb in
  bump wb_in_o o_wb_cnt;
  bump wb_in_e e_wb_cnt;
  bump st_in_o o_st_cnt;
  bump st_in_e e_st_cnt;

  (* ---- the universal property ------------------------------------------- *)
  let did_something =
    C.neq b o_wb_cnt (C.consti b ~width:6 0)
    ||| C.neq b o_st_cnt (C.consti b ~width:6 0)
  in
  let qed_ready =
    not_ q0_valid &&& not_ pipe.Pipeline.busy
    &&& C.eq b o_wb_cnt e_wb_cnt
    &&& C.eq b o_st_cnt e_st_cnt
    &&& did_something
  in
  let regs = pipe.Pipeline.regs in
  let reg_pairs_ok =
    let pairs =
      List.init (n_orig - 1) (fun i ->
          C.eq b regs.(i + 1) regs.(i + 1 + n_orig))
    in
    (* x0's partner must read as zero. *)
    let zero_ok =
      C.eq b regs.(n_orig) (C.consti b ~width:cfg.Config.xlen 0)
    in
    C.reduce_and b (zero_ok :: pairs)
  in
  let mem_ok_sig =
    if not check_mem then C.vdd b
    else begin
      let half = p.Partition.mem_half in
      let words = pipe.Pipeline.mem_words in
      C.reduce_and b
        (List.init half (fun w -> C.eq b words.(w) words.(w + half)))
    end
  in
  let consistent = reg_pairs_ok &&& mem_ok_sig in
  let bad = qed_ready &&& not_ consistent in
  let assume_ok = not_ orig_valid ||| input_ok in

  C.output b "bad" bad;
  C.output b "assume_ok" assume_ok;
  C.output b "qed_ready" qed_ready;
  C.output b "consistent" consistent;
  C.output b "core_instr" core_instr;
  C.output b "core_valid" core_valid;
  C.output b "is_orig" dispatch_orig;
  C.output b "stall" pipe.Pipeline.stall;
  C.output b "wb_valid" pipe.Pipeline.wb_valid;
  C.output b "wb_rd" pipe.Pipeline.wb_rd;
  C.output b "consumed" consumed;
  {
    circuit = C.finalize b;
    cfg;
    partition = p;
    table;
    check_mem;
  }

let eddi ?bug ?check_mem ?focus ?core cfg =
  let partition = Partition.make Partition.Eddi cfg in
  build ?bug ?check_mem ?focus ?core ~table:Equiv_table.duplicate ~partition
    cfg

let edsep ?bug ?check_mem ?focus ?core ?table cfg =
  let partition = Partition.make Partition.Edsep cfg in
  let table =
    match table with
    | Some t -> t
    | None ->
        Equiv_table.builtin ~xlen:cfg.Config.xlen
          ~n_temp:partition.Partition.n_temp
  in
  build ?bug ?check_mem ?focus ?core ~table ~partition cfg

let init_assumptions t =
  let xlen = t.cfg.Config.xlen in
  let p = t.partition in
  let n_orig = p.Partition.n_orig in
  let reg i = Term.var (Printf.sprintf "reg%d_init" i) xlen in
  let mem w = Term.var (Printf.sprintf "dmem_%d" w) xlen in
  let reg_consistency =
    List.init (n_orig - 1) (fun i ->
        ( Printf.sprintf "init x%d = x%d" (i + 1) (i + 1 + n_orig),
          Term.eq (reg (i + 1)) (reg (i + 1 + n_orig)) ))
  in
  let zero_shadow =
    [
      ( Printf.sprintf "init x%d = 0" n_orig,
        Term.eq (reg n_orig) (Term.of_int ~width:xlen 0) );
    ]
  in
  let mem_consistency =
    List.init p.Partition.mem_half (fun w ->
        ( Printf.sprintf "init dmem[%d] = dmem[%d]" w (w + p.Partition.mem_half),
          Term.eq (mem w) (mem (w + p.Partition.mem_half)) ))
  in
  reg_consistency @ zero_shadow @ mem_consistency
