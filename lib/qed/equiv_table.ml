module Insn = Sqed_isa.Insn

type treg = Rd | Rs1 | Rs2 | Tmp of int | X0

type timm = Imm_const of int | Imm_orig | Imm_orig_shamt | Imm_orig_shadow

type timm20 = Imm20_orig | Imm20_const of int

type tinsn =
  | TR of Insn.rop * treg * treg * treg
  | TI of Insn.iop * treg * treg * timm
  | TLui of treg * timm20
  | TLw of treg * timm
  | TSw of treg * timm

type key = Kr of Insn.rop | Ki of Insn.iop | Klui | Klw | Ksw

type t = (key * tinsn list) list

let key_of_insn = function
  | Insn.R (op, _, _, _) -> Kr op
  | Insn.I (op, _, _, _) -> Ki op
  | Insn.Lui _ -> Klui
  | Insn.Lw _ -> Klw
  | Insn.Sw _ -> Ksw

let key_name = function
  | Kr op -> Insn.rop_name op
  | Ki op -> Insn.iop_name op
  | Klui -> "LUI"
  | Klw -> "LW"
  | Ksw -> "SW"

let all_keys ~ext_m ~ext_div =
  let rops =
    List.filter
      (fun op ->
        (ext_m || not (Insn.rop_is_mul op))
        && (ext_div || not (Insn.rop_is_div op)))
      Insn.all_rops
  in
  List.map (fun op -> Kr op) rops
  @ List.map (fun op -> Ki op) Insn.all_iops
  @ [ Klui; Klw; Ksw ]

(* ------------------------------------------------------------------ *)
(* Built-in EDSEP-V templates                                          *)
(* ------------------------------------------------------------------ *)

let t0 = Tmp 0
let t1 = Tmp 1
let t2 = Tmp 2
let t3 = Tmp 3

(* Materialize an immediate and apply the register-register operation —
   the generic equivalent for I-type originals. *)
let via_materialized rop = [ TI (Insn.ADDI, t0, X0, Imm_orig); TR (rop, Rd, Rs1, t0) ]

let via_materialized_shamt rop =
  [ TI (Insn.ADDI, t0, X0, Imm_orig_shamt); TR (rop, Rd, Rs1, t0) ]

(* Pass the second operand through an ADDI-copy so the wiring differs from
   the original even when the same operation is reused (used for classes
   with no structurally different small equivalent, none of which appear
   in Table 1). *)
let via_passthrough rop = [ TI (Insn.ADDI, t0, Rs2, Imm_const 0); TR (rop, Rd, Rs1, t0) ]

let sub_template =
  (* Listing 2: rd = ~(~rs1 + rs2). *)
  [
    TI (Insn.XORI, t0, Rs1, Imm_const (-1));
    TR (Insn.ADD, t1, t0, Rs2);
    TI (Insn.XORI, Rd, t1, Imm_const (-1));
  ]

let slt_narrow ~min_signed =
  (* slt(a,b) = sltu(a ^ MIN, b ^ MIN); the sign flip fits the immediate
     field only at narrow XLEN. *)
  [
    TI (Insn.XORI, t0, Rs1, Imm_const min_signed);
    TI (Insn.XORI, t1, Rs2, Imm_const min_signed);
    TR (Insn.SLTU, Rd, t0, t1);
  ]

let sltu_narrow ~min_signed =
  [
    TI (Insn.XORI, t0, Rs1, Imm_const min_signed);
    TI (Insn.XORI, t1, Rs2, Imm_const min_signed);
    TR (Insn.SLT, Rd, t0, t1);
  ]

let slt_wide ~xlen =
  (* slt = (sa & (sa^sb)) | (~(sa^sb) & sltu(a,b)) over the sign bits. *)
  [
    TI (Insn.SRLI, t0, Rs1, Imm_const (xlen - 1));
    TI (Insn.SRLI, t1, Rs2, Imm_const (xlen - 1));
    TR (Insn.SLTU, t2, Rs1, Rs2);
    TR (Insn.XOR, t3, t0, t1);
    TR (Insn.AND, t0, t3, t0);
    TI (Insn.XORI, t3, t3, Imm_const 1);
    TR (Insn.AND, t3, t3, t2);
    TR (Insn.OR, Rd, t0, t3);
  ]

let sltu_wide ~xlen =
  (* Borrow of a-b: msb((~a & b) | ((~a | b) & (a - b))). *)
  [
    TI (Insn.XORI, t0, Rs1, Imm_const (-1));
    TR (Insn.AND, t1, t0, Rs2);
    TR (Insn.OR, t0, t0, Rs2);
    TR (Insn.SUB, t2, Rs1, Rs2);
    TR (Insn.AND, t0, t0, t2);
    TR (Insn.OR, t0, t1, t0);
    TI (Insn.SRLI, Rd, t0, Imm_const (xlen - 1));
  ]

let sra_template ~xlen =
  (* sra(a,s) = srl(a ^ m, s) ^ m with m the sign smear of a. *)
  [
    TI (Insn.SRLI, t0, Rs1, Imm_const (xlen - 1));
    TR (Insn.SUB, t0, X0, t0);
    TR (Insn.XOR, t1, Rs1, t0);
    TR (Insn.SRL, t1, t1, Rs2);
    TR (Insn.XOR, Rd, t1, t0);
  ]

let mulh_template ~xlen =
  (* mulh(a,b) = mulhu(a,b) - (a<0 ? b : 0) - (b<0 ? a : 0). *)
  [
    TI (Insn.SRAI, t0, Rs1, Imm_const (xlen - 1));
    TR (Insn.AND, t0, t0, Rs2);
    TI (Insn.SRAI, t1, Rs2, Imm_const (xlen - 1));
    TR (Insn.AND, t1, t1, Rs1);
    TR (Insn.ADD, t0, t0, t1);
    TR (Insn.MULHU, t1, Rs1, Rs2);
    TR (Insn.SUB, Rd, t1, t0);
  ]

let mulhu_template ~xlen =
  [
    TI (Insn.SRAI, t0, Rs1, Imm_const (xlen - 1));
    TR (Insn.AND, t0, t0, Rs2);
    TI (Insn.SRAI, t1, Rs2, Imm_const (xlen - 1));
    TR (Insn.AND, t1, t1, Rs1);
    TR (Insn.ADD, t0, t0, t1);
    TR (Insn.MULH, t1, Rs1, Rs2);
    TR (Insn.ADD, Rd, t1, t0);
  ]

let mul_schoolbook ~xlen =
  (* Low half of the product from half-width partial products; the masks
     fit the immediate field only when xlen/2 <= 11 bits. *)
  let h = xlen / 2 in
  let mask = (1 lsl h) - 1 in
  [
    TI (Insn.ANDI, t0, Rs1, Imm_const mask);
    TI (Insn.ANDI, t1, Rs2, Imm_const mask);
    TR (Insn.MUL, t2, t0, t1);
    TI (Insn.SRLI, t3, Rs2, Imm_const h);
    TR (Insn.MUL, t0, t0, t3);
    TI (Insn.SRLI, t3, Rs1, Imm_const h);
    TR (Insn.MUL, t1, t3, t1);
    TR (Insn.ADD, t0, t0, t1);
    TI (Insn.SLLI, t0, t0, Imm_const h);
    TR (Insn.ADD, Rd, t2, t0);
  ]

let builtin ~xlen ~n_temp =
  if n_temp < 2 then invalid_arg "Equiv_table.builtin: need at least 2 temps";
  let narrow = xlen <= 11 in
  let min_signed = 1 lsl (xlen - 1) in
  (* Narrow widths admit the 3-instruction sign-flip trick; wide widths
     need the generic decompositions (and enough temporaries), otherwise
     fall back to a via-copy variant (not Table-1 material then). *)
  let slt =
    if narrow then slt_narrow ~min_signed
    else if n_temp >= 4 then slt_wide ~xlen
    else via_passthrough Insn.SLT
  in
  let sltu =
    if narrow then sltu_narrow ~min_signed
    else if n_temp >= 3 then sltu_wide ~xlen
    else via_passthrough Insn.SLTU
  in
  let mul =
    if xlen / 2 <= 11 && n_temp >= 4 then mul_schoolbook ~xlen
    else via_passthrough Insn.MUL
  in
  [
    (Kr Insn.ADD, [ TR (Insn.SUB, t0, X0, Rs2); TR (Insn.SUB, Rd, Rs1, t0) ]);
    (Kr Insn.SUB, sub_template);
    ( Kr Insn.XOR,
      [ TR (Insn.OR, t0, Rs1, Rs2); TR (Insn.AND, t1, Rs1, Rs2); TR (Insn.SUB, Rd, t0, t1) ] );
    ( Kr Insn.OR,
      [ TR (Insn.XOR, t0, Rs1, Rs2); TR (Insn.AND, t1, Rs1, Rs2); TR (Insn.ADD, Rd, t0, t1) ] );
    ( Kr Insn.AND,
      [ TR (Insn.OR, t0, Rs1, Rs2); TR (Insn.XOR, t1, Rs1, Rs2); TR (Insn.SUB, Rd, t0, t1) ] );
    (Kr Insn.SLL, via_passthrough Insn.SLL);
    (Kr Insn.SRL, via_passthrough Insn.SRL);
    (Kr Insn.SRA, sra_template ~xlen);
    (Kr Insn.SLT, slt);
    (Kr Insn.SLTU, sltu);
    (Kr Insn.MUL, mul);
    (Kr Insn.MULH, mulh_template ~xlen);
    (Kr Insn.MULHU, mulhu_template ~xlen);
    (* No structurally different small decomposition exists for division;
       the via-copy transform keeps EDSEP-V total over the ISA (these
       classes are not Table-1 material). *)
    (Kr Insn.DIV, via_passthrough Insn.DIV);
    (Kr Insn.DIVU, via_passthrough Insn.DIVU);
    (Kr Insn.REM, via_passthrough Insn.REM);
    (Kr Insn.REMU, via_passthrough Insn.REMU);
    (Ki Insn.ADDI, via_materialized Insn.ADD);
    (Ki Insn.XORI, via_materialized Insn.XOR);
    (Ki Insn.ORI, via_materialized Insn.OR);
    (Ki Insn.ANDI, via_materialized Insn.AND);
    (Ki Insn.SLTI, via_materialized Insn.SLT);
    (Ki Insn.SLTIU, via_materialized Insn.SLTU);
    (Ki Insn.SLLI, via_materialized_shamt Insn.SLL);
    (Ki Insn.SRLI, via_materialized_shamt Insn.SRL);
    (Ki Insn.SRAI, via_materialized_shamt Insn.SRA);
    (Klui, [ TLui (t0, Imm20_orig); TI (Insn.ADDI, Rd, t0, Imm_const 0) ]);
    (Klw, [ TLw (t0, Imm_orig_shadow); TI (Insn.ADDI, Rd, t0, Imm_const 0) ]);
    (Ksw, [ TI (Insn.ADDI, t0, Rs2, Imm_const 0); TSw (t0, Imm_orig_shadow) ]);
  ]

let duplicate =
  List.map (fun op -> (Kr op, [ TR (op, Rd, Rs1, Rs2) ])) Insn.all_rops
  @ List.map
      (fun op ->
        let imm =
          match op with
          | Insn.SLLI | Insn.SRLI | Insn.SRAI -> Imm_orig_shamt
          | _ -> Imm_orig
        in
        (Ki op, [ TI (op, Rd, Rs1, imm) ]))
      Insn.all_iops
  @ [
      (Klui, [ TLui (Rd, Imm20_orig) ]);
      (Klw, [ TLw (Rd, Imm_orig_shadow) ]);
      (Ksw, [ TSw (Rs2, Imm_orig_shadow) ]);
    ]

let lookup table key =
  match List.assoc_opt key table with
  | Some seq -> seq
  | None -> failwith ("Equiv_table.lookup: no template for " ^ key_name key)

let seq_len table key = List.length (lookup table key)

let max_seq_len table =
  List.fold_left (fun acc (_, seq) -> max acc (List.length seq)) 0 table

let temps_of_tinsn ti =
  let of_reg = function Tmp i -> [ i ] | Rd | Rs1 | Rs2 | X0 -> [] in
  match ti with
  | TR (_, a, b, c) -> of_reg a @ of_reg b @ of_reg c
  | TI (_, a, b, _) -> of_reg a @ of_reg b
  | TLui (a, _) | TLw (a, _) | TSw (a, _) -> of_reg a

let max_temps table =
  List.fold_left
    (fun acc (_, seq) ->
      List.fold_left
        (fun acc ti -> List.fold_left (fun a i -> max a (i + 1)) acc (temps_of_tinsn ti))
        acc seq)
    0 table

(* ------------------------------------------------------------------ *)
(* Program-level instantiation                                         *)
(* ------------------------------------------------------------------ *)

let operand_fields insn =
  (* (rd, rs1, rs2, imm12, imm20) with don't-cares zeroed. *)
  match insn with
  | Insn.R (_, rd, rs1, rs2) -> (rd, rs1, rs2, 0, 0)
  | Insn.I (_, rd, rs1, imm) -> (rd, rs1, 0, imm, 0)
  | Insn.Lui (rd, imm) -> (rd, 0, 0, 0, imm)
  | Insn.Lw (rd, rs1, imm) -> (rd, rs1, 0, imm, 0)
  | Insn.Sw (rs2, rs1, imm) -> (0, rs1, rs2, imm, 0)

let expand table p insn =
  let rd, rs1, rs2, imm12, imm20 = operand_fields insn in
  let check_orig r =
    if not (Partition.in_orig p r) then
      failwith
        (Printf.sprintf "Equiv_table.expand: register x%d of %s not in O" r
           (Insn.to_string insn))
  in
  List.iter check_orig (Insn.sources insn);
  (match Insn.rd insn with
  | Some r -> check_orig r
  | None -> ());
  let reg = function
    | Rd -> Partition.map_reg p rd
    | Rs1 -> Partition.map_reg p rs1
    | Rs2 -> Partition.map_reg p rs2
    | Tmp i -> Partition.temp_reg p i
    | X0 -> 0
  in
  let imm = function
    | Imm_const v -> v
    | Imm_orig | Imm_orig_shamt -> imm12
    | Imm_orig_shadow -> imm12 + p.Partition.mem_half
  in
  List.map
    (function
      | TR (op, a, b, c) -> Insn.R (op, reg a, reg b, reg c)
      | TI (op, a, b, v) -> Insn.I (op, reg a, reg b, imm v)
      | TLui (a, v) ->
          Insn.Lui (reg a, match v with Imm20_orig -> imm20 | Imm20_const c -> c)
      | TLw (a, v) -> Insn.Lw (reg a, 0, imm v)
      | TSw (a, v) -> Insn.Sw (reg a, 0, imm v))
    (lookup table (key_of_insn insn))

(* ------------------------------------------------------------------ *)
(* Validation against the golden interpreter                           *)
(* ------------------------------------------------------------------ *)

let validate ~cfg ~partition:p ?(samples = 300) ?(seed = 0x7ab1e) table =
  let module Exec = Sqed_isa.Exec in
  let module Config = Sqed_proc.Config in
  let xlen = cfg.Config.xlen in
  let rng = Random.State.make [| seed |] in
  let consistent_state () =
    let st = Exec.create ~xlen ~mem_words:cfg.Config.mem_words in
    for i = 1 to p.Partition.n_orig - 1 do
      let v = Sqed_bv.Bv.random rng xlen in
      Exec.set_reg st i v;
      Exec.set_reg st (Partition.map_reg p i) v
    done;
    List.iter
      (fun t -> Exec.set_reg st t (Sqed_bv.Bv.random rng xlen))
      (Partition.temps p);
    for w = 0 to p.Partition.mem_half - 1 do
      let v = Sqed_bv.Bv.random rng xlen in
      Exec.store st (Sqed_bv.Bv.of_int ~width:xlen w) v;
      Exec.store st
        (Sqed_bv.Bv.of_int ~width:xlen (w + p.Partition.mem_half))
        v
    done;
    st
  in
  let check insn =
    let seq = expand table p insn in
    (* Write discipline: one final E write, temps in T. *)
    let e_writes = ref 0 in
    let discipline =
      List.for_all
        (fun i ->
          match Insn.rd i with
          | None -> true
          | Some rd ->
              if Partition.in_equiv p rd then begin
                incr e_writes;
                true
              end
              else List.mem rd (Partition.temps p))
        seq
    in
    let expected_e = match Insn.rd insn with Some _ -> 1 | None -> 0 in
    if not (discipline && !e_writes = expected_e) then
      Error
        (Printf.sprintf "write discipline violated for %s" (Insn.to_string insn))
    else begin
      let st = consistent_state () in
      let st_o = Exec.copy st and st_e = Exec.copy st in
      Exec.exec st_o insn;
      List.iter (Exec.exec st_e) seq;
      let ok_rd =
        match Insn.rd insn with
        | Some rd when rd <> 0 ->
            Sqed_bv.Bv.equal (Exec.reg st_o rd)
              (Exec.reg st_e (Partition.map_reg p rd))
        | _ -> true
      in
      let ok_mem =
        match insn with
        | Insn.Sw (_, _, imm) ->
            Sqed_bv.Bv.equal
              (Exec.load st_o (Sqed_bv.Bv.of_int ~width:xlen imm))
              (Exec.load st_e
                 (Sqed_bv.Bv.of_int ~width:xlen (imm + p.Partition.mem_half)))
        | _ -> true
      in
      if ok_rd && ok_mem then Ok ()
      else
        Error
          (Printf.sprintf "inequivalent expansion for %s" (Insn.to_string insn))
    end
  in
  let rec go n =
    if n = 0 then Ok ()
    else
      let insn =
        Partition.random_original p ~ext_m:cfg.Config.ext_m
          ~ext_div:cfg.Config.ext_div rng
      in
      match check insn with Ok () -> go (n - 1) | Error e -> Error e
  in
  go samples

(* ------------------------------------------------------------------ *)
(* Tables from synthesized programs                                    *)
(* ------------------------------------------------------------------ *)

(* Sentinel registers/immediates let us reuse Program.to_insns and read the
   roles back off the concrete instructions. *)
let sent_rd = 40
let sent_rs1 = 41
let sent_rs2 = 42
let sent_tmp = 50
let sent_imm = 4097 (* outside any 12-bit signed immediate *)

let template_of_program (program : Sqed_synth.Program.t) =
  let inputs =
    List.mapi
      (fun i kind ->
        match kind with
        | Sqed_synth.Component.Reg -> `Reg (if i = 0 then sent_rs1 else sent_rs2)
        | Sqed_synth.Component.Imm12 -> `Imm sent_imm)
      program.Sqed_synth.Program.spec_inputs
  in
  let temps =
    List.init (Sqed_synth.Program.temps_needed program) (fun i -> sent_tmp + i)
  in
  let insns =
    Sqed_synth.Program.to_insns ~xlen:32 program ~dst:sent_rd ~inputs ~temps
  in
  let reg r =
    if r = sent_rd then Rd
    else if r = sent_rs1 then Rs1
    else if r = sent_rs2 then Rs2
    else if r = 0 then X0
    else if r >= sent_tmp then Tmp (r - sent_tmp)
    else failwith "Equiv_table.of_synthesis: unexpected register"
  in
  let imm v = if v = sent_imm then Imm_orig else Imm_const v in
  List.map
    (function
      | Insn.R (op, a, b, c) -> TR (op, reg a, reg b, reg c)
      | Insn.I (op, a, b, v) -> TI (op, reg a, reg b, imm v)
      | Insn.Lui (a, v) -> TLui (reg a, Imm20_const v)
      | Insn.Lw _ | Insn.Sw _ ->
          failwith "Equiv_table.of_synthesis: memory instruction in program")
    insns

let of_synthesis programs ~fallback =
  let synthesized =
    List.map (fun (key, p) -> (key, template_of_program p)) programs
  in
  let keys = List.map fst synthesized in
  synthesized
  @ List.filter (fun (k, _) -> not (List.mem k keys)) fallback

let treg_to_string = function
  | Rd -> "rd'"
  | Rs1 -> "rs1'"
  | Rs2 -> "rs2'"
  | Tmp i -> Printf.sprintf "t%d" i
  | X0 -> "x0"

let timm_to_string = function
  | Imm_const v -> string_of_int v
  | Imm_orig -> "imm"
  | Imm_orig_shamt -> "shamt"
  | Imm_orig_shadow -> "imm+half"

let tinsn_to_string = function
  | TR (op, a, b, c) ->
      Printf.sprintf "%s %s, %s, %s" (Insn.rop_name op) (treg_to_string a)
        (treg_to_string b) (treg_to_string c)
  | TI (op, a, b, v) ->
      Printf.sprintf "%s %s, %s, %s" (Insn.iop_name op) (treg_to_string a)
        (treg_to_string b) (timm_to_string v)
  | TLui (a, v) ->
      Printf.sprintf "LUI %s, %s" (treg_to_string a)
        (match v with Imm20_orig -> "imm20" | Imm20_const c -> string_of_int c)
  | TLw (a, v) -> Printf.sprintf "LW %s, %s(x0)" (treg_to_string a) (timm_to_string v)
  | TSw (a, v) -> Printf.sprintf "SW %s, %s(x0)" (treg_to_string a) (timm_to_string v)

let to_string table =
  String.concat "\n"
    (List.map
       (fun (k, seq) ->
         Printf.sprintf "%-6s -> [%s]" (key_name k)
           (String.concat "; " (List.map tinsn_to_string seq)))
       table)

(* ------------------------------------------------------------------ *)
(* Parsing the textual table format                                    *)
(* ------------------------------------------------------------------ *)

let strip s =
  let is_space c = c = ' ' || c = '\t' || c = '\r' in
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_space s.[!i] do incr i done;
  while !j >= !i && is_space s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

exception Table_error of string

let key_of_name name =
  match List.find_opt (fun op -> Insn.rop_name op = name) Insn.all_rops with
  | Some op -> Some (Kr op)
  | None -> (
      match
        List.find_opt (fun op -> Insn.iop_name op = name) Insn.all_iops
      with
      | Some op -> Some (Ki op)
      | None -> (
          match name with
          | "LUI" -> Some Klui
          | "LW" -> Some Klw
          | "SW" -> Some Ksw
          | _ -> None))

let treg_of_string s =
  match strip s with
  | "rd'" -> Rd
  | "rs1'" -> Rs1
  | "rs2'" -> Rs2
  | "x0" -> X0
  | t when String.length t > 1 && t.[0] = 't' -> (
      match int_of_string_opt (String.sub t 1 (String.length t - 1)) with
      | Some i when i >= 0 -> Tmp i
      | _ -> raise (Table_error ("bad register token " ^ t)))
  | t -> raise (Table_error ("bad register token " ^ t))

let timm_of_string s =
  match strip s with
  | "imm" -> Imm_orig
  | "shamt" -> Imm_orig_shamt
  | "imm+half" -> Imm_orig_shadow
  | t -> (
      match int_of_string_opt t with
      | Some v -> Imm_const v
      | None -> raise (Table_error ("bad immediate token " ^ t)))

let tinsn_of_string s =
  let s = strip s in
  match String.index_opt s ' ' with
  | None -> raise (Table_error ("cannot parse instruction " ^ s))
  | Some i -> (
      let mnemonic = String.sub s 0 i in
      let rest = String.sub s i (String.length s - i) in
      let ops = String.split_on_char ',' rest |> List.map strip in
      let mem_operand op =
        (* "imm+half(x0)" / "3(x0)" *)
        match String.index_opt op '(' with
        | Some k when String.length op > 0 && op.[String.length op - 1] = ')'
          ->
            let imm = timm_of_string (String.sub op 0 k) in
            let base = String.sub op (k + 1) (String.length op - k - 2) in
            if strip base <> "x0" then
              raise (Table_error "memory base must be x0");
            imm
        | _ -> raise (Table_error ("bad memory operand " ^ op))
      in
      match
        ( List.find_opt (fun op -> Insn.rop_name op = mnemonic) Insn.all_rops,
          List.find_opt (fun op -> Insn.iop_name op = mnemonic) Insn.all_iops,
          mnemonic,
          ops )
      with
      | Some op, _, _, [ a; b; c ] ->
          TR (op, treg_of_string a, treg_of_string b, treg_of_string c)
      | _, Some op, _, [ a; b; c ] ->
          TI (op, treg_of_string a, treg_of_string b, timm_of_string c)
      | _, _, "LUI", [ a; b ] ->
          let v =
            match strip b with
            | "imm20" -> Imm20_orig
            | t -> (
                match int_of_string_opt t with
                | Some c -> Imm20_const c
                | None -> raise (Table_error ("bad imm20 token " ^ t)))
          in
          TLui (treg_of_string a, v)
      | _, _, "LW", [ a; b ] -> TLw (treg_of_string a, mem_operand b)
      | _, _, "SW", [ a; b ] -> TSw (treg_of_string a, mem_operand b)
      | _ -> raise (Table_error ("cannot parse instruction " ^ s)))

let of_string text =
  try
    let entries =
      String.split_on_char '\n' text
      |> List.filter_map (fun line ->
             let line = strip line in
             if line = "" || line.[0] = '#' then None
             else
               match String.index_opt line '-' with
               | Some i
                 when i + 1 < String.length line && line.[i + 1] = '>' ->
                   let name = strip (String.sub line 0 i) in
                   let key =
                     match key_of_name name with
                     | Some key -> key
                     | None ->
                         raise
                           (Table_error ("unknown instruction class " ^ name))
                   in
                   let body =
                     strip
                       (String.sub line (i + 2) (String.length line - i - 2))
                   in
                   let n = String.length body in
                   if n < 2 || body.[0] <> '[' || body.[n - 1] <> ']' then
                     raise (Table_error ("expected [...] in " ^ line));
                   let inner = String.sub body 1 (n - 2) in
                   let seq =
                     String.split_on_char ';' inner
                     |> List.map strip
                     |> List.filter (fun s -> s <> "")
                     |> List.map tinsn_of_string
                   in
                   if seq = [] then
                     raise (Table_error ("empty sequence in " ^ line));
                   Some (key, seq)
               | _ -> raise (Table_error ("expected '->' in " ^ line)))
    in
    Ok entries
  with Table_error e -> Error e
