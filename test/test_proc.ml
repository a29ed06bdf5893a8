(* Pipeline substrate tests: differential simulation against the golden
   interpreter on directed hazard scenarios and random programs, per-config
   coverage, and checks that every catalogued bug actually perturbs some
   program (and that the unmutated core never diverges). *)

module Bv = Sqed_bv.Bv
module Insn = Sqed_isa.Insn
module Exec = Sqed_isa.Exec
module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module Testbench = Sqed_proc.Testbench

let cfg = Config.small
let cfg_m = Config.small_m
let cfg_div = { Config.small_m with Config.ext_div = true }

let check_match ?bug ?(config = cfg) name insns =
  let piped = Testbench.run ?bug config insns in
  let gold = Testbench.golden config insns in
  Alcotest.(check bool) name true (Exec.equal piped gold)

let addi rd rs1 imm = Insn.I (Insn.ADDI, rd, rs1, imm)

let test_straightline () =
  check_match "independent alu ops"
    [
      addi 1 0 5;
      addi 2 0 7;
      Insn.R (Insn.ADD, 3, 1, 2);
      Insn.R (Insn.XOR, 4, 1, 2);
      Insn.R (Insn.AND, 5, 1, 2);
      Insn.R (Insn.OR, 6, 1, 2);
      Insn.R (Insn.SUB, 7, 1, 2);
    ]

let test_forward_mem () =
  (* Back-to-back dependency: MEM->EX forwarding. *)
  check_match "ex->ex dependency" [ addi 1 0 3; Insn.R (Insn.ADD, 2, 1, 1) ]

let test_forward_wb () =
  (* Two-apart dependency: WB->EX forwarding. *)
  check_match "wb->ex dependency"
    [ addi 1 0 3; addi 5 0 1; Insn.R (Insn.ADD, 2, 1, 1) ]

let test_wb_bypass () =
  (* Three-apart dependency: regfile read-during-write bypass. *)
  check_match "read during write"
    [ addi 1 0 3; addi 5 0 1; addi 6 0 1; Insn.R (Insn.ADD, 2, 1, 1) ]

let test_load_use () =
  check_match "load-use stall"
    [
      addi 1 0 77;
      Insn.Sw (1, 0, 2);
      Insn.Lw (2, 0, 2);
      Insn.R (Insn.ADD, 3, 2, 2);
    ]

let test_store_load_sequences () =
  check_match "store then load same addr"
    [ addi 1 0 9; Insn.Sw (1, 0, 1); Insn.Lw (2, 0, 1) ];
  check_match "store forwarded data"
    [ addi 1 0 9; addi 2 1 1; Insn.Sw (2, 0, 1); Insn.Lw (3, 0, 1) ];
  check_match "back to back stores"
    [ addi 1 0 9; Insn.Sw (1, 0, 1); Insn.Sw (1, 0, 0); Insn.Lw (3, 0, 1) ]

let test_x0_discard () =
  check_match "write to x0 discarded" [ addi 0 0 7; Insn.R (Insn.ADD, 1, 0, 0) ]

let test_shifts () =
  check_match "shift ops"
    [
      addi 1 0 (-5);
      addi 2 0 3;
      Insn.R (Insn.SLL, 3, 1, 2);
      Insn.R (Insn.SRL, 4, 1, 2);
      Insn.R (Insn.SRA, 5, 1, 2);
      Insn.I (Insn.SRAI, 6, 1, 2);
      Insn.I (Insn.SLLI, 7, 1, 7);
    ]

let test_multiplier () =
  check_match ~config:cfg_m "multiplier ops"
    [
      addi 1 0 (-3);
      addi 2 0 100;
      Insn.R (Insn.MUL, 3, 1, 2);
      Insn.R (Insn.MULH, 4, 1, 2);
      Insn.R (Insn.MULHU, 5, 1, 2);
      Insn.R (Insn.MULH, 6, 2, 2);
    ]

let test_divider () =
  check_match ~config:cfg_div "divider ops"
    [
      addi 1 0 (-7);
      addi 2 0 2;
      Insn.R (Insn.DIV, 3, 1, 2);
      Insn.R (Insn.DIVU, 4, 1, 2);
      Insn.R (Insn.REM, 5, 1, 2);
      Insn.R (Insn.REMU, 6, 1, 2);
      Insn.R (Insn.DIV, 7, 1, 0);
      Insn.R (Insn.REM, 8, 1, 0);
      (* forwarding into the divider *)
      Insn.R (Insn.DIV, 9, 3, 2);
    ]

let test_rv32_config () =
  check_match ~config:Config.rv32 "rv32 config"
    [
      Insn.Lui (1, 0x12345);
      addi 2 1 0x111;
      Insn.R (Insn.MULHU, 3, 2, 2);
      Insn.R (Insn.SLT, 4, 2, 3);
    ]

let test_illegal_rejected () =
  Alcotest.(check bool) "illegal instruction rejected" true
    (try
       (* MULH without the M extension in [small]. *)
       ignore (Testbench.run cfg [ Insn.R (Insn.MULH, 1, 2, 3) ]);
       false
     with Failure _ -> true)

(* Every single-instruction bug must corrupt a directed program that
   exercises its instruction... *)
let directed_for_bug = function
  | Bug.Bug_add -> Some [ addi 1 0 3; Insn.R (Insn.ADD, 2, 1, 1) ]
  | Bug.Bug_sub -> Some [ addi 1 0 3; Insn.R (Insn.SUB, 2, 1, 1) ]
  | Bug.Bug_xor -> Some [ addi 1 0 3; addi 2 0 5; Insn.R (Insn.XOR, 3, 1, 2) ]
  | Bug.Bug_or -> Some [ addi 1 0 3; addi 2 0 5; Insn.R (Insn.OR, 3, 1, 2) ]
  | Bug.Bug_and -> Some [ addi 1 0 3; addi 2 0 6; Insn.R (Insn.AND, 3, 1, 2) ]
  | Bug.Bug_slt -> Some [ addi 1 0 3; Insn.R (Insn.SLT, 2, 1, 0) ]
  | Bug.Bug_sltu -> Some [ addi 1 0 3; Insn.R (Insn.SLTU, 2, 0, 1) ]
  | Bug.Bug_sra -> Some [ addi 1 0 (-8); addi 2 0 2; Insn.R (Insn.SRA, 3, 1, 2) ]
  | Bug.Bug_mulh -> Some [ addi 1 0 (-3); Insn.R (Insn.MULH, 2, 1, 1) ]
  | Bug.Bug_xori -> Some [ addi 1 0 3; Insn.I (Insn.XORI, 2, 1, 6) ]
  | Bug.Bug_slli -> Some [ addi 1 0 3; Insn.I (Insn.SLLI, 2, 1, 2) ]
  | Bug.Bug_srai -> Some [ addi 1 0 (-8); Insn.I (Insn.SRAI, 2, 1, 1) ]
  | Bug.Bug_sw ->
      (* Stored register produced by the immediately preceding insn. *)
      Some [ addi 1 0 9; addi 2 1 1; Insn.Sw (2, 0, 1); Insn.Lw (3, 0, 1) ]
  | Bug.Bug_fwd_mem_rs1 -> Some [ addi 1 0 3; Insn.R (Insn.ADD, 2, 1, 0) ]
  | Bug.Bug_fwd_mem_rs2 -> Some [ addi 1 0 3; Insn.R (Insn.ADD, 2, 0, 1) ]
  | Bug.Bug_fwd_wb -> Some [ addi 1 0 3; addi 5 0 1; Insn.R (Insn.ADD, 2, 1, 0) ]
  | Bug.Bug_fwd_priority ->
      (* Same rd written twice in flight; MEM has the newer value. *)
      Some [ addi 1 0 3; addi 1 1 4; Insn.R (Insn.ADD, 2, 1, 0) ]
  | Bug.Bug_load_use_stall ->
      Some
        [ addi 1 0 9; Insn.Sw (1, 0, 1); Insn.Lw (2, 0, 1); Insn.R (Insn.ADD, 3, 2, 0) ]
  | Bug.Bug_wb_bypass ->
      Some [ addi 1 0 3; addi 5 0 1; addi 6 0 1; Insn.R (Insn.ADD, 2, 1, 0) ]
  | Bug.Bug_fwd_value -> Some [ addi 1 0 3; Insn.R (Insn.ADD, 2, 1, 0) ]
  | Bug.Bug_store_interference ->
      Some [ addi 1 0 9; Insn.Sw (1, 0, 1); Insn.Sw (1, 0, 0); Insn.Lw (2, 0, 1) ]
  | Bug.Bug_wb_clobber_on_store ->
      (* The dropped write is observed by a reader far enough behind to
         miss every forwarding path. *)
      Some
        [ addi 1 0 3; Insn.Sw (1, 0, 0); addi 9 0 1; addi 10 0 1;
          Insn.R (Insn.ADD, 2, 1, 0) ]
  | Bug.Bug_stall_corrupt ->
      Some
        [ addi 1 0 9; Insn.Sw (1, 0, 1); Insn.Lw (2, 0, 1); Insn.R (Insn.ADD, 3, 2, 0) ]

let test_bugs_visible () =
  List.iter
    (fun bug ->
      match directed_for_bug bug with
      | None -> ()
      | Some insns ->
          let config = if Bug.needs_m bug then cfg_m else cfg in
          let piped = Testbench.run ~bug config insns in
          let gold = Testbench.golden config insns in
          Alcotest.(check bool)
            (Printf.sprintf "bug %s diverges" (Bug.name bug))
            false (Exec.equal piped gold))
    Bug.all

let test_bugs_dormant () =
  (* A program that exercises none of the buggy conditions must match. *)
  let quiet = [ addi 1 0 1; addi 9 0 2; addi 10 0 3; addi 11 9 4 ] in
  List.iter
    (fun bug ->
      let config = if Bug.needs_m bug then cfg_m else cfg in
      let piped = Testbench.run ~bug config quiet in
      let gold = Testbench.golden config quiet in
      Alcotest.(check bool)
        (Printf.sprintf "bug %s dormant" (Bug.name bug))
        true (Exec.equal piped gold))
    Bug.all_single

let test_bug_metadata () =
  Alcotest.(check int) "13 single bugs" 13 (List.length Bug.all_single);
  Alcotest.(check int) "10 multi bugs" 10 (List.length Bug.all_multi);
  List.iter
    (fun b ->
      Alcotest.(check bool) "roundtrip name" true (Bug.of_name (Bug.name b) = Some b);
      Alcotest.(check bool) "describe" true (String.length (Bug.describe b) > 0);
      Alcotest.(check bool) "table1 iff single"
        (Bug.is_single b)
        (Bug.table1_row b <> None))
    Bug.all

let test_three_stage_directed () =
  (* The same hazard scenarios on the 3-stage core. *)
  let check name insns =
    let piped = Testbench.run ~variant:Testbench.Three_stage cfg insns in
    let gold = Testbench.golden cfg insns in
    Alcotest.(check bool) name true (Exec.equal piped gold)
  in
  check "back-to-back dependency" [ addi 1 0 3; Insn.R (Insn.ADD, 2, 1, 1) ];
  check "two apart" [ addi 1 0 3; addi 5 0 1; Insn.R (Insn.ADD, 2, 1, 1) ];
  check "load use"
    [ addi 1 0 7; Insn.Sw (1, 0, 1); Insn.Lw (2, 0, 1); Insn.R (Insn.ADD, 3, 2, 2) ];
  check "store then load" [ addi 1 0 9; Insn.Sw (1, 0, 1); Insn.Lw (2, 0, 1) ]

(* Random legal program generator (fields restricted to the config). *)
let random_program cfg rng len =
  let max_reg = cfg.Config.nregs in
  let reg () = Random.State.int rng max_reg in
  let mem_imm () = Random.State.int rng cfg.Config.mem_words in
  List.init len (fun _ ->
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 ->
          let rops =
            List.filter
              (fun o ->
                (cfg.Config.ext_m || not (Insn.rop_is_mul o))
                && (cfg.Config.ext_div || not (Insn.rop_is_div o)))
              Insn.all_rops
          in
          let op = List.nth rops (Random.State.int rng (List.length rops)) in
          Insn.R (op, reg (), reg (), reg ())
      | 4 | 5 | 6 ->
          let op =
            List.nth Insn.all_iops
              (Random.State.int rng (List.length Insn.all_iops))
          in
          let imm =
            match op with
            | Insn.SLLI | Insn.SRLI | Insn.SRAI -> Random.State.int rng 32
            | _ -> Random.State.int rng 4096 - 2048
          in
          Insn.I (op, reg (), reg (), imm)
      | 7 -> Insn.Lui (reg (), Random.State.int rng 0x100000)
      | 8 -> Insn.Lw (reg (), 0, mem_imm ())
      | _ -> Insn.Sw (reg (), 0, mem_imm ()))

let pipeline_matches_iss ?variant ?(label = "") config =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "pipeline%s = ISS on random programs (%s)" label
         (Config.to_string config))
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.nat)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let program = random_program config rng (4 + Random.State.int rng 8) in
      let piped = Testbench.run ?variant config program in
      let gold = Testbench.golden config program in
      Exec.equal piped gold)

(* One rule for the core a bug runs on: turn the multiplier on when the
   bug needs it, change nothing else. *)
let test_bug_config_for () =
  let check name want got =
    Alcotest.(check string) name (Config.to_string want) (Config.to_string got)
  in
  check "tiny + MULH is tiny-m" Config.tiny_m
    (Bug.config_for Bug.Bug_mulh Config.tiny);
  check "small + MULH is small-m" Config.small_m
    (Bug.config_for Bug.Bug_mulh Config.small);
  check "rv32 + MULH unchanged" Config.rv32
    (Bug.config_for Bug.Bug_mulh Config.rv32);
  List.iter
    (fun bug ->
      if not (Bug.needs_m bug) then
        List.iter
          (fun c ->
            check (Bug.name bug ^ " unchanged") c (Bug.config_for bug c))
          [ Config.tiny; Config.small; Config.rv32 ])
    Bug.all

let suite =
  [
    Alcotest.test_case "bug config rule" `Quick test_bug_config_for;
    Alcotest.test_case "straightline" `Quick test_straightline;
    Alcotest.test_case "forward mem" `Quick test_forward_mem;
    Alcotest.test_case "forward wb" `Quick test_forward_wb;
    Alcotest.test_case "wb bypass" `Quick test_wb_bypass;
    Alcotest.test_case "load use" `Quick test_load_use;
    Alcotest.test_case "store/load sequences" `Quick test_store_load_sequences;
    Alcotest.test_case "x0 discard" `Quick test_x0_discard;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "multiplier" `Quick test_multiplier;
    Alcotest.test_case "divider" `Quick test_divider;
    Alcotest.test_case "rv32 config" `Quick test_rv32_config;
    Alcotest.test_case "illegal rejected" `Quick test_illegal_rejected;
    Alcotest.test_case "bugs visible" `Quick test_bugs_visible;
    Alcotest.test_case "bugs dormant on quiet code" `Quick test_bugs_dormant;
    Alcotest.test_case "bug metadata" `Quick test_bug_metadata;
    Alcotest.test_case "three-stage directed" `Quick test_three_stage_directed;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [
        pipeline_matches_iss Config.small;
        pipeline_matches_iss Config.small_m;
        pipeline_matches_iss Config.tiny;
        pipeline_matches_iss { Config.small_m with Config.ext_div = true };
        pipeline_matches_iss ~variant:Testbench.Three_stage ~label:"3"
          Config.small;
        pipeline_matches_iss ~variant:Testbench.Three_stage ~label:"3"
          { Config.small_m with Config.ext_div = true };
      ]
