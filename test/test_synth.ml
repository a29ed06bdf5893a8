(* Synthesis layer tests: component semantics vs their instruction
   expansions, multiset combinatorics, topology well-formedness, CEGIS on
   known equivalences, agreement between the enumerated and the
   symbolic-location engines, and the HPF priority computation. *)

module Bv = Sqed_bv.Bv
module Term = Sqed_smt.Term
module Insn = Sqed_isa.Insn
module Exec = Sqed_isa.Exec
module Synth = Sqed_synth
module C = Synth.Component

let xlen = 8
let cfg = { Synth.Cegis.default_config with Synth.Cegis.xlen }

(* ---------------------------------------------------------------- *)
(* Components                                                        *)
(* ---------------------------------------------------------------- *)

let test_library_composition () =
  Alcotest.(check int) "10 NICs" 10 (List.length Synth.Library_.nics);
  Alcotest.(check int) "10 DICs" 10 (List.length Synth.Library_.dics);
  Alcotest.(check int) "9 CICs" 9 (List.length Synth.Library_.cics);
  Alcotest.(check int) "30 total" 30 (List.length Synth.Library_.default);
  let labels = List.map (fun c -> c.C.label) Synth.Library_.default in
  Alcotest.(check int) "labels unique" 30
    (List.length (List.sort_uniq compare labels));
  Alcotest.(check int) "12 synthesis cases" 12 (List.length Synth.Library_.specs)

(* Execute a component's instruction expansion on the interpreter and
   compare with its symbolic semantics. *)
let component_agrees comp seed =
  let rng = Random.State.make [| seed |] in
  let reg_inputs = C.arity comp in
  let imm_inputs = C.imm_arity comp in
  let input_regs = List.init reg_inputs (fun i -> i + 1) in
  let input_values = List.map (fun _ -> Bv.random rng xlen) input_regs in
  let imm_values = List.init imm_inputs (fun _ -> Random.State.int rng 4096 - 2048) in
  let attrs =
    List.map
      (fun w ->
        (* Shift-amount attributes stay in range by construction (width 5). *)
        Bv.random rng w)
      comp.C.attrs
  in
  (* Symbolic evaluation. *)
  let rec weave kinds regs imms =
    match (kinds, regs, imms) with
    | [], [], [] -> []
    | C.Reg :: ks, v :: rs, is -> Term.const v :: weave ks rs is
    | C.Imm12 :: ks, rs, i :: is ->
        Term.const (Bv.of_int ~width:12 i) :: weave ks rs is
    | _ -> assert false
  in
  let sem_inputs = weave comp.C.inputs input_values imm_values in
  let expected =
    Term.eval
      (fun _ -> assert false)
      (comp.C.sem ~xlen sem_inputs (List.map Term.const attrs))
  in
  (* Concrete execution of the expansion. *)
  let dst = 10 in
  let temps = List.init comp.C.n_temps (fun i -> 20 + i) in
  let rec srcs kinds regs imms =
    match (kinds, regs, imms) with
    | [], [], [] -> []
    | C.Reg :: ks, r :: rs, is -> `Reg r :: srcs ks rs is
    | C.Imm12 :: ks, rs, i :: is -> `Imm i :: srcs ks rs is
    | _ -> assert false
  in
  let insns =
    comp.C.instantiate ~xlen ~dst
      ~srcs:(srcs comp.C.inputs input_regs imm_values)
      ~attrs ~temps
  in
  let st = Exec.create ~xlen ~mem_words:2 in
  List.iteri (fun i v -> Exec.set_reg st (i + 1) v) input_values;
  List.iter (Exec.exec st) insns;
  Bv.equal (Exec.reg st dst) expected

let component_props =
  List.map
    (fun comp ->
      QCheck.Test.make
        ~name:(Printf.sprintf "component %s: sem = expansion" comp.C.label)
        ~count:100
        (QCheck.make ~print:string_of_int QCheck.Gen.nat)
        (component_agrees comp))
    Synth.Library_.default

(* ---------------------------------------------------------------- *)
(* Multisets                                                         *)
(* ---------------------------------------------------------------- *)

let test_multiset_counts () =
  Alcotest.(check int) "((3 over 2))" 6
    (List.length (Synth.Multiset.combinations_with_replacement [ 1; 2; 3 ] 2));
  Alcotest.(check int) "count formula" 6 (Synth.Multiset.count 3 2);
  Alcotest.(check int) "paper: ((29 over 6))" 1344904
    (Synth.Multiset.count 29 6);
  Alcotest.(check int) "((30 over 3))" 4960 (Synth.Multiset.count 30 3);
  Alcotest.(check int) "up_to sizes" (3 + 6 + 10)
    (List.length (Synth.Multiset.up_to [ 1; 2; 3 ] 3))

let test_multiset_shuffle_deterministic () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check bool) "same seed same order" true
    (Synth.Multiset.shuffle ~seed:7 xs = Synth.Multiset.shuffle ~seed:7 xs);
  Alcotest.(check bool) "different seed different order" true
    (Synth.Multiset.shuffle ~seed:7 xs <> Synth.Multiset.shuffle ~seed:8 xs);
  Alcotest.(check int) "permutation" 100
    (List.length (List.sort_uniq compare (Synth.Multiset.shuffle ~seed:7 xs)))

(* ---------------------------------------------------------------- *)
(* Topologies                                                        *)
(* ---------------------------------------------------------------- *)

let test_topology_forbids_identity () =
  (* For spec ADD, the single-component multiset [ADD] must yield no
     skeleton (the paper's input constraint). *)
  let spec = Synth.Library_.spec "ADD" in
  let add = Synth.Library_.find "ADD" in
  Alcotest.(check int) "no self skeleton" 0
    (List.length (Synth.Topology.enumerate ~spec [ add ]));
  (* [SUB] for ADD is fine. *)
  let sub = Synth.Library_.find "SUB" in
  Alcotest.(check bool) "sub skeletons exist" true
    (Synth.Topology.enumerate ~spec [ sub ] <> [])

let test_topology_no_dead_lines () =
  let spec = Synth.Library_.spec "ADD" in
  let neg = Synth.Library_.find "NEG" and sub = Synth.Library_.find "SUB" in
  let sks = Synth.Topology.enumerate ~spec [ neg; sub ] in
  Alcotest.(check bool) "skeletons exist" true (sks <> []);
  List.iter
    (fun sk ->
      (* Every line except the last must feed a later line. *)
      let n = List.length sk.Synth.Topology.sk_lines in
      let used = Array.make n false in
      used.(n - 1) <- true;
      List.iter
        (fun (_, args) ->
          List.iter
            (function Synth.Program.Line j -> used.(j) <- true | _ -> ())
            args)
        sk.Synth.Topology.sk_lines;
      Alcotest.(check bool) "no dead line" true (Array.for_all Fun.id used))
    sks

(* ---------------------------------------------------------------- *)
(* CEGIS on known equivalences                                       *)
(* ---------------------------------------------------------------- *)

let stats = Synth.Cegis.mk_stats ()

let test_cegis_add_via_neg_sub () =
  let spec = Synth.Library_.spec "ADD" in
  let ms = [ Synth.Library_.find "NEG"; Synth.Library_.find "SUB" ] in
  let programs = Synth.Cegis.synthesize_multiset cfg ~spec ~multiset:ms stats in
  Alcotest.(check bool) "found a + b = a - (-b)" true (programs <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "verifies" true
        (Synth.Cegis.verify_equivalence cfg ~spec p stats))
    programs

let test_cegis_sub_listing2 () =
  (* SUB = NOT(NOT a + b): needs the attribute-free NOT twice plus ADD. *)
  let spec = Synth.Library_.spec "SUB" in
  let not_ = Synth.Library_.find "NOT" in
  let ms = [ not_; Synth.Library_.find "ADD"; not_ ] in
  let programs = Synth.Cegis.synthesize_multiset cfg ~spec ~multiset:ms stats in
  Alcotest.(check bool) "listing-2 shape found" true (programs <> [])

let test_cegis_xori_with_attr () =
  (* XOR a 0xFF via the DIC XORI with a solved attribute. *)
  let spec = Synth.Library_.spec "SUB" in
  let ms =
    [ Synth.Library_.find "XORI#"; Synth.Library_.find "ADD";
      Synth.Library_.find "XORI#" ]
  in
  let programs = Synth.Cegis.synthesize_multiset cfg ~spec ~multiset:ms stats in
  (* Only the low XLEN bits of the 12-bit immediate attribute matter at
     this width, and the ~x trick has exactly two realizations: all-ones
     (x ⊕ ones = ~x) and ones-below-the-sign-bit (x ⊕ 0x7f.. = ~x + msb,
     where the two msb offsets cancel through the ADD).  The engine
     verifies whichever the SAT model picks; accept both. *)
  let low_ones v =
    Bv.equal (Bv.extract ~hi:(xlen - 2) ~lo:0 v) (Bv.ones (xlen - 1))
  in
  Alcotest.(check bool) "programs found" true (programs <> []);
  Alcotest.(check bool) "attribute -1 solved" true
    (List.exists
       (fun p ->
         List.for_all
           (fun line ->
             match line.Synth.Program.attr_values with
             | [ v ] -> low_ones v
             | _ -> true)
           p.Synth.Program.lines)
       programs)

let test_cegis_rejects_wrong () =
  let spec = Synth.Library_.spec "ADD" in
  let ms = [ Synth.Library_.find "AND"; Synth.Library_.find "OR" ] in
  let programs = Synth.Cegis.synthesize_multiset cfg ~spec ~multiset:ms stats in
  Alcotest.(check (list string)) "and/or cannot make add" []
    (List.map Synth.Program.to_string programs)

(* The symbolic-location engine agrees with exhaustive enumeration on
   which multisets are productive. *)
let locsynth_agrees_with_enumeration =
  QCheck.Test.make ~name:"locsynth = enumeration (productivity)" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.nat)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let lib = Array.of_list Synth.Library_.default in
      let pick () = lib.(Random.State.int rng (Array.length lib)) in
      let ms = [ pick (); pick () ] in
      let case = List.nth [ "ADD"; "SUB"; "XOR"; "OR"; "AND" ] (seed mod 5) in
      let spec = Synth.Library_.spec case in
      let enumerated =
        Synth.Cegis.synthesize_multiset cfg ~spec ~multiset:ms stats <> []
      in
      let symbolic =
        let found, _ =
          Synth.Locsynth.synthesize ~config:cfg ~spec ~components:ms
            ~require_all_used:true ~max_programs:1 ~stats ()
        in
        found <> []
      in
      enumerated = symbolic)

(* Any program returned by the engines verifies against its spec. *)
let engines_sound =
  QCheck.Test.make ~name:"engine programs verify" ~count:4
    (QCheck.make ~print:Fun.id
       (QCheck.Gen.oneofl [ "ADD"; "SUB"; "XOR"; "AND" ]))
    (fun case ->
      let spec = Synth.Library_.spec case in
      let options =
        {
          Synth.Engine.default_options with
          Synth.Engine.k = 1;
          n_max = 2;
          min_components = 2;
          time_budget = Some 30.0;
          config = cfg;
        }
      in
      let r =
        Synth.Hpf.synthesize ~options ~spec ~library:Synth.Library_.default ()
      in
      List.for_all
        (fun p -> Synth.Cegis.verify_equivalence cfg ~spec p stats)
        r.Synth.Engine.programs)

(* ---------------------------------------------------------------- *)
(* HPF machinery                                                     *)
(* ---------------------------------------------------------------- *)

let test_priority_formula () =
  let weights = Hashtbl.create 8 in
  Hashtbl.replace weights "A" (3, 1);
  Hashtbl.replace weights "B" (1, 2);
  let mk label name =
    {
      C.label;
      name;
      cls = C.NIC;
      inputs = [];
      attrs = [];
      sem = (fun ~xlen:_ _ _ -> Term.tt);
      n_temps = 0;
      instantiate = (fun ~xlen:_ ~dst:_ ~srcs:_ ~attrs:_ ~temps:_ -> []);
    }
  in
  let a = mk "A" "ADD" and b = mk "B" "SUB" in
  (* priority = (c_A + c_B - alpha*chi) / (e_A + e_B); chi counts A (name
     ADD) against spec ADD. *)
  Alcotest.(check (float 1e-9)) "priority"
    ((3.0 +. 1.0 -. 1.0) /. 3.0)
    (Synth.Hpf.priority ~alpha:1 ~weights ~g_name:"ADD" [ a; b ]);
  Alcotest.(check (float 1e-9)) "priority no chi"
    (4.0 /. 3.0)
    (Synth.Hpf.priority ~alpha:1 ~weights ~g_name:"XOR" [ a; b ])

let test_brahma_small_library () =
  (* With a tiny library the classical encoding does synthesize. *)
  let spec = Synth.Library_.spec "ADD" in
  let library =
    [ Synth.Library_.find "NEG"; Synth.Library_.find "SUB" ]
  in
  let options =
    {
      Synth.Engine.default_options with
      Synth.Engine.time_budget = Some 60.0;
      config = cfg;
    }
  in
  let r = Synth.Brahma.synthesize ~options ~spec ~library in
  match r.Synth.Engine.programs with
  | p :: _ ->
      Alcotest.(check bool) "verifies" true
        (Synth.Cegis.verify_equivalence cfg ~spec p stats)
  | [] when r.Synth.Engine.budget_exhausted -> Alcotest.fail "budget exhausted"
  | [] -> Alcotest.fail "no program"

(* Every component of the classical query must take a line, and IMMIN's
   immediate input has nothing to read under an R-type specification:
   the engine leaves it out instead of refuting ADD without a search. *)
let test_brahma_skips_unfed_component () =
  let spec = Synth.Library_.spec "ADD" in
  let library = List.map Synth.Library_.find [ "NEG"; "SUB"; "IMMIN" ] in
  let options =
    {
      Synth.Engine.default_options with
      Synth.Engine.time_budget = Some 60.0;
      config = cfg;
    }
  in
  let r = Synth.Brahma.synthesize ~options ~spec ~library in
  match r.Synth.Engine.programs with
  | p :: _ ->
      Alcotest.(check bool) "verifies" true
        (Synth.Cegis.verify_equivalence cfg ~spec p stats)
  | [] when r.Synth.Engine.budget_exhausted -> Alcotest.fail "budget exhausted"
  | [] -> Alcotest.fail "no program"

(* to_insns round trip: compile a synthesized program and execute it. *)
let program_to_insns_roundtrip =
  QCheck.Test.make ~name:"program to_insns executes correctly" ~count:50
    (QCheck.make ~print:string_of_int QCheck.Gen.nat)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let spec = Synth.Library_.spec "ADD" in
      let ms = [ Synth.Library_.find "NEG"; Synth.Library_.find "SUB" ] in
      match Synth.Cegis.synthesize_multiset cfg ~spec ~multiset:ms stats with
      | [] -> false
      | p :: _ ->
          let a = Bv.random rng xlen and b = Bv.random rng xlen in
          let insns =
            Synth.Program.to_insns ~xlen p ~dst:10
              ~inputs:[ `Reg 1; `Reg 2 ]
              ~temps:[ 20; 21; 22; 23 ]
          in
          let st = Exec.create ~xlen ~mem_words:2 in
          Exec.set_reg st 1 a;
          Exec.set_reg st 2 b;
          List.iter (Exec.exec st) insns;
          Bv.equal (Exec.reg st 10) (Bv.add a b))

(* ---------------------------------------------------------------- *)
(* Locsynth refutation probe                                         *)
(* ---------------------------------------------------------------- *)

(* Before building a multiset's full session, Locsynth checks the
   encoding over the two random seed examples alone and stops on UNSAT.
   A multiset the probe passes runs the full session unchanged, so both
   engines must return exactly the programs (in order) and try exactly
   the multisets they did before the probe existed.  The lists are what
   a build without the probe returns under the same SAT solver: the
   solver's search decides which programs come first. *)
let test_probe_keeps_programs () =
  let options =
    {
      Synth.Engine.default_options with
      Synth.Engine.k = 2;
      seed = 1;
      time_budget = None;
      config = { Synth.Cegis.default_config with Synth.Cegis.xlen = 4 };
    }
  in
  let library = Synth.Library_.default in
  let check name (r : Synth.Engine.result) multisets programs =
    Alcotest.(check int) (name ^ ": multisets tried") multisets
      r.Synth.Engine.stats.Synth.Cegis.multisets_tried;
    Alcotest.(check (list string)) (name ^ ": programs") programs
      (List.map Synth.Program.to_string r.Synth.Engine.programs)
  in
  let hpf case =
    Synth.Hpf.synthesize ~options ~spec:(Synth.Library_.spec case) ~library ()
  in
  let iterative case =
    Synth.Iterative.synthesize ~options ~spec:(Synth.Library_.spec case)
      ~library
  in
  check "hpf SUB" (hpf "SUB") 98
    [
      "t0 = SLTIU##0(in1); t1 = MULC#15(in1); t2 = ADD3(t0, in0, t1)";
      "t0 = SLTIU##0(in0); t1 = MULC#15(in1); t2 = ADD3(t0, in0, t1)";
      "t0 = SLTIU##0(in1); t1 = MULC#15(in1); t2 = ADD3(in0, t0, t1)";
      "t0 = SLTIU##0(in0); t1 = MULC#15(in1); t2 = ADD3(in0, t0, t1)";
    ];
  check "iterative SUB" (iterative "SUB") 460
    [
      "t0 = MULC#15(in1); t1 = ADD(in0, t0)";
      "t0 = MULC#15(in1); t1 = ADD(t0, in0)";
      "t0 = NOT(in1); t1 = ADDI##1(t0); t2 = ADD(t1, in0)";
      "t0 = NOT(in1); t1 = ADDI##1(in0); t2 = ADD(t1, t0)";
      "t0 = ADDI##1(in0); t1 = NOT(in1); t2 = ADD(t1, t0)";
      "t0 = NOT(in1); t1 = ADD(in0, t0); t2 = ADDI##1(t1)";
    ];
  check "hpf OR" (hpf "OR") 138
    [
      "t0 = ANDN(in0, in1); t1 = ANDN(t0, in1); t2 = XOR(t1, in1)";
      "t0 = ANDN(in1, in0); t1 = ANDN(t0, in0); t2 = XOR(t1, in0)";
      "t0 = ANDN(in1, in0); t1 = ANDN(in0, t0); t2 = XOR(t0, t1)";
      "t0 = ANDN(in0, in1); t1 = ANDN(in1, t0); t2 = XOR(t0, t1)";
    ];
  check "iterative OR" (iterative "OR") 106
    [
      "t0 = ANDN(in0, in1); t1 = ANDN(in1, in1); t2 = ADD3(in1, t1, t0)";
      "t0 = ANDN(in0, in1); t1 = ANDN(in0, in0); t2 = ADD3(in1, t1, t0)";
      "t0 = ANDN(in0, in0); t1 = ANDN(in0, in1); t2 = ADD3(in1, t1, t0)";
      "t0 = ANDN(in1, in1); t1 = ANDN(in0, in1); t2 = ADD3(in1, t1, t0)";
    ]

(* ADD cannot be built from AND and OR, and the two random seed examples
   already show it: the probe's single check refutes the multiset, and
   the full session is never built. *)
let test_probe_refutes () =
  let module Metrics = Sqed_obs.Metrics in
  let was_enabled = !Metrics.enabled in
  Metrics.enabled := true;
  Fun.protect ~finally:(fun () -> Metrics.enabled := was_enabled)
  @@ fun () ->
  let spec = Synth.Library_.spec "ADD" in
  let ms = [ Synth.Library_.find "AND"; Synth.Library_.find "OR" ] in
  let st = Synth.Cegis.mk_stats () in
  let refuted0 = Metrics.find_counter "synth.probe_refuted" in
  let found, outcome =
    Synth.Locsynth.synthesize ~config:cfg ~spec ~components:ms
      ~require_all_used:true ~max_programs:1 ~stats:st ()
  in
  Alcotest.(check (list string)) "no program" []
    (List.map Synth.Program.to_string found);
  Alcotest.(check bool) "complete" true (outcome = Synth.Locsynth.Complete);
  Alcotest.(check int) "probe refuted it" 1
    (Metrics.find_counter "synth.probe_refuted" - refuted0);
  Alcotest.(check int) "one check: the probe's" 1
    st.Synth.Cegis.solver_calls;
  Alcotest.(check int) "one iteration" 1 st.Synth.Cegis.cegis_iterations;
  Alcotest.(check int) "one multiset" 1 st.Synth.Cegis.multisets_tried

(* Synthesis reads its limits from the calling domain's budget: a
   cancelled one, or a zero time budget, ends every engine with
   [budget_exhausted] and nothing raised. *)
let test_engines_stop_on_budget () =
  let module Budget = Sqed_resil.Budget in
  let spec = Synth.Library_.spec "SUB" in
  let library = Synth.Library_.default in
  let options time_budget =
    { Synth.Engine.default_options with Synth.Engine.k = 2; time_budget; config = cfg }
  in
  let cancelled () =
    let b = Budget.create ~deadline:(Unix.gettimeofday () +. 3600.0) () in
    Budget.cancel b;
    b
  in
  List.iter
    (fun (name, run) ->
      let r = Budget.with_current (cancelled ()) (fun () -> run (options None)) in
      Alcotest.(check bool) (name ^ ": cancelled budget") true
        r.Synth.Engine.budget_exhausted;
      let r = run (options (Some 0.0)) in
      Alcotest.(check bool) (name ^ ": zero time budget") true
        r.Synth.Engine.budget_exhausted)
    [
      ("hpf", fun options -> Synth.Hpf.synthesize ~options ~spec ~library ());
      ("iterative", fun options -> Synth.Iterative.synthesize ~options ~spec ~library);
      ("classical", fun options -> Synth.Brahma.synthesize ~options ~spec ~library);
    ];
  (* Inside one multiset the budget dies in the first encoding
     [assert_]: the session ends, it does not raise. *)
  let found, outcome =
    Budget.with_current (cancelled ()) (fun () ->
        Synth.Locsynth.synthesize ~config:cfg ~spec:(Synth.Library_.spec "ADD")
          ~components:[ Synth.Library_.find "NEG"; Synth.Library_.find "SUB" ]
          ~require_all_used:true ~max_programs:1 ~stats:(Synth.Cegis.mk_stats ())
          ())
  in
  Alcotest.(check int) "locsynth: no program" 0 (List.length found);
  Alcotest.(check bool) "locsynth: budget exhausted" true
    (outcome = Synth.Locsynth.Budget_exhausted)

let suite =
  [
    Alcotest.test_case "library composition" `Quick test_library_composition;
    Alcotest.test_case "multiset counts" `Quick test_multiset_counts;
    Alcotest.test_case "shuffle deterministic" `Quick
      test_multiset_shuffle_deterministic;
    Alcotest.test_case "topology forbids identity" `Quick
      test_topology_forbids_identity;
    Alcotest.test_case "topology no dead lines" `Quick
      test_topology_no_dead_lines;
    Alcotest.test_case "cegis add via neg/sub" `Quick test_cegis_add_via_neg_sub;
    Alcotest.test_case "cegis listing 2" `Quick test_cegis_sub_listing2;
    Alcotest.test_case "cegis solves attributes" `Quick test_cegis_xori_with_attr;
    Alcotest.test_case "cegis rejects wrong" `Quick test_cegis_rejects_wrong;
    Alcotest.test_case "priority formula" `Quick test_priority_formula;
    Alcotest.test_case "brahma small library" `Quick test_brahma_small_library;
    Alcotest.test_case "probe keeps the synthesized programs" `Quick
      test_probe_keeps_programs;
    Alcotest.test_case "probe refutes add from and/or" `Quick
      test_probe_refutes;
    Alcotest.test_case "engines stop on the calling domain's budget" `Quick
      test_engines_stop_on_budget;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      (component_props
      @ [
          locsynth_agrees_with_enumeration;
          engines_sound;
          program_to_insns_roundtrip;
        ])
  @ [
      Alcotest.test_case "brahma skips components the spec cannot feed" `Quick
        test_brahma_skips_unfed_component;
    ]
