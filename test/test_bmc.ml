(* End-to-end bounded-model-checking tests at the tiny configuration: the
   headline behaviours of the paper, checked as part of the test suite.
   These are the slowest tests in the repository (each runs a real BMC
   campaign through the full stack). *)

module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module V = Sepe_sqed.Verifier
module Engine = Sqed_bmc.Engine
module Trace = Sqed_bmc.Trace

let cfg = Config.tiny

let test_no_bug_clean () =
  (* Soundness: the unmutated core satisfies the property (both schemes). *)
  List.iter
    (fun method_ ->
      let r = V.run ~method_ ~bound:7 ~time_budget:300.0 cfg in
      Alcotest.(check bool)
        (V.method_name method_ ^ " clean")
        false (V.detected r))
    [ V.Sepe_sqed; V.Sqed ]

let test_sepe_detects_single () =
  let r =
    V.run ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10 ~time_budget:300.0
      cfg
  in
  Alcotest.(check bool) "detected" true (V.detected r);
  match V.trace r with
  | None -> Alcotest.fail "no trace"
  | Some t ->
      Alcotest.(check bool) "has original instructions" true
        (t.Trace.originals >= 1);
      Alcotest.(check bool) "inconsistent at the end" true
        (List.exists
           (fun s -> s.Trace.qed_ready && not s.Trace.consistent)
           t.Trace.steps);
      Alcotest.(check bool) "trace prints" true
        (String.length (Trace.to_string t) > 0)

let test_sqed_misses_single () =
  (* The same single-instruction bug, same depth: SQED proves consistency. *)
  let r =
    V.run ~bug:Bug.Bug_add ~method_:V.Sqed ~bound:8 ~time_budget:600.0 cfg
  in
  Alcotest.(check bool) "not detected" false (V.detected r);
  Alcotest.(check bool) "completed all bounds" true
    (match r.V.outcome with
    | Engine.No_counterexample -> true
    | Engine.Gave_up _ | Engine.Counterexample _ -> false)

let test_sepe_detects_multi () =
  let r =
    V.run ~bug:Bug.Bug_fwd_mem_rs1 ~method_:V.Sepe_sqed ~bound:10
      ~time_budget:300.0 cfg
  in
  Alcotest.(check bool) "forwarding bug detected" true (V.detected r)

let test_start_bound_same_result () =
  (* Skipping provably clean depths must not change the counterexample. *)
  let full =
    V.run ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10 ~time_budget:300.0
      cfg
  in
  let skipping =
    V.run ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10 ~start_bound:6
      ~time_budget:300.0 cfg
  in
  match (V.trace full, V.trace skipping) with
  | Some a, Some b ->
      Alcotest.(check int) "same depth" a.Trace.length b.Trace.length
  | _ -> Alcotest.fail "detection expected in both runs"

let test_replay_witness () =
  (* Every counterexample must replay concretely (witness validation). *)
  List.iter
    (fun (bug, method_) ->
      let r = V.run ~bug ~method_ ~bound:12 ~time_budget:300.0 cfg in
      match V.trace r with
      | None -> Alcotest.fail "expected a counterexample"
      | Some t ->
          let model =
            match method_ with
            | V.Sqed -> Sqed_qed.Qed_top.eddi ~bug cfg
            | V.Sepe_sqed -> Sqed_qed.Qed_top.edsep ~bug cfg
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s replays" (Bug.name bug)
               (V.method_name method_))
            true
            (Engine.replay model t))
    [
      (Bug.Bug_add, V.Sepe_sqed);
      (Bug.Bug_fwd_mem_rs1, V.Sepe_sqed);
      (Bug.Bug_load_use_stall, V.Sepe_sqed);
    ]

let test_focus () =
  (* Focusing the original stream on the mutated class is sound for
     witness queries: detection persists and the trace's originals are all
     of that class. *)
  let focus = Sqed_qed.Equiv_table.Kr Sqed_isa.Insn.ADD in
  let r =
    V.run ~bug:Bug.Bug_add ~focus ~method_:V.Sepe_sqed ~bound:10
      ~time_budget:300.0 cfg
  in
  match V.trace r with
  | None -> Alcotest.fail "focused query should still detect"
  | Some t ->
      List.iter
        (fun s ->
          match s.Trace.orig_instr with
          | Some (Sqed_isa.Insn.R (Sqed_isa.Insn.ADD, _, _, _)) | None -> ()
          | Some i ->
              Alcotest.fail
                ("non-ADD original in focused trace: "
                ^ Sqed_isa.Insn.to_string i))
        t.Trace.steps;
      let model = Sqed_qed.Qed_top.edsep ~bug:Bug.Bug_add ~focus cfg in
      Alcotest.(check bool) "focused witness replays" true
        (Engine.replay model t)

let test_shrink () =
  let bug = Bug.Bug_fwd_mem_rs1 in
  let r = V.run ~bug ~method_:V.Sepe_sqed ~bound:12 ~time_budget:300.0 cfg in
  match V.trace r with
  | None -> Alcotest.fail "expected detection"
  | Some t ->
      let model = Sqed_qed.Qed_top.edsep ~bug cfg in
      let s = Engine.shrink model t in
      Alcotest.(check bool) "no longer than original" true
        (s.Trace.length <= t.Trace.length);
      Alcotest.(check bool) "not more originals" true
        (s.Trace.originals <= t.Trace.originals);
      Alcotest.(check bool) "shrunk trace replays" true
        (Engine.replay model s)

let test_three_stage_core () =
  (* Microarchitecture independence: the unchanged QED layer verifies the
     3-stage core — SEPE-SQED detects the uniform ADD bug, SQED stays
     blind, and the unmutated core is clean. *)
  let core = Sqed_qed.Qed_top.Three_stage in
  let clean = V.run ~core ~method_:V.Sepe_sqed ~bound:8 ~time_budget:300.0 cfg in
  Alcotest.(check bool) "3-stage clean" false (V.detected clean);
  let sepe =
    V.run ~core ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10
      ~time_budget:300.0 cfg
  in
  Alcotest.(check bool) "3-stage sepe detects" true (V.detected sepe);
  let sqed =
    V.run ~core ~bug:Bug.Bug_add ~method_:V.Sqed ~bound:8 ~time_budget:600.0
      cfg
  in
  Alcotest.(check bool) "3-stage sqed blind" false (V.detected sqed)

let test_bad_persistence () =
  (* A violated state stays violated under idle inputs, so a cex at depth d
     extends to any deeper bound; Table 1 relies on this to use single
     deep queries in both directions. *)
  let shallow =
    V.run ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10 ~time_budget:300.0
      cfg
  in
  let d =
    match V.trace shallow with
    | Some t -> t.Trace.length
    | None -> Alcotest.fail "expected detection"
  in
  let deep =
    V.run ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:(d + 3)
      ~start_bound:(d + 3) ~time_budget:300.0 cfg
  in
  (match V.trace deep with
  | Some t -> Alcotest.(check int) "single deep query hits" (d + 3) t.Trace.length
  | None -> Alcotest.fail "cex did not persist to the deeper bound");
  (* And the clean direction: SQED single deep query stays clean. *)
  let sqed =
    V.run ~bug:Bug.Bug_add ~method_:V.Sqed ~bound:d ~start_bound:d
      ~time_budget:600.0 cfg
  in
  Alcotest.(check bool) "sqed single-query clean" false (V.detected sqed)

let test_kinduction_no_bug () =
  (* The engine's behaviour on the real model: the no-bug EDSEP property is
     not expected to be inductive at tiny k (its invariant involves
     reachability of the commit counters), but it must never return a
     base-case counterexample. *)
  let model = Sqed_qed.Qed_top.edsep cfg in
  let outcome, _ = Engine.prove ~max_k:2 ~time_budget:240.0 model in
  match outcome with
  | Engine.Base_cex _ -> Alcotest.fail "no-bug model produced a base cex"
  | Engine.Proved _ | Engine.Not_inductive _ | Engine.Proof_gave_up _ -> ()

let test_kinduction_base_cex () =
  (* With a detectable bug the base case must surface the counterexample. *)
  let model = Sqed_qed.Qed_top.edsep ~bug:Bug.Bug_add cfg in
  let outcome, _ = Engine.prove ~max_k:10 ~time_budget:240.0 model in
  match outcome with
  | Engine.Base_cex t ->
      Alcotest.(check bool) "cex depth sane" true (t.Trace.length >= 5)
  | Engine.Proved k ->
      Alcotest.fail (Printf.sprintf "claimed proved at k=%d with a bug" k)
  | Engine.Not_inductive _ | Engine.Proof_gave_up _ ->
      Alcotest.fail "expected the base case to find the bug"

(* Reference extraction: one [Solver.model_value] call per output, input
   and register, each with a fresh memo table. *)
let reference_trace model u solver depth =
  let module Solver = Sqed_smt.Solver in
  let module Unroll = Sqed_rtl.Unroll in
  let bool_of bv = not (Sqed_bv.Bv.is_zero bv) in
  let value_out step name =
    Solver.model_value solver (Unroll.output u ~step name)
  in
  let steps =
    List.init depth (fun t ->
        let core_valid = bool_of (value_out t "core_valid") in
        let consumed = bool_of (value_out t "consumed") in
        let is_orig = bool_of (value_out t "is_orig") in
        let core_instr =
          if core_valid then Sqed_isa.Encode.decode (value_out t "core_instr")
          else None
        in
        {
          Trace.cycle = t;
          orig_instr = (if consumed && is_orig then core_instr else None);
          core_instr = (if consumed then core_instr else None);
          is_orig;
          stall = bool_of (value_out t "stall");
          qed_ready = bool_of (value_out t "qed_ready");
          consistent = bool_of (value_out t "consistent");
          raw_inputs =
            List.map
              (fun (name, _) ->
                (name, Solver.model_value solver (Unroll.input u ~step:t name)))
              (Sqed_rtl.Circuit.inputs model.Sqed_qed.Qed_top.circuit);
        })
  in
  let consumed = List.filter (fun s -> s.Trace.core_instr <> None) steps in
  {
    Trace.steps;
    length = depth;
    instructions = List.length consumed;
    originals = List.length (List.filter (fun s -> s.Trace.is_orig) consumed);
    final_regs =
      List.init (cfg.Config.nregs - 1) (fun i ->
          ( i + 1,
            Solver.model_value solver
              (Unroll.reg_at u ~step:(depth - 1)
                 (Printf.sprintf "x%d" (i + 1))) ));
    initial_state =
      List.map
        (fun (name, w) ->
          (name, Solver.model_value solver (Sqed_smt.Term.var name w)))
        (Unroll.init_vars u);
  }

let test_extract_trace_shared_eval () =
  (* One Bug_add cell, solved depth by depth as [Engine.check] does; at
     the first SAT depth the shared-evaluator extraction must equal the
     per-read reference field by field, and replay. *)
  let module Solver = Sqed_smt.Solver in
  let module Term = Sqed_smt.Term in
  let module Unroll = Sqed_rtl.Unroll in
  let model = Sqed_qed.Qed_top.edsep ~bug:Bug.Bug_add cfg in
  let solver = Solver.create () in
  let u = Unroll.create model.Sqed_qed.Qed_top.circuit in
  List.iter
    (fun (_, t) -> Solver.assert_ solver t)
    (Sqed_qed.Qed_top.init_assumptions model);
  let rec first_sat k =
    if k > 10 then Alcotest.fail "no counterexample up to depth 10";
    Unroll.extend_to u k;
    Solver.assert_ solver
      (Term.eq (Unroll.output u ~step:(k - 1) "assume_ok") Term.tt);
    let bad = Term.eq (Unroll.output u ~step:(k - 1) "bad") Term.tt in
    match Solver.check ~assumptions:[ bad ] solver with
    | Solver.Sat -> k
    | Solver.Unsat ->
        Solver.assert_ solver (Term.not_ bad);
        first_sat (k + 1)
    | Solver.Unknown -> Alcotest.fail "unknown"
  in
  let depth = first_sat 1 in
  let got = Engine.extract_trace model u solver depth in
  let want = reference_trace model u solver depth in
  let bv = Alcotest.testable Sqed_bv.Bv.pp Sqed_bv.Bv.equal in
  let insn =
    Alcotest.(option (testable Sqed_isa.Insn.pp Sqed_isa.Insn.equal))
  in
  let named = Alcotest.(list (pair string bv)) in
  Alcotest.(check int) "length" want.Trace.length got.Trace.length;
  Alcotest.(check int) "instructions" want.Trace.instructions
    got.Trace.instructions;
  Alcotest.(check int) "originals" want.Trace.originals got.Trace.originals;
  Alcotest.(check (list (pair int bv)))
    "final_regs" want.Trace.final_regs got.Trace.final_regs;
  Alcotest.check named "initial_state" want.Trace.initial_state
    got.Trace.initial_state;
  Alcotest.(check int) "steps" (List.length want.Trace.steps)
    (List.length got.Trace.steps);
  List.iter2
    (fun w g ->
      let at f = Printf.sprintf "cycle %d %s" w.Trace.cycle f in
      Alcotest.(check int) (at "cycle") w.Trace.cycle g.Trace.cycle;
      Alcotest.check insn (at "orig_instr") w.Trace.orig_instr
        g.Trace.orig_instr;
      Alcotest.check insn (at "core_instr") w.Trace.core_instr
        g.Trace.core_instr;
      Alcotest.(check bool) (at "is_orig") w.Trace.is_orig g.Trace.is_orig;
      Alcotest.(check bool) (at "stall") w.Trace.stall g.Trace.stall;
      Alcotest.(check bool) (at "qed_ready") w.Trace.qed_ready
        g.Trace.qed_ready;
      Alcotest.(check bool) (at "consistent") w.Trace.consistent
        g.Trace.consistent;
      Alcotest.check named (at "raw_inputs") w.Trace.raw_inputs
        g.Trace.raw_inputs)
    want.Trace.steps got.Trace.steps;
  Alcotest.(check bool) "replays" true (Engine.replay model got)

let test_gave_up_on_tiny_budget () =
  let r =
    Sqed_resil.Budget.within ~max_conflicts:100 (fun () ->
        V.run ~bug:Bug.Bug_add ~method_:V.Sqed ~bound:12 cfg)
  in
  Alcotest.(check bool) "gave up" true
    (match r.V.outcome with Engine.Gave_up _ -> true | _ -> false)

let test_gave_up_depth_is_exact () =
  (* [Gave_up k] means every depth below k is clean and depth k is not
     settled, so a budget that ends after the last depth still leaves
     the full-bound verdict. *)
  let run ~cancel_after =
    V.run ~method_:V.Sepe_sqed ~bound:5 ~time_budget:600.0
      ~progress:(fun k _ ->
        if k = cancel_after then
          Sqed_resil.Budget.cancel (Sqed_resil.Budget.current ()))
      cfg
  in
  let r = run ~cancel_after:2 in
  Alcotest.(check bool) "cancelled after depth 2 of 5: gave up at 3" true
    (r.V.outcome = Engine.Gave_up 3);
  Alcotest.(check bool) "reason is the cancel" true
    (r.V.stats.Engine.gave_up = Some Sqed_resil.Budget.Cancelled);
  let r = run ~cancel_after:5 in
  Alcotest.(check bool) "cancelled after the last depth: clean" true
    (r.V.outcome = Engine.No_counterexample)

let test_synthesized_table_verifies () =
  (* Fig. 1 end to end: table from HPF-CEGIS, then detection with it. *)
  let options =
    {
      Sqed_synth.Engine.default_options with
      Sqed_synth.Engine.k = 1;
      min_components = 2;
      time_budget = Some 60.0;
      config =
        { Sqed_synth.Cegis.default_config with Sqed_synth.Cegis.xlen = cfg.Config.xlen };
    }
  in
  (* A crashed synthesis task counts as failed, and ADD keeps its
     built-in template. *)
  Sqed_resil.Fault.configure "pool.task:1";
  let table, _, summary =
    Fun.protect ~finally:Sqed_resil.Fault.reset (fun () ->
        Sepe_sqed.Flow.synthesize_table ~options ~cases:[ "ADD" ] cfg)
  in
  Alcotest.(check int) "crashed case counts as failed" 1
    summary.Sqed_resil.Verdict.failed;
  let add = Sqed_qed.Equiv_table.Kr Sqed_isa.Insn.ADD in
  Alcotest.(check bool) "ADD keeps its builtin entry" true
    (Sqed_qed.Equiv_table.lookup table add
    = Sqed_qed.Equiv_table.lookup (Sepe_sqed.Flow.builtin_table cfg) add);
  let table, cases, summary =
    Sepe_sqed.Flow.synthesize_table ~options ~cases:[ "ADD" ] cfg
  in
  Alcotest.(check int) "one case" 1 (List.length cases);
  Alcotest.(check int) "clean campaign" 1 summary.Sqed_resil.Verdict.ok;
  let r =
    V.run ~bug:Bug.Bug_add ~table ~method_:V.Sepe_sqed ~bound:12
      ~time_budget:300.0 cfg
  in
  Alcotest.(check bool) "bug detected with synthesized table" true
    (V.detected r)

let suite =
  [
    Alcotest.test_case "no bug: both schemes clean" `Slow test_no_bug_clean;
    Alcotest.test_case "sepe detects single bug" `Slow test_sepe_detects_single;
    Alcotest.test_case "sqed misses single bug" `Slow test_sqed_misses_single;
    Alcotest.test_case "sepe detects multi bug" `Slow test_sepe_detects_multi;
    Alcotest.test_case "start_bound equivalence" `Slow
      test_start_bound_same_result;
    Alcotest.test_case "witness replay" `Slow test_replay_witness;
    Alcotest.test_case "three-stage core" `Slow test_three_stage_core;
    Alcotest.test_case "bad persistence" `Slow test_bad_persistence;
    Alcotest.test_case "cex shrinking" `Slow test_shrink;
    Alcotest.test_case "class focus" `Slow test_focus;
    Alcotest.test_case "k-induction no-bug" `Slow test_kinduction_no_bug;
    Alcotest.test_case "k-induction base cex" `Slow test_kinduction_base_cex;
    Alcotest.test_case "budget exhaustion" `Quick test_gave_up_on_tiny_budget;
    Alcotest.test_case "gave-up depth is the first unsettled one" `Quick
      test_gave_up_depth_is_exact;
    Alcotest.test_case "shared-evaluator trace extraction" `Slow
      test_extract_trace_shared_eval;
    Alcotest.test_case "synthesized table verifies" `Slow
      test_synthesized_table_verifies;
  ]
