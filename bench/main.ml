(* Experiment harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's experiment index), plus Bechamel
   micro-benchmarks of the substrates.

     dune exec bench/main.exe                 -- everything (E1-E4 + micro)
     dune exec bench/main.exe -- fig3         -- one experiment
     dune exec bench/main.exe -- table1 --fast --jobs 4

   Wall-clock seconds are reported for the heavyweight experiments (each
   cell is one solver campaign, not a repeatable microbenchmark); micro
   uses Bechamel's OLS estimator.

   The synthesis campaign (fig3) and the per-bug BMC campaign (table1)
   fan their independent cells out over a Sqed_par.Pool of --jobs worker
   domains (default: the SEPE_JOBS environment knob, then the machine's
   core count).  Cells are fully independent (each owns its solvers and
   its domain-local term universe), so results are identical for every
   jobs value; only the wall clock changes.

   A machine-readable summary of every experiment run is written to
   BENCH_sepe.json (--json PATH overrides the location). *)

module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module V = Sepe_sqed.Verifier
module Synth = Sqed_synth
module Trace = Sqed_bmc.Trace
module Pool = Sqed_par.Pool
module Metrics = Sqed_obs.Metrics
module Span = Sqed_obs.Trace

module Journal = Sqed_resil.Journal
module Verdict = Sqed_resil.Verdict
module Obs_log = Sqed_obs.Log
module Sampler = Sqed_obs.Sampler
module Progress = Sqed_obs.Progress
module Report = Sqed_obs.Report
module Solver = Sqed_smt.Solver

let fast = ref false
let jobs = ref 0 (* 0 = Pool.default_jobs () *)
let json_path = ref "BENCH_sepe.json"
let metrics_on = ref true (* --no-metrics opts out *)
let trace_path = ref None
let metrics_json_path = ref None
let log_path = ref None (* --log FILE|-: JSONL event log *)
let report_path = ref None (* --report FILE: HTML report + run.json *)
let checkpoint = ref None (* --checkpoint FILE: journal + resume fig3/table1 *)
let ledger_path = ref None (* --ledger FILE: append this run to the ledger *)
let baseline_path = ref None (* --baseline FILE: gate against ledger history *)
let baseline_window = ref 20 (* --baseline-window N: history entries used *)
let baseline_k = ref 4.0 (* --baseline-k K: MAD multiplier of the band *)

(* --handicap F: sleep F x the measured wall inside every experiment
   timer, inflating br_wall deterministically.  Exists purely to let CI
   demonstrate the regression sentinel trips: a handicapped run against
   an honest baseline must exit with the regression code. *)
let handicap = ref 0.0

(* --no-simplify, --portfolio K, --portfolio-deterministic: collected
   while parsing, then installed once as the run-wide solver config. *)
let solver_config = ref Solver.default_config

let line = String.make 72 '-'

(* Aggregated campaign verdicts across every experiment run this
   invocation; a degraded campaign turns into a nonzero exit at the end
   (after the JSON/trace artifacts are written). *)
let campaign = ref Verdict.empty

let note_summary s = campaign := Verdict.add !campaign s

let section title = Printf.printf "\n%s\n%s\n%s\n%!" line title line

let jobs_used () = if !jobs > 0 then !jobs else Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* Machine-readable results: one record per experiment run             *)
(* ------------------------------------------------------------------ *)

type bench_record = {
  br_name : string;
  br_wall : float;  (** wall-clock seconds for the whole experiment *)
  br_clauses : int;  (** problem clauses across all solver instances *)
  br_conflicts : int;  (** SAT conflicts across all solver instances *)
}

let records : bench_record list ref = ref []

module Json = Sqed_obs.Json
module History = Sqed_obs.History
module Diff = Sqed_obs.Diff

(* The solver-configuration stamp: two runs are only comparable when
   these knobs match, so the ledger carries them in provenance and the
   sentinel filters its baseline through them. *)
let config_json () =
  Sqed_exp.Provenance.config ~jobs:(jobs_used ()) ~fast:!fast

let bench_payload () =
  let experiments =
    List.rev_map
      (fun r ->
        Json.Obj
          [
            ("name", Json.String r.br_name);
            ("wall_s", Json.Float r.br_wall);
            ("clauses", Json.Int r.br_clauses);
            ("conflicts", Json.Int r.br_conflicts);
          ])
      !records
  in
  Json.Obj
    (config_json ()
    @ [
        ("experiments", Json.List experiments);
        ("metrics", Metrics.to_json ());
      ])

let write_json payload =
  let oc = open_out !json_path in
  output_string oc (Json.to_string payload);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n%!" !json_path

(* Run one experiment inside a span, attributing the global SAT clause and
   conflict counters to it by delta.  The registry aggregates across every
   solver instance on every domain, which is what makes the totals real —
   synthesis experiments burn their SAT work inside per-candidate solvers
   that are discarded immediately.  The record is written (and the span
   closed) even if the experiment raises. *)
let timed name f =
  let t0 = Unix.gettimeofday () in
  let c0 = Metrics.find_counter "sat.clauses" in
  let k0 = Metrics.find_counter "sat.conflicts" in
  Fun.protect
    ~finally:(fun () ->
      (* Deliberate slowdown for sentinel testing: stretch the wall by
         the handicap factor before the record is cut. *)
      if !handicap > 0.0 then
        Unix.sleepf (!handicap *. (Unix.gettimeofday () -. t0));
      records :=
        {
          br_name = name;
          br_wall = Unix.gettimeofday () -. t0;
          br_clauses = Metrics.find_counter "sat.clauses" - c0;
          br_conflicts = Metrics.find_counter "sat.conflicts" - k0;
        }
        :: !records)
    (fun () -> Span.with_span_named ~cat:"bench" ("bench." ^ name) f)

(* ------------------------------------------------------------------ *)
(* E1 / Fig. 3: synthesis time, HPF-CEGIS vs iterative CEGIS           *)
(* ------------------------------------------------------------------ *)

(* The experiment itself lives in Sqed_exp.Fig3, shared with the
   `sepe fig3` subcommand; the bench keeps the witness phase off so the
   workload matches earlier bench runs. *)
let fig3 () =
  note_summary
    (Sqed_exp.Fig3.run ~fast:!fast ~jobs:(jobs_used ()) ~witness:false
       ?checkpoint:!checkpoint ())

(* ------------------------------------------------------------------ *)
(* E2 / Table 1: injected single-instruction bugs                      *)
(* ------------------------------------------------------------------ *)

let bug_config bug base =
  if Bug.needs_m bug then { base with Config.ext_m = true } else base

let sepe_min_depth cfg bug =
  match V.min_cex_depth ~method_:V.Sepe_sqed ~bug cfg with
  | Some d -> d
  | None -> 1

let table1_focus bug =
  Option.bind (Bug.table1_row bug) (fun row ->
      match
        List.find_opt (fun op -> Sqed_isa.Insn.rop_name op = row)
          Sqed_isa.Insn.all_rops
      with
      | Some op -> Some (Sqed_qed.Equiv_table.Kr op)
      | None -> (
          match
            List.find_opt (fun op -> Sqed_isa.Insn.iop_name op = row)
              Sqed_isa.Insn.all_iops
          with
          | Some op -> Some (Sqed_qed.Equiv_table.Ki op)
          | None -> if row = "SW" then Some Sqed_qed.Equiv_table.Ksw else None))

let table1 () =
  section
    "Table 1 - injected single-instruction bugs\n\
     (SEPE-SQED detects each; SQED, checked at the same depth with more \
     time, reports nothing)";
  let base = Config.tiny in
  let budget = if !fast then 120.0 else 600.0 in
  Printf.printf
    "core: %s (+m for MULH); budget %.0fs/cell.\n\
     The [bad] state is persistent (idle inputs freeze a violated state),\n\
     so one SAT query at depth D witnesses the bug and one UNSAT query at\n\
     depth D covers every depth <= D.\n\n"
    (Config.to_string base) budget;
  Printf.printf "%-6s | %-42s | %-16s | %s\n" "Type" "Function" "SEPE-SQED"
    "SQED";
  Printf.printf "%s\n" line;
  (* One pool task per injected bug; each task runs the full SEPE-SQED
     cell then its SQED control sequentially (the SQED budget depends on
     the SEPE trace).  Rows print in table order once all bugs finish. *)
  let run_bug bug =
      let cfg = bug_config bug base in
      let min_depth = sepe_min_depth cfg bug in
      (* Short equivalent sequences: incremental sweep from just below the
         class minimum (finds the shortest trace; the intermediate UNSAT
         depths are cheap).  Long sequences (MULH): one SAT query above
         the minimum, avoiding the expensive deep UNSAT sweep — sound by
         bad-persistence. *)
      (* Witness (SAT) queries may soundly focus the original-instruction
         stream on the mutated class. *)
      let focus = table1_focus bug in
      let sepe =
        if min_depth <= 10 then
          V.run ~bug ?focus ~method_:V.Sepe_sqed ~bound:(min_depth + 4)
            ~start_bound:(max 1 (min_depth - 2))
            ~time_budget:budget cfg
        else
          (* The witness query for a 7-instruction sequence over the
             multiplier is the hardest cell of the table (the paper's
             slowest row too); start exactly at the class minimum and
             give it a triple budget. *)
          V.run ~bug ?focus ~method_:V.Sepe_sqed ~bound:(min_depth + 4)
            ~start_bound:min_depth ~time_budget:(3.0 *. budget) cfg
      in
      let sepe_cell, sqed_bound, sqed_budget =
        match V.trace sepe with
        | Some t ->
            ( Printf.sprintf "%.2fs (d%s%d)"
                sepe.V.stats.Sqed_bmc.Engine.solve_time
                (if min_depth <= 10 then "=" else "<=")
                t.Trace.length,
              (* Cap the SQED sweep at a comparable shallow depth; beyond
                 the class minimum EDDI UNSAT proofs explode and add no
                 information. *)
              min t.Trace.length 9,
              Float.max 180.0 (3.0 *. sepe.V.stats.Sqed_bmc.Engine.solve_time)
            )
        | None -> (V.outcome_to_string sepe, 8, budget)
      in
      let sqed =
        V.run ~bug ~method_:V.Sqed ~bound:sqed_bound ~start_bound:6
          ~time_budget:sqed_budget cfg
      in
      let sqed_cell =
        if V.detected sqed then
          Printf.sprintf "DETECTED?! %.2fs"
            sqed.V.stats.Sqed_bmc.Engine.solve_time
        else
          match sqed.V.outcome with
          | Sqed_bmc.Engine.No_counterexample ->
              Printf.sprintf "-  (clean to d=%d)" sqed_bound
          | Sqed_bmc.Engine.Gave_up k ->
              let why =
                match sqed.V.stats.Sqed_bmc.Engine.gave_up with
                | Some r -> Sqed_resil.Budget.string_of_reason r
                | None -> "budget"
              in
              Printf.sprintf "-  (%s at d=%d)" why k
          | Sqed_bmc.Engine.Counterexample _ -> assert false
      in
      Printf.sprintf "%-6s | %-42s | %-16s | %s"
        (match Bug.table1_row bug with Some r -> r | None -> "?")
        (Bug.describe bug) sepe_cell sqed_cell
  in
  let bugs =
    if !fast then [ Bug.Bug_add; Bug.Bug_xor; Bug.Bug_sw ]
    else Bug.all_single
  in
  (* Supervised fan-out with checkpoint/resume, like fig3: journaled rows
     are reprinted verbatim, a failed bug degrades to one marked row. *)
  let key bug = "table1/" ^ Bug.name bug in
  let journal = Option.map Journal.open_ !checkpoint in
  let resumed_rows =
    match journal with
    | None -> []
    | Some j ->
        List.filter_map
          (fun bug ->
            Option.map
              (fun row -> (bug, row))
              (Option.bind (Journal.find j (key bug))
                 Sqed_obs.Json.to_string_opt))
          bugs
  in
  if resumed_rows <> [] then
    Printf.printf "checkpoint: resuming, %d of %d rows already journaled\n%!"
      (List.length resumed_rows) (List.length bugs);
  let to_run =
    List.filter (fun bug -> not (List.mem_assoc bug resumed_rows)) bugs
  in
  let run_bug bug =
    let row = run_bug bug in
    (match journal with
    | Some j -> (
        match Journal.try_record j (key bug) (Sqed_obs.Json.String row) with
        | Ok () -> ()
        | Error msg ->
            Printf.printf "checkpoint: write failed for %s (%s); continuing\n%!"
              (key bug) msg)
    | None -> ());
    row
  in
  let outcomes =
    Progress.with_campaign ~task_budget:budget ~jobs:(jobs_used ())
      ~total:(List.length to_run) "table1" (fun () ->
        Pool.with_pool ~jobs:(jobs_used ()) (fun p ->
            Pool.map_result p run_bug to_run))
  in
  let computed = List.combine to_run outcomes in
  let verdicts =
    List.filter_map
      (fun bug ->
        match List.assoc_opt bug computed with
        | None ->
            Printf.printf "%s\n" (List.assoc bug resumed_rows);
            None
        | Some (Ok row) ->
            Printf.printf "%s\n" row;
            Some (Verdict.Ok ())
        | Some (Error (e : Pool.task_error)) ->
            let msg =
              Printf.sprintf "%s (attempts: %d)" e.Pool.error e.Pool.attempts
            in
            Printf.printf "%-6s | %-42s | %s\n"
              (match Bug.table1_row bug with Some r -> r | None -> "?")
              (Bug.describe bug)
              ((if e.Pool.exhausted then "UNKNOWN: " else "FAILED: ") ^ msg);
            Some (if e.Pool.exhausted then Verdict.Unknown msg
                  else Verdict.Failed msg))
      bugs
  in
  Option.iter Journal.close journal;
  let summary = Verdict.count ~skipped:(List.length resumed_rows) verdicts in
  if Verdict.degraded summary || summary.Verdict.skipped > 0 then
    Printf.printf "%s\n%!" (Verdict.summary_line summary);
  note_summary summary

(* ------------------------------------------------------------------ *)
(* E3 / Fig. 4: multiple-instruction bugs                              *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section
    "Fig. 4 - multiple-instruction bugs: detection time and counterexample \
     length,\nSQED vs SEPE-SQED (both detect; ratios > 1 favour SEPE-SQED)";
  let base = Config.tiny in
  let bound = 14 in
  let budget = if !fast then 180.0 else 900.0 in
  Printf.printf "core: %s; BMC bound %d; budget %.0fs/cell\n\n"
    (Config.to_string base) bound budget;
  Printf.printf "%-18s %14s %14s %9s %9s\n" "bug" "SQED s(len)" "SEPE s(len)"
    "t-ratio" "len-ratio";
  let cell r =
    match V.trace r with
    | Some t ->
        ( Printf.sprintf "%8.2f(%2d)" r.V.stats.Sqed_bmc.Engine.solve_time
            t.Trace.length,
          Some (r.V.stats.Sqed_bmc.Engine.solve_time, t.Trace.length) )
    | None ->
        ( (match r.V.outcome with
          | Sqed_bmc.Engine.Gave_up _ -> "  gave-up"
          | _ -> "    clean"),
          None )
  in
  let bugs =
    if !fast then [ Bug.Bug_fwd_mem_rs1; Bug.Bug_load_use_stall ]
    else Bug.all_multi
  in
  List.iter
    (fun bug ->
      let cfg = bug_config bug base in
      let sqed = V.run ~bug ~method_:V.Sqed ~bound ~time_budget:budget cfg in
      let sepe =
        V.run ~bug ~method_:V.Sepe_sqed ~bound ~time_budget:budget cfg
      in
      let c1, m1 = cell sqed and c2, m2 = cell sepe in
      let ratios =
        match (m1, m2) with
        | Some (t1, l1), Some (t2, l2) ->
            Printf.sprintf "%9.2f %9.2f" (t1 /. t2)
              (Float.of_int l1 /. Float.of_int l2)
        | _ -> ""
      in
      Printf.printf "%-18s %14s %14s %s\n%!" (Bug.name bug) c1 c2 ratios)
    bugs

(* ------------------------------------------------------------------ *)
(* E4: classical CEGIS fails within budget                             *)
(* ------------------------------------------------------------------ *)

let classical () =
  section
    "E4 - classical (whole-library) CEGIS baseline\n\
     (paper: failed to synthesize a single instruction after several weeks)";
  let budget = if !fast then 30.0 else 120.0 in
  let options =
    {
      Synth.Engine.default_options with
      Synth.Engine.time_budget = Some budget;
      config =
        {
          Synth.Cegis.default_config with
          Synth.Cegis.xlen = 8;
          max_conflicts = Some 500_000;
        };
    }
  in
  List.iter
    (fun case ->
      let spec = Synth.Library_.spec case in
      let outcome, stats, elapsed =
        Synth.Brahma.synthesize ~options ~spec ~library:Synth.Library_.default
      in
      Printf.printf "%-6s: %s after %.1fs (%d CEGIS iterations)\n%!" case
        (match outcome with
        | Synth.Brahma.Synthesized p ->
            "synthesized " ^ Synth.Program.to_string p
        | Synth.Brahma.Budget_exhausted -> "budget exhausted"
        | Synth.Brahma.No_program -> "no program")
        elapsed stats.Synth.Cegis.cegis_iterations)
    [ "SUB"; "XOR" ]

(* ------------------------------------------------------------------ *)
(* Ablation: which HPF mechanism buys what                             *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section
    "ablation - HPF-CEGIS mechanisms (DESIGN.md design choices)\n\
     alpha=0 drops the same-name penalty; the no-learning variant is the \
     shuffled iterative baseline restricted to size-3 multisets";
  let cases = [ "ADD"; "SUB"; "XOR"; "SLT" ] in
  let budget = if !fast then 60.0 else 180.0 in
  let options =
    {
      Synth.Engine.default_options with
      Synth.Engine.k = 3;
      n_max = 3;
      time_budget = Some budget;
      config = { Synth.Cegis.default_config with Synth.Cegis.xlen = 8 };
    }
  in
  Printf.printf "%-8s %14s %14s %14s\n" "case" "HPF a=1 (s)" "HPF a=0 (s)"
    "no-learn (s)";
  List.iter
    (fun case ->
      let spec = Synth.Library_.spec case in
      let t1 =
        (Synth.Hpf.synthesize ~alpha:1 ~options ~spec
           ~library:Synth.Library_.default ())
          .Synth.Engine.elapsed
      in
      let t0 =
        (Synth.Hpf.synthesize ~alpha:0 ~options ~spec
           ~library:Synth.Library_.default ())
          .Synth.Engine.elapsed
      in
      (* No-learning baseline: iterative CEGIS over the same fixed-size
         multiset pool (priorities never change <=> random order). *)
      let tn =
        (Synth.Iterative.synthesize ~options ~spec
           ~library:Synth.Library_.default)
          .Synth.Engine.elapsed
      in
      Printf.printf "%-8s %14.2f %14.2f %14.2f\n%!" case t1 t0 tn)
    cases

(* ------------------------------------------------------------------ *)
(* Cross-core: the same QED layer on a different microarchitecture     *)
(* ------------------------------------------------------------------ *)

let crosscore () =
  section
    "cross-core - microarchitecture independence: the unchanged QED layer\n\
     verifying a 3-stage core next to the 5-stage one (ADD mutation)";
  let cfg = Config.tiny in
  Printf.printf "%-22s %-24s %s\n" "core" "SEPE-SQED" "SQED";
  List.iter
    (fun (label, core) ->
      let sepe =
        V.run ~core ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10
          ~time_budget:600.0 cfg
      in
      let sqed =
        V.run ~core ~bug:Bug.Bug_add ~method_:V.Sqed ~bound:8
          ~time_budget:600.0 cfg
      in
      Printf.printf "%-22s %-24s %s\n%!" label
        (V.outcome_to_string sepe)
        (if V.detected sqed then "DETECTED?!" else "-"))
    [
      ("5-stage pipeline", Sqed_qed.Qed_top.Five_stage);
      ("3-stage pipeline", Sqed_qed.Qed_top.Three_stage);
    ]

(* ------------------------------------------------------------------ *)
(* Scaling: BMC cost vs datapath width                                 *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section
    "scaling - SEPE-SQED detection cost vs configuration size\n\
     (why the experiments run on scaled cores; see DESIGN.md)";
  let budget = if !fast then 120.0 else 900.0 in
  let cases =
    [
      ("tiny  (xlen=4,  8 regs)", Config.tiny);
      ("small (xlen=8, 16 regs)", Config.small);
    ]
    @ (if !fast then [] else [ ("wide  (xlen=16, 16 regs)",
                                { Config.small with Config.xlen = 16 }) ])
  in
  Printf.printf "%-26s %-12s %14s %10s\n" "config" "state bits"
    "detect add (s)" "depth";
  List.iter
    (fun (label, cfg) ->
      let model = Sqed_qed.Qed_top.edsep ~bug:Bug.Bug_add cfg in
      let stats_str =
        let c = model.Sqed_qed.Qed_top.circuit in
        List.fold_left
          (fun acc r -> acc + Sqed_rtl.Circuit.node_width c r)
          0
          (Sqed_rtl.Circuit.registers c)
      in
      let r =
        V.run ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10
          ~time_budget:budget cfg
      in
      let cell =
        match V.trace r with
        | Some t ->
            Printf.sprintf "%14.2f %10d" r.V.stats.Sqed_bmc.Engine.solve_time
              t.Trace.length
        | None -> Printf.sprintf "%14s %10s" "-" "-"
      in
      Printf.printf "%-26s %-12d %s\n%!" label stats_str cell)
    cases

(* ------------------------------------------------------------------ *)
(* Portfolio A/B: diversified CDCL workers on the hardest BMC query    *)
(* ------------------------------------------------------------------ *)

(* The hardest single BMC query in the suite is the table-1 MULH witness
   with the original-instruction stream left unconstrained (the table
   itself soundly focuses the stream on the mutated class, which is what
   keeps its cell cheap): one deep SAT query at the class-minimum depth,
   where single-engine solve time explodes with the unconstrained search
   space.  Both arms run the same cell on the same binary — width 1,
   then width K — and land in BENCH_sepe.json as portfolio/k1 and
   portfolio/kK next to the sat.portfolio.* counters. *)
let portfolio () =
  let run_config = Solver.config () in
  let k =
    if run_config.Solver.portfolio > 1 then run_config.Solver.portfolio
    else 4
  in
  section
    (Printf.sprintf
       "portfolio - %d diversified CDCL workers racing on the hardest BMC \
        query\n\
        (table-1 MULH witness, unfocused instruction stream; width 1 vs %d \
        on the same binary)"
       k k);
  let cfg = Config.tiny_m in
  let bug = Bug.Bug_mulh in
  let min_depth = sepe_min_depth cfg bug in
  let budget = if !fast then 600.0 else 1800.0 in
  Printf.printf "core: %s; witness query at depth %d; budget %.0fs/arm\n\n"
    (Config.to_string cfg) min_depth budget;
  let arm label width =
    Solver.set_config { run_config with Solver.portfolio = width };
    Fun.protect
      ~finally:(fun () -> Solver.set_config run_config)
      (fun () ->
        timed label (fun () ->
            let r =
              V.run ~bug ~method_:V.Sepe_sqed ~bound:min_depth
                ~start_bound:min_depth ~time_budget:budget cfg
            in
            Printf.printf "%-16s %s\n%!" label (V.outcome_to_string r)))
  in
  arm "portfolio/k1" 1;
  arm (Printf.sprintf "portfolio/k%d" k) k

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro-benchmarks of the substrates (Bechamel, OLS ns/run)";
  let open Bechamel in
  let sat_php () =
    let module Sat = Sqed_sat.Sat in
    let s = Sat.create () in
    let n = 5 in
    let p =
      Array.init n (fun _ -> Array.init (n - 1) (fun _ -> Sat.new_var s))
    in
    Array.iter
      (fun row -> Sat.add_clause s (Array.to_list (Array.map Sat.pos row)))
      p;
    for h = 0 to n - 2 do
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          Sat.add_clause s
            [ Sat.neg_of_var p.(i).(h); Sat.neg_of_var p.(j).(h) ]
        done
      done
    done;
    assert (Sat.solve s = Sat.Unsat)
  in
  let smt_adder () =
    let module Term = Sqed_smt.Term in
    let s = Solver.create () in
    let x = Term.var "mb_x" 16 and y = Term.var "mb_y" 16 in
    Solver.assert_ s (Term.distinct (Term.add x y) (Term.add y x));
    assert (Solver.check s = Solver.Unsat)
  in
  let sim_cycles =
    let c = Sqed_proc.Testbench.circuit Config.small in
    fun () ->
      let sim = Sqed_rtl.Sim.create c in
      let inputs =
        [
          ("instr", Sqed_isa.Encode.encode Sqed_isa.Insn.nop);
          ("instr_valid", Sqed_bv.Bv.one 1);
        ]
      in
      for _ = 1 to 20 do
        ignore (Sqed_rtl.Sim.cycle sim inputs)
      done
  in
  let topo_enum () =
    let spec = Synth.Library_.spec "SUB" in
    let ms =
      [
        Synth.Library_.find "NOT";
        Synth.Library_.find "ADD";
        Synth.Library_.find "NOT";
      ]
    in
    ignore (Synth.Topology.enumerate ~spec ms)
  in
  let bv_mul () =
    let module Bv = Sqed_bv.Bv in
    let a = Bv.of_int ~width:128 0x123456789 in
    let b = Bv.of_int ~width:128 987654321 in
    ignore (Bv.mul a b)
  in
  let tests =
    [
      Test.make ~name:"sat: pigeonhole 5/4 unsat" (Staged.stage sat_php);
      Test.make ~name:"smt: 16-bit adder comm proof" (Staged.stage smt_adder);
      Test.make ~name:"rtl: 20 pipeline sim cycles" (Staged.stage sim_cycles);
      Test.make ~name:"synth: topology enumeration" (Staged.stage topo_enum);
      Test.make ~name:"bv: 128-bit multiply" (Staged.stage bv_mul);
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.8) ~kde:(Some 500) ()
  in
  List.iter
    (fun test ->
      List.iter
        (fun t ->
          let m = Benchmark.run cfg [ instance ] t in
          let est = Analyze.one ols instance m in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
              Printf.printf "  %-32s %12.0f ns/run\n%!" (Test.Elt.name t) ns
          | _ -> Printf.printf "  %-32s (no estimate)\n%!" (Test.Elt.name t))
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* Flags: --fast, --jobs N, --json PATH, --no-metrics, --no-simplify,
     --portfolio K, --portfolio-deterministic, --trace PATH,
     --metrics-json PATH, --log PATH|-, --progress, --report PATH,
     --checkpoint FILE, --fault-inject SPEC, --ledger FILE,
     --baseline FILE, --baseline-window N, --baseline-k K,
     --handicap F; everything else names an experiment.  "-" for
     --trace/--metrics-json means stdout, for --log stderr. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--fast" :: rest ->
        fast := true;
        parse acc rest
    | "--no-simplify" :: rest ->
        (* A/B switch for the SAT core's CNF preprocessor; the
           sat.simplify.* counters in the JSON record the on-side. *)
        solver_config := { !solver_config with Solver.simplify = false };
        parse acc rest
    | "--portfolio" :: n :: rest -> (
        match int_of_string_opt n with
        | Some k when k > 0 ->
            (* Portfolio width for every solver the run creates; only
               deep BMC bounds actually engage it (the sat.portfolio.*
               counters in the JSON record how often). *)
            solver_config := { !solver_config with Solver.portfolio = k };
            parse acc rest
        | _ ->
            Printf.eprintf "--portfolio expects a positive integer, got %S\n" n;
            exit 1)
    | "--portfolio-deterministic" :: rest ->
        solver_config :=
          { !solver_config with Solver.portfolio_deterministic = true };
        parse acc rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some k when k > 0 ->
            jobs := k;
            parse acc rest
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 1)
    | "--json" :: path :: rest ->
        json_path := path;
        parse acc rest
    | "--no-metrics" :: rest ->
        metrics_on := false;
        parse acc rest
    | "--trace" :: path :: rest ->
        trace_path := Some path;
        parse acc rest
    | "--metrics-json" :: path :: rest ->
        metrics_json_path := Some path;
        parse acc rest
    | "--log" :: path :: rest ->
        log_path := Some path;
        parse acc rest
    | "--progress" :: rest ->
        Progress.enabled := true;
        parse acc rest
    | "--report" :: path :: rest ->
        report_path := Some path;
        parse acc rest
    | "--checkpoint" :: path :: rest ->
        checkpoint := Some path;
        parse acc rest
    | "--ledger" :: path :: rest ->
        ledger_path := Some path;
        parse acc rest
    | "--baseline" :: path :: rest ->
        baseline_path := Some path;
        parse acc rest
    | "--baseline-window" :: n :: rest -> (
        match int_of_string_opt n with
        | Some k when k > 0 ->
            baseline_window := k;
            parse acc rest
        | _ ->
            Printf.eprintf
              "--baseline-window expects a positive integer, got %S\n" n;
            exit 1)
    | "--baseline-k" :: v :: rest -> (
        match float_of_string_opt v with
        | Some k when k > 0.0 ->
            baseline_k := k;
            parse acc rest
        | _ ->
            Printf.eprintf "--baseline-k expects a positive number, got %S\n" v;
            exit 1)
    | "--handicap" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f >= 0.0 ->
            handicap := f;
            parse acc rest
        | _ ->
            Printf.eprintf
              "--handicap expects a non-negative factor, got %S\n" v;
            exit 1)
    | "--fault-inject" :: spec :: rest -> (
        (* Deterministic fault injection (see Sqed_resil.Fault); overrides
           any SEPE_FAULT environment spec. *)
        match Sqed_resil.Fault.configure spec with
        | () -> parse acc rest
        | exception Invalid_argument msg ->
            Printf.eprintf "--fault-inject: %s\n" msg;
            exit 1)
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  Solver.set_config !solver_config;
  Metrics.enabled := !metrics_on;
  (* The sampler rides along whenever metrics are on: a bench summary
     whose obs.sampler.samples is 0 was the blind spot that hid empty
     sparklines until someone opened a report. *)
  Sampler.enabled := !metrics_on;
  if !trace_path <> None then Span.enabled := true;
  Option.iter Obs_log.set_sink !log_path;
  if !report_path <> None then begin
    (* The report embeds the metrics snapshot and the sampler series. *)
    Metrics.enabled := true;
    Sampler.enabled := true
  end;
  let all =
    [
      ("fig3", fig3);
      ("table1", table1);
      ("fig4", fig4);
      ("classical", classical);
      ("ablation", ablation);
      ("scaling", scaling);
      ("crosscore", crosscore);
      ("portfolio", portfolio);
      ("micro", micro);
    ]
  in
  Printf.printf "worker domains: %d (SEPE_JOBS or --jobs N to change)\n%!"
    (jobs_used ());
  (match args with
  | [] -> List.iter (fun (name, f) -> timed name f) all
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n all with
          | Some f -> timed n f
          | None ->
              Printf.eprintf
                "unknown experiment %S (fig3|table1|fig4|classical|micro)\n" n;
              exit 1)
        names);
  let payload = bench_payload () in
  write_json payload;
  (match !trace_path with
  | Some path ->
      Span.export path;
      Printf.printf "wrote %s (%d events, %d dropped)\n%!"
        (if path = "-" then "<stdout>" else path)
        (List.length (Span.events ()))
        (Span.dropped ())
  | None -> ());
  (match !metrics_json_path with
  | Some path ->
      let json = Sqed_obs.Json.to_string (Metrics.to_json ()) in
      if path = "-" then print_endline json
      else begin
        let oc = open_out path in
        output_string oc json;
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n%!" path
      end
  | None -> ());
  (match !report_path with
  | Some path ->
      let cmdline = String.concat " " (Array.to_list Sys.argv) in
      (* When a ledger is in play the report grows its cross-run
         section: sparklines over the archived runs + band verdicts. *)
      let history =
        match (!baseline_path, !ledger_path) with
        | Some p, _ | None, Some p -> (History.load p).History.entries
        | None, None -> []
      in
      let sidecar = Report.write ~title:"bench run" ~cmdline ~history ~path () in
      Printf.printf "wrote %s (+ %s)\n%!" path sidecar
  | None -> ());
  (* Regression sentinel: this run against the config-compatible tail
     of the baseline ledger.  Runs before the ledger append below so a
     run is never its own baseline. *)
  let regressed =
    match !baseline_path with
    | None -> false
    | Some path ->
        section (Printf.sprintf "baseline - this run vs ledger %s" path);
        let loaded = History.load path in
        if loaded.History.dropped > 0 then
          Printf.printf "note: dropped %d torn/invalid ledger line(s)\n"
            loaded.History.dropped;
        let probe =
          History.entry ~kind:"bench" ~label:"probe"
            ~provenance:(History.provenance ~config:(config_json ()) ())
            ~run:Json.Null
        in
        let compatible =
          List.filter (History.compatible probe) loaded.History.entries
        in
        let incompatible =
          List.length loaded.History.entries - List.length compatible
        in
        if incompatible > 0 then
          Printf.printf
            "note: ignoring %d entr%s with a different {jobs,fast,simplify,\
             portfolio} config\n"
            incompatible
            (if incompatible = 1 then "y" else "ies");
        let history = List.filter_map History.run_of compatible in
        let deltas =
          Diff.compare_history ~k:!baseline_k ~window:!baseline_window ~history
            ~cur:payload ()
        in
        (* Gated metrics always print; counters only when they left the
           band, so the table stays readable. *)
        List.iter
          (fun d ->
            if
              Diff.gated d.Diff.dl_metric
              || d.Diff.dl_verdict = Diff.Regressed
              || d.Diff.dl_verdict = Diff.Improved
            then Printf.printf "%s\n" (Diff.to_string d))
          deltas;
        let regs = Diff.regressions deltas in
        if regs = [] then begin
          Printf.printf
            "baseline: clean (%d compatible run(s), window %d, k=%.1f)\n%!"
            (List.length history) !baseline_window !baseline_k;
          false
        end
        else begin
          Printf.printf
            "baseline: PERF REGRESSION - %d gated metric(s) above the noise \
             band\n%!"
            (List.length regs);
          true
        end
  in
  (match !ledger_path with
  | None -> ()
  | Some path ->
      let label =
        match args with [] -> "all" | names -> String.concat "+" names
      in
      let entry =
        History.entry ~kind:"bench" ~label
          ~provenance:(History.provenance ~config:(config_json ()) ())
          ~run:payload
      in
      History.append path entry;
      Printf.printf "ledger: appended run to %s (%d entr%s)\n%!" path
        (List.length (History.load path).History.entries)
        (if List.length (History.load path).History.entries = 1 then "y"
         else "ies"));
  Obs_log.close_sink ();
  if Verdict.degraded !campaign then begin
    Printf.printf "%s\n%!" (Verdict.summary_line !campaign);
    (* Degraded exit: surface the recorder's last warnings first. *)
    let tail = Obs_log.tail ~min_level:Obs_log.Warn 10 in
    if tail <> [] then begin
      Printf.eprintf "last %d warning/error events:\n" (List.length tail);
      Obs_log.dump_tail ~min_level:Obs_log.Warn 10 stderr
    end;
    exit (Verdict.exit_code !campaign)
  end
  else if regressed then
    (* Exit 5: the perf-regression sentinel (distinct from 3/4 degraded
       campaigns); documented in README's exit-code table. *)
    exit 5
