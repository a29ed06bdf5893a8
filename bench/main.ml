(* Experiment harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's experiment index), plus Bechamel
   micro-benchmarks of the substrates.

     dune exec bench/main.exe                 -- all nine experiments
     dune exec bench/main.exe -- fig3         -- one experiment
     dune exec bench/main.exe -- table1 --fast --jobs 4

   With no experiment named it runs every entry of [all] below, the
   portfolio arm's 600 s budget included.

   Wall-clock seconds are reported for the heavyweight experiments (each
   cell is one solver campaign, not a repeatable microbenchmark); micro
   uses Bechamel's OLS estimator.

   The paper's experiments live in lib/exp and are shared with `sepe`:
   Sqed_exp.Fig3 (E1, the synthesis campaign) and Sqed_exp.Detection
   (E2/Table 1 and E3/Fig. 4, the per-bug BMC campaigns, with typed rows
   journaled as JSON).  This file only dispatches to them, runs the
   smaller experiments below and prints.  The campaigns fan their
   independent cells out over a Sqed_par.Pool of --jobs worker domains
   (default: the SEPE_JOBS environment knob, then the machine's core
   count).  Cells are fully independent (each owns its solvers and its
   domain-local term universe), so results are identical for every jobs
   value; only the wall clock changes.

   A machine-readable summary of every experiment run is written to
   BENCH_sepe.json (--json PATH overrides the location).  The shared run
   flags (--trace, --metrics-json, --log, --report, --ledger, --baseline,
   ...) and the exit codes come from Sqed_exp.Session, as for `sepe`. *)

module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module V = Sepe_sqed.Verifier
module Synth = Sqed_synth
module Trace = Sqed_bmc.Trace
module Pool = Sqed_par.Pool
module Metrics = Sqed_obs.Metrics
module Span = Sqed_obs.Trace

module Verdict = Sqed_resil.Verdict
module Solver = Sqed_smt.Solver
module Json = Sqed_obs.Json
module Session = Sqed_exp.Session

let section = Sqed_exp.Print.section

(* The bench's own flags, set once by [main] before any experiment runs. *)
let fast = ref false
let jobs = ref None (* --jobs N; None = Pool.default_jobs () *)
let checkpoint = ref None (* --checkpoint FILE: journal + resume campaigns *)

(* Aggregated campaign verdicts across every experiment run this
   invocation; a degraded campaign turns into a nonzero exit at the end
   (after the JSON/trace artifacts are written). *)
let campaign = ref Verdict.empty

let note_summary s = campaign := Verdict.add !campaign s

let jobs_used () = Option.value !jobs ~default:(Pool.default_jobs ())

(* ------------------------------------------------------------------ *)
(* Machine-readable results: one record per experiment run             *)
(* ------------------------------------------------------------------ *)

type bench_record = {
  br_name : string;
  br_wall : float;  (** wall-clock seconds for the whole experiment *)
  br_cpu : float;  (** process CPU seconds (user + system, all domains) *)
  br_clauses : int;  (** problem clauses across all solver instances *)
  br_conflicts : int;  (** SAT conflicts across all solver instances *)
}

let records : bench_record list ref = ref []

let bench_payload () =
  let experiments =
    List.rev_map
      (fun r ->
        Json.Obj
          [
            ("name", Json.String r.br_name);
            ("wall_s", Json.Float r.br_wall);
            ("cpu_s", Json.Float r.br_cpu);
            ("clauses", Json.Int r.br_clauses);
            ("conflicts", Json.Int r.br_conflicts);
          ])
      !records
  in
  (* The solver-configuration stamp: two runs are only comparable when
     these knobs match. *)
  Json.Obj
    (Sqed_exp.Provenance.config ~jobs:(jobs_used ()) ~fast:!fast
    @ [
        ("experiments", Json.List experiments);
        ("metrics", Metrics.to_json ());
        ("heap", Sqed_obs.Report.heap_json ());
      ])

let write_json path payload =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string payload);
      output_char oc '\n');
  Printf.printf "\nwrote %s\n%!" path

(* Process CPU seconds so far, user + system over every domain. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run one experiment inside a span, attributing the global SAT clause and
   conflict counters to it by delta.  The registry aggregates across every
   solver instance on every domain, which is what makes the totals real —
   synthesis experiments burn their SAT work inside per-candidate solvers
   that are discarded immediately.  The record is written (and the span
   closed) even if the experiment raises. *)
let timed name f =
  let t0 = Unix.gettimeofday () in
  let cpu0 = cpu_now () in
  let c0 = Metrics.find_counter "sat.clauses" in
  let k0 = Metrics.find_counter "sat.conflicts" in
  Fun.protect
    ~finally:(fun () ->
      records :=
        {
          br_name = name;
          br_wall = Unix.gettimeofday () -. t0;
          br_cpu = cpu_now () -. cpu0;
          br_clauses = Metrics.find_counter "sat.clauses" - c0;
          br_conflicts = Metrics.find_counter "sat.conflicts" - k0;
        }
        :: !records)
    (fun () -> Span.with_span_named ~cat:"bench" ("bench." ^ name) f)

(* ------------------------------------------------------------------ *)
(* E1 / Fig. 3, E2 / Table 1 and E3 / Fig. 4 (lib/exp)                 *)
(* ------------------------------------------------------------------ *)

(* The bench keeps fig3's witness phase off so the workload matches
   earlier bench runs. *)
let fig3 () =
  note_summary
    (Sqed_exp.Fig3.run ~fast:!fast ?jobs:!jobs ~witness:false
       ?checkpoint:!checkpoint ())

let table1 () =
  note_summary
    (Sqed_exp.Detection.table1 ~fast:!fast ?jobs:!jobs ?checkpoint:!checkpoint
       ())

let fig4 () =
  note_summary
    (Sqed_exp.Detection.fig4 ~fast:!fast ?jobs:!jobs ?checkpoint:!checkpoint ())

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
      Printf.printf "%s\n%!"
        (Synth.Engine.report case
           (Synth.Brahma.synthesize ~options ~spec
              ~library:Synth.Library_.default)))
    [ "SUB"; "XOR" ]

(* ------------------------------------------------------------------ *)
(* Ablation: which HPF mechanism buys what                             *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section
    "ablation - HPF-CEGIS mechanisms (DESIGN.md design choices)\n\
     alpha=0 drops the same-name penalty; the no-learning variant takes \
     HPF's size-3 pool in its shuffled order";
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
      (* No-learning baseline: the shared loop over HPF's own fixed-size
         pool in its seed-shuffled order (priorities never change <=>
         pool order). *)
      let tn =
        let pool = Synth.Hpf.pool ~options Synth.Library_.default in
        (Synth.Engine.search ~options ~spec ~total:(Array.length pool)
           (Array.to_seq pool))
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
       "portfolio - %d diversified CDCL workers, round-robin, on the hardest BMC \
        query\n\
        (table-1 MULH witness, unfocused instruction stream; width 1 vs %d \
        on the same binary)"
       k k);
  let cfg = Config.tiny_m in
  let bug = Bug.Bug_mulh in
  let min_depth =
    Option.value ~default:1 (V.min_cex_depth ~method_:V.Sepe_sqed ~bug cfg)
  in
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

let main session names fast' jobs' json checkpoint' =
  fast := fast';
  jobs := jobs';
  checkpoint := checkpoint';
  let label = if names = [] then "all" else String.concat "+" names in
  let names = if names = [] then List.map fst all else names in
  let payload = lazy (bench_payload ()) in
  Session.run session ~kind:"bench" ~label ~jobs:(jobs_used ()) ~fast:!fast
    ~payload:(fun () -> Lazy.force payload)
    (fun () ->
      (* Always on: the payload's clause/conflict columns are deltas of
         Metrics counters, and the sampler rides along so a summary never
         hides an empty time series. *)
      Metrics.enabled := true;
      Span.sampling := true;
      Printf.printf "worker domains: %d (SEPE_JOBS or --jobs N to change)\n%!"
        (jobs_used ());
      List.iter (fun n -> timed n (List.assoc n all)) names;
      write_json json (Lazy.force payload);
      !campaign)

let () =
  let open Cmdliner in
  (* [conv] restricted to the values [ok] accepts. *)
  let checked c what ok =
    let parse s =
      match Arg.conv_parser c s with
      | Ok v when ok v -> Ok v
      | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer c)
  in
  let opt c default name docv doc =
    Arg.(value & opt c default & info [ name ] ~docv ~doc)
  in
  Term.(
    const main $ Session.term
    $ Arg.(
        value
        & pos_all (enum (List.map (fun (n, _) -> (n, n)) all)) []
        & info [] ~docv:"EXPERIMENT"
            ~doc:"Experiments to run, in order (default: all of them).")
    $ Arg.(value & flag & info [ "fast" ] ~doc:"Reduced workloads and budgets.")
    $ opt
        Arg.(some (checked int "a positive integer" (fun n -> n > 0)))
        None "jobs" "N"
        "Worker domains for the fig3, table1 and fig4 fan-outs (default: the \
         SEPE_JOBS environment variable, then the core count)."
    $ opt Arg.string "BENCH_sepe.json" "json" "FILE"
        "Where to write the machine-readable summary."
    $ opt Arg.(some string) None "checkpoint" "FILE"
        "Journal completed fig3, table1 and fig4 cells to $(docv) and resume \
         from it: a rerun with the same file skips journaled cells.")
  |> Cmd.v
       (Cmd.info "bench" ~exits:Session.exits
          ~doc:"Regenerate the paper's tables and figures.")
  |> Cmd.eval' |> exit
