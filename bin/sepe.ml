(* The `sepe` command-line tool: program synthesis, equivalence tables and
   QED-based processor verification from the shell. *)

let () = Printexc.record_backtrace true

module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module V = Sepe_sqed.Verifier
module Flow = Sepe_sqed.Flow
module Synth = Sqed_synth
module Pool = Sqed_par.Pool
module Campaign = Sqed_par.Campaign
module History = Sqed_obs.History
module Diff = Sqed_obs.Diff
module Json = Sqed_obs.Json
module Verdict = Sqed_resil.Verdict
module Session = Sqed_exp.Session

open Cmdliner

(* ---- the run session ---------------------------------------------------- *)

(* Every subcommand but `runs` takes the shared Session flags and runs its
   body inside [Session.run], which returns the exit code.  Campaign
   bodies return their verdict summary; the rest are clean by
   construction. *)

let campaign ?jobs ?(fast = false) label obs body =
  Session.run obs ~kind:"sepe" ~label
    ~jobs:(Option.value jobs ~default:(Pool.default_jobs ()))
    ~fast body

let session ?jobs label obs body =
  campaign ?jobs label obs (fun () ->
      body ();
      Verdict.empty)

let info name ~doc = Cmd.info name ~exits:Session.exits ~doc

(* ---- shared arguments -------------------------------------------------- *)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print solver counters (decisions, propagations, conflicts, \
           restarts) and, where a worker pool is used, per-worker task \
           counts.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel campaigns (default: the SEPE_JOBS \
           environment variable, then the machine's core count).")

let print_solver_stats (st : Sqed_bmc.Engine.stats) =
  let s = st.Sqed_bmc.Engine.sat in
  Printf.printf
    "solver: %d bounds checked, %.2fs solve time, %d clauses\n\
     sat:    %d decisions, %d propagations, %d conflicts, %d restarts, %d \
     learnt literals\n"
    st.Sqed_bmc.Engine.bounds_checked st.Sqed_bmc.Engine.solve_time
    st.Sqed_bmc.Engine.clauses s.Sqed_sat.Sat.decisions
    s.Sqed_sat.Sat.propagations s.Sqed_sat.Sat.conflicts
    s.Sqed_sat.Sat.restarts s.Sqed_sat.Sat.learnt_literals

let print_worker_stats ws =
  List.iter
    (fun w ->
      Printf.printf "worker %d: %d tasks, %.2fs busy, %.2fs queue wait\n"
        w.Pool.worker w.Pool.tasks w.Pool.busy w.Pool.queue_wait)
    ws

let config_of_string = function
  | "rv32" -> Ok Config.rv32
  | "small" -> Ok Config.small
  | "small-m" -> Ok Config.small_m
  | "tiny" -> Ok Config.tiny
  | s -> Error (`Msg (Printf.sprintf "unknown config %S (rv32|small|small-m|tiny)" s))

let config_conv =
  Arg.conv
    ( config_of_string,
      fun fmt c -> Format.pp_print_string fmt (Config.to_string c) )

let config_arg =
  Arg.(
    value
    & opt config_conv Config.small
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:"Core configuration: rv32, small, small-m or tiny.")

let bug_conv =
  Arg.conv
    ( (fun s ->
        match Bug.of_name s with
        | Some b -> Ok b
        | None -> Error (`Msg ("unknown bug " ^ s ^ " (see `sepe bugs`)"))),
      fun fmt b -> Format.pp_print_string fmt (Bug.name b) )

(* The one --method converter: an unknown value is a usage error. *)
let method_arg ~default doc =
  Arg.(
    value
    & opt
        (enum [ ("sepe", V.Sepe_sqed); ("sepe-sqed", V.Sepe_sqed); ("sqed", V.Sqed) ])
        default
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let qed_model ?bug ?core ?table method_ cfg =
  match method_ with
  | V.Sqed -> Sqed_qed.Qed_top.eddi ?bug ?core cfg
  | V.Sepe_sqed -> Sqed_qed.Qed_top.edsep ?bug ?core ?table cfg

(* ---- sepe bugs ---------------------------------------------------------- *)

let bugs_cmd =
  let run obs () =
    session "bugs" obs @@ fun () ->
    print_endline "Single-instruction bugs (Table 1):";
    List.iter
      (fun b -> Printf.printf "  %-18s %s\n" (Bug.name b) (Bug.describe b))
      Bug.all_single;
    print_endline "Multiple-instruction bugs (Fig. 4):";
    List.iter
      (fun b -> Printf.printf "  %-18s %s\n" (Bug.name b) (Bug.describe b))
      Bug.all_multi
  in
  Cmd.v (info "bugs" ~doc:"List the mutation catalog.")
    Term.(const run $ Session.term $ const ())

(* ---- sepe synth ---------------------------------------------------------- *)

let synth_cmd =
  let case =
    let names =
      List.map Sqed_isa.Insn.rop_name Sqed_isa.Insn.all_rops
      @ List.map Sqed_isa.Insn.iop_name Sqed_isa.Insn.all_iops
    in
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) names)) "SUB"
      & info [ "case" ] ~docv:"INSN"
          ~doc:"Original instruction to synthesize (an R- or I-type mnemonic).")
  in
  let engine =
    Arg.(
      value
      & opt
          (enum
             [ ("hpf", `Hpf); ("iterative", `Iterative); ("classical", `Classical) ])
          `Hpf
      & info [ "engine" ] ~doc:"Synthesis engine: hpf, iterative or classical.")
  in
  let xlen = Arg.(value & opt int 8 & info [ "xlen" ] ~doc:"Synthesis width.") in
  let k =
    Arg.(value & opt int 5 & info [ "k" ] ~doc:"Programs of >=3 components to find.")
  in
  let n_max = Arg.(value & opt int 3 & info [ "n-max" ] ~doc:"Largest multiset size.") in
  let budget =
    Arg.(value & opt float 120.0 & info [ "budget" ] ~doc:"Time budget (seconds).")
  in
  let run obs case engine xlen k n_max budget =
    session "synth" obs @@ fun () ->
    let spec = Synth.Library_.spec case in
    let options =
      {
        Synth.Engine.default_options with
        Synth.Engine.k;
        n_max;
        time_budget = Some budget;
        config = { Synth.Cegis.default_config with Synth.Cegis.xlen };
      }
    in
    let library = Synth.Library_.default in
    let name, r =
      match engine with
      | `Hpf -> ("hpf", Synth.Hpf.synthesize ~options ~spec ~library ())
      | `Iterative ->
          ("iterative", Synth.Iterative.synthesize ~options ~spec ~library)
      | `Classical ->
          ("classical", Synth.Brahma.synthesize ~options ~spec ~library)
    in
    print_endline (Synth.Engine.report (name ^ " on " ^ case) r)
  in
  Cmd.v
    (info "synth" ~doc:"Synthesize semantically equivalent programs.")
    Term.(const run $ Session.term $ case $ engine $ xlen $ k $ n_max $ budget)

(* ---- sepe table ----------------------------------------------------------- *)

let table_cmd =
  let synthesize =
    Arg.(
      value & flag
      & info [ "synthesize" ]
          ~doc:"Produce the table with HPF-CEGIS instead of the built-in one.")
  in
  let run obs cfg synthesize jobs stats =
    campaign ?jobs "table" obs @@ fun () ->
    let table, summary =
      if synthesize then
        Pool.with_pool ?jobs (fun pool ->
            let table, cases, summary = Flow.synthesize_table ~pool cfg in
            List.iter
              (fun c ->
                Printf.printf "# %s: %d programs, %.1fs%s\n" c.Flow.case
                  (List.length c.Flow.programs)
                  c.Flow.elapsed
                  (match c.Flow.chosen with
                  | Some p -> " -> " ^ Synth.Program.to_string p
                  | None -> " (fallback to builtin)"))
              cases;
            if stats then print_worker_stats (Pool.stats pool);
            (table, summary))
      else (Flow.builtin_table cfg, Verdict.empty)
    in
    print_endline (Sqed_qed.Equiv_table.to_string table);
    summary
  in
  Cmd.v
    (info "table" ~doc:"Print the EDSEP-V equivalence table.")
    Term.(
      const run $ Session.term $ config_arg $ synthesize $ jobs_arg
      $ stats_arg)

(* ---- sepe verify ------------------------------------------------------------ *)

let verify_cmd =
  let method_ =
    method_arg ~default:V.Sepe_sqed "Verification method: sepe or sqed."
  in
  let bug =
    Arg.(
      value & opt (some bug_conv) None
      & info [ "bug" ] ~docv:"BUG" ~doc:"Mutation to inject (default: none).")
  in
  let bound = Arg.(value & opt int 10 & info [ "bound" ] ~doc:"BMC bound (cycles).") in
  let budget =
    Arg.(value & opt float 600.0 & info [ "budget" ] ~doc:"Time budget (seconds).")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No trace output.") in
  let core =
    Arg.(
      value
      & opt
          (enum
             [
               ("5", Sqed_qed.Qed_top.Five_stage);
               ("3", Sqed_qed.Qed_top.Three_stage);
             ])
          Sqed_qed.Qed_top.Five_stage
      & info [ "core" ] ~docv:"STAGES"
          ~doc:"DUV variant: 5 (default) or 3 pipeline stages.")
  in
  let do_shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Greedily reduce the counterexample by concrete replay.")
  in
  let table_file =
    Arg.(
      value & opt (some string) None
      & info [ "table" ] ~docv:"FILE"
          ~doc:"Custom EDSEP-V equivalence table (the `sepe table` format).")
  in
  let run obs cfg method_ bug bound budget quiet core do_shrink table_file
      stats =
    session "verify" obs @@ fun () ->
    let cfg =
      match bug with
      | Some b ->
          let cfg' = Bug.config_for b cfg in
          if cfg' <> cfg then
            Printf.printf "note: %s needs the multiplier; turning m on\n"
              (Bug.name b);
          cfg'
      | None -> cfg
    in
    let progress k el =
      if not quiet then Printf.printf "  depth %d clear (%.1fs)\n%!" k el
    in
    let table =
      Option.map
        (fun path ->
          let text = In_channel.with_open_text path In_channel.input_all in
          match Sqed_qed.Equiv_table.of_string text with
          | Ok t -> t
          | Error e -> failwith ("table parse error: " ^ e))
        table_file
    in
    let r =
      V.run ?bug ?table ~core ~method_ ~bound ~time_budget:budget ~progress
        cfg
    in
    Printf.printf "%s %s: %s\n" (V.method_name method_)
      (match bug with Some b -> "with bug " ^ Bug.name b | None -> "(no bug)")
      (V.outcome_to_string r);
    if stats then print_solver_stats r.V.stats;
    match V.trace r with
    | Some t when not quiet ->
        let t =
          if do_shrink then begin
            let s =
              Sqed_bmc.Engine.shrink (qed_model ?bug ~core ?table method_ cfg) t
            in
            Printf.printf "shrunk: %d -> %d cycles, %d -> %d instructions\n"
              t.Sqed_bmc.Trace.length s.Sqed_bmc.Trace.length
              t.Sqed_bmc.Trace.instructions s.Sqed_bmc.Trace.instructions;
            s
          end
          else t
        in
        print_endline (Sqed_bmc.Trace.to_string t);
        print_endline "input stimulus:";
        print_string (Sqed_bmc.Trace.waveform t)
    | _ -> ()
  in
  Cmd.v
    (info "verify" ~doc:"Run SQED / SEPE-SQED bounded model checking.")
    Term.(
      const run $ Session.term $ config_arg $ method_ $ bug $ bound $ budget
      $ quiet
      $ core $ do_shrink $ table_file $ stats_arg)

(* ---- sepe sweep ---------------------------------------------------------- *)

let sweep_cmd =
  let method_ =
    method_arg ~default:V.Sepe_sqed "Verification method: sepe or sqed."
  in
  let set =
    Arg.(
      value
      & opt
          (enum
             [
               ("single", Bug.all_single);
               ("multi", Bug.all_multi);
               ("all", Bug.all_single @ Bug.all_multi);
             ])
          Bug.all_single
      & info [ "set" ] ~docv:"SET"
          ~doc:"Bug catalog to sweep: single, multi or all.")
  in
  let bound =
    Arg.(value & opt int 12 & info [ "bound" ] ~doc:"BMC bound (cycles).")
  in
  let budget =
    Arg.(
      value & opt float 600.0 & info [ "budget" ] ~doc:"Time budget per bug.")
  in
  let run obs cfg method_ bugs bound budget jobs stats =
    campaign ?jobs "sweep" obs @@ fun () ->
    (* One campaign task per injected bug; each worker domain owns its
       solver and term universe, so checks share nothing and rows come
       back in catalog order regardless of the jobs count.  A check that
       gives up is Unknown, one that crashes Failed: either prints one
       line and exits nonzero instead of killing the sweep. *)
    let check bug =
      let r =
        V.run ~bug ~method_ ~bound ~time_budget:budget (Bug.config_for bug cfg)
      in
      match r.V.outcome with
      | Sqed_bmc.Engine.Gave_up _ -> Verdict.Unknown (V.outcome_to_string r)
      | _ -> Verdict.Ok r
    in
    let (verdicts, summary), workers =
      Pool.with_pool ?jobs (fun pool ->
          let vs =
            Campaign.run ~pool ~task_budget:budget ~detail:V.outcome_to_string
              ~key:(fun bug -> "sweep/" ^ Bug.name bug)
              "sweep" check bugs
          in
          (vs, Pool.stats pool))
    in
    let rows =
      List.filter_map
        (fun (bug, v) ->
          match v with Verdict.Ok r -> Some (bug, r) | _ -> None)
        (List.combine bugs verdicts)
    in
    List.iter
      (fun (bug, r) ->
        Printf.printf "%-18s %-24s %8.2fs  %d conflicts\n" (Bug.name bug)
          (V.outcome_to_string r)
          r.V.stats.Sqed_bmc.Engine.solve_time
          r.V.stats.Sqed_bmc.Engine.sat_conflicts)
      rows;
    Printf.printf "detected %d/%d bugs (%s, bound %d)\n"
      (List.length (List.filter (fun (_, r) -> V.detected r) rows))
      (List.length bugs)
      (V.method_name method_)
      bound;
    if stats then begin
      print_worker_stats workers;
      List.iter
        (fun (bug, r) ->
          Printf.printf "-- %s\n" (Bug.name bug);
          print_solver_stats r.V.stats)
        rows
    end;
    summary
  in
  Cmd.v
    (info "sweep"
       ~doc:
         "Run BMC against every bug in the catalog, fanning the checks out \
          over parallel worker domains.")
    Term.(
      const run $ Session.term $ config_arg $ method_ $ set $ bound $ budget
      $ jobs_arg $ stats_arg)

(* ---- sepe export --------------------------------------------------------- *)

let export_cmd =
  let format =
    Arg.(
      value & opt string "btor2"
      & info [ "f"; "format" ] ~doc:"Output format: btor2 or verilog.")
  in
  let method_ = method_arg ~default:V.Sepe_sqed "QED model: sepe or sqed." in
  let bug =
    Arg.(
      value & opt (some bug_conv) None
      & info [ "bug" ] ~docv:"BUG" ~doc:"Mutation to inject.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to a file (default: stdout).")
  in
  let run obs cfg format method_ bug out =
    session "export" obs @@ fun () ->
    let model = qed_model ?bug method_ cfg in
    let text =
      match format with
      | "verilog" -> Sqed_rtl.Verilog.to_string model.Sqed_qed.Qed_top.circuit
      | _ -> Sqed_rtl.Btor2.to_string model.Sqed_qed.Qed_top.circuit
    in
    match out with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
  in
  Cmd.v
    (info "export"
       ~doc:"Export the QED verification model as BTOR2 or Verilog.")
    Term.(const run $ Session.term $ config_arg $ format $ method_ $ bug $ out)

(* ---- sepe sim -------------------------------------------------------------- *)

let sim_cmd =
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Assembly file (one instruction per line).")
  in
  let bug =
    Arg.(
      value & opt (some bug_conv) None
      & info [ "bug" ] ~docv:"BUG" ~doc:"Mutation to inject.")
  in
  let run obs cfg file bug =
    session "sim" obs @@ fun () ->
    let text = In_channel.with_open_text file In_channel.input_all in
    match Sqed_isa.Asm.parse_program text with
    | Error e ->
        Printf.eprintf "parse error: %s\n" e;
        exit 1
    | Ok program ->
        let piped = Sqed_proc.Testbench.run ?bug cfg program in
        let gold = Sqed_proc.Testbench.golden cfg program in
        Printf.printf "pipeline vs golden interpreter (%s):\n"
          (Config.to_string cfg);
        for i = 1 to cfg.Config.nregs - 1 do
          let a = Sqed_isa.Exec.reg piped i
          and b = Sqed_isa.Exec.reg gold i in
          if not (Sqed_bv.Bv.is_zero a) || not (Sqed_bv.Bv.is_zero b) then
            Printf.printf "  x%-2d  pipeline=%-12s golden=%-12s%s\n" i
              (Sqed_bv.Bv.to_string a) (Sqed_bv.Bv.to_string b)
              (if Sqed_bv.Bv.equal a b then "" else "  <-- DIVERGES")
        done;
        if Sqed_isa.Exec.equal piped gold then
          print_endline "states match."
        else print_endline "STATES DIVERGE."
  in
  Cmd.v
    (info "sim"
       ~doc:"Run an assembly program on the pipeline and diff the golden model.")
    Term.(const run $ Session.term $ config_arg $ file $ bug)

(* ---- sepe campaign ----------------------------------------------------------- *)

let campaign_cmd =
  let method_ = method_arg ~default:V.Sepe_sqed "QED scheme: sepe or sqed." in
  let bug =
    Arg.(
      value & opt (some bug_conv) None
      & info [ "bug" ] ~docv:"BUG" ~doc:"Mutation to inject.")
  in
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Random programs.") in
  let len = Arg.(value & opt int 4 & info [ "len" ] ~doc:"Instructions per program.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let run obs cfg method_ bug runs len seed =
    session "campaign" obs @@ fun () ->
    let scheme =
      match method_ with
      | V.Sqed -> Sqed_qed.Partition.Eddi
      | V.Sepe_sqed -> Sqed_qed.Partition.Edsep
    in
    let c =
      Sqed_qed.Qed_sim.campaign ?bug ~scheme ~seed ~runs ~program_length:len
        cfg
    in
    Printf.printf
      "concrete QED campaign (%s, %s): %d/%d runs detected a violation%s \
       (%d cycles total)\n"
      (match scheme with
      | Sqed_qed.Partition.Eddi -> "EDDI-V"
      | Sqed_qed.Partition.Edsep -> "EDSEP-V")
      (match bug with Some b -> Bug.name b | None -> "no bug")
      c.Sqed_qed.Qed_sim.detections c.Sqed_qed.Qed_sim.runs
      (match c.Sqed_qed.Qed_sim.first_detection with
      | Some i -> Printf.sprintf " (first at run %d)" i
      | None -> "")
      c.Sqed_qed.Qed_sim.total_cycles
  in
  Cmd.v
    (info "campaign"
       ~doc:"Concrete (non-symbolic) QED testing with random programs.")
    Term.(
      const run $ Session.term $ config_arg $ method_ $ bug $ runs $ len
      $ seed)

(* ---- sepe prove ----------------------------------------------------------- *)

let prove_cmd =
  let method_ = method_arg ~default:V.Sqed "QED model: sepe or sqed." in
  let bug =
    Arg.(
      value & opt (some bug_conv) None
      & info [ "bug" ] ~docv:"BUG" ~doc:"Mutation to inject.")
  in
  let max_k = Arg.(value & opt int 4 & info [ "max-k" ] ~doc:"Induction depth limit.") in
  let budget =
    Arg.(value & opt float 600.0 & info [ "budget" ] ~doc:"Time budget (seconds).")
  in
  let run obs cfg method_ bug max_k budget =
    session "prove" obs @@ fun () ->
    let model = qed_model ?bug method_ cfg in
    let outcome, stats =
      Sqed_bmc.Engine.prove ~max_k ~time_budget:budget model
    in
    (match outcome with
    | Sqed_bmc.Engine.Proved k ->
        Printf.printf "PROVED: the property is %d-inductive (holds at every depth).\n" k
    | Sqed_bmc.Engine.Base_cex t ->
        Printf.printf "COUNTEREXAMPLE in the base case:\n%s\n"
          (Sqed_bmc.Trace.to_string t)
    | Sqed_bmc.Engine.Not_inductive k ->
        Printf.printf
          "inconclusive: not inductive up to k=%d (the property likely needs \
           auxiliary invariants).\n"
          k
    | Sqed_bmc.Engine.Proof_gave_up k ->
        let why =
          match stats.Sqed_bmc.Engine.gave_up with
          | Some reason -> Sqed_resil.Budget.string_of_reason reason
          | None -> "budget"
        in
        Printf.printf "gave up at k=%d (%s).\n" k why);
    Printf.printf "%.1fs, %d solver queries\n"
      stats.Sqed_bmc.Engine.solve_time stats.Sqed_bmc.Engine.bounds_checked
  in
  Cmd.v
    (info "prove"
       ~doc:"Attempt an unbounded k-induction proof of the QED property.")
    Term.(
      const run $ Session.term $ config_arg $ method_ $ bug $ max_k
      $ budget)

(* ---- sepe solve ---------------------------------------------------------- *)

let solve_cmd =
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A .smt2 (QF_BV) or .cnf (DIMACS) file.")
  in
  let budget =
    Arg.(
      value & opt (some int) None
      & info [ "max-conflicts" ] ~doc:"Conflict budget before giving up.")
  in
  let run obs file budget =
    session "solve" obs @@ fun () ->
    let text = In_channel.with_open_text file In_channel.input_all in
    if Filename.check_suffix file ".cnf" then
      match Sqed_sat.Dimacs.parse text with
      | Error e ->
          Printf.eprintf "parse error: %s\n" e;
          exit 1
      | Ok cnf -> (
          let c = Sqed_smt.Solver.config () in
          match
            Sqed_sat.Dimacs.solve ~portfolio:c.Sqed_smt.Solver.portfolio cnf
          with
          | Sqed_sat.Sat.Sat, Some model ->
              print_endline "sat";
              Array.iteri
                (fun i v ->
                  Printf.printf "%d " (if v then i + 1 else -(i + 1)))
                model;
              print_newline ()
          | Sqed_sat.Sat.Unsat, _ -> print_endline "unsat"
          | _ -> print_endline "unknown")
    else
      match Sqed_smt.Smtlib_parser.solve_script ?max_conflicts:budget text with
      | Error e ->
          Printf.eprintf "parse error: %s\n" e;
          exit 1
      | Ok (result, model) -> (
          match result with
          | Sqed_smt.Solver.Sat ->
              print_endline "sat";
              List.iter
                (fun (name, v) ->
                  Printf.printf "  %s = %s\n" name (Sqed_bv.Bv.to_string v))
                model
          | Sqed_smt.Solver.Unsat -> print_endline "unsat"
          | Sqed_smt.Solver.Unknown -> print_endline "unknown")
  in
  Cmd.v
    (info "solve"
       ~doc:"Run the built-in solvers on an SMT-LIB (QF_BV) or DIMACS file.")
    Term.(const run $ Session.term $ file $ budget)

(* ---- sepe doctor ----------------------------------------------------------- *)

let doctor_cmd =
  let run obs () =
    session "doctor" obs @@ fun () ->
    let check name f =
      Printf.printf "%-52s %!" (name ^ " ...");
      match f () with
      | Ok () -> print_endline "ok"
      | Error e ->
          print_endline ("FAILED: " ^ e);
          exit 1
    in
    let cfg = Config.tiny in
    check "equivalence table vs golden interpreter" (fun () ->
        let p = Sqed_qed.Partition.make Sqed_qed.Partition.Edsep cfg in
        Sqed_qed.Equiv_table.validate ~cfg ~partition:p
          (Sqed_qed.Equiv_table.builtin ~xlen:cfg.Config.xlen
             ~n_temp:p.Sqed_qed.Partition.n_temp));
    check "concrete QED campaign stays clean (no bug)" (fun () ->
        let c =
          Sqed_qed.Qed_sim.campaign ~scheme:Sqed_qed.Partition.Edsep ~seed:1
            ~runs:10 ~program_length:3 cfg
        in
        if c.Sqed_qed.Qed_sim.detections = 0 then Ok ()
        else Error "false positive in the unmutated design");
    check "BTOR2 export validates" (fun () ->
        let model = Sqed_qed.Qed_top.edsep cfg in
        Sqed_rtl.Btor2.validate
          (Sqed_rtl.Btor2.to_string model.Sqed_qed.Qed_top.circuit));
    check "BMC detects an injected bug (SEPE-SQED)" (fun () ->
        let r =
          V.run ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10
            ~time_budget:300.0 cfg
        in
        if V.detected r then Ok () else Error "no counterexample found");
    check "counterexample replays on the simulator" (fun () ->
        let r =
          V.run ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10
            ~time_budget:300.0 cfg
        in
        match V.trace r with
        | Some t ->
            let model = Sqed_qed.Qed_top.edsep ~bug:Bug.Bug_add cfg in
            if Sqed_bmc.Engine.replay model t then Ok ()
            else Error "witness did not replay"
        | None -> Error "no trace");
    check "SQED stays blind to the same bug" (fun () ->
        let r =
          V.run ~bug:Bug.Bug_add ~method_:V.Sqed ~bound:8 ~time_budget:300.0
            cfg
        in
        if V.detected r then Error "EDDI-V detected a uniform bug" else Ok ());
    print_endline "all checks passed."
  in
  Cmd.v
    (info "doctor"
       ~doc:"Self-check the whole stack on the smallest configuration.")
    Term.(const run $ Session.term $ const ())

(* ---- sepe fig3 ------------------------------------------------------------ *)

let fig3_cmd =
  let fast =
    Arg.(
      value & flag
      & info [ "fast" ]
          ~doc:
            "Reduced workload: 4 cases, k=2, one seed (same as `bench fig3 \
             --fast`).")
  in
  let no_witness =
    Arg.(
      value & flag
      & info [ "no-witness" ]
          ~doc:
            "Skip the trailing tiny BMC verification (keeps the run \
             synthesis-only).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Journal each completed (case, engine, seed) cell to $(docv) \
             (append-only JSON lines) and resume from it: a rerun with the \
             same file skips already-journaled cells and reuses their \
             numbers.")
  in
  let run obs fast no_witness jobs checkpoint =
    campaign ?jobs ~fast "fig3" obs @@ fun () ->
    Sqed_exp.Fig3.run ~fast ?jobs ~witness:(not no_witness) ?checkpoint ()
  in
  Cmd.v
    (info "fig3"
       ~doc:
         "Run the paper's Fig. 3 synthesis experiment (plus a tiny BMC \
          witness), e.g. with --trace/--metrics to profile the whole \
          pipeline.")
    Term.(const run $ Session.term $ fast $ no_witness $ jobs_arg $ checkpoint)

(* ---- sepe runs ------------------------------------------------------------ *)

(* Browse and diff the persistent run ledger.  These commands are pure
   readers: they take their own --ledger argument (defaulting to the
   committed baseline archive) instead of the Session flags, so
   listing an archive never appends to it. *)

let runs_ledger_arg =
  Arg.(
    value
    & opt string "LEDGER_sepe.jsonl"
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "The run ledger to read: an append-only JSONL archive written by \
           $(b,sepe --ledger) / $(b,bench --ledger) (default: the committed \
           baseline ledger).")

(* 1-based index into the ledger, counted from the oldest entry, as
   printed by `runs list`; 0 or negative counts from the newest. *)
let nth_entry entries idx =
  let n = List.length entries in
  let i = if idx > 0 then idx - 1 else n - 1 + idx in
  if i < 0 || i >= n then None else Some (List.nth entries i)

let runs_list_cmd =
  let run path =
    (match Session.load_ledger path with
    | [] -> Printf.printf "ledger %s is empty\n" path
    | entries ->
        Printf.printf "idx  recorded          kind  label              \
                       commit   wall\n";
        List.iteri
          (fun i e -> print_endline (History.summary_line (i + 1) e))
          entries);
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the archived runs, oldest first.")
    Term.(const run $ runs_ledger_arg)

let runs_show_cmd =
  let index =
    Arg.(
      value & pos 0 int 0
      & info [] ~docv:"INDEX"
          ~doc:
            "Entry to show, 1-based from the oldest (as printed by \
             $(b,runs list)); 0 or negative counts back from the newest.")
  in
  let run path idx =
    match nth_entry (Session.load_ledger path) idx with
    | None ->
        Printf.eprintf "no entry %d in %s\n" idx path;
        exit 1
    | Some e ->
        print_endline (Json.to_string e);
        0
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print one archived entry (default: the newest) as JSON.")
    Term.(const run $ runs_ledger_arg $ index)

let runs_compare_cmd =
  let base =
    Arg.(
      value & pos 0 int (-1)
      & info [] ~docv:"BASE"
          ~doc:
            "Baseline entry index (default: the second-newest).  1-based \
             from the oldest; 0 or negative counts back from the newest.")
  in
  let cur =
    Arg.(
      value & pos 1 int 0
      & info [] ~docv:"CURRENT"
          ~doc:"Entry to compare against BASE (default: the newest).")
  in
  let against_history =
    Arg.(
      value & flag
      & info [ "against-history" ]
          ~doc:
            "Instead of a two-run A/B diff, check CURRENT against the \
             noise band (median +- k*MAD) of every config-compatible \
             earlier entry — the same math as the $(b,bench --baseline) \
             sentinel.")
  in
  let gate =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Exit with the regression code (5) when a gated metric — \
             per-experiment wall/clauses/conflicts or the run wall — \
             regresses.  For CI.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Print every metric delta, counters included (default: gated \
             metrics plus anything that left its band).")
  in
  let run path base_idx cur_idx against_history gate all =
    let entries = Session.load_ledger path in
    if List.length entries < 2 then begin
      Printf.eprintf
        "ledger %s has %d entr%s; comparing needs at least 2\n" path
        (List.length entries)
        (if List.length entries = 1 then "y" else "ies");
      exit 1
    end;
    match (nth_entry entries base_idx, nth_entry entries cur_idx) with
    | None, _ | _, None ->
        Printf.eprintf "entry index out of range for %s\n" path;
        exit 1
    | Some base_e, Some cur_e ->
        let regs =
          if against_history then
            (* Everything strictly before CURRENT. *)
            let rec before acc = function
              | [] -> List.rev acc
              | e :: _ when e == cur_e -> List.rev acc
              | e :: rest -> before (e :: acc) rest
            in
            Session.band_check ~all ~history:(before [] entries) cur_e
          else begin
            if not (History.compatible base_e cur_e) then
              print_endline
                (Session.config_note "the two entries have"
                ^ "; deltas may reflect config, not code");
            let want e = Option.value (History.run_of e) ~default:Json.Null in
            Session.report_deltas ~all
              (Diff.compare_runs ~base:(want base_e) ~cur:(want cur_e) ())
          end
        in
        if gate && regs <> [] then 5 else 0
  in
  Cmd.v
    (info "compare"
       ~doc:
         "Diff two archived runs, or one run against the noise band of its \
          history.")
    Term.(const run $ runs_ledger_arg $ base $ cur $ against_history $ gate $ all)

let runs_cmd =
  Cmd.group
    (Cmd.info "runs"
       ~doc:
         "Browse and diff the persistent run ledger (see $(b,--ledger) on \
          the other subcommands).")
    [ runs_list_cmd; runs_show_cmd; runs_compare_cmd ]

let main =
  Cmd.group
    (Cmd.info "sepe" ~version:"1.0"
       ~doc:
         "SEPE-SQED: symbolic quick error detection by semantically \
          equivalent program execution (DAC 2024 reproduction).")
    [
      bugs_cmd; synth_cmd; table_cmd; verify_cmd; sweep_cmd; export_cmd;
      sim_cmd; campaign_cmd; solve_cmd; prove_cmd; doctor_cmd; fig3_cmd;
      runs_cmd;
    ]

let () = exit (Cmd.eval' main)
