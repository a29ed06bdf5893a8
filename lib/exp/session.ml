module Json = Sqed_obs.Json
module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace
module Progress = Sqed_obs.Progress
module Report = Sqed_obs.Report
module History = Sqed_obs.History
module Diff = Sqed_obs.Diff
module Solver = Sqed_smt.Solver
module Verdict = Sqed_resil.Verdict

open Cmdliner

type t = {
  metrics : bool;
  metrics_json : string option;
  trace : string option;
  log : string option;
  log_level : Trace.level;
  progress : bool;
  report : string option;
  ledger : string option;
  baseline : string option;
  solver : Solver.config;
}

let flag name ~doc = Arg.(value & flag & info [ name ] ~doc)

let file name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let term =
  let log_level =
    Arg.(
      value
      & opt
          (enum
             [
               ("debug", Trace.Debug);
               ("info", Trace.Info);
               ("warn", Trace.Warn);
             ])
          Trace.Info
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Minimum level for $(b,--log) records. $(b,debug) adds \
             per-solve lifecycle records (noisy, but invaluable for \
             post-mortems).")
  in
  let portfolio =
    Arg.(
      value & opt int 1
      & info [ "portfolio" ] ~docv:"K"
          ~doc:
            "Run $(docv) diversified CDCL workers (different seeds, \
             polarities, restart schedules, VSIDS decay) in round-robin \
             slices on hard SAT queries, sharing low-LBD learnt clauses; \
             the first definitive verdict wins, and repeat runs give \
             bit-identical verdicts and solver statistics.  Only BMC depths \
             at or past the engine's threshold pay the clone cost — shallow \
             queries and CEGIS candidates stay single-engine.  The \
             sat.portfolio.* counters and the portfolio.worker.* event-log \
             records show what each worker did.")
  in
  (* The spec is armed while the flags are parsed, so a malformed one is
     a usage error (exit 124) rather than an exception from the run. *)
  let fault =
    let arm = function
      | None -> Ok ()
      | Some spec -> (
          match Sqed_resil.Fault.configure spec with
          | () -> Ok ()
          | exception Invalid_argument msg -> Error (`Msg msg))
    in
    Term.term_result
    @@ Term.map arm
    @@ Arg.(
      value
      & opt (some string) None
      & info [ "fault-inject" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic fault-injection sites, e.g. \
             $(b,pool.task:2,checkpoint.write:1) makes the 2nd pool task and \
             the 1st checkpoint append raise.  Sites: pool.task, sat.solve, \
             smt.bitblast, checkpoint.write; clause forms site:N, site:N/M, \
             site:pP@SEED.  Overrides the SEPE_FAULT environment variable. \
             For exercising the degraded paths — campaigns report the \
             injected failures and keep going.")
  in
  Term.(
    const
      (fun metrics metrics_json trace log log_level progress report ledger
           baseline no_simplify portfolio () ->
        let solver = { Solver.simplify = not no_simplify; portfolio } in
        { metrics; metrics_json; trace; log; log_level; progress; report;
          ledger; baseline; solver })
    $ flag "metrics"
        ~doc:
          "After the command finishes, print the observability report: \
           per-phase timers, solver counters, gauges and histogram \
           summaries."
    $ file "metrics-json"
        ~doc:
          "Write the full metrics snapshot to $(docv) as JSON ($(b,-) = \
           stdout)."
    $ file "trace"
        ~doc:
          "Record phase spans and write a Chrome trace_event JSON array to \
           $(docv) (open in chrome://tracing or Perfetto; $(b,-) = stdout)."
    $ file "log"
        ~doc:
          "Stream structured JSONL event-log records (timestamp, domain, \
           level, event, fields) to $(docv); $(b,-) writes to stderr so CI \
           pipelines can capture the stream without temp files."
    $ log_level
    $ flag "progress"
        ~doc:
          "Render a live single-line campaign status (cases done/total, ETA \
           from completed-case durations, in-flight workers, stall warnings) \
           to stderr while a campaign runs."
    $ file "report"
        ~doc:
          "After the command finishes, write a self-contained HTML run report \
           to $(docv): sampler sparklines, phase timers, histogram summaries, \
           per-case verdicts and the event-log tail, plus a machine-readable \
           $(b,run.json) sidecar.  Implies metrics and the sampler."
    $ file "ledger"
        ~doc:
          "Append this run's machine-readable payload, stamped with git \
           commit/dirty flag, hostname, core count, OCaml version and solver \
           config, to the append-only JSONL run ledger at $(docv).  Browse and \
           diff it with $(b,sepe runs list|show|compare); with $(b,--report), \
           the report grows a cross-run history section.  Implies metrics \
           and the sampler."
    $ file "baseline"
        ~doc:
          "Regression sentinel: before any $(b,--ledger) append, check this \
           run against the noise band (median +- 4*MAD) of the last 20 \
           config-compatible entries of the ledger at $(docv); exit 5 when a \
           gated metric leaves its band."
    $ flag "no-simplify"
        ~doc:
          "Disable the SAT core's CNF preprocessing (variable elimination, \
           subsumption, failed-literal probing) for every solver this run \
           creates.  Mostly for A/B measurements; the sat.simplify.* \
           counters record what the preprocessor did when it is on."
    $ portfolio
    $ fault)

let exits =
  Cmd.Exit.info 3
    ~doc:
      "a campaign completed degraded: some cases inconclusive (budget \
       exhausted), none failed."
  :: Cmd.Exit.info 4
       ~doc:"a campaign completed degraded: at least one case failed hard."
  :: Cmd.Exit.info 5
       ~doc:
         "the perf-regression sentinel tripped: a gated metric left the \
          noise band of its ledger baseline."
  :: Cmd.Exit.defaults

let exit_code summary ~regressed =
  match Verdict.exit_code summary with
  | 0 -> if regressed then 5 else 0
  | degraded -> degraded

(* -- comparing against the ledger ------------------------------------------ *)

let config_note what =
  let keys = List.map fst (Provenance.config ~jobs:0 ~fast:false) in
  Printf.sprintf "note: %s a different {%s} config" what
    (String.concat "," keys)

let load_ledger path =
  let loaded = History.load path in
  if loaded.History.dropped > 0 then
    Printf.printf "note: dropped %d torn/invalid ledger line(s)\n"
      loaded.History.dropped;
  loaded.History.entries

let report_deltas ?(all = false) deltas =
  List.iter
    (fun d ->
      if
        all || Diff.gated d.Diff.dl_metric
        || d.Diff.dl_verdict = Diff.Regressed
        || d.Diff.dl_verdict = Diff.Improved
      then print_endline (Diff.to_string d))
    deltas;
  let regs = Diff.regressions deltas in
  if regs = [] then print_endline "no gated regressions"
  else
    Printf.printf "PERF REGRESSION: %d gated metric(s) regressed\n"
      (List.length regs);
  regs

let band_check ?all ~history entry =
  let compatible = List.filter (History.compatible entry) history in
  let ignored = List.length history - List.length compatible in
  if ignored > 0 then
    print_endline
      (config_note
         (Printf.sprintf "ignoring %d entr%s with" ignored
            (if ignored = 1 then "y" else "ies")));
  Printf.printf "checking against the noise band of %d compatible run(s)\n"
    (List.length compatible);
  report_deltas ?all
    (Diff.compare_history
       ~history:(List.filter_map History.run_of compatible)
       ~cur:(Option.value (History.run_of entry) ~default:Json.Null)
       ())

(* -- the session ----------------------------------------------------------- *)

let install s =
  Solver.set_config s.solver;
  if s.metrics || s.metrics_json <> None then Metrics.enabled := true;
  if s.trace <> None then begin
    (* Tracing needs the timers too, so the trace and the phase table
       tell the same story. *)
    Metrics.enabled := true;
    Trace.enabled := true
  end;
  Option.iter (Trace.set_sink ~level:s.log_level) s.log;
  if s.progress then Progress.enabled := true;
  if s.report <> None || s.ledger <> None || s.baseline <> None then begin
    (* The report and the ledger payload embed the metrics and the
       sample series, so both must be recorded. *)
    Metrics.enabled := true;
    Trace.sampling := true
  end

let write_artifacts s ~title ~cmdline =
  Option.iter
    (fun path ->
      Trace.export path;
      let d = Trace.dropped () in
      Printf.printf "trace: %d events -> %s%s\n"
        (Trace.held ())
        (if path = "-" then "<stdout>" else path)
        (if d > 0 then Printf.sprintf " (%d dropped)" d else ""))
    s.trace;
  Option.iter
    (fun path ->
      let json = Json.to_string (Metrics.to_json ()) in
      if path = "-" then print_endline json
      else begin
        Out_channel.with_open_text path (fun oc ->
            output_string oc json;
            output_char oc '\n');
        Printf.printf "metrics: wrote %s\n" path
      end)
    s.metrics_json;
  Option.iter
    (fun path ->
      (* With a ledger in play the report grows its cross-run section. *)
      let history =
        match (s.baseline, s.ledger) with
        | Some p, _ | None, Some p -> (History.load p).History.entries
        | None, None -> []
      in
      let sidecar = Report.write ~title ~cmdline ~history ~path () in
      Printf.printf "report: wrote %s (+ %s)\n" path sidecar)
    s.report;
  if s.metrics then print_string (Metrics.report ())

(* The regression sentinel: this run against the config-compatible tail
   of the baseline ledger.  Runs before the ledger append, so a run is
   never its own baseline. *)
let sentinel path entry =
  Printf.printf "baseline: this run vs ledger %s\n" path;
  band_check ~history:(load_ledger path) (Lazy.force entry) <> []

let run s ~kind ~label ~jobs ~fast ?payload body =
  install s;
  let title = kind ^ " run" in
  let cmdline = String.concat " " (Array.to_list Sys.argv) in
  let payload =
    match payload with
    | Some p -> p
    | None -> fun () -> Report.run_payload ~title ~cmdline ()
  in
  let summary = ref Verdict.empty and regressed = ref false in
  Fun.protect
    ~finally:(fun () ->
      write_artifacts s ~title ~cmdline;
      let entry =
        lazy
          (History.entry ~kind ~label
             ~provenance:
               (History.provenance ~config:(Provenance.config ~jobs ~fast) ())
             ~run:(payload ()))
      in
      Option.iter (fun path -> regressed := sentinel path entry) s.baseline;
      Option.iter
        (fun path ->
          History.append path (Lazy.force entry);
          Printf.printf "ledger: appended run to %s\n" path)
        s.ledger;
      Trace.close_sink ())
    (fun () -> summary := body ());
  let code = exit_code !summary ~regressed:!regressed in
  if Verdict.degraded !summary || !summary.Verdict.skipped > 0 then
    Printf.printf "%s\n%!" (Verdict.summary_line !summary);
  if Verdict.degraded !summary then begin
    (* Close the flight recorder with the last warnings, so the reason is
       visible without re-running under --log. *)
    let tail = Trace.tail ~min_level:Trace.Warn 10 in
    if tail <> [] then begin
      flush stdout;
      Printf.eprintf "last %d warning/error events:\n" (List.length tail);
      List.iter (fun e -> prerr_endline (Json.to_string (Trace.to_json e))) tail
    end
  end;
  code
