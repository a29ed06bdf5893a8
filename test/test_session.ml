(* Tests for the run session shared by `sepe` and the bench harness
   (Sqed_exp.Session): the exit-code precedence (a degraded campaign
   outranks the regression sentinel, which outranks a clean run) and the
   ledger entry's provenance stamp. *)

module Json = Sqed_obs.Json
module History = Sqed_obs.History
module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace
module Solver = Sqed_smt.Solver
module Verdict = Sqed_resil.Verdict
module Session = Sqed_exp.Session
module Provenance = Sqed_exp.Provenance

let summaries =
  [
    ("ok", Verdict.count [ Verdict.Ok () ], 0);
    ("unknown", Verdict.count [ Verdict.Ok (); Verdict.Unknown "budget" ], 3);
    ( "failed",
      Verdict.count [ Verdict.Unknown "budget"; Verdict.Failed "crash" ],
      4 );
  ]

let test_exit_code () =
  List.iter
    (fun (name, summary, code) ->
      Alcotest.(check int) (name ^ ", clean") code
        (Session.exit_code summary ~regressed:false);
      Alcotest.(check int) (name ^ ", regressed")
        (if code = 0 then 5 else code)
        (Session.exit_code summary ~regressed:true))
    summaries

(* Session.run switches recorders and the solver config on; put them
   back so later tests see the state they expect. *)
let with_session_state f =
  let metrics = !Metrics.enabled and sampler = !Trace.sampling in
  let solver = Solver.config () in
  let path = Filename.temp_file "sepe_session" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Metrics.enabled := metrics;
      Trace.sampling := sampler;
      Solver.set_config solver;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let wall w = Json.Obj [ ("wall_s", Json.Float w) ]

(* A session parsed from command-line flags by the shared term. *)
let session args =
  let open Cmdliner in
  match
    Cmd.eval_value
      ~argv:(Array.of_list ("test" :: args))
      (Cmd.v (Cmd.info "test") Session.term)
  with
  | Ok (`Ok s) -> s
  | _ -> Alcotest.failf "the session term rejected %s" (String.concat " " args)

(* The whole session, sentinel included: three 1 s runs in the baseline
   ledger, then each campaign outcome once with a 1 s run (clean) and
   once with a 100 s run (far above the band). *)
let test_run_precedence () =
  with_session_state @@ fun path ->
  Solver.set_config Solver.default_config;
  let config = Provenance.config ~jobs:3 ~fast:false in
  for _ = 1 to 3 do
    History.append path
      (History.entry ~kind:"sepe" ~label:"unit"
         ~provenance:(History.provenance ~config ())
         ~run:(wall 1.0))
  done;
  let s = session [ "--baseline"; path ] in
  List.iter
    (fun (name, summary, code) ->
      List.iter
        (fun (run_wall, regressed) ->
          Alcotest.(check int)
            (Printf.sprintf "%s, %s" name
               (if regressed then "regressed" else "clean"))
            (if code = 0 && regressed then 5 else code)
            (Session.run s ~kind:"sepe" ~label:"unit" ~jobs:3 ~fast:false
               ~payload:(fun () -> wall run_wall)
               (fun () -> summary)))
        [ (1.0, false); (100.0, true) ])
    summaries;
  (* A bench-shaped payload: the sentinel gates each experiment's
     process CPU time, so a run whose fig3 CPU time triples at the same
     wall time and work trips it. *)
  let bench cpu =
    Json.Obj
      [
        ( "experiments",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "fig3");
                  ("wall_s", Json.Float 40.0);
                  ("cpu_s", Json.Float cpu);
                  ("clauses", Json.Int 7_790_373);
                  ("conflicts", Json.Int 253_086);
                ];
            ] );
      ]
  in
  let config = Provenance.config ~jobs:1 ~fast:true in
  for _ = 1 to 3 do
    History.append path
      (History.entry ~kind:"bench" ~label:"fig3"
         ~provenance:(History.provenance ~config ())
         ~run:(bench 35.0))
  done;
  List.iter
    (fun (cpu, code) ->
      Alcotest.(check int)
        (Printf.sprintf "bench, cpu_s %.0f" cpu)
        code
        (Session.run s ~kind:"bench" ~label:"fig3" ~jobs:1 ~fast:true
           ~payload:(fun () -> bench cpu)
           (fun () -> Verdict.empty)))
    [ (35.0, 0); (105.0, 5) ]

let test_ledger_jobs () =
  with_session_state @@ fun path ->
  Sys.remove path;
  let s = session [ "--ledger"; path ] in
  let code =
    Session.run s ~kind:"sepe" ~label:"table" ~jobs:3 ~fast:true (fun () ->
        Verdict.empty)
  in
  Alcotest.(check int) "clean run exits 0" 0 code;
  match (History.load path).History.entries with
  | [ e ] ->
      let config key = Option.bind (History.config_of e) (Json.member key) in
      Alcotest.(check bool) "jobs = 3" true (config "jobs" = Some (Json.Int 3));
      Alcotest.(check bool) "fast = true" true
        (config "fast" = Some (Json.Bool true));
      Alcotest.(check bool) "label" true
        (Json.member "label" e = Some (Json.String "table"))
  | es -> Alcotest.failf "expected one ledger entry, got %d" (List.length es)

let suite =
  [
    Alcotest.test_case "exit code: degraded outranks regression" `Quick
      test_exit_code;
    Alcotest.test_case "run: exit code under the sentinel" `Quick
      test_run_precedence;
    Alcotest.test_case "run: ledger entry stamps the caller's jobs" `Quick
      test_ledger_jobs;
  ]
