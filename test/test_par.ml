(* Tests for the domain worker pool (Sqed_par.Pool) and the campaign
   runner built on it (Sqed_par.Campaign).  The synthesis cross-check is
   the correctness anchor for the whole multicore design: a parallel
   fan-out must synthesize exactly the same programs as the sequential
   one. *)

module Pool = Sqed_par.Pool
module Synth = Sqed_synth

(* Every task's value, failing the test on a task error. *)
let values rs =
  List.map
    (function
      | Ok v -> v
      | Error e -> Alcotest.failf "task failed: %s" e.Pool.error)
    rs

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let xs = List.init 100 Fun.id in
      let ys = values (Pool.map_result p (fun x -> x * x) xs) in
      Alcotest.(check (list int))
        "squares in order"
        (List.map (fun x -> x * x) xs)
        ys)

let test_map_inline () =
  (* jobs = 1 runs tasks inline on the caller, in order, no domains. *)
  Pool.with_pool ~jobs:1 (fun p ->
      Alcotest.(check int) "one worker" 1 (Pool.jobs p);
      let ys = values (Pool.map_result p (fun x -> x + 1) [ 1; 2; 3 ]) in
      Alcotest.(check (list int)) "inline path" [ 2; 3; 4 ] ys)

let test_batch_reuse () =
  (* A pool must survive several batches. *)
  Pool.with_pool ~jobs:3 (fun p ->
      for i = 1 to 5 do
        let ys = values (Pool.map_result p (fun x -> x * i) [ 1; 2; 3 ]) in
        Alcotest.(check (list int)) "batch" [ i; 2 * i; 3 * i ] ys
      done)

let test_iter () =
  Pool.with_pool ~jobs:4 (fun p ->
      let total = Atomic.make 0 in
      ignore
        (values
           (Pool.map_result p
              (fun x -> ignore (Atomic.fetch_and_add total x))
              (List.init 50 Fun.id)));
      Alcotest.(check int) "side effects all ran" (50 * 49 / 2)
        (Atomic.get total))

let test_exception_propagates () =
  (* A raising task comes back at the join point as that task's error,
     after its one retry; its neighbours still run. *)
  Pool.with_pool ~jobs:2 (fun p ->
      let rs =
        Pool.map_result p
          (fun x -> if x = 7 then failwith "boom" else x)
          (List.init 16 Fun.id)
      in
      List.iteri
        (fun i r ->
          match r with
          | Ok v when i <> 7 -> Alcotest.(check int) "neighbour ran" i v
          | Error e when i = 7 ->
              Alcotest.(check string) "message" "Failure(\"boom\")" e.Pool.error;
              Alcotest.(check int) "retried once" 2 e.Pool.attempts
          | _ -> Alcotest.failf "task %d: unexpected outcome" i)
        rs);
  (* The pool that saw a failure must still be usable for the next batch. *)
  Pool.with_pool ~jobs:2 (fun p ->
      ignore (Pool.map_result p (fun _ -> failwith "x") [ 1 ]);
      Alcotest.(check (list int)) "usable after failure" [ 4 ]
        (values (Pool.map_result p (fun x -> x * 2) [ 2 ])))

let test_stats () =
  Pool.with_pool ~jobs:2 (fun p ->
      ignore (Pool.map_result p Fun.id (List.init 10 Fun.id));
      let ws = Pool.stats p in
      Alcotest.(check int) "one slot per worker" (Pool.jobs p) (List.length ws);
      let total = List.fold_left (fun acc w -> acc + w.Pool.tasks) 0 ws in
      Alcotest.(check int) "all tasks accounted" 10 total)

let test_env_knob () =
  Unix.putenv "SEPE_JOBS" "3";
  let d = Pool.default_jobs () in
  Unix.putenv "SEPE_JOBS" "";
  Alcotest.(check int) "SEPE_JOBS honoured" 3 d;
  Alcotest.(check bool) "fallback positive" true (Pool.default_jobs () >= 1)

(* ---------------------------------------------------------------- *)
(* Parallel synthesis equals sequential synthesis                    *)
(* ---------------------------------------------------------------- *)

let campaign_fingerprint jobs =
  let options =
    {
      Synth.Engine.default_options with
      Synth.Engine.k = 1;
      n_max = 3;
      time_budget = Some 60.0;
      config = { Synth.Cegis.default_config with Synth.Cegis.xlen = 8 };
    }
  in
  Pool.with_pool ~jobs (fun p ->
      values
      @@ Pool.map_result p
        (fun case ->
          let r =
            Synth.Hpf.synthesize ~options ~spec:(Synth.Library_.spec case)
              ~library:Synth.Library_.default ()
          in
          ( case,
            List.sort compare
              (List.map Synth.Program.to_string r.Synth.Engine.programs) ))
        [ "ADD"; "XOR"; "SUB" ])

let test_parallel_matches_sequential () =
  let seq = campaign_fingerprint 1 in
  let par = campaign_fingerprint 3 in
  Alcotest.(check (list (pair string (list string))))
    "same programs modulo order" seq par;
  Alcotest.(check bool) "something was synthesized" true
    (List.exists (fun (_, ps) -> ps <> []) seq)

(* ---------------------------------------------------------------- *)
(* The campaign runner                                               *)
(* ---------------------------------------------------------------- *)

module Campaign = Sqed_par.Campaign
module Verdict = Sqed_resil.Verdict
module Journal = Sqed_resil.Journal
module Fault = Sqed_resil.Fault
module Report = Sqed_obs.Report
module Json = Sqed_obs.Json

let int_codec = { Campaign.encode = (fun n -> Json.Int n); decode = Json.to_int_opt }

let toy_key n = Printf.sprintf "toy/%d" n

let statuses () =
  List.sort compare
    (List.map (fun r -> (r.Report.rc_key, r.Report.rc_status)) (Report.cases ()))

let test_campaign_resume () =
  let path = Filename.temp_file "sepe_campaign" ".jsonl" in
  let j = Journal.open_ path in
  (* Not what the task would compute: proves the value was decoded. *)
  Journal.record j (toy_key 2) (Json.Int 99);
  Journal.close j;
  Report.reset ();
  let ran = Atomic.make 0 in
  let vs, s =
    Campaign.run ~jobs:2 ~checkpoint:(path, int_codec) ~key:toy_key "toy"
      (fun n ->
        Atomic.incr ran;
        Verdict.Ok (n * 10))
      [ 1; 2; 3 ]
  in
  Sys.remove path;
  Alcotest.(check bool) "resumed task decoded, order kept" true
    (vs = [ Verdict.Ok 10; Verdict.Ok 99; Verdict.Ok 30 ]);
  Alcotest.(check int) "journaled task did not run" 2 (Atomic.get ran);
  Alcotest.(check (pair int int)) "ok / skipped" (2, 1)
    (s.Verdict.ok, s.Verdict.skipped);
  Alcotest.(check bool) "one report row per task, resumed one skipped" true
    (statuses ()
    = [
        ("toy/1", Report.Ok); ("toy/2", Report.Skipped); ("toy/3", Report.Ok);
      ])

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_campaign_degraded () =
  Report.reset ();
  let vs, s =
    Campaign.run ~jobs:1 ~key:toy_key "toy"
      (function
        | 1 -> failwith "boom"
        | 2 -> raise (Sqed_resil.Budget.Exhausted Sqed_resil.Budget.Deadline)
        | 3 -> Verdict.Unknown "gave up"
        | n -> Verdict.Ok n)
      [ 1; 2; 3; 4 ]
  in
  (match vs with
  | [ Verdict.Failed crash; Verdict.Unknown over; Verdict.Unknown "gave up";
      Verdict.Ok 4 ] ->
      Alcotest.(check bool) "raising task retried once" true
        (contains crash "boom" && contains crash "(attempts: 2)");
      Alcotest.(check bool) "exhausted task not retried" true
        (contains over "(attempts: 1)")
  | _ -> Alcotest.fail "expected Failed, Unknown, Unknown, Ok");
  Alcotest.(check (list int)) "ok / unknown / failed / skipped" [ 1; 2; 1; 0 ]
    [ s.Verdict.ok; s.Verdict.unknown; s.Verdict.failed; s.Verdict.skipped ];
  Alcotest.(check bool) "one report row per task" true
    (statuses ()
    = [
        ("toy/1", Report.Failed); ("toy/2", Report.Unknown);
        ("toy/3", Report.Unknown); ("toy/4", Report.Ok);
      ])

let test_campaign_failed_write () =
  let path = Filename.temp_file "sepe_campaign" ".jsonl" in
  let run () =
    let ran = ref [] in
    let _, s =
      Campaign.run ~jobs:1 ~checkpoint:(path, int_codec) ~key:toy_key "toy"
        (fun n ->
          ran := n :: !ran;
          Verdict.Ok n)
        [ 1; 2; 3 ]
    in
    (List.rev !ran, s)
  in
  Fault.configure "checkpoint.write:1";
  let ran1, s1 = Fun.protect ~finally:Fault.reset run in
  let ran2, s2 = run () in
  Sys.remove path;
  Alcotest.(check (list int)) "first run computes every task" [ 1; 2; 3 ] ran1;
  Alcotest.(check int) "a failed append is not a failed task" 3 s1.Verdict.ok;
  Alcotest.(check (list int)) "the unjournaled task is recomputed" [ 1 ] ran2;
  Alcotest.(check (pair int int)) "ok / skipped on resume" (1, 2)
    (s2.Verdict.ok, s2.Verdict.skipped)

let suite =
  [
    Alcotest.test_case "map keeps order" `Quick test_map_order;
    Alcotest.test_case "jobs=1 runs inline" `Quick test_map_inline;
    Alcotest.test_case "pool survives batches" `Quick test_batch_reuse;
    Alcotest.test_case "iter runs every task" `Quick test_iter;
    Alcotest.test_case "task exception re-raises" `Quick
      test_exception_propagates;
    Alcotest.test_case "per-worker stats" `Quick test_stats;
    Alcotest.test_case "SEPE_JOBS knob" `Quick test_env_knob;
    Alcotest.test_case "parallel = sequential synthesis" `Slow
      test_parallel_matches_sequential;
    Alcotest.test_case "campaign resumes journaled tasks" `Quick
      test_campaign_resume;
    Alcotest.test_case "campaign degrades raising and exhausted tasks" `Quick
      test_campaign_degraded;
    Alcotest.test_case "campaign recomputes an unjournaled task" `Quick
      test_campaign_failed_write;
  ]
