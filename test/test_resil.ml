(* The resilience layer: budgets, fault injection, the checkpoint
   journal, supervised pool mapping, and — the property the whole
   cancellation design hangs on — that a budget-interrupted solve leaves
   the incremental solver in exactly the state an uninterrupted one
   would be in. *)

module Budget = Sqed_resil.Budget
module Fault = Sqed_resil.Fault
module Journal = Sqed_resil.Journal
module Verdict = Sqed_resil.Verdict
module Json = Sqed_obs.Json
module Pool = Sqed_par.Pool
module Sat = Sqed_sat.Sat
module Term = Sqed_smt.Term
module Solver = Sqed_smt.Solver

(* ---- budgets --------------------------------------------------------- *)

let test_budget_unlimited () =
  let b = Budget.create () in
  Alcotest.(check bool) "no limits is unlimited" true (Budget.is_unlimited b);
  for _ = 1 to 10_000 do
    Budget.check b
  done;
  Alcotest.(check bool) "never over" true (Budget.over b = None)

let spin_until_exhausted b =
  try
    (* The clock is only sampled every few hundred ticks, so give the
       check loop plenty of iterations. *)
    for _ = 1 to 100_000 do
      Budget.check b
    done;
    None
  with Budget.Exhausted r -> Some r

let test_budget_deadline () =
  let b = Budget.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  Alcotest.(check bool)
    "over reports deadline" true
    (Budget.over b = Some Budget.Deadline);
  let b = Budget.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  Alcotest.(check bool)
    "check raises Deadline" true
    (spin_until_exhausted b = Some Budget.Deadline)

let test_budget_conflicts () =
  let b = Budget.create ~max_conflicts:5 () in
  Budget.charge b 3;
  Budget.check b;
  Budget.charge b 2;
  Alcotest.(check bool)
    "cap consumed" true
    (spin_until_exhausted b = Some Budget.Conflicts);
  Alcotest.(check bool)
    "keeps raising" true
    (spin_until_exhausted b = Some Budget.Conflicts)

let test_budget_cancel () =
  let b = Budget.create ~max_conflicts:1000 () in
  Budget.cancel b;
  Alcotest.(check bool)
    "cancelled" true
    (spin_until_exhausted b = Some Budget.Cancelled)

let test_budget_ambient () =
  Alcotest.(check bool)
    "default ambient is unlimited" true
    (Budget.is_unlimited (Budget.current ()));
  let b = Budget.create ~max_conflicts:7 () in
  Budget.with_current b (fun () ->
      Alcotest.(check bool) "bound inside" true (Budget.current () == b));
  Alcotest.(check bool)
    "restored outside" true
    (Budget.is_unlimited (Budget.current ()))

let test_within_narrows () =
  let now = Unix.gettimeofday () in
  let parent = Budget.create ~deadline:(now +. 100.0) ~max_conflicts:50 () in
  Budget.with_current parent (fun () ->
      Budget.within ~deadline:(now +. 10.0) ~max_conflicts:80 (fun () ->
          let c = Budget.current () in
          Alcotest.(check bool) "tighter deadline (argument)" true
            (Budget.deadline c = now +. 10.0);
          Alcotest.(check int) "smaller allowance (parent)" 50
            (Budget.conflicts_remaining c));
      Budget.within ~deadline:(now +. 1000.0) ~max_conflicts:20 (fun () ->
          let c = Budget.current () in
          Alcotest.(check bool) "tighter deadline (parent)" true
            (Budget.deadline c = now +. 100.0);
          Alcotest.(check int) "smaller allowance (argument)" 20
            (Budget.conflicts_remaining c)))

let test_within_no_limits () =
  let parent = Budget.create ~max_conflicts:9 () in
  Budget.with_current parent (fun () ->
      Budget.within (fun () ->
          Alcotest.(check bool) "same budget inside" true
            (Budget.current () == parent)))

let test_within_charges_parent () =
  let parent = Budget.create ~max_conflicts:100 () in
  Budget.with_current parent (fun () ->
      Budget.within ~max_conflicts:50 (fun () ->
          Budget.charge (Budget.current ()) 7);
      Alcotest.(check int) "charged on normal exit" 93
        (Budget.conflicts_remaining parent);
      (try
         Budget.within ~deadline:(Unix.gettimeofday () +. 60.0) (fun () ->
             Budget.charge (Budget.current ()) 3;
             failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "charged when f raises" 90
        (Budget.conflicts_remaining parent))

let test_within_sees_cancel () =
  let parent = Budget.create ~max_conflicts:1000 () in
  Budget.with_current parent (fun () ->
      Budget.within ~max_conflicts:10 (fun () ->
          let child = Budget.current () in
          Alcotest.(check bool) "live before" true (Budget.over child = None);
          Budget.cancel parent;
          Alcotest.(check bool) "child over reports Cancelled" true
            (Budget.over child = Some Budget.Cancelled)))

let test_within_outer_deadline_wins () =
  let s = Solver.create () in
  let x = Term.var "w_x" 8 and y = Term.var "w_y" 8 in
  Solver.assert_ s (Term.eq (Term.add x y) (Term.of_int ~width:8 5));
  let now = Unix.gettimeofday () in
  let r =
    Budget.with_current (Budget.create ~deadline:(now -. 1.0) ()) (fun () ->
        Budget.within ~deadline:(now +. 60.0) (fun () -> Solver.check s))
  in
  Alcotest.(check bool) "unknown" true (r = Solver.Unknown);
  Alcotest.(check bool) "reason deadline" true
    (Solver.last_unknown s = Some Budget.Deadline)

(* ---- fault injection ------------------------------------------------- *)

let test_fault_nth () =
  Fault.configure "site_a:2";
  Fault.check "site_a";
  (* 1st: armed but not yet *)
  Alcotest.check_raises "2nd check fires" (Fault.Injected "site_a") (fun () ->
      Fault.check "site_a");
  Fault.check "site_a";
  (* 3rd: Nth fires once *)
  Fault.check "other_site";
  (* other sites unaffected *)
  Fault.reset ()

let test_fault_every () =
  Fault.configure "site_b:1/2";
  let fired i =
    match Fault.check "site_b" with
    | () -> false
    | exception Fault.Injected _ -> i |> ignore; true
  in
  Alcotest.(check (list bool))
    "fires on 1, 3, 5"
    [ true; false; true; false; true ]
    (List.map fired [ 1; 2; 3; 4; 5 ]);
  Fault.reset ()

let test_fault_spec_errors () =
  List.iter
    (fun spec ->
      match Fault.configure spec with
      | () -> Alcotest.failf "accepted malformed spec %S" spec
      | exception Invalid_argument _ -> ())
    [ "nocolon"; "site:"; "site:0"; "site:x"; "site:p200@1" ];
  Fault.reset ()

(* ---- checkpoint journal ---------------------------------------------- *)

let with_temp_journal f =
  let path = Filename.temp_file "sepe_test_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_journal_roundtrip () =
  with_temp_journal @@ fun path ->
  let j = Journal.open_ path in
  Alcotest.(check bool) "empty journal" false (Journal.mem j "a");
  Journal.record j "a" (Json.Int 1);
  Journal.record j "b" (Json.String "row");
  Journal.close j;
  let j2 = Journal.open_ path in
  Alcotest.(check bool) "a resumed" true (Journal.mem j2 "a");
  Alcotest.(check bool)
    "b value survives" true
    (Journal.find j2 "b" = Some (Json.String "row"));
  Alcotest.(check int) "two entries" 2 (Journal.entries j2);
  Journal.close j2

let test_journal_torn_line () =
  with_temp_journal @@ fun path ->
  let j = Journal.open_ path in
  Journal.record j "a" (Json.Int 1);
  Journal.close j;
  (* Simulate a crash mid-append: a torn trailing line, no newline. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"key\":\"b\",\"resu";
  close_out oc;
  let j2 = Journal.open_ path in
  Alcotest.(check int) "torn line dropped" 1 (Journal.entries j2);
  (* Appending after the torn line must not fuse onto its bytes. *)
  Journal.record j2 "c" (Json.Int 3);
  Journal.close j2;
  let j3 = Journal.open_ path in
  Alcotest.(check bool) "post-torn record readable" true (Journal.mem j3 "c");
  Alcotest.(check int) "a and c survive" 2 (Journal.entries j3);
  Journal.close j3

let test_journal_fault () =
  with_temp_journal @@ fun path ->
  let j = Journal.open_ path in
  Fault.configure "checkpoint.write:1";
  (match Journal.try_record j "a" (Json.Int 1) with
  | Ok () -> Alcotest.fail "injected append did not fail"
  | Error _ -> ());
  Fault.reset ();
  Alcotest.(check bool)
    "failed append left no entry" false (Journal.mem j "a");
  Alcotest.(check bool)
    "next append works" true
    (Journal.try_record j "a" (Json.Int 1) = Ok ());
  Journal.close j

(* ---- supervised pool mapping ----------------------------------------- *)

let test_map_result_ok () =
  Pool.with_pool ~jobs:2 @@ fun p ->
  let rs = Pool.map_result p (fun x -> x * x) [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int))
    "all ok in order" [ 1; 4; 9; 16 ]
    (List.map (function Ok v -> v | Error _ -> -1) rs)

let test_map_result_transient_retry () =
  Pool.with_pool ~jobs:1 @@ fun p ->
  let attempts = ref 0 in
  let rs =
    Pool.map_result p
      (fun x ->
        incr attempts;
        if !attempts = 1 then failwith "flaky";
        x * 2)
      [ 21 ]
  in
  Alcotest.(check bool) "retried to success" true (rs = [ Ok 42 ]);
  Alcotest.(check int) "two attempts" 2 !attempts

let test_map_result_persistent_failure () =
  Pool.with_pool ~jobs:1 @@ fun p ->
  match Pool.map_result p (fun _ -> failwith "boom") [ () ] with
  | [ Error e ] ->
      Alcotest.(check int) "initial + 1 retry" 2 e.Pool.attempts;
      Alcotest.(check bool) "not a budget failure" false e.Pool.exhausted
  | _ -> Alcotest.fail "expected one Error"

let test_map_result_injected_not_retried () =
  Fault.configure "pool.task:1";
  let rs =
    Pool.with_pool ~jobs:1 (fun p ->
        Pool.map_result p (fun x -> x) [ 1; 2 ])
  in
  Fault.reset ();
  match rs with
  | [ Error e; Ok 2 ] ->
      Alcotest.(check int) "injected fault fails immediately" 1 e.Pool.attempts
  | _ -> Alcotest.fail "expected first task injected, second ok"

let test_map_result_task_deadline () =
  Pool.with_pool ~jobs:1 @@ fun p ->
  let rs =
    Pool.map_result p
      (fun x ->
        Budget.within ~deadline:(Unix.gettimeofday ()) (fun () ->
            for _ = 1 to 100_000 do
              Budget.check (Budget.current ())
            done;
            x))
      [ 1 ]
  in
  match rs with
  | [ Error e ] ->
      Alcotest.(check bool) "deadline maps to exhausted" true e.Pool.exhausted;
      Alcotest.(check int) "budget exhaustion is not retried" 1 e.Pool.attempts
  | _ -> Alcotest.fail "expected the task's own budget to expire"

(* ---- verdicts --------------------------------------------------------- *)

let test_verdict_summary () =
  let s =
    Verdict.count ~skipped:2
      [ Verdict.Ok (); Verdict.Ok (); Verdict.Unknown "slow"; Verdict.Failed "x" ]
  in
  Alcotest.(check bool) "degraded" true (Verdict.degraded s);
  Alcotest.(check int) "failed dominates exit" 4 (Verdict.exit_code s);
  Alcotest.(check int) "unknown-only exits 3" 3
    (Verdict.exit_code (Verdict.count [ Verdict.Ok (); Verdict.Unknown "u" ]));
  Alcotest.(check int) "clean exits 0" 0
    (Verdict.exit_code (Verdict.count [ Verdict.Ok () ]))

(* ---- cancellation soundness (SAT level) ------------------------------- *)

(* An interrupted (Unknown) solve must leave the solver in a state where
   continued incremental use agrees with a solver that was never
   interrupted: same clauses, same final answers. *)

let random_cnf st ids nclauses =
  List.init nclauses (fun _ ->
      let len = 1 + Random.State.int st 3 in
      List.init len (fun _ ->
          let v = ids.(Random.State.int st (Array.length ids)) in
          if Random.State.bool st then Sat.pos v else Sat.neg_of_var v))

let test_sat_interrupted_agrees () =
  let st = Random.State.make [| 0x5e9e |] in
  for _round = 1 to 25 do
    let nvars = 8 + Random.State.int st 8 in
    let s_int = Sat.create () and s_ref = Sat.create () in
    let ids = Array.init nvars (fun _ -> Sat.new_var s_int) in
    let ids_ref = Array.init nvars (fun _ -> Sat.new_var s_ref) in
    Alcotest.(check bool)
      "fresh solvers allocate identical ids" true (ids = ids_ref);
    let first = random_cnf st ids (2 * nvars) in
    let second = random_cnf st ids nvars in
    List.iter (Sat.add_clause s_int) first;
    List.iter (Sat.add_clause s_ref) first;
    (* Interrupt: an allowance of zero stops the search at its first
       poll; instances decided at level 0 may still answer. *)
    (match Budget.within ~max_conflicts:0 (fun () -> Sat.solve s_int) with
    | Sat.Sat | Sat.Unsat | Sat.Unknown -> ());
    (* Also interrupt via a calling-domain budget that is already spent. *)
    (match
       Budget.with_current
         (Budget.create ~deadline:(Unix.gettimeofday () -. 1.0) ())
         (fun () -> Sat.solve s_int)
     with
    | Sat.Unknown -> ()
    | Sat.Sat | Sat.Unsat -> ());
    (* Continue incrementally on both and compare final verdicts. *)
    List.iter (Sat.add_clause s_int) second;
    List.iter (Sat.add_clause s_ref) second;
    let a = Sat.solve s_int and b = Sat.solve s_ref in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: interrupted solver agrees" _round)
      true (a = b);
    Alcotest.(check bool) "reference answered" true (b <> Sat.Unknown)
  done

(* ---- cancellation soundness (SMT level, simplify x AIG matrix) -------- *)

let rec random_term st vars depth =
  if depth = 0 then
    match Random.State.int st 3 with
    | 0 -> Term.of_int ~width:8 (Random.State.int st 256)
    | _ -> vars.(Random.State.int st (Array.length vars))
  else
    let a = random_term st vars (depth - 1) in
    let b = random_term st vars (depth - 1) in
    match Random.State.int st 7 with
    | 0 -> Term.add a b
    | 1 -> Term.sub a b
    | 2 -> Term.and_ a b
    | 3 -> Term.or_ a b
    | 4 -> Term.xor a b
    | 5 -> Term.mul a b
    | _ -> Term.ite (Term.ult a b) a b

let random_constraint st vars =
  let a = random_term st vars 3 and b = random_term st vars 3 in
  match Random.State.int st 3 with
  | 0 -> Term.eq a b
  | 1 -> Term.ult a b
  | _ -> Term.distinct a b

let test_smt_interrupted_agrees () =
  let vars = Array.init 3 (fun i -> Term.var (Printf.sprintf "rz%d" i) 8) in
  List.iter
    (fun simplify ->
      (* The trailing 1 pins the seeds these rounds have always used. *)
      let st = Random.State.make [| 0xca11; Bool.to_int simplify; 1 |] in
      let config = { Solver.default_config with Solver.simplify } in
      for round = 1 to 6 do
        let phi1 = random_constraint st vars in
        let phi2 = random_constraint st vars in
        let s_int = Solver.create ~config () in
        let s_ref = Solver.create ~config () in
        Solver.assert_ s_int phi1;
        Solver.assert_ s_ref phi1;
        (* Interrupted check: a deadline in the past bounds the whole
           call, so it must answer Unknown without corrupting state. *)
        Alcotest.(check bool)
          (Printf.sprintf "simplify=%b round %d: past deadline is Unknown"
             simplify round)
          true
          (Budget.within ~deadline:(Unix.gettimeofday () -. 1.0) (fun () ->
               Solver.check s_int)
          = Solver.Unknown);
        Solver.assert_ s_int phi2;
        Solver.assert_ s_ref phi2;
        let a = Solver.check s_int and b = Solver.check s_ref in
        Alcotest.(check bool)
          (Printf.sprintf "simplify=%b round %d: verdicts agree" simplify
             round)
          true (a = b);
        (* A Sat answer must come with a model satisfying both
           constraints — on the previously interrupted solver too. *)
        if a = Solver.Sat then
          Alcotest.(check bool)
            "model satisfies the assertions" true
            (Sqed_bv.Bv.to_int
               (Solver.model_value s_int (Term.and_ phi1 phi2))
            = 1)
      done)
    [ true; false ]

(* ---- acceptance: deadline below bit-blast time ------------------------ *)

let test_deadline_below_bitblast () =
  let s = Solver.create () in
  (* Heavy encoding: wide multiplies and a divider chain blast far more
     gates than a 50 ms budget allows.  Passed as an assumption so the
     blasting happens inside the budgeted check, not at assert time. *)
  let x = Term.var "heavy_x" 64 and y = Term.var "heavy_y" 64 in
  let heavy = ref (Term.mul x y) in
  for _ = 1 to 6 do
    heavy := Term.mul (Term.udiv !heavy (Term.add y (Term.of_int ~width:64 3))) x
  done;
  let assumption = Term.distinct !heavy (Term.of_int ~width:64 1) in
  let budget_s = 0.05 in
  let t0 = Unix.gettimeofday () in
  let r =
    Budget.within ~deadline:(t0 +. budget_s) (fun () ->
        Solver.check ~assumptions:[ assumption ] s)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "mid-blast deadline answers Unknown" true (r = Solver.Unknown);
  (* The issue's acceptance bound is 2x the deadline; allow generous CI
     slack on top — the point is seconds-vs-milliseconds, not jitter. *)
  Alcotest.(check bool)
    (Printf.sprintf "returned within bound (%.3fs)" elapsed)
    true
    (elapsed < Float.max (2.0 *. budget_s) 1.0);
  (* The solver must remain usable: finish with a trivial check. *)
  let z = Term.var "heavy_z" 8 in
  Solver.assert_ s (Term.eq z (Term.of_int ~width:8 5));
  Alcotest.(check bool) "solver reusable after Unknown" true (Solver.check s = Solver.Sat);
  Alcotest.(check bool)
    "model readable" true
    (Sqed_bv.Bv.to_int (Solver.model_var s z) = 5)

let suite =
  [
    Alcotest.test_case "budget: unlimited" `Quick test_budget_unlimited;
    Alcotest.test_case "budget: deadline" `Quick test_budget_deadline;
    Alcotest.test_case "budget: conflict cap" `Quick test_budget_conflicts;
    Alcotest.test_case "budget: cancel" `Quick test_budget_cancel;
    Alcotest.test_case "budget: ambient binding" `Quick test_budget_ambient;
    Alcotest.test_case "budget: within narrows" `Quick test_within_narrows;
    Alcotest.test_case "budget: within without limits" `Quick
      test_within_no_limits;
    Alcotest.test_case "budget: within charges parent" `Quick
      test_within_charges_parent;
    Alcotest.test_case "budget: within sees cancel" `Quick
      test_within_sees_cancel;
    Alcotest.test_case "budget: outer deadline bounds check" `Quick
      test_within_outer_deadline_wins;
    Alcotest.test_case "fault: site:N" `Quick test_fault_nth;
    Alcotest.test_case "fault: site:N/M" `Quick test_fault_every;
    Alcotest.test_case "fault: malformed specs" `Quick test_fault_spec_errors;
    Alcotest.test_case "journal: roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal: torn line" `Quick test_journal_torn_line;
    Alcotest.test_case "journal: injected write fault" `Quick test_journal_fault;
    Alcotest.test_case "map_result: all ok" `Quick test_map_result_ok;
    Alcotest.test_case "map_result: transient retry" `Quick
      test_map_result_transient_retry;
    Alcotest.test_case "map_result: persistent failure" `Quick
      test_map_result_persistent_failure;
    Alcotest.test_case "map_result: injected not retried" `Quick
      test_map_result_injected_not_retried;
    Alcotest.test_case "map_result: task deadline" `Quick
      test_map_result_task_deadline;
    Alcotest.test_case "verdict: summary and exit codes" `Quick
      test_verdict_summary;
    Alcotest.test_case "sat: interrupted solver agrees (fuzz)" `Quick
      test_sat_interrupted_agrees;
    Alcotest.test_case "smt: interrupted solver agrees (matrix fuzz)" `Quick
      test_smt_interrupted_agrees;
    Alcotest.test_case "smt: deadline below bit-blast time" `Quick
      test_deadline_below_bitblast;
  ]
