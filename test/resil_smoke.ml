(* End-to-end resilience smoke (the @resil-smoke alias).

   A small fig3-style synthesis campaign runs under injected faults —
   one pool-task crash plus one failed checkpoint append — and must
   complete with partial results: one FAILED cell, every other cell
   normal, the completed cells journaled.  A second run over the same
   journal must resume, skipping the journaled cells and recomputing
   only the crashed-or-unjournaled ones.  Finally a solve whose deadline
   sits below its bit-blast time must come back Unknown promptly with
   the solver still usable.

   Everything runs with jobs=1 so the fault schedule is deterministic:
   the four cells run in order (ADD/hpf, ADD/iter, SUB/hpf, SUB/iter),
   the first checkpoint append fails (ADD/hpf stays unjournaled), and
   the second pool task (ADD/iter) crashes. *)

module Budget = Sqed_resil.Budget
module Fault = Sqed_resil.Fault
module Verdict = Sqed_resil.Verdict
module Metrics = Sqed_obs.Metrics
module Term = Sqed_smt.Term
module Solver = Sqed_smt.Solver

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    Printf.printf "FAIL %s\n%!" name;
    incr failures
  end

let () =
  let ckpt = Filename.temp_file "sepe_resil_smoke" ".jsonl" in
  let campaign () =
    Sqed_exp.Fig3.run ~jobs:1 ~witness:false ~checkpoint:ckpt
      ~cases:[ "ADD"; "SUB" ] ~seeds:[ 1 ] ~k:1 ~time_budget:5.0 ()
  in
  (* Run 1: degraded but complete. *)
  Fault.configure "pool.task:2,checkpoint.write:1";
  let s1 = campaign () in
  Fault.reset ();
  check "run 1 completed degraded" (Verdict.degraded s1);
  check "run 1: exactly one injected task failure" (s1.Verdict.failed = 1);
  check "run 1: the other three cells are ok" (s1.Verdict.ok = 3);
  check "run 1: nothing skipped" (s1.Verdict.skipped = 0);
  check "run 1: degraded exit code is 4" (Verdict.exit_code s1 = 4);
  check "faults were actually injected"
    (Metrics.find_counter "resil.faults_injected" >= 2);
  (* Run 2: resume over the same journal.  The crashed cell and the one
     whose append was failed get recomputed; the two journaled cells are
     skipped. *)
  let s2 = campaign () in
  check "run 2: resumed the two journaled cells" (s2.Verdict.skipped = 2);
  check "run 2: recomputed the remaining two" (s2.Verdict.ok = 2);
  check "run 2: clean this time" (not (Verdict.degraded s2));
  (try Sys.remove ckpt with Sys_error _ -> ());
  (* Mid-solve deadline: heavy encoding as an assumption so bit-blasting
     happens inside the budgeted check. *)
  let s = Solver.create () in
  let x = Term.var "smoke_x" 64 and y = Term.var "smoke_y" 64 in
  let heavy = ref (Term.mul x y) in
  for _ = 1 to 6 do
    heavy :=
      Term.mul (Term.udiv !heavy (Term.add y (Term.of_int ~width:64 3))) x
  done;
  let t0 = Unix.gettimeofday () in
  let r =
    Budget.within ~deadline:(t0 +. 0.05) (fun () ->
        Solver.check
          ~assumptions:[ Term.distinct !heavy (Term.of_int ~width:64 1) ]
          s)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check "mid-blast deadline answers Unknown" (r = Solver.Unknown);
  check
    (Printf.sprintf "deadline honored promptly (%.3fs)" elapsed)
    (elapsed < 1.0);
  let z = Term.var "smoke_z" 8 in
  Solver.assert_ s (Term.eq z (Term.of_int ~width:8 7));
  check "solver reusable after interrupted solve" (Solver.check s = Solver.Sat);
  if !failures > 0 then begin
    Printf.printf "resil-smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "resil-smoke: all checks passed"
