(* Differential fuzz and unit tests for Sqed_sat.Portfolio: a portfolio
   solve must return the same verdict as a single-engine solve on the
   same instance (models checked against the original clauses), across
   the simplify × AIG matrix and through the incremental/assumption API;
   repeat runs must be bit-identical; a budget-exhausted portfolio, or
   one whose losers were stopped by a win, must leave the master solver
   fully reusable. *)

module Sat = Sqed_sat.Sat
module Portfolio = Sqed_sat.Portfolio
module Budget = Sqed_resil.Budget
module Smt = Sqed_smt

type cnf = int list list (* positive ints 1..n, negative for negated *)

let cnf_print cnf =
  String.concat " & "
    (List.map
       (fun c -> "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
       cnf)

let gen_cnf ~nvars ~max_len : cnf QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_lit =
    map2 (fun v s -> if s then v + 1 else -(v + 1)) (int_bound (nvars - 1)) bool
  in
  int_range 5 60 >>= fun ncl ->
  list_size (return ncl) (list_size (int_range 1 max_len) gen_lit)

let load ~simplify ~nvars (cnf : cnf) =
  let s = Sat.create () in
  Sat.set_simplify s simplify;
  let v = Array.init nvars (fun _ -> Sat.new_var s) in
  List.iter
    (fun clause ->
      Sat.add_clause s
        (List.map
           (fun l ->
             let var = v.(abs l - 1) in
             if l > 0 then Sat.pos var else Sat.neg_of_var var)
           clause))
    cnf;
  (s, v)

let model_ok s v (cnf : cnf) =
  List.for_all
    (fun clause ->
      List.exists
        (fun l ->
          let b = Sat.value s v.(abs l - 1) in
          if l > 0 then b else not b)
        clause)
    cnf

(* Pigeonhole: n+1 pigeons into n holes, UNSAT and hard enough to burn a
   controlled number of conflicts (for the budget tests). *)
let php n : cnf =
  let var p h = (p * n) + h + 1 in
  let at_least = List.init (n + 1) (fun p -> List.init n (fun h -> var p h)) in
  let at_most = ref [] in
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        at_most := [ -var p1 h; -var p2 h ] :: !at_most
      done
    done
  done;
  at_least @ !at_most

let php_nvars n = (n + 1) * n

(* -- differential fuzz: portfolio verdict = single-engine verdict ------- *)

let differential ~k ~simplify ~nvars (cnf : cnf) =
  let plain, _ = load ~simplify:false ~nvars cnf in
  let port, v = load ~simplify ~nvars cnf in
  let r_plain = Sat.solve plain in
  let r_port = Portfolio.solve ~k port in
  r_plain = r_port && (r_port <> Sat.Sat || model_ok port v cnf)

(* Assumptions through the portfolio: the verdict must match a plain
   solve under the same assumptions, and a SAT model must honour them. *)
let differential_assumptions ~k ~nvars (cnf, assumed) =
  let to_lit v l =
    if l > 0 then Sat.pos v.(abs l - 1) else Sat.neg_of_var v.(abs l - 1)
  in
  let plain, vp = load ~simplify:false ~nvars cnf in
  let port, vs = load ~simplify:true ~nvars cnf in
  let r_plain = Sat.solve ~assumptions:(List.map (to_lit vp) assumed) plain in
  let r_port =
    Portfolio.solve ~k ~assumptions:(List.map (to_lit vs) assumed) port
  in
  r_plain = r_port
  && (r_port <> Sat.Sat
     || (model_ok port vs cnf
        && List.for_all
             (fun l ->
               let b = Sat.value port vs.(abs l - 1) in
               if l > 0 then b else not b)
             assumed))

(* Incremental use: portfolio solve, add more clauses to the master,
   portfolio solve again — against a fresh plain solver on the union. *)
let differential_incremental ~k ~nvars (cnf1, cnf2) =
  let port, v = load ~simplify:true ~nvars cnf1 in
  let r1 = Portfolio.solve ~k port in
  List.iter
    (fun clause ->
      Sat.add_clause port
        (List.map
           (fun l ->
             let var = v.(abs l - 1) in
             if l > 0 then Sat.pos var else Sat.neg_of_var var)
           clause))
    cnf2;
  let r2 = Portfolio.solve ~k port in
  let plain1, _ = load ~simplify:false ~nvars cnf1 in
  let plain2, _ = load ~simplify:false ~nvars (cnf1 @ cnf2) in
  r1 = Sat.solve plain1
  && r2 = Sat.solve plain2
  && (r2 <> Sat.Sat || model_ok port v (cnf1 @ cnf2))

(* -- unit tests --------------------------------------------------------- *)

let result_t =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Sat.Sat -> "SAT"
      | Sat.Unsat -> "UNSAT"
      | Sat.Unknown -> "UNKNOWN"))
    ( = )

(* Repeat runs are bit-identical — same verdict and the exact same
   solver statistics on the master. *)
let test_deterministic_identical () =
  let run () =
    let s, _ = load ~simplify:true ~nvars:(php_nvars 5) (php 5) in
    let r = Portfolio.solve ~k:4 s in
    (r, Sat.stats s)
  in
  let r1, st1 = run () in
  let r2, st2 = run () in
  Alcotest.check result_t "same verdict" r1 r2;
  Alcotest.check result_t "unsat" Sat.Unsat r1;
  Alcotest.(check bool) "bit-identical stats" true (st1 = st2)

(* A win stops the losers mid-search; the master must stay fully
   reusable afterwards — model readable, more clauses addable, further
   (portfolio and plain) solves sound. *)
let test_cancellation_reusable () =
  let nvars = 30 in
  (* Satisfiable: a chain x1 -> x2 -> ... with a free tail, so every
     worker races towards a model and the winner stops the rest. *)
  let cnf =
    List.init (nvars - 1) (fun i -> [ -(i + 1); i + 2 ]) @ [ [ 1 ] ]
  in
  let s, v = load ~simplify:true ~nvars cnf in
  let r = Portfolio.solve ~k:3 s in
  Alcotest.check result_t "sat" Sat.Sat r;
  Alcotest.(check bool) "model satisfies original" true (model_ok s v cnf);
  (* The chain forces every variable true; contradict the tail. *)
  Sat.add_clause s [ Sat.neg_of_var v.(nvars - 1) ];
  Alcotest.check result_t "unsat after contradiction" Sat.Unsat
    (Portfolio.solve ~k:3 s);
  Alcotest.check result_t "plain solve agrees" Sat.Unsat (Sat.solve s)

(* Budget exhaustion mid-portfolio: a calling-domain conflict budget far
   too small for the instance must yield Unknown with the Conflicts
   reason, charge the caller's budget, and leave the master reusable once
   the budget is lifted. *)
let test_budget_exhaustion () =
  let s, _ = load ~simplify:false ~nvars:(php_nvars 7) (php 7) in
  let b = Budget.create ~max_conflicts:40 () in
  let r = Budget.with_current b (fun () -> Portfolio.solve ~k:3 s) in
  Alcotest.check result_t "unknown under tiny budget" Sat.Unknown r;
  (match Sat.last_interrupt s with
  | Some (Budget.Conflicts | Budget.Deadline) -> ()
  | other ->
      Alcotest.failf "expected a budget reason, got %s"
        (match other with
        | None -> "none"
        | Some r -> Budget.string_of_reason r));
  Alcotest.(check bool)
    "caller budget charged" true
    (Budget.conflicts_remaining b < 40);
  (* Lift the budget: the master must still finish the instance. *)
  Alcotest.check result_t "reusable after exhaustion" Sat.Unsat
    (Portfolio.solve ~k:3 s)

(* A deadline that runs out mid-race is reported as
   [Deadline]: every worker that spent a slice ended it on [Conflicts],
   which is not why the race stopped.  PHP(10) outlasts the deadline by
   far, so the reason does not depend on how many slices fit in it. *)
let test_round_robin_deadline_reason () =
  let s, _ = load ~simplify:false ~nvars:(php_nvars 10) (php 10) in
  let b = Budget.create ~deadline:(Unix.gettimeofday () +. 0.3) () in
  let r = Budget.with_current b (fun () -> Portfolio.solve ~k:3 s) in
  Alcotest.check result_t "unknown past the deadline" Sat.Unknown r;
  Alcotest.(check bool)
    "reason is the deadline" true
    (Sat.last_interrupt s = Some Budget.Deadline)

(* A one-worker portfolio is exactly the single engine. *)
let test_k1_passthrough () =
  let s, v = load ~simplify:true ~nvars:12 [ [ 1; 2 ]; [ -1; 3 ]; [ -3 ] ] in
  let r = Portfolio.solve ~k:1 s in
  Alcotest.check result_t "sat" Sat.Sat r;
  Alcotest.(check bool)
    "model ok" true
    (model_ok s v [ [ 1; 2 ]; [ -1; 3 ]; [ -3 ] ])

(* -- QF_BV through Smt.Solver, with and without CNF preprocessing ------ *)

let qfbv_matrix_differential seed =
  let module Term = Smt.Term in
  let module Solver = Smt.Solver in
  let rng = Random.State.make [| seed |] in
  let width = 6 in
  let vars = [ "x"; "y"; "z" ] in
  let rec random_term depth =
    if depth = 0 then
      match Random.State.int rng 3 with
      | 0 | 2 ->
          Term.var
            (List.nth vars (Random.State.int rng (List.length vars)))
            width
      | _ -> Term.const (Sqed_bv.Bv.of_int ~width (Random.State.int rng 256))
    else
      let a = random_term (depth - 1) and b = random_term (depth - 1) in
      match Random.State.int rng 8 with
      | 0 -> Term.add a b
      | 1 -> Term.sub a b
      | 2 -> Term.and_ a b
      | 3 -> Term.or_ a b
      | 4 -> Term.xor a b
      | 5 -> Term.not_ a
      | 6 -> Term.mul a b
      | _ -> Term.ite (Term.eq a b) a b
  in
  let prop = Term.eq (random_term 3) (random_term 3) in
  let assum = Term.eq (Term.var "x" width) (Term.var "y" width) in
  let extra = Term.eq (Term.var "y" width) (Term.var "z" width) in
  let reference simplify =
    let s = Solver.create ~config:{ Solver.simplify; portfolio = 1 } () in
    Solver.assert_ s prop;
    let r1 = Solver.check s in
    let r2 = Solver.check ~assumptions:[ assum ] s in
    Solver.assert_ s extra;
    (r1, r2, Solver.check s)
  in
  let want = reference true in
  List.for_all
    (fun simplify ->
      reference simplify = want
      &&
      let s = Solver.create ~config:{ Solver.simplify; portfolio = 3 } () in
      Solver.set_portfolio_active s true;
      Solver.assert_ s prop;
      let r1 = Solver.check s in
      let ok_model =
        r1 <> Solver.Sat
        || Sqed_bv.Bv.to_int (Solver.model_value s prop) = 1
      in
      let r2 = Solver.check ~assumptions:[ assum ] s in
      Solver.assert_ s extra;
      let r3 = Solver.check s in
      ok_model && (r1, r2, r3) = want)
    [ true; false ]

let props =
  let arb ~nvars ~max_len =
    QCheck.make ~print:cnf_print (gen_cnf ~nvars ~max_len)
  in
  let arb_pair ~nvars ~max_len =
    QCheck.make
      ~print:(fun (a, b) -> cnf_print a ^ " ++ " ^ cnf_print b)
      QCheck.Gen.(pair (gen_cnf ~nvars ~max_len) (gen_cnf ~nvars ~max_len))
  in
  let arb_assumed ~nvars ~max_len =
    QCheck.make
      ~print:(fun (c, a) ->
        cnf_print c ^ " assuming " ^ String.concat "," (List.map string_of_int a))
      QCheck.Gen.(
        pair (gen_cnf ~nvars ~max_len)
          (list_size (int_range 0 3)
             (map2
                (fun v s -> if s then v + 1 else -(v + 1))
                (int_bound (nvars - 1)) bool)))
  in
  [
    QCheck.Test.make ~name:"portfolio(det) = single (binary-heavy)" ~count:200
      (arb ~nvars:10 ~max_len:2)
      (differential ~k:3 ~simplify:true ~nvars:10);
    QCheck.Test.make ~name:"portfolio(det) = single (mixed, no simplify)"
      ~count:200
      (arb ~nvars:14 ~max_len:4)
      (differential ~k:4 ~simplify:false ~nvars:14);
    QCheck.Test.make ~name:"portfolio(det) = single (wide clauses)" ~count:100
      (arb ~nvars:20 ~max_len:7)
      (differential ~k:3 ~simplify:true ~nvars:20);
    QCheck.Test.make ~name:"portfolio assumptions" ~count:150
      (arb_assumed ~nvars:12 ~max_len:3)
      (differential_assumptions ~k:3 ~nvars:12);
    QCheck.Test.make ~name:"portfolio incremental adds" ~count:100
      (arb_pair ~nvars:12 ~max_len:3)
      (differential_incremental ~k:3 ~nvars:12);
    QCheck.Test.make ~name:"qf_bv portfolio over simplify x aig" ~count:25
      (QCheck.make ~print:string_of_int QCheck.Gen.nat)
      qfbv_matrix_differential;
  ]

let suite =
  [
    Alcotest.test_case "deterministic repeat runs bit-identical" `Quick
      test_deterministic_identical;
    Alcotest.test_case "cancellation leaves solver reusable" `Quick
      test_cancellation_reusable;
    Alcotest.test_case "budget exhaustion mid-portfolio" `Quick
      test_budget_exhaustion;
    Alcotest.test_case "round-robin deadline reason" `Quick
      test_round_robin_deadline_reason;
    Alcotest.test_case "k=1 is the single engine" `Quick test_k1_passthrough;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
