(* Fuzz for the AIG gate layer (Sqed_smt.Aig and its integration into
   the bit-blaster) against an independent oracle: on random QF_BV
   problems every SAT model must satisfy the asserted terms, and every
   UNSAT verdict is confirmed by enumerating all assignments.  Assumptions
   and incremental assertion must keep their meaning (exercising the
   Plaisted–Greenbaum polarity halves emitted across [check] calls), the
   CNF preprocessor must not change a verdict, and the DIMACS export of
   an AIG-encoded instance must round-trip to the same verdict. *)

module Sat = Sqed_sat.Sat
module Dimacs = Sqed_sat.Dimacs
module Smt = Sqed_smt
module Aig = Sqed_smt.Aig
module Term = Smt.Term
module Solver = Smt.Solver

(* -- raw graph unit tests ------------------------------------------------ *)

let test_structural_hashing () =
  let s = Sat.create () in
  let g = Aig.create s in
  let a = Aig.fresh_input g and b = Aig.fresh_input g in
  let x = Aig.and_ g a b in
  let before = Aig.num_nodes g in
  Alcotest.(check int) "repeat is shared" x (Aig.and_ g a b);
  Alcotest.(check int) "commuted is shared" x (Aig.and_ g b a);
  Alcotest.(check int) "no new nodes" before (Aig.num_nodes g)

let test_folding () =
  let s = Sat.create () in
  let g = Aig.create s in
  let a = Aig.fresh_input g and b = Aig.fresh_input g in
  Alcotest.(check int) "x & true = x" a (Aig.and_ g a Aig.etrue);
  Alcotest.(check int) "x & false = false" Aig.efalse (Aig.and_ g a Aig.efalse);
  Alcotest.(check int) "x & x = x" a (Aig.and_ g a a);
  Alcotest.(check int) "x & ~x = false" Aig.efalse (Aig.and_ g a (Aig.enot a));
  Alcotest.(check int) "x ^ x = false" Aig.efalse (Aig.xor_ g a a);
  Alcotest.(check int) "x ^ ~x = true" Aig.etrue (Aig.xor_ g a (Aig.enot a));
  Alcotest.(check int) "x ^ false = x" a (Aig.xor_ g a Aig.efalse);
  Alcotest.(check int) "x ^ true = ~x" (Aig.enot a) (Aig.xor_ g a Aig.etrue);
  Alcotest.(check int) "mux const sel" a (Aig.mux g Aig.etrue a b);
  Alcotest.(check int) "mux same arms" a (Aig.mux g b a a)

let test_rewrites () =
  let s = Sat.create () in
  let g = Aig.create s in
  let a = Aig.fresh_input g and b = Aig.fresh_input g in
  let ab = Aig.and_ g a b in
  (* idempotence over a child *)
  Alcotest.(check int) "(a&b)&a = a&b" ab (Aig.and_ g ab a);
  (* contradiction over a child *)
  Alcotest.(check int) "(a&b)&~a = false" Aig.efalse
    (Aig.and_ g ab (Aig.enot a));
  (* subsumption *)
  Alcotest.(check int) "~(a&b)&~a = ~a" (Aig.enot a)
    (Aig.and_ g (Aig.enot ab) (Aig.enot a));
  (* substitution: ~(a&b) & a = a & ~b *)
  Alcotest.(check int) "~(a&b)&a = a&~b"
    (Aig.and_ g a (Aig.enot b))
    (Aig.and_ g (Aig.enot ab) a);
  (* resolution: ~(a&b) & ~(a&~b) = ~a *)
  let ab' = Aig.and_ g a (Aig.enot b) in
  Alcotest.(check int) "resolution" (Aig.enot a)
    (Aig.and_ g (Aig.enot ab) (Aig.enot ab'))

(* Exhaustive truth tables for the gate primitives through the full
   encode/solve pipeline, driven by assumptions (so both polarity halves
   of each cone get exercised). *)
let test_truth_tables () =
  let s = Sat.create () in
  let g = Aig.create s in
  let a = Aig.fresh_input g and b = Aig.fresh_input g and c = Aig.fresh_input g in
  let gates =
    [
      ("and", Aig.and_ g a b, fun va vb _ -> va && vb);
      ("or", Aig.or_ g a b, fun va vb _ -> va || vb);
      ("xor", Aig.xor_ g a b, fun va vb _ -> va <> vb);
      ("mux", Aig.mux g a b c, fun va vb vc -> if va then vb else vc);
    ]
  in
  List.iter
    (fun (name, e, f) ->
      List.iter
        (fun (va, vb, vc) ->
          let want = f va vb vc in
          let lit_of edge v =
            Aig.assume_lit g (if v then edge else Aig.enot edge)
          in
          let assums e' =
            [ lit_of a va; lit_of b vb; lit_of c vc; Aig.assume_lit g e' ]
          in
          let ok =
            Sat.solve ~assumptions:(assums (if want then e else Aig.enot e)) s
          in
          let bad =
            Sat.solve ~assumptions:(assums (if want then Aig.enot e else e)) s
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s(%b,%b,%b) consistent" name va vb vc)
            true
            (ok = Sat.Sat && bad = Sat.Unsat))
        [
          (false, false, false);
          (false, false, true);
          (false, true, false);
          (false, true, true);
          (true, false, false);
          (true, false, true);
          (true, true, false);
          (true, true, true);
        ])
    gates

(* Polarity-awareness is observable from outside: asserting a term needs
   only the lit -> cone halves of its cone, so [assert_bool] must emit
   strictly fewer clauses than blasting the term to a literal (both
   halves, as for a literal that escapes to the caller) and asserting
   that literal as a unit clause. *)
let test_pg_fewer_clauses () =
  let width = 16 in
  let x = Term.var "x" width and y = Term.var "y" width in
  let prop = Term.eq (Term.add x y) (Term.sub y x) in
  let one_half = Sat.create () and both_halves = Sat.create () in
  Smt.Bitblast.assert_bool (Smt.Bitblast.create one_half) prop;
  Sat.add_clause both_halves
    [ Smt.Bitblast.blast_bool (Smt.Bitblast.create both_halves) prop ];
  Alcotest.(check bool) "same verdict" true
    (Sat.solve one_half = Sat.solve both_halves);
  Alcotest.(check bool)
    (Printf.sprintf "fewer clauses (%d asserted vs %d blasted)"
       (Sat.num_clauses one_half) (Sat.num_clauses both_halves))
    true
    (Sat.num_clauses one_half < Sat.num_clauses both_halves)

(* -- random QF_BV fuzz ----------------------------------------------------- *)

let random_term rng vars depth width =
  let rec go depth =
    if depth = 0 then
      match Random.State.int rng 3 with
      | 0 -> Term.var (List.nth vars (Random.State.int rng (List.length vars))) width
      | 1 -> Term.const (Sqed_bv.Bv.of_int ~width (Random.State.int rng 256))
      | _ -> Term.var (List.nth vars (Random.State.int rng (List.length vars))) width
    else
      let a = go (depth - 1) and b = go (depth - 1) in
      match Random.State.int rng 11 with
      | 0 -> Term.add a b
      | 1 -> Term.sub a b
      | 2 -> Term.and_ a b
      | 3 -> Term.or_ a b
      | 4 -> Term.xor a b
      | 5 -> Term.not_ a
      | 6 -> Term.mul a b
      | 7 -> Term.ite (Term.eq a b) a b
      | 8 -> Term.ite (Term.ult a b) b a
      | 9 ->
          Term.lshr a
            (Term.const (Sqed_bv.Bv.of_int ~width (Random.State.int rng width)))
      | _ ->
          Term.shl a
            (Term.const (Sqed_bv.Bv.of_int ~width (Random.State.int rng width)))
  in
  go depth

let random_prop rng vars width =
  let t1 = random_term rng vars 3 width and t2 = random_term rng vars 3 width in
  match Random.State.int rng 3 with
  | 0 -> Term.eq t1 t2
  | 1 -> Term.ult t1 t2
  | _ -> Term.distinct (Term.add t1 t2) t2

let width = 6
let vars = [ "x"; "y"; "z" ]

let model_satisfies solver prop =
  Sqed_bv.Bv.to_int (Solver.model_value solver prop) = 1

(* The reference configuration: every test solver runs without the CNF
   preprocessor unless it is the thing under test. *)
let plain = { Solver.default_config with Solver.simplify = false }

(* -- the oracle: exhaustive evaluation ------------------------------------ *)

(* Three 6-bit variables make 2^18 assignments, few enough to decide
   every UNSAT verdict by enumeration.  [compile] turns a term of the
   fuzz grammar into a closure over an int environment (variable i of
   [vars] at [env.(i)]) once, so an enumeration costs no allocation;
   [Term.eval] builds a memo table and bit-vectors per call, which is
   ~30x slower here.  "int evaluator = Term.eval" cross-checks the two. *)
let var_index name =
  let rec find i = function
    | v :: _ when v = name -> i
    | _ :: rest -> find (i + 1) rest
    | [] -> invalid_arg ("var_index: unknown variable " ^ name)
  in
  find 0 vars

let compile (t : Term.t) : int array -> int =
  let rec go (t : Term.t) =
    let w = Term.width t in
    let mask = (1 lsl w) - 1 in
    let bin f a b =
      let a = go a and b = go b in
      fun env -> f (a env) (b env)
    in
    let bool b = if b then 1 else 0 in
    match t.Term.node with
    | Term.Var (name, _) ->
        let i = var_index name in
        fun env -> env.(i)
    | Term.Const v ->
        let c = Sqed_bv.Bv.to_int v in
        fun _ -> c
    | Term.Not a ->
        let a = go a in
        fun env -> lnot (a env) land mask
    | Term.And (a, b) -> bin ( land ) a b
    | Term.Or (a, b) -> bin ( lor ) a b
    | Term.Xor (a, b) -> bin ( lxor ) a b
    | Term.Add (a, b) -> bin (fun x y -> (x + y) land mask) a b
    | Term.Sub (a, b) -> bin (fun x y -> (x - y) land mask) a b
    | Term.Mul (a, b) -> bin (fun x y -> (x * y) land mask) a b
    | Term.Shl (a, b) ->
        bin (fun x y -> if y >= w then 0 else (x lsl y) land mask) a b
    | Term.Lshr (a, b) -> bin (fun x y -> if y >= w then 0 else x lsr y) a b
    | Term.Eq (a, b) -> bin (fun x y -> bool (x = y)) a b
    | Term.Ult (a, b) -> bin (fun x y -> bool (x < y)) a b
    | Term.Ite (c, a, b) ->
        let c = go c and a = go a and b = go b in
        fun env -> if c env = 1 then a env else b env
    | _ -> invalid_arg ("compile: outside the fuzz grammar: " ^ Term.to_string t)
  in
  go t

(* Does some assignment make every term of [props] true? *)
let satisfiable props =
  let fs = List.map compile props in
  let nvars = List.length vars in
  let env = Array.make nvars 0 in
  let found = ref false and a = ref 0 in
  while (not !found) && !a < 1 lsl (nvars * width) do
    for i = 0 to nvars - 1 do
      env.(i) <- (!a lsr (i * width)) land ((1 lsl width) - 1)
    done;
    found := List.for_all (fun f -> f env = 1) fs;
    incr a
  done;
  !found

(* A verdict on the conjunction of [props]: SAT must come with a model
   of every term, UNSAT must survive enumeration. *)
let verdict_ok solver props = function
  | Solver.Sat -> List.for_all (model_satisfies solver) props
  | Solver.Unsat -> not (satisfiable props)
  | Solver.Unknown -> false

(* Verdict and model of one assertion, then a follow-up check under
   assumptions on the same (incremental) solver. *)
let aig_differential seed =
  let rng = Random.State.make [| seed |] in
  let prop = random_prop rng vars width in
  let s = Solver.create ~config:plain () in
  Solver.assert_ s prop;
  verdict_ok s [ prop ] (Solver.check s)
  &&
  let assum = random_prop rng vars width in
  verdict_ok s [ prop; assum ] (Solver.check ~assumptions:[ assum ] s)

(* Incremental adds after a check: later assertions extend already
   converted cones, forcing the encoder to emit missing polarity halves
   for shared nodes. *)
let aig_incremental seed =
  let rng = Random.State.make [| seed |] in
  let p1 = random_prop rng vars width in
  let p2 = random_prop rng vars width in
  let s = Solver.create ~config:plain () in
  Solver.assert_ s p1;
  let r1 = verdict_ok s [ p1 ] (Solver.check s) in
  Solver.assert_ s p2;
  r1 && verdict_ok s [ p1; p2 ] (Solver.check s)

(* The CNF preprocessor on top of the AIG must agree with it off
   (eliminated gate variables vs late polarity halves is the risky
   interaction), and its verdicts must pass the oracle. *)
let aig_simplify_matrix seed =
  let rng = Random.State.make [| seed |] in
  let p1 = random_prop rng vars width in
  let p2 = random_prop rng vars width in
  let plain = Solver.create ~config:plain () in
  let full = Solver.create ~config:Solver.default_config () in
  Solver.assert_ plain p1;
  Solver.assert_ full p1;
  let r1 = Solver.check full in
  let ok1 = Solver.check plain = r1 && verdict_ok full [ p1 ] r1 in
  Solver.assert_ plain p2;
  Solver.assert_ full p2;
  let rp = Solver.check plain and rf = Solver.check full in
  ok1 && rp = rf && verdict_ok full [ p1; p2 ] rf

(* The oracle's own check: the compiled evaluator agrees with
   [Term.eval] on random terms and propositions at random points. *)
let evaluator_agrees seed =
  let rng = Random.State.make [| seed |] in
  let t = random_term rng vars 3 width and p = random_prop rng vars width in
  let ft = compile t and fp = compile p in
  List.for_all
    (fun _ ->
      let env =
        Array.init (List.length vars) (fun _ ->
            Random.State.int rng (1 lsl width))
      in
      let lookup name = Sqed_bv.Bv.of_int ~width env.(var_index name) in
      let eval u = Sqed_bv.Bv.to_int (Term.eval lookup u) in
      ft env = eval t && fp env = eval p)
    (List.init 16 Fun.id)

(* DIMACS export of the post-AIG clause stream must be equisatisfiable
   with the instance: parse it back and re-solve from scratch. *)
let dimacs_roundtrip seed =
  let rng = Random.State.make [| seed |] in
  let prop = random_prop rng vars width in
  let s = Solver.create ~config:plain () in
  Solver.assert_ s prop;
  let verdict = Solver.check s in
  match Dimacs.parse (Solver.to_dimacs s) with
  | Error e -> Alcotest.failf "export did not parse: %s" e
  | Ok cnf ->
      let r, model = Dimacs.solve cnf in
      let same =
        match (verdict, r) with
        | Solver.Sat, Sat.Sat -> model <> None
        | Solver.Unsat, Sat.Unsat -> true
        | _ -> false
      in
      same && cnf.Dimacs.num_vars >= 1

(* The "aig = direct" names predate the oracle: those properties were
   first checked against a second, direct-Tseitin encoder. *)
let props =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  [
    QCheck.Test.make ~name:"aig = direct (verdicts, models, assumptions)"
      ~count:200 arb aig_differential;
    QCheck.Test.make ~name:"aig = direct (incremental adds)" ~count:150 arb
      aig_incremental;
    QCheck.Test.make ~name:"aig+simplify = plain" ~count:100 arb
      aig_simplify_matrix;
    QCheck.Test.make ~name:"dimacs round-trip (aig)" ~count:40 arb
      dimacs_roundtrip;
    QCheck.Test.make ~name:"int evaluator = Term.eval" ~count:200 arb
      evaluator_agrees;
  ]

(* -- allocation on the encode path ---------------------------------------- *)

(* Shift-and-add product of two little-endian edge vectors, truncated to
   their width. *)
let aig_mul g x y =
  let w = Array.length x in
  let acc = ref (Array.make w Aig.efalse) in
  for i = 0 to w - 1 do
    let carry = ref Aig.efalse in
    acc :=
      Array.mapi
        (fun j a ->
          let p = if j < i then Aig.efalse else Aig.and_ g y.(i) x.(j - i) in
          let axp = Aig.xor_ g a p in
          let sum = Aig.xor_ g axp !carry in
          carry := Aig.or_ g (Aig.and_ g a p) (Aig.and_ g axp !carry);
          sum)
        !acc
  done;
  !acc

(* Gate clauses reach the solver without a list or an array, so what
   CNF conversion still allocates is the solver's own growth: watch
   lists and per-variable arrays.  On the 8-bit [x*y <> y*x] miter that
   reads 14.7 minor words per emitted clause (40.1 while every clause
   went through a list); the pin leaves a little room. *)
let words_per_clause_pin = 16.0

let test_cnf_allocation () =
  let s = Sat.create () in
  let g = Aig.create s in
  let x = Array.init 8 (fun _ -> Aig.fresh_input g) in
  let y = Array.init 8 (fun _ -> Aig.fresh_input g) in
  let miter =
    Aig.or_many g (Array.map2 (Aig.xor_ g) (aig_mul g x y) (aig_mul g y x))
  in
  let c0 = Sat.num_clauses s in
  let before = Gc.minor_words () in
  Aig.assert_edge g miter;
  let words = Gc.minor_words () -. before in
  let clauses = Sat.num_clauses s - c0 in
  Alcotest.(check bool) "the miter emits clauses" true (clauses > 500);
  let per = words /. float_of_int clauses in
  if per > words_per_clause_pin then
    Alcotest.failf "%.2f minor words per clause (%d clauses), pin %.1f" per
      clauses words_per_clause_pin

let suite =
  [
    Alcotest.test_case "structural hashing" `Quick test_structural_hashing;
    Alcotest.test_case "constant folding" `Quick test_folding;
    Alcotest.test_case "one-level rewrites" `Quick test_rewrites;
    Alcotest.test_case "gate truth tables through SAT" `Quick
      test_truth_tables;
    Alcotest.test_case "polarity-aware conversion emits fewer clauses" `Quick
      test_pg_fewer_clauses;
    Alcotest.test_case "CNF conversion allocation per clause" `Quick
      test_cnf_allocation;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
