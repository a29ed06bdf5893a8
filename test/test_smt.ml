(* Tests for QF_BV terms, bit-blasting and the solver facade.

   The backbone is a differential property: for random concrete inputs x, y
   the constraint [op(vx, vy) = result /\ vx = x /\ vy = y] must be
   satisfiable, and the model's [result] must equal the Bv-level
   computation.  This exercises every circuit in the blaster against the
   independently implemented bitvector library. *)

module Bv = Sqed_bv.Bv
module Term = Sqed_smt.Term
module Solver = Sqed_smt.Solver
module Smtlib = Sqed_smt.Smtlib

let result_t =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Solver.Sat -> "SAT"
      | Solver.Unsat -> "UNSAT"
      | Solver.Unknown -> "UNKNOWN"))
    ( = )

let fresh_name =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s_%d" prefix !n

(* ---------------------------------------------------------------- *)
(* Term construction and folding                                     *)
(* ---------------------------------------------------------------- *)

let test_hashcons () =
  let x = Term.var (fresh_name "hc") 8 in
  let a = Term.add x (Term.of_int ~width:8 1) in
  let b = Term.add x (Term.of_int ~width:8 1) in
  Alcotest.(check bool) "physically equal" true (Term.equal a b)

(* Hash-consing is weak: a term nothing holds is collected, and building
   it again yields a fresh term with a fresh id (ids are never reused).
   [@inline never] keeps the built terms out of the caller's frame. *)
let[@inline never] add_one_id name =
  (Term.add (Term.var name 8) (Term.of_int ~width:8 1)).Term.id

let test_dead_term_collected () =
  let name = fresh_name "dead" in
  let id0 = add_one_id name in
  Gc.full_major ();
  Alcotest.(check bool) "rebuilt after a collection: fresh id" true
    (add_one_id name <> id0)

let test_live_terms_shared () =
  let name = fresh_name "live" in
  let a = Term.add (Term.var name 8) (Term.of_int ~width:8 1) in
  Gc.full_major ();
  let b = Term.add (Term.var name 8) (Term.of_int ~width:8 1) in
  Alcotest.(check bool) "physically equal" true (a == b);
  Alcotest.(check int) "same id" a.Term.id b.Term.id

(* A live solver's blaster pins every term it encoded, so rebuilding one
   inside the solver's lifetime finds it (and its blasted edges). *)
let[@inline never] assert_eq3_id solver name =
  let t = Term.eq (Term.var name 8) (Term.of_int ~width:8 3) in
  Solver.assert_ solver t;
  t.Term.id

let test_blasted_term_pinned () =
  let solver = Solver.create () in
  let name = fresh_name "pin" in
  let id0 = assert_eq3_id solver name in
  Gc.full_major ();
  let t = Term.eq (Term.var name 8) (Term.of_int ~width:8 3) in
  Alcotest.(check int) "same id" id0 t.Term.id;
  Alcotest.check result_t "solver still usable" Solver.Sat (Solver.check solver)

let test_folding () =
  let c1 = Term.of_int ~width:8 3 and c2 = Term.of_int ~width:8 4 in
  (match Term.is_const (Term.add c1 c2) with
  | Some v -> Alcotest.(check int) "3+4" 7 (Bv.to_int v)
  | None -> Alcotest.fail "constant not folded");
  let x = Term.var (fresh_name "fold") 8 in
  Alcotest.(check bool) "x+0 = x" true
    (Term.equal x (Term.add x (Term.of_int ~width:8 0)));
  Alcotest.(check bool) "x&x = x" true (Term.equal x (Term.and_ x x));
  Alcotest.(check bool) "x^x = 0" true
    (Term.equal (Term.of_int ~width:8 0) (Term.xor x x));
  Alcotest.(check bool) "not not x = x" true
    (Term.equal x (Term.not_ (Term.not_ x)));
  Alcotest.(check bool) "eq x x = tt" true (Term.equal Term.tt (Term.eq x x));
  Alcotest.(check bool) "ite c a a = a" true
    (Term.equal x (Term.ite (Term.var (fresh_name "c") 1) x x))

let test_width_errors () =
  let x = Term.var (fresh_name "we") 8 and y = Term.var (fresh_name "we") 4 in
  Alcotest.(check bool) "width mismatch raises" true
    (try
       ignore (Term.add x y);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "same name, different width = distinct vars" true
    (let n = fresh_name "clash" in
     let a = Term.var n 8 and b = Term.var n 4 in
     (not (Term.equal a b)) && Term.width a = 8 && Term.width b = 4)

let test_eval () =
  let x = Term.var (fresh_name "ev") 8 in
  let t = Term.mul (Term.add x (Term.of_int ~width:8 1)) x in
  let v = Term.eval (fun _ -> Bv.of_int ~width:8 5) t in
  Alcotest.(check int) "(5+1)*5" 30 (Bv.to_int v)

let test_vars_and_size () =
  let x = Term.var (fresh_name "vs") 8 and y = Term.var (fresh_name "vs") 8 in
  let t = Term.add (Term.mul x y) x in
  Alcotest.(check int) "two vars" 2 (List.length (Term.vars t));
  Alcotest.(check bool) "dag size" true (Term.size t >= 4)

(* ---------------------------------------------------------------- *)
(* Solver end-to-end                                                  *)
(* ---------------------------------------------------------------- *)

let test_simple_sat () =
  let s = Solver.create () in
  let x = Term.var (fresh_name "s") 8 in
  Solver.assert_ s (Term.eq (Term.add x x) (Term.of_int ~width:8 10));
  Alcotest.check result_t "x+x=10 sat" Solver.Sat (Solver.check s);
  let v = Solver.model_var s x in
  Alcotest.(check int) "model sums" 10
    (Bv.to_int (Bv.add v v))

let test_simple_unsat () =
  let s = Solver.create () in
  let x = Term.var (fresh_name "u") 8 in
  Solver.assert_ s (Term.eq x (Term.of_int ~width:8 1));
  Solver.assert_ s (Term.eq x (Term.of_int ~width:8 2));
  Alcotest.check result_t "x=1 and x=2" Solver.Unsat (Solver.check s)

let test_no_odd_square_is_even () =
  (* x odd => x*x odd: the negation must be unsat. *)
  let s = Solver.create () in
  let x = Term.var (fresh_name "odd") 8 in
  let lsb t = Term.bit t 0 in
  Solver.assert_ s (lsb x);
  Solver.assert_ s (Term.not_ (lsb (Term.mul x x)));
  Alcotest.check result_t "odd square even" Solver.Unsat (Solver.check s)

let test_commutativity_valid () =
  let x = Term.var (fresh_name "cm") 8 and y = Term.var (fresh_name "cm") 8 in
  let r, _ = Solver.check_valid (Term.eq (Term.add x y) (Term.add y x)) in
  Alcotest.check result_t "add commutative" Solver.Unsat r

let test_sub_not_commutative () =
  let x = Term.var (fresh_name "nc") 8 and y = Term.var (fresh_name "nc") 8 in
  let r, model = Solver.check_valid (Term.eq (Term.sub x y) (Term.sub y x)) in
  Alcotest.check result_t "sub not commutative" Solver.Sat r;
  Alcotest.(check bool) "countermodel nonempty" true (model <> [])

let test_assumptions () =
  let s = Solver.create () in
  let x = Term.var (fresh_name "as") 4 in
  Solver.assert_ s (Term.ult x (Term.of_int ~width:4 8));
  let is3 = Term.eq x (Term.of_int ~width:4 3) in
  Alcotest.check result_t "assume x=3" Solver.Sat
    (Solver.check ~assumptions:[ is3 ] s);
  Alcotest.(check int) "model 3" 3 (Bv.to_int (Solver.model_var s x));
  let is9 = Term.eq x (Term.of_int ~width:4 9) in
  Alcotest.check result_t "assume x=9 fails" Solver.Unsat
    (Solver.check ~assumptions:[ is9 ] s);
  Alcotest.check result_t "still sat afterwards" Solver.Sat (Solver.check s)

let test_model_value () =
  let s = Solver.create () in
  let x = Term.var (fresh_name "mv") 8 in
  Solver.assert_ s (Term.eq x (Term.of_int ~width:8 7));
  Alcotest.check result_t "sat" Solver.Sat (Solver.check s);
  let v = Solver.model_value s (Term.mul x (Term.of_int ~width:8 3)) in
  Alcotest.(check int) "7*3" 21 (Bv.to_int v)

let test_solver_dimacs_export () =
  let s = Solver.create () in
  let x = Term.var (fresh_name "dim") 4 in
  Solver.assert_ s (Term.eq (Term.add x x) (Term.of_int ~width:4 6));
  let text = Solver.to_dimacs s in
  (* The exported instance must parse and agree on satisfiability. *)
  match Sqed_sat.Dimacs.parse text with
  | Error e -> Alcotest.fail e
  | Ok cnf -> (
      match Sqed_sat.Dimacs.solve cnf with
      | Sqed_sat.Sat.Sat, Some _ -> ()
      | _ -> Alcotest.fail "exported CNF should be SAT")

let test_smtlib_output () =
  let x = Term.var (fresh_name "pr") 8 in
  let t = Term.eq (Term.add x x) (Term.of_int ~width:8 4) in
  let s = Smtlib.script [ t ] in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions check-sat" true (contains s "(check-sat)");
  Alcotest.(check bool) "mentions declare" true
    (contains s "declare-const")

(* ---------------------------------------------------------------- *)
(* Differential properties: blaster vs Bv                            *)
(* ---------------------------------------------------------------- *)

let force s term value = Solver.assert_ s (Term.eq term (Term.const value))

(* Check that [op] blasted symbolically agrees with [bvop] concretely. *)
let differential ?(width = 8) name op bvop =
  let arb =
    QCheck.make
      ~print:(fun (a, b) -> Bv.to_string a ^ ", " ^ Bv.to_string b)
      (QCheck.Gen.map2
         (fun a b -> (Bv.of_int64 ~width a, Bv.of_int64 ~width b))
         QCheck.Gen.int64 QCheck.Gen.int64)
  in
  QCheck.Test.make ~name ~count:60 arb (fun (a, b) ->
      let s = Solver.create () in
      let x = Term.var (fresh_name "dx") width
      and y = Term.var (fresh_name "dy") width in
      force s x a;
      force s y b;
      let r = op x y in
      let rv = Term.var (fresh_name "dr") (Term.width r) in
      Solver.assert_ s (Term.eq rv r);
      match Solver.check s with
      | Solver.Sat -> Bv.equal (Solver.model_var s rv) (bvop a b)
      | _ -> false)

let bool_of b = if b then Bv.one 1 else Bv.zero 1

let differential_props =
  [
    differential "blast add" Term.add Bv.add;
    differential "blast sub" Term.sub Bv.sub;
    differential "blast mul" Term.mul Bv.mul;
    differential "blast and" Term.and_ Bv.logand;
    differential "blast or" Term.or_ Bv.logor;
    differential "blast xor" Term.xor Bv.logxor;
    differential "blast udiv" Term.udiv Bv.udiv;
    differential "blast urem" Term.urem Bv.urem;
    differential "blast shl" Term.shl Bv.shl_bv;
    differential "blast lshr" Term.lshr Bv.lshr_bv;
    differential "blast ashr" Term.ashr Bv.ashr_bv;
    differential "blast eq" Term.eq (fun a b -> bool_of (Bv.equal a b));
    differential "blast ult" Term.ult (fun a b -> bool_of (Bv.ult a b));
    differential "blast slt" Term.slt (fun a b -> bool_of (Bv.slt a b));
    differential "blast ule" Term.ule (fun a b -> bool_of (Bv.ule a b));
    differential ~width:5 "blast add w5" Term.add Bv.add;
    differential ~width:5 "blast shl w5" Term.shl Bv.shl_bv;
    differential ~width:5 "blast ashr w5" Term.ashr Bv.ashr_bv;
    differential ~width:5 "blast mul w5" Term.mul Bv.mul;
    differential ~width:5 "blast udiv w5" Term.udiv Bv.udiv;
    (let neg1 x _ = Term.neg x and bneg a _ = Bv.neg a in
     differential "blast neg" neg1 bneg);
    (let not1 x _ = Term.not_ x and bnot a _ = Bv.lognot a in
     differential "blast not" not1 bnot);
    (let f x y = Term.ite (Term.ult x y) (Term.add x y) (Term.sub x y)
     and g a b = if Bv.ult a b then Bv.add a b else Bv.sub a b in
     differential "blast ite" f g);
    (let f x y = Term.concat (Term.extract ~hi:7 ~lo:4 x) (Term.extract ~hi:3 ~lo:0 y)
     and g a b =
       Bv.concat (Bv.extract ~hi:7 ~lo:4 a) (Bv.extract ~hi:3 ~lo:0 b)
     in
     differential "blast concat/extract" f g);
    (let f x _ = Term.sext (Term.extract ~hi:3 ~lo:0 x) 8
     and g a _ = Bv.sext (Bv.extract ~hi:3 ~lo:0 a) 8 in
     differential "blast sext" f g);
    (let f x _ = Term.zext (Term.extract ~hi:3 ~lo:0 x) 8
     and g a _ = Bv.zext (Bv.extract ~hi:3 ~lo:0 a) 8 in
     differential "blast zext" f g);
  ]

(* Validity checks that known bitvector identities hold symbolically. *)
let identity_props =
  let mk name f =
    QCheck.Test.make ~name ~count:1
      (QCheck.make ~print:(fun () -> "()") (QCheck.Gen.return ()))
      (fun () ->
        let x = Term.var (fresh_name "ix") 8
        and y = Term.var (fresh_name "iy") 8 in
        let r, _ = Solver.check_valid (f x y) in
        r = Solver.Unsat)
  in
  [
    mk "valid: demorgan" (fun x y ->
        Term.eq
          (Term.not_ (Term.and_ x y))
          (Term.or_ (Term.not_ x) (Term.not_ y)));
    mk "valid: sub is add neg" (fun x y ->
        Term.eq (Term.sub x y) (Term.add x (Term.neg y)));
    mk "valid: sub via xori trick (Listing 2)" (fun x y ->
        (* ~(~x + y) = x - y : the paper's SUB equivalent program. *)
        let ones = Term.of_int ~width:8 (-1) in
        Term.eq
          (Term.xor (Term.add (Term.xor x ones) y) ones)
          (Term.sub x y));
    mk "valid: xor via or minus and" (fun x y ->
        Term.eq (Term.xor x y) (Term.sub (Term.or_ x y) (Term.and_ x y)));
    mk "valid: slt via sign flip" (fun x y ->
        let m = Term.of_int ~width:8 0x80 in
        Term.eq (Term.slt x y) (Term.ult (Term.xor x m) (Term.xor y m)));
    mk "valid: shl 1 doubles" (fun x _ ->
        Term.eq (Term.shl x (Term.of_int ~width:8 1)) (Term.add x x));
  ]

(* ---------------------------------------------------------------- *)
(* SMT-LIB parser                                                    *)
(* ---------------------------------------------------------------- *)

module Smtlib_parser = Sqed_smt.Smtlib_parser

let test_parser_basic () =
  let src =
    "(set-logic QF_BV)\n\
     (declare-const a (_ BitVec 8))\n\
     (declare-fun b () (_ BitVec 8))\n\
     ; a comment\n\
     (assert (= (bvadd a b) #x10))\n\
     (assert (bvult a (_ bv7 8)))\n\
     (check-sat)\n"
  in
  match Smtlib_parser.parse src with
  | Error e -> Alcotest.fail e
  | Ok script ->
      Alcotest.(check int) "two declarations" 2
        (List.length script.Smtlib_parser.declarations);
      Alcotest.(check int) "two assertions" 2
        (List.length script.Smtlib_parser.assertions);
      Alcotest.(check bool) "check-sat seen" true script.Smtlib_parser.check_sat

let test_parser_solve () =
  let src =
    "(declare-const a (_ BitVec 8))\n(assert (= (bvmul a #x03) #x0f))\n"
  in
  match Smtlib_parser.solve_script src with
  | Ok (Solver.Sat, [ ("a", v) ]) ->
      Alcotest.(check int) "3a = 15" 15 (Bv.to_int (Bv.mul v (Bv.of_int ~width:8 3)))
  | Ok _ -> Alcotest.fail "expected sat with one constant"
  | Error e -> Alcotest.fail e

let test_parser_let_and_ops () =
  let src =
    "(declare-const a (_ BitVec 4))\n\
     (assert (let ((t (bvnot a))) (= (bvand t a) #b0000)))\n\
     (assert (=> (bvuge a #b0100) (bvule a #b1100)))\n"
  in
  match Smtlib_parser.parse src with
  | Ok s -> Alcotest.(check int) "parsed" 2 (List.length s.Smtlib_parser.assertions)
  | Error e -> Alcotest.fail e

let test_parser_errors () =
  List.iter
    (fun src ->
      match Smtlib_parser.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ src))
    [
      "(declare-const a (_ BitVec 8)";
      "(assert (frobnicate x))";
      "(declare-const a (Array I E))";
      "(assert unknown_symbol)";
    ]

let test_parser_roundtrip_with_emitter () =
  (* Our own emitter's output must parse back and stay equisatisfiable. *)
  let x = Term.var (fresh_name "rt") 8 and y = Term.var (fresh_name "rt") 8 in
  let t = Term.and_ (Term.eq (Term.sub x y) (Term.of_int ~width:8 3))
      (Term.ult y (Term.of_int ~width:8 10)) in
  let src = Smtlib.script [ t ] in
  match Smtlib_parser.solve_script src with
  | Ok (Solver.Sat, model) ->
      let get n = List.assoc n model in
      let vx = get (List.nth (List.map fst model) 0) in
      ignore vx;
      (* check both constraints on the parsed-and-solved model *)
      let vx = get (Term.to_string x) and vy = get (Term.to_string y) in
      Alcotest.(check int) "x - y = 3" 3 (Bv.to_int (Bv.sub vx vy));
      Alcotest.(check bool) "y < 10" true (Bv.ult vy (Bv.of_int ~width:8 10))
  | Ok _ -> Alcotest.fail "expected sat"
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "smtlib parser basic" `Quick test_parser_basic;
    Alcotest.test_case "smtlib parser solve" `Quick test_parser_solve;
    Alcotest.test_case "smtlib parser let/ops" `Quick test_parser_let_and_ops;
    Alcotest.test_case "smtlib parser errors" `Quick test_parser_errors;
    Alcotest.test_case "smtlib emit/parse roundtrip" `Quick
      test_parser_roundtrip_with_emitter;
    Alcotest.test_case "hashcons" `Quick test_hashcons;
    Alcotest.test_case "folding" `Quick test_folding;
    Alcotest.test_case "width errors" `Quick test_width_errors;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "vars and size" `Quick test_vars_and_size;
    Alcotest.test_case "simple sat" `Quick test_simple_sat;
    Alcotest.test_case "simple unsat" `Quick test_simple_unsat;
    Alcotest.test_case "odd square odd" `Quick test_no_odd_square_is_even;
    Alcotest.test_case "commutativity valid" `Quick test_commutativity_valid;
    Alcotest.test_case "sub not commutative" `Quick test_sub_not_commutative;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "model value" `Quick test_model_value;
    Alcotest.test_case "smtlib output" `Quick test_smtlib_output;
    Alcotest.test_case "solver dimacs export" `Quick test_solver_dimacs_export;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      (differential_props @ identity_props)
  @ [
      Alcotest.test_case "dead term collected" `Quick test_dead_term_collected;
      Alcotest.test_case "live terms shared" `Quick test_live_terms_shared;
      Alcotest.test_case "blasted term pinned" `Quick test_blasted_term_pinned;
    ]
