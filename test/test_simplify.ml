(* Differential fuzz for the CNF preprocessor (Sqed_sat.Simplify and its
   integration into the CDCL core): a simplified solver must return the
   same SAT/UNSAT verdict as an unsimplified one on random CNFs and random
   QF_BV terms, SAT models must still satisfy the *original* clauses
   (exercising model extension over eliminated variables), and the
   incremental API — adding clauses or assuming literals over possibly
   eliminated variables — must keep its meaning (exercising restore). *)

module Sat = Sqed_sat.Sat
module Simplify = Sqed_sat.Simplify
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

(* Verdict + original-model agreement, with the pass forced so that small
   instances exercise it too (the automatic trigger needs hundreds of
   clauses). *)
let differential ~nvars (cnf : cnf) =
  let plain, _ = load ~simplify:false ~nvars cnf in
  let simp, v = load ~simplify:true ~nvars cnf in
  Sat.simplify_now simp;
  let r_plain = Sat.solve plain and r_simp = Sat.solve simp in
  r_plain = r_simp
  && (r_simp <> Sat.Sat || model_ok simp v cnf)

(* Same under assumptions: assumption variables may have been eliminated
   by the forced pass and must be restored + frozen by [solve]. *)
let differential_assumptions ~nvars (cnf, assumed) =
  let to_lit v l =
    if l > 0 then Sat.pos v.(abs l - 1) else Sat.neg_of_var v.(abs l - 1)
  in
  let plain, vp = load ~simplify:false ~nvars cnf in
  let simp, vs = load ~simplify:true ~nvars cnf in
  Sat.simplify_now simp;
  let r_plain = Sat.solve ~assumptions:(List.map (to_lit vp) assumed) plain in
  let r_simp = Sat.solve ~assumptions:(List.map (to_lit vs) assumed) simp in
  r_plain = r_simp
  && (r_simp <> Sat.Sat
     || (model_ok simp vs cnf
        && List.for_all
             (fun l ->
               let b = Sat.value simp vs.(abs l - 1) in
               if l > 0 then b else not b)
             assumed))

(* Incremental use: solve (with a pass), then add clauses that may
   mention eliminated variables, then solve again — against a fresh
   unsimplified solver on the union. *)
let differential_incremental ~nvars (cnf1, cnf2) =
  let simp, v = load ~simplify:true ~nvars cnf1 in
  Sat.simplify_now simp;
  let _ = Sat.solve simp in
  List.iter
    (fun clause ->
      Sat.add_clause simp
        (List.map
           (fun l ->
             let var = v.(abs l - 1) in
             if l > 0 then Sat.pos var else Sat.neg_of_var var)
           clause))
    cnf2;
  Sat.simplify_now simp;
  let r_simp = Sat.solve simp in
  let plain, _ = load ~simplify:false ~nvars (cnf1 @ cnf2) in
  let r_plain = Sat.solve plain in
  r_plain = r_simp && (r_simp <> Sat.Sat || model_ok simp v (cnf1 @ cnf2))

(* -- unit tests --------------------------------------------------------- *)

let test_standalone_run () =
  (* (a | b) & (~a | b) & (~b | c): b is forced by resolution probing or
     elimination; c must follow in any model.  Check the raw outcome
     invariants: no eliminated variable in the output clauses. *)
  let pos v = 2 * v and neg v = (2 * v) + 1 in
  let o =
    Simplify.run ~nvars:3
      ~frozen:(fun _ -> false)
      [ [| pos 0; pos 1 |]; [| neg 0; pos 1 |]; [| neg 1; pos 2 |] ]
  in
  Alcotest.(check bool) "not unsat" false o.Simplify.unsat;
  let elim_vars = List.map fst o.Simplify.eliminated in
  List.iter
    (fun c ->
      Array.iter
        (fun l ->
          Alcotest.(check bool) "no eliminated var in clauses" false
            (List.mem (l lsr 1) elim_vars))
        c)
    o.Simplify.clauses;
  Alcotest.(check bool) "did something" true
    (o.Simplify.stats.Simplify.eliminated_vars > 0
    || o.Simplify.stats.Simplify.units > 0)

let test_frozen_not_eliminated () =
  (* A pure chain would be eliminated wholesale; freezing pins the middle
     variable. *)
  let s = Sat.create () in
  let v = Array.init 5 (fun _ -> Sat.new_var s) in
  for i = 0 to 3 do
    Sat.add_clause s [ Sat.neg_of_var v.(i); Sat.pos v.(i + 1) ]
  done;
  Sat.freeze s v.(2);
  Sat.set_simplify s true;
  Sat.simplify_now s;
  Alcotest.(check bool) "frozen survives" false (Sat.is_eliminated s v.(2));
  Alcotest.check
    (Alcotest.testable
       (Fmt.of_to_string (function
         | Sat.Sat -> "SAT"
         | Sat.Unsat -> "UNSAT"
         | Sat.Unknown -> "UNKNOWN"))
       ( = ))
    "still sat" Sat.Sat (Sat.solve s)

let test_restore_on_add () =
  (* Eliminate a gate-style variable, then constrain it directly: the
     stored clauses must come back, and the combination must be UNSAT. *)
  let s = Sat.create () in
  let a = Sat.new_var s and g = Sat.new_var s and b = Sat.new_var s in
  (* g <-> (a & b) *)
  Sat.add_clause s [ Sat.neg_of_var g; Sat.pos a ];
  Sat.add_clause s [ Sat.neg_of_var g; Sat.pos b ];
  Sat.add_clause s [ Sat.pos g; Sat.neg_of_var a; Sat.neg_of_var b ];
  Sat.set_simplify s true;
  Sat.simplify_now s;
  (* Whether or not g was eliminated, asserting g & ~a must now be UNSAT. *)
  Sat.add_clause s [ Sat.pos g ];
  Sat.add_clause s [ Sat.neg_of_var a ];
  Alcotest.(check bool) "restored semantics" true (Sat.solve s = Sat.Unsat)

(* -- restore closure ------------------------------------------------------ *)

(* Two disjoint implication chains v0 -> v1 -> ... -> v(n-1) with both
   ends frozen.  Elimination takes the inner variables in index order,
   each resolvent carrying the chain on, so an inner variable's stored
   clauses mention its successor: restoring v1 brings back every later
   inner variable of its own chain and nothing of the other chain. *)
let chains ~n =
  let s = Sat.create () in
  Sat.set_simplify s true;
  let chain () = Array.init n (fun _ -> Sat.new_var s) in
  let x = chain () in
  let y = chain () in
  let clauses = ref [] in
  let add c =
    clauses := c :: !clauses;
    Sat.add_clause s c
  in
  List.iter
    (fun v ->
      for i = 0 to n - 2 do
        add [ Sat.neg_of_var v.(i); Sat.pos v.(i + 1) ]
      done;
      Sat.freeze s v.(0);
      Sat.freeze s v.(n - 1))
    [ x; y ];
  Sat.simplify_now s;
  (s, x, y, clauses)

let inner v = Array.to_list (Array.sub v 1 (Array.length v - 2))

let check_elim s name vars expected =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: var %d eliminated" name v)
        expected (Sat.is_eliminated s v))
    vars

let sat_result =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Sat.Sat -> "SAT"
      | Sat.Unsat -> "UNSAT"
      | Sat.Unknown -> "UNKNOWN"))
    ( = )

let satisfies s clauses =
  List.for_all
    (List.exists (fun l ->
         let b = Sat.value s (l lsr 1) in
         if l land 1 = 0 then b else not b))
    clauses

let test_restore_exact_closure () =
  let s, x, y, clauses = chains ~n:6 in
  check_elim s "after pass" (inner x @ inner y) true;
  (* A clause on the last inner variable of x re-opens it alone: its
     stored clauses mention only frozen x5 and nothing eliminated. *)
  let c1 = [ Sat.pos x.(4); Sat.pos x.(0) ] in
  Sat.add_clause s c1;
  check_elim s "x4 restored" [ x.(4) ] false;
  check_elim s "x1..x3 untouched" [ x.(1); x.(2); x.(3) ] true;
  check_elim s "y untouched" (inner y) true;
  (* A clause on x2 re-opens x2 and x3 (x4 is live already), not x1. *)
  let c2 = [ Sat.neg_of_var x.(2); Sat.pos y.(0) ] in
  Sat.add_clause s c2;
  check_elim s "x2, x3 restored" [ x.(2); x.(3) ] false;
  check_elim s "x1 untouched" [ x.(1) ] true;
  check_elim s "y still untouched" (inner y) true;
  Alcotest.check sat_result "sat" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "model satisfies every clause" true
    (satisfies s (c1 :: c2 :: !clauses))

let test_restore_reeliminate () =
  (* Eliminate, restore, eliminate again: the first elimination's stack
     entries retire but stay on the stack (y's live entries outnumber
     them), and model extension must use only the new ones. *)
  let s, x, y, clauses = chains ~n:6 in
  check_elim s "after pass" (inner x @ inner y) true;
  let c = [ Sat.neg_of_var x.(1); Sat.pos y.(5) ] in
  Sat.add_clause s c;
  check_elim s "x restored" (inner x) false;
  check_elim s "y untouched" (inner y) true;
  Sat.simplify_now s;
  Alcotest.(check bool) "x re-eliminated" true
    (List.exists (Sat.is_eliminated s) (inner x));
  List.iter
    (fun assumptions ->
      Alcotest.check sat_result "sat" Sat.Sat (Sat.solve ~assumptions s);
      Alcotest.(check bool) "model satisfies every original clause" true
        (satisfies s (c :: !clauses)))
    [ []; [ Sat.pos x.(0) ]; [ Sat.neg_of_var x.(5) ] ]

let test_clone_after_partial_restore () =
  (* The second restore leaves more retired stack entries than live ones,
     so both solvers also compact their stacks. *)
  let s, x, y, clauses = chains ~n:6 in
  let c1 = [ Sat.pos x.(3); Sat.pos y.(0) ] in
  Sat.add_clause s c1;
  check_elim s "partial restore" [ x.(3); x.(4) ] false;
  check_elim s "x1, x2 still eliminated" [ x.(1); x.(2) ] true;
  let c = Sat.clone s in
  (* Both sides re-open x1 and y3 through the same clause: the clone
     restores from its own copy of the index. *)
  let c2 = [ Sat.pos x.(1); Sat.neg_of_var y.(3) ] in
  Sat.add_clause s c2;
  Sat.add_clause c c2;
  List.iter
    (fun (name, t) ->
      check_elim t (name ^ " restored") [ x.(1); x.(2); y.(3); y.(4) ] false;
      check_elim t (name ^ " y1, y2 untouched") [ y.(1); y.(2) ] true)
    [ ("master", s); ("clone", c) ];
  let all = c1 :: c2 :: !clauses in
  List.iter
    (fun assumptions ->
      let r = Sat.solve ~assumptions s in
      Alcotest.check sat_result "clone verdict = master" r
        (Sat.solve ~assumptions c);
      if r = Sat.Sat then
        Alcotest.(check bool) "clone model satisfies every clause" true
          (satisfies c all))
    [
      [];
      (* y1, y2 are still eliminated: y0 forces their extended values. *)
      [ Sat.pos y.(0) ];
      [ Sat.pos x.(0); Sat.neg_of_var x.(5) ];
      [ Sat.neg_of_var x.(3); Sat.neg_of_var y.(0) ];
      [ Sat.neg_of_var x.(1); Sat.pos y.(3); Sat.neg_of_var y.(5) ];
    ]

(* -- pass schedule -------------------------------------------------------- *)

(* Pigeonhole PHP(n+1, n) behind an activation literal [a]: every clause
   carries [~a], so the block is free to switch off and UNSAT under the
   assumption [a], after a few thousand conflicts for n = 7. *)
let pigeonhole s ~holes =
  let a = Sat.new_var s in
  let x =
    Array.init (holes + 1) (fun _ -> Array.init holes (fun _ -> Sat.new_var s))
  in
  let clauses = ref [] in
  let add c =
    let c = Sat.neg_of_var a :: c in
    clauses := c :: !clauses;
    Sat.add_clause s c
  in
  Array.iter (fun p -> add (Array.to_list (Array.map Sat.pos p))) x;
  for h = 0 to holes - 1 do
    for i = 0 to holes do
      for j = i + 1 to holes do
        add [ Sat.neg_of_var x.(i).(h); Sat.neg_of_var x.(j).(h) ]
      done
    done
  done;
  (a, !clauses)

(* [solve] runs a pass at a restart boundary only once the instance is
   past its first solve, has grown since the last pass, and the search has
   spent one conflict per 200 problem clauses since then: a shallow
   re-solve pays nothing, a hard one pays exactly one pass, and a re-solve
   with nothing new pays none however hard it searches. *)
let test_pass_schedule () =
  let module Metrics = Sqed_obs.Metrics in
  let was_enabled = !Metrics.enabled in
  Metrics.enabled := true;
  Fun.protect ~finally:(fun () -> Metrics.enabled := was_enabled)
  @@ fun () ->
  let passes () = Metrics.find_counter "sat.simplify.passes" in
  let conflicts s = (Sat.stats s).Sat.conflicts in
  let s = Sat.create () in
  Sat.set_simplify s true;
  let p = Sat.new_var s and q = Sat.new_var s in
  let base = [ [ Sat.pos p; Sat.pos q ]; [ Sat.neg_of_var p; Sat.pos q ] ] in
  List.iter (Sat.add_clause s) base;
  let p0 = passes () in
  Alcotest.check sat_result "first solve" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "first model" true (satisfies s base);
  (* 408 new clauses: enough material for a pass, which the search earns
     with its third conflict. *)
  let a1, php1 = pigeonhole s ~holes:7 in
  let a2, php2 = pigeonhole s ~holes:7 in
  let all = base @ php1 @ php2 in
  let earned c = c * 200 >= Sat.num_clauses s in
  let c0 = conflicts s in
  Alcotest.check sat_result "blocks off" Sat.Sat
    (Sat.solve ~assumptions:[ Sat.neg_of_var a1; Sat.neg_of_var a2 ] s);
  Alcotest.(check bool) "shallow re-solve: pass not earned" false
    (earned (conflicts s - c0));
  Alcotest.(check int) "shallow re-solve: no pass" 0 (passes () - p0);
  Alcotest.(check bool) "blocks-off model" true (satisfies s all);
  let c1 = conflicts s in
  Alcotest.check sat_result "first block on" Sat.Unsat
    (Sat.solve ~assumptions:[ Sat.pos a1 ] s);
  Alcotest.(check bool) "hard re-solve: pass earned" true
    (earned (conflicts s - c1));
  Alcotest.(check int) "hard re-solve: one pass" 1 (passes () - p0);
  let c2 = conflicts s in
  Alcotest.check sat_result "second block on" Sat.Unsat
    (Sat.solve ~assumptions:[ Sat.pos a2 ] s);
  Alcotest.(check bool) "no new clauses: pass earned" true
    (earned (conflicts s - c2));
  Alcotest.(check int) "no new clauses: no further pass" 1 (passes () - p0);
  Alcotest.check sat_result "unconstrained" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "final model" true (satisfies s all)

(* -- QF_BV differential ------------------------------------------------- *)

let random_term rng vars depth width =
  let module Term = Smt.Term in
  let rec go depth =
    if depth = 0 then
      match Random.State.int rng 3 with
      | 0 -> Term.var (List.nth vars (Random.State.int rng (List.length vars))) width
      | 1 -> Term.const (Sqed_bv.Bv.of_int ~width (Random.State.int rng 256))
      | _ -> Term.var (List.nth vars (Random.State.int rng (List.length vars))) width
    else
      let a = go (depth - 1) and b = go (depth - 1) in
      match Random.State.int rng 9 with
      | 0 -> Term.add a b
      | 1 -> Term.sub a b
      | 2 -> Term.and_ a b
      | 3 -> Term.or_ a b
      | 4 -> Term.xor a b
      | 5 -> Term.not_ a
      | 6 -> Term.mul a b
      | 7 -> Term.ite (Term.eq a b) a b
      | _ -> Term.shl a (Term.const (Sqed_bv.Bv.of_int ~width (Random.State.int rng width)))
  in
  go depth

let qfbv_differential seed =
  let module Term = Smt.Term in
  let module Solver = Smt.Solver in
  let rng = Random.State.make [| seed |] in
  let width = 6 in
  let vars = [ "x"; "y"; "z" ] in
  let t1 = random_term rng vars 3 width and t2 = random_term rng vars 3 width in
  let prop = Term.eq t1 t2 in
  let plain =
    Solver.create ~config:{ Solver.default_config with simplify = false } ()
  in
  let simp = Solver.create ~config:Solver.default_config () in
  Solver.assert_ plain prop;
  Solver.assert_ simp prop;
  let r_plain = Solver.check plain and r_simp = Solver.check simp in
  (match (r_plain, r_simp) with
  | Solver.Sat, Solver.Sat ->
      (* The model must actually satisfy the asserted property. *)
      Sqed_bv.Bv.to_int (Solver.model_value simp prop) = 1
  | Solver.Unsat, Solver.Unsat -> true
  | _ -> false)
  (* And checking under assumptions after the first check stays sound. *)
  &&
  let assum = Term.eq (Term.var "x" width) (Term.var "y" width) in
  Solver.check ~assumptions:[ assum ] plain
  = Solver.check ~assumptions:[ assum ] simp

(* -- pinned outcome -------------------------------------------------------- *)

(* Everything an outcome says, in order: the clauses, the units, each
   eliminated variable with its stored clauses, the verdict. *)
let render (o : Simplify.outcome) =
  let b = Buffer.create 4096 in
  let clause c =
    Array.iter (fun l -> Buffer.add_string b (string_of_int l ^ " ")) c;
    Buffer.add_char b ';'
  in
  List.iter clause o.Simplify.clauses;
  Buffer.add_string b "|units:";
  List.iter (fun l -> Buffer.add_string b (string_of_int l ^ " ")) o.units;
  Buffer.add_string b "|eliminated:";
  List.iter
    (fun (v, stored) ->
      Buffer.add_string b (string_of_int v ^ "=");
      List.iter clause stored;
      Buffer.add_char b '/')
    o.eliminated;
  Buffer.add_string b (if o.unsat then "|unsat" else "|sat");
  Buffer.contents b

let render_stats (st : Simplify.stats) =
  Printf.sprintf
    "eliminated_vars=%d subsumed=%d strengthened=%d probe_failures=%d \
     units=%d resolvents=%d"
    st.Simplify.eliminated_vars st.subsumed st.strengthened st.probe_failures
    st.units st.resolvents

(* Random 3-SAT over [nvars] variables from a fixed linear congruential
   stream, literals in the solver's [2v (+1)] encoding. *)
let lcg_3sat ~seed ~nvars ~nclauses =
  let st = ref seed in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st lsr 8
  in
  List.init nclauses (fun _ ->
      Array.init 3 (fun _ ->
          let v = next () mod nvars in
          (2 * v) + (next () land 1)))

(* The bit-blasted clauses of the miter [x * y <> y * x] at width 6, as
   DIMACS text from a solver that never runs a pass of its own. *)
let mul_miter () =
  let module Term = Smt.Term in
  let module Solver = Smt.Solver in
  let x = Term.var "x" 6 and y = Term.var "y" 6 in
  let s =
    Solver.create ~config:{ Solver.default_config with simplify = false } ()
  in
  Solver.assert_ s (Term.not_ (Term.eq (Term.mul x y) (Term.mul y x)));
  match Sqed_sat.Dimacs.parse (Solver.to_dimacs s) with
  | Error e -> Alcotest.fail e
  | Ok cnf ->
      ( cnf.Sqed_sat.Dimacs.num_vars,
        List.map
          (fun c ->
            Array.of_list
              (List.map
                 (fun l -> if l > 0 then 2 * (l - 1) else (2 * (-l - 1)) + 1)
                 c))
          cnf.clauses )

(* Two fixed inputs whose whole outcome is pinned: a change to the pass's
   data layout must not move a clause, a unit, an elimination or a stored
   clause.  The values are those of the list-based pass the flat store
   replaced. *)
let test_pinned_outcome () =
  let check name ~nvars input ~digest ~stats =
    let o = Simplify.run ~nvars ~frozen:(fun _ -> false) input in
    Alcotest.(check string) (name ^ ": stats") stats (render_stats o.stats);
    Alcotest.(check string)
      (name ^ ": outcome digest")
      digest
      (Digest.to_hex (Digest.string (render o)))
  in
  check "3-SAT" ~nvars:60
    (lcg_3sat ~seed:11 ~nvars:60 ~nclauses:150)
    ~digest:"13ba44771d448666cc2ae0f2e2962176"
    ~stats:
      "eliminated_vars=18 subsumed=1 strengthened=0 probe_failures=0 \
       units=0 resolvents=32";
  let nvars, miter = mul_miter () in
  check "mul miter" ~nvars miter ~digest:"e221730c952fbdc44bd706b1079bc6d5"
    ~stats:
      "eliminated_vars=49 subsumed=0 strengthened=0 probe_failures=0 \
       units=2 resolvents=218"

(* -- degraded passes -------------------------------------------------------- *)

let lit_true m l = (m lsr (l lsr 1)) land 1 = 1 - (l land 1)
let satisfies_all m cls = List.for_all (Array.exists (lit_true m)) cls

(* The first assignment (as a bit mask over [nvars] <= 14 variables)
   that satisfies every clause. *)
let brute_force ~nvars cls =
  let rec go m =
    if m >= 1 lsl nvars then None
    else if satisfies_all m cls then Some m
    else go (m + 1)
  in
  go 0

(* Extend a model through [eliminated] newest first, as the CDCL core
   does: an eliminated variable is false unless one of its stored
   clauses needs it true. *)
let extend_model m eliminated =
  List.fold_left
    (fun m (v, stored) ->
      let m = m land lnot (1 lsl v) in
      let needs_true c =
        Array.mem (2 * v) c
        && not (Array.exists (fun l -> l lsr 1 <> v && lit_true m l) c)
      in
      if List.exists needs_true stored then m lor (1 lsl v) else m)
    m (List.rev eliminated)

(* Random 2- and 3-literal clauses over 12 variables: enough binary
   clauses for probing, few enough for elimination to take every
   variable. *)
let small_cnf seed =
  let rng = Random.State.make [| seed |] in
  List.init 26 (fun _ ->
      Array.init
        (2 + Random.State.int rng 2)
        (fun _ -> (2 * Random.State.int rng 12) + Random.State.int rng 2))

(* A [stop] that turns true after [k] polls stops the pass in the probe,
   subsumption or elimination stage; whatever it returns must still be
   sound: no eliminated variable left in [clauses], [clauses] plus
   [units] equisatisfiable with the input, and a model of them extended
   through [eliminated] a model of the input. *)
let test_stop_degradation () =
  let nvars = 12 in
  let work = Array.make 3 0 in
  List.iter
    (fun seed ->
      let input = small_cnf seed in
      let fresh () = List.map Array.copy input in
      let polls = ref 0 in
      let full =
        Simplify.run ~nvars ~frozen:(fun _ -> false)
          ~stop:(fun () ->
            incr polls;
            false)
          (fresh ())
      in
      let st = full.stats in
      work.(0) <- work.(0) + st.Simplify.probe_failures;
      work.(1) <- work.(1) + st.subsumed + st.strengthened;
      work.(2) <- work.(2) + st.eliminated_vars;
      let total = !polls in
      let input_sat = brute_force ~nvars input <> None in
      for k = 0 to total do
        let n = ref 0 in
        let o =
          Simplify.run ~nvars ~frozen:(fun _ -> false)
            ~stop:(fun () ->
              incr n;
              !n > k)
            (fresh ())
        in
        let name = Printf.sprintf "seed %d, stop after %d polls" seed k in
        let elim = List.map fst o.eliminated in
        List.iter
          (fun c ->
            Array.iter
              (fun l ->
                if List.mem (l lsr 1) elim then
                  Alcotest.failf "%s: eliminated var %d in clauses" name
                    (l lsr 1))
              c)
          o.clauses;
        let kept = List.map (fun l -> [| l |]) o.units @ o.clauses in
        let model = if o.unsat then None else brute_force ~nvars kept in
        Alcotest.(check bool)
          (name ^ ": equisatisfiable")
          input_sat (model <> None);
        match model with
        | None -> ()
        | Some m ->
            Alcotest.(check bool)
              (name ^ ": extended model satisfies the input")
              true
              (satisfies_all (extend_model m o.eliminated) input)
      done)
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check bool)
    "the inputs probe, subsume and eliminate" true
    (Array.for_all (fun n -> n > 0) work)

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
    QCheck.Test.make ~name:"simplified = plain (binary-heavy)" ~count:300
      (arb ~nvars:10 ~max_len:2)
      (fun cnf -> differential ~nvars:10 cnf);
    QCheck.Test.make ~name:"simplified = plain (mixed)" ~count:300
      (arb ~nvars:14 ~max_len:4)
      (fun cnf -> differential ~nvars:14 cnf);
    QCheck.Test.make ~name:"simplified = plain (wide clauses)" ~count:150
      (arb ~nvars:20 ~max_len:7)
      (fun cnf -> differential ~nvars:20 cnf);
    QCheck.Test.make ~name:"assumptions over eliminated vars" ~count:300
      (arb_assumed ~nvars:12 ~max_len:3)
      (fun x -> differential_assumptions ~nvars:12 x);
    QCheck.Test.make ~name:"incremental adds over eliminated vars" ~count:200
      (arb_pair ~nvars:12 ~max_len:3)
      (fun x -> differential_incremental ~nvars:12 x);
    QCheck.Test.make ~name:"qf_bv: simplified = plain" ~count:60
      (QCheck.make ~print:string_of_int QCheck.Gen.nat)
      qfbv_differential;
  ]

let suite =
  [
    Alcotest.test_case "standalone outcome invariants" `Quick
      test_standalone_run;
    Alcotest.test_case "frozen vars survive" `Quick test_frozen_not_eliminated;
    Alcotest.test_case "restore on direct add" `Quick test_restore_on_add;
    Alcotest.test_case "restore touches only the closure" `Quick
      test_restore_exact_closure;
    Alcotest.test_case "eliminate, restore, re-eliminate" `Quick
      test_restore_reeliminate;
    Alcotest.test_case "clone after a partial restore" `Quick
      test_clone_after_partial_restore;
    Alcotest.test_case "passes wait for conflicts and new clauses" `Quick
      test_pass_schedule;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
  @ [
      Alcotest.test_case "stop degrades to a sound outcome" `Quick
        test_stop_degradation;
      Alcotest.test_case "pinned outcome (3-SAT, mul miter)" `Quick
        test_pinned_outcome;
    ]
