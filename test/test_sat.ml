(* Unit and property tests for the CDCL SAT solver.  Properties compare the
   solver's verdict against brute-force enumeration on small random CNFs. *)

module Sat = Sqed_sat.Sat

let result_t = Alcotest.testable
    (Fmt.of_to_string (function
      | Sat.Sat -> "SAT"
      | Sat.Unsat -> "UNSAT"
      | Sat.Unknown -> "UNKNOWN"))
    ( = )

let mk_vars s n = Array.init n (fun _ -> Sat.new_var s)

let test_trivial_sat () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ Sat.pos v ];
  Alcotest.check result_t "unit clause" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "model" true (Sat.value s v)

let test_trivial_unsat () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ Sat.pos v ];
  Sat.add_clause s [ Sat.neg_of_var v ];
  Alcotest.check result_t "x and not x" Sat.Unsat (Sat.solve s)

let test_empty_clause () =
  let s = Sat.create () in
  let _ = Sat.new_var s in
  Sat.add_clause s [];
  Alcotest.check result_t "empty clause" Sat.Unsat (Sat.solve s)

let test_no_clauses () =
  let s = Sat.create () in
  let _ = mk_vars s 3 in
  Alcotest.check result_t "no clauses" Sat.Sat (Sat.solve s)

let test_implication_chain () =
  (* x0 -> x1 -> ... -> x19, x0 asserted, ~x19 asserted: UNSAT. *)
  let s = Sat.create () in
  let v = mk_vars s 20 in
  for i = 0 to 18 do
    Sat.add_clause s [ Sat.neg_of_var v.(i); Sat.pos v.(i + 1) ]
  done;
  Sat.add_clause s [ Sat.pos v.(0) ];
  Sat.add_clause s [ Sat.neg_of_var v.(19) ];
  Alcotest.check result_t "chain" Sat.Unsat (Sat.solve s)

let test_chain_sat_model () =
  let s = Sat.create () in
  let v = mk_vars s 20 in
  for i = 0 to 18 do
    Sat.add_clause s [ Sat.neg_of_var v.(i); Sat.pos v.(i + 1) ]
  done;
  Sat.add_clause s [ Sat.pos v.(0) ];
  Alcotest.check result_t "chain sat" Sat.Sat (Sat.solve s);
  for i = 0 to 19 do
    Alcotest.(check bool) (Printf.sprintf "x%d true" i) true (Sat.value s v.(i))
  done

let test_xor_chain () =
  (* Parity constraints force a unique solution; check solver agrees. *)
  let s = Sat.create () in
  let v = mk_vars s 10 in
  let xor_true a b =
    (* a xor b = 1 *)
    Sat.add_clause s [ Sat.pos a; Sat.pos b ];
    Sat.add_clause s [ Sat.neg_of_var a; Sat.neg_of_var b ]
  in
  for i = 0 to 8 do
    xor_true v.(i) v.(i + 1)
  done;
  Sat.add_clause s [ Sat.pos v.(0) ];
  Alcotest.check result_t "xor chain" Sat.Sat (Sat.solve s);
  for i = 0 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "alternating %d" i)
      (i mod 2 = 0) (Sat.value s v.(i))
  done

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT instance. *)
  let s = Sat.create () in
  let p = Array.init 3 (fun _ -> mk_vars s 2) in
  (* Each pigeon in some hole. *)
  Array.iter (fun row -> Sat.add_clause s [ Sat.pos row.(0); Sat.pos row.(1) ]) p;
  (* No two pigeons share a hole. *)
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Sat.add_clause s [ Sat.neg_of_var p.(i).(h); Sat.neg_of_var p.(j).(h) ]
      done
    done
  done;
  Alcotest.check result_t "php(3,2)" Sat.Unsat (Sat.solve s)

let test_pigeonhole_6_5 () =
  let s = Sat.create () in
  let n = 6 in
  let p = Array.init n (fun _ -> mk_vars s (n - 1)) in
  Array.iter
    (fun row -> Sat.add_clause s (Array.to_list (Array.map Sat.pos row)))
    p;
  for h = 0 to n - 2 do
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Sat.add_clause s [ Sat.neg_of_var p.(i).(h); Sat.neg_of_var p.(j).(h) ]
      done
    done
  done;
  Alcotest.check result_t "php(6,5)" Sat.Unsat (Sat.solve s)

let test_assumptions () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.neg_of_var a; Sat.pos b ];
  Alcotest.check result_t "assume a" Sat.Sat
    (Sat.solve ~assumptions:[ Sat.pos a ] s);
  Alcotest.(check bool) "b forced" true (Sat.value s b);
  Alcotest.check result_t "assume a, ~b" Sat.Unsat
    (Sat.solve ~assumptions:[ Sat.pos a; Sat.neg_of_var b ] s);
  (* Solver must remain usable after an assumption failure. *)
  Alcotest.check result_t "no assumptions still sat" Sat.Sat (Sat.solve s)

let test_incremental () =
  let s = Sat.create () in
  let v = mk_vars s 4 in
  Sat.add_clause s [ Sat.pos v.(0); Sat.pos v.(1) ];
  Alcotest.check result_t "first" Sat.Sat (Sat.solve s);
  Sat.add_clause s [ Sat.neg_of_var v.(0) ];
  Sat.add_clause s [ Sat.neg_of_var v.(1) ];
  Alcotest.check result_t "after strengthening" Sat.Unsat (Sat.solve s)

let test_duplicate_and_tautology () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  (* Tautological clause must be ignored, duplicated literals collapsed. *)
  Sat.add_clause s [ Sat.pos a; Sat.neg_of_var a ];
  Sat.add_clause s [ Sat.pos a; Sat.pos a ];
  Alcotest.check result_t "sat" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "a true" true (Sat.value s a)

let test_stats () =
  let s = Sat.create () in
  let v = mk_vars s 8 in
  for i = 0 to 6 do
    Sat.add_clause s [ Sat.neg_of_var v.(i); Sat.pos v.(i + 1) ]
  done;
  Sat.add_clause s [ Sat.pos v.(0) ];
  ignore (Sat.solve s);
  let st = Sat.stats s in
  Alcotest.(check bool) "propagated" true (st.Sat.propagations > 0)

let test_dimacs_units_unsat () =
  (* An instance that is UNSAT only through absorbed unit clauses: units
     never reach the clause database (they are applied to the trail at add
     time), so an export without the level-0 trail would flip the
     re-parsed verdict to SAT. *)
  let module D = Sqed_sat.Dimacs in
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a ];
  Sat.add_clause s [ Sat.neg_of_var a; Sat.pos b ];
  Sat.add_clause s [ Sat.neg_of_var b ];
  (match D.parse (Sat.to_dimacs s) with
  | Error e -> Alcotest.fail ("parse: " ^ e)
  | Ok cnf ->
      Alcotest.(check bool) "exports a unit clause" true
        (List.exists (fun c -> List.length c <= 1) cnf.D.clauses);
      Alcotest.check result_t "reparsed verdict" Sat.Unsat (fst (D.solve cnf)));
  Alcotest.check result_t "direct verdict" Sat.Unsat (Sat.solve s)

let test_dimacs_units_pin_model () =
  (* SAT instance whose units pin part of the model: every model of the
     re-exported CNF must agree with the pinned values. *)
  let module D = Sqed_sat.Dimacs in
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  let c = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a ];
  Sat.add_clause s [ Sat.neg_of_var b ];
  Sat.add_clause s [ Sat.pos b; Sat.pos c; Sat.neg_of_var a ];
  match D.parse (Sat.to_dimacs s) with
  | Error e -> Alcotest.fail ("parse: " ^ e)
  | Ok cnf -> (
      match D.solve cnf with
      | Sat.Sat, Some m ->
          Alcotest.(check bool) "a pinned true" true m.(0);
          Alcotest.(check bool) "b pinned false" false m.(1);
          Alcotest.(check bool) "c forced by a, ~b" true m.(2)
      | _ -> Alcotest.fail "re-parsed instance should be SAT with a model")

(* ---------------------------------------------------------------- *)
(* Property: agreement with brute force on random 3-CNF              *)
(* ---------------------------------------------------------------- *)

type cnf = int list list (* positive ints 1..n, negative for negated *)

let gen_cnf ~nvars ~nclauses : cnf QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_lit =
    map2 (fun v s -> if s then v + 1 else -(v + 1)) (int_bound (nvars - 1)) bool
  in
  list_size (return nclauses) (list_size (int_range 1 3) gen_lit)

let brute_force ~nvars (cnf : cnf) =
  let rec go assignment i =
    if i = nvars then
      List.for_all
        (fun clause ->
          List.exists
            (fun l ->
              let v = abs l - 1 in
              if l > 0 then assignment.(v) else not assignment.(v))
            clause)
        cnf
    else begin
      assignment.(i) <- false;
      go assignment (i + 1)
      ||
      (assignment.(i) <- true;
       go assignment (i + 1))
    end
  in
  go (Array.make nvars false) 0

let solver_verdict ~nvars (cnf : cnf) =
  let s = Sat.create () in
  let v = mk_vars s nvars in
  List.iter
    (fun clause ->
      Sat.add_clause s
        (List.map
           (fun l ->
             let var = v.(abs l - 1) in
             if l > 0 then Sat.pos var else Sat.neg_of_var var)
           clause))
    cnf;
  Sat.solve s = Sat.Sat

let model_satisfies ~nvars (cnf : cnf) =
  let s = Sat.create () in
  let v = mk_vars s nvars in
  List.iter
    (fun clause ->
      Sat.add_clause s
        (List.map
           (fun l ->
             let var = v.(abs l - 1) in
             if l > 0 then Sat.pos var else Sat.neg_of_var var)
           clause))
    cnf;
  match Sat.solve s with
  | Sat.Unsat | Sat.Unknown -> true (* nothing to check *)
  | Sat.Sat ->
      List.for_all
        (fun clause ->
          List.exists
            (fun l ->
              let b = Sat.value s v.(abs l - 1) in
              if l > 0 then b else not b)
            clause)
        cnf

let cnf_print cnf =
  String.concat " & "
    (List.map
       (fun c -> "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
       cnf)

let dimacs_roundtrip ~nvars (cnf : cnf) =
  (* Loading the CNF into a solver and re-exporting it must preserve the
     exact verdict: level-0 trail literals (absorbed units and their
     propagations) are exported as unit clauses and a derived empty clause
     is exported explicitly. *)
  let module D = Sqed_sat.Dimacs in
  let s = Sat.create () in
  let v = mk_vars s nvars in
  List.iter
    (fun clause ->
      Sat.add_clause s
        (List.map
           (fun l ->
             let var = v.(abs l - 1) in
             if l > 0 then Sat.pos var else Sat.neg_of_var var)
           clause))
    cnf;
  (* Export before solving: the harder direction, since the trail holds
     only load-time units at this point. *)
  match D.parse (Sat.to_dimacs s) with
  | Error _ -> false
  | Ok reparsed -> fst (D.solve reparsed) = Sat.solve s

(* The fuzz check exercises all three propagation paths: unit clauses
   (level-0 trail), binary clauses (dedicated watch lists) and longer
   clauses (blocker-guarded watch lists). *)
let fuzz_check ~nvars (cnf : cnf) =
  let s = Sat.create () in
  let v = mk_vars s nvars in
  List.iter
    (fun clause ->
      Sat.add_clause s
        (List.map
           (fun l ->
             let var = v.(abs l - 1) in
             if l > 0 then Sat.pos var else Sat.neg_of_var var)
           clause))
    cnf;
  match Sat.solve s with
  | Sat.Unknown -> false
  | Sat.Unsat -> not (brute_force ~nvars cnf)
  | Sat.Sat ->
      brute_force ~nvars cnf
      && List.for_all
           (fun clause ->
             List.exists
               (fun l ->
                 let b = Sat.value s v.(abs l - 1) in
                 if l > 0 then b else not b)
               clause)
           cnf

let gen_cnf_mixed ~nvars ~max_len : cnf QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_lit =
    map2 (fun v s -> if s then v + 1 else -(v + 1)) (int_bound (nvars - 1)) bool
  in
  int_range 10 60 >>= fun ncl ->
  list_size (return ncl) (list_size (int_range 1 max_len) gen_lit)

let props =
  let nvars = 8 in
  let arb n = QCheck.make ~print:cnf_print (gen_cnf ~nvars ~nclauses:n) in
  let arb_mixed ~nvars ~max_len =
    QCheck.make ~print:cnf_print (gen_cnf_mixed ~nvars ~max_len)
  in
  [
    QCheck.Test.make ~name:"agrees with brute force (sparse)" ~count:200
      (arb 12)
      (fun cnf -> solver_verdict ~nvars cnf = brute_force ~nvars cnf);
    QCheck.Test.make ~name:"agrees with brute force (dense)" ~count:200
      (arb 40)
      (fun cnf -> solver_verdict ~nvars cnf = brute_force ~nvars cnf);
    QCheck.Test.make ~name:"models satisfy the formula" ~count:200 (arb 25)
      (fun cnf -> model_satisfies ~nvars cnf);
    QCheck.Test.make ~name:"dimacs export exact verdict" ~count:150 (arb 20)
      (fun cnf -> dimacs_roundtrip ~nvars cnf);
    (* >= 500 random instances vs brute force (the ISSUE's fuzz floor):
       binary-heavy CNFs stress the dedicated binary watch lists, mixed
       widths at 14 variables stress the blocker fast path. *)
    QCheck.Test.make ~name:"fuzz vs brute force (binary-heavy)" ~count:300
      (arb_mixed ~nvars:10 ~max_len:2)
      (fun cnf -> fuzz_check ~nvars:10 cnf);
    QCheck.Test.make ~name:"fuzz vs brute force (mixed, 14 vars)" ~count:300
      (arb_mixed ~nvars:14 ~max_len:4)
      (fun cnf -> fuzz_check ~nvars:14 cnf);
    QCheck.Test.make ~name:"dimacs roundtrip (mixed, 12 vars)" ~count:150
      (arb_mixed ~nvars:12 ~max_len:4)
      (fun cnf -> dimacs_roundtrip ~nvars:12 cnf);
  ]

(* ---------------------------------------------------------------- *)
(* Pinned search counters                                            *)
(* ---------------------------------------------------------------- *)

(* Fixed instances whose search counters are pinned exactly.  The clause
   layout, watch-list order, conflict analysis and learnt-DB reduction
   all feed the search order, so a storage change that is meant to be
   layout-only must leave every one of these numbers unchanged; a
   deliberate change of search behaviour re-pins them. *)

(* A small LCG, so the instances do not depend on [Random]'s algorithm. *)
let lcg_instance ~seed ~nvars ~nclauses =
  let st = ref seed in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st lsr 8
  in
  List.init nclauses (fun _ ->
      List.init 3 (fun _ ->
          let v = next () mod nvars in
          if next () land 1 = 0 then Sat.pos v else Sat.neg_of_var v))

let load_lits nvars cls =
  let s = Sat.create () in
  ignore (mk_vars s nvars);
  List.iter (Sat.add_clause s) cls;
  s

let pigeonhole n =
  let holes = n - 1 in
  let v i j = (i * holes) + j in
  let rows = List.init n (fun i -> List.init holes (fun j -> Sat.pos (v i j))) in
  let pairs = ref [] in
  for j = 0 to holes - 1 do
    for i = 0 to n - 1 do
      for k = i + 1 to n - 1 do
        pairs := [ Sat.neg_of_var (v i j); Sat.neg_of_var (v k j) ] :: !pairs
      done
    done
  done;
  (n * holes, rows @ List.rev !pairs)

let stats_t =
  Alcotest.testable
    (fun ppf (st : Sat.stats) ->
      Fmt.pf ppf "{dec=%d; props=%d; confl=%d; restarts=%d; learnt_lits=%d}"
        st.Sat.decisions st.Sat.propagations st.Sat.conflicts st.Sat.restarts
        st.Sat.learnt_literals)
    ( = )

let pinned name ~verdicts ~stats:(d, p, c, r, l) run =
  let s, got = run () in
  Alcotest.(check (list result_t)) (name ^ " verdicts") verdicts got;
  Alcotest.check stats_t (name ^ " counters")
    {
      Sat.decisions = d;
      propagations = p;
      conflicts = c;
      restarts = r;
      learnt_literals = l;
    }
    (Sat.stats s)

(* An incremental run: assumption sets that change every round, with
   new clauses arriving between solves. *)
let incremental_run () =
  let nv = 150 in
  let s = load_lits nv (lcg_instance ~seed:7 ~nvars:nv ~nclauses:(nv * 4)) in
  let extra = lcg_instance ~seed:8 ~nvars:nv ~nclauses:60 in
  let got = ref [] in
  for round = 0 to 5 do
    let assumptions =
      List.init 6 (fun i ->
          let v = ((round * 13) + (i * 7)) mod nv in
          if (round + i) land 1 = 0 then Sat.pos v else Sat.neg_of_var v)
    in
    got := Sat.solve ~assumptions s :: !got;
    List.iteri (fun i c -> if i mod 6 = round then Sat.add_clause s c) extra
  done;
  got := Sat.solve s :: !got;
  (s, List.rev !got)

(* Learnt clauses survive a [simplify_now] rebuild: level-0 units added
   after the first search shrink or drop some of them. *)
let simplify_run () =
  let nv = 150 in
  let s = load_lits nv (lcg_instance ~seed:7 ~nvars:nv ~nclauses:(nv * 4)) in
  let r1 = Sat.solve ~assumptions:[ Sat.pos 3; Sat.neg_of_var 11 ] s in
  Sat.add_clause s [ Sat.neg_of_var 5 ];
  Sat.add_clause s [ Sat.pos 17 ];
  Sat.simplify_now s;
  let r2 = Sat.solve s in
  (s, [ r1; r2 ])

let test_pinned_counters () =
  pinned "3-SAT n=200 seed 3" ~verdicts:[ Sat.Unsat ]
    ~stats:(12971, 409566, 10777, 45, 107093)
    (fun () ->
      let s = load_lits 200 (lcg_instance ~seed:3 ~nvars:200 ~nclauses:852) in
      (s, [ Sat.solve s ]));
  pinned "3-SAT n=150 seed 2" ~verdicts:[ Sat.Sat ]
    ~stats:(2054, 52777, 1667, 10, 14219)
    (fun () ->
      let s = load_lits 150 (lcg_instance ~seed:2 ~nvars:150 ~nclauses:639) in
      (s, [ Sat.solve s ]));
  pinned "pigeonhole 7/6" ~verdicts:[ Sat.Unsat ]
    ~stats:(922, 10313, 778, 5, 8453)
    (fun () ->
      let nv, cls = pigeonhole 7 in
      let s = load_lits nv cls in
      (s, [ Sat.solve s ]));
  pinned "incremental under assumptions"
    ~verdicts:[ Sat.Sat; Sat.Unsat; Sat.Unsat; Sat.Unsat; Sat.Unsat; Sat.Unsat; Sat.Sat ]
    ~stats:(1282, 33264, 1046, 6, 8610)
    incremental_run;
  pinned "simplify_now between solves" ~verdicts:[ Sat.Sat; Sat.Sat ]
    ~stats:(304, 7017, 207, 1, 1938)
    simplify_run


let satisfies s cls =
  List.for_all (List.exists (fun l -> Sat.lit_value s l)) cls

(* Learnt-DB reduction and the clause-store compaction behind it run in
   the middle of a search, with the assumption at level 1 and everything
   else assigned above it, so reason references on the trail move.  The
   relocated database must then survive new clauses, a simplification
   rebuild (which compacts again), a second search and a clone. *)
let test_compaction () =
  let module Metrics = Sqed_obs.Metrics in
  let was = !Metrics.enabled in
  Metrics.enabled := true;
  Fun.protect ~finally:(fun () -> Metrics.enabled := was) @@ fun () ->
  let compactions () = Metrics.find_counter "sat.arena.compactions" in
  let c0 = compactions () in
  let nv = 200 in
  let s = Sat.create () in
  ignore (mk_vars s nv);
  let sel = Sat.new_var s in
  (* Under [~sel] this is the UNSAT 3-SAT instance pinned above; with
     [sel] free every clause is satisfied by it. *)
  let guarded =
    List.map
      (fun c -> Sat.pos sel :: c)
      (lcg_instance ~seed:3 ~nvars:nv ~nclauses:852)
  in
  List.iter (Sat.add_clause s) guarded;
  Alcotest.check result_t "unsat under ~sel" Sat.Unsat
    (Sat.solve ~assumptions:[ Sat.neg_of_var sel ] s);
  Alcotest.(check bool) "reduce_db compacted the store" true (compactions () > c0);
  let extra = lcg_instance ~seed:11 ~nvars:nv ~nclauses:40 in
  List.iter (Sat.add_clause s) extra;
  let c1 = compactions () in
  Sat.simplify_now s;
  Alcotest.(check bool) "simplify rebuild compacted" true (compactions () > c1);
  let original = guarded @ extra in
  Alcotest.check result_t "sat after rebuild" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "model satisfies the original clauses" true
    (satisfies s original);
  let c = Sat.clone s in
  Alcotest.check result_t "clone sat" Sat.Sat (Sat.solve c);
  Alcotest.(check bool) "clone model satisfies the original clauses" true
    (satisfies c original);
  Alcotest.check result_t "clone unsat under ~sel" Sat.Unsat
    (Sat.solve ~assumptions:[ Sat.neg_of_var sel ] c);
  Alcotest.check result_t "master unsat under ~sel" Sat.Unsat
    (Sat.solve ~assumptions:[ Sat.neg_of_var sel ] s);
  Alcotest.check stats_t "master counters"
    {
      Sat.decisions = 12979;
      propagations = 402331;
      conflicts = 10597;
      restarts = 45;
      learnt_literals = 118490;
    }
    (Sat.stats s)

(* ---------------------------------------------------------------- *)
(* Fixed-arity clause entry points                                   *)
(* ---------------------------------------------------------------- *)

(* [add_clause2]/[add_clause3] must be [add_clause] without the list:
   the same normalization, the same restore of eliminated variables and
   the same unsatisfiable outcome, so a solver fed through them searches
   exactly like one fed through [add_clause]. *)
let add_via ~direct s = function
  | [ a; b ] when direct -> Sat.add_clause2 s a b
  | [ a; b; c ] when direct -> Sat.add_clause3 s a b c
  | lits -> Sat.add_clause s lits

(* Early clauses, a solve, an optional simplification pass followed by a
   clause over variables it eliminated (re-opening them), late clauses,
   then solves with and without the assumptions.  Returns everything
   the two entry points must agree on, and how many variables the
   re-opening clause restored. *)
let entry_run ~direct ~simplify (nvars, early, late, assumptions) =
  let s = Sat.create () in
  ignore (mk_vars s nvars);
  List.iter (add_via ~direct s) early;
  let r1 = Sat.solve ~assumptions s in
  let reopened =
    if not simplify then 0
    else begin
      Sat.simplify_now s;
      let elim = List.filter (Sat.is_eliminated s) (List.init nvars Fun.id) in
      (match elim with
      | a :: b :: c :: _ ->
          add_via ~direct s [ Sat.pos a; Sat.neg_of_var b; Sat.pos c ]
      | [ a; b ] -> add_via ~direct s [ Sat.neg_of_var a; Sat.pos b ]
      | _ -> ());
      List.length (List.filter (fun v -> not (Sat.is_eliminated s v)) elim)
    end
  in
  List.iter (add_via ~direct s) late;
  let r2 = Sat.solve ~assumptions s in
  let r3 = Sat.solve s in
  let model =
    if r3 = Sat.Sat then List.init nvars (Sat.value s) else []
  in
  ( ( [ r1; r2; r3 ],
      Sat.stats s,
      Sat.num_clauses s,
      List.init nvars (Sat.is_eliminated s),
      model ),
    reopened )

let gen_entry_case ~nvars : (int * int list list * int list list * int list) QCheck.Gen.t =
  let open QCheck.Gen in
  let lit = map2 (fun v b -> if b then Sat.pos v else Sat.neg_of_var v) (int_bound (nvars - 1)) bool in
  let clauses lo hi =
    int_range lo hi >>= fun n -> list_size (return n) (list_size (int_range 1 3) lit)
  in
  map3
    (fun early late assumptions -> (nvars, early, late, assumptions))
    (clauses 10 45) (clauses 0 15) (list_size (int_range 0 3) lit)

let entry_print (nvars, early, late, assumptions) =
  let cls l = String.concat " " (List.map (fun c -> "[" ^ String.concat "," (List.map string_of_int c) ^ "]") l) in
  Printf.sprintf "nvars=%d early=%s late=%s assumptions=[%s]" nvars (cls early)
    (cls late) (String.concat "," (List.map string_of_int assumptions))

let entry_agrees ~simplify case =
  fst (entry_run ~direct:true ~simplify case)
  = fst (entry_run ~direct:false ~simplify case)

let entry_props =
  let arb nvars = QCheck.make ~print:entry_print (gen_entry_case ~nvars) in
  [
    QCheck.Test.make ~name:"add_clause2/3 = list (assumptions)"
      ~count:300 (arb 10) (entry_agrees ~simplify:false);
    QCheck.Test.make ~name:"add_clause2/3 = list (simplify, re-open)"
      ~count:300 (arb 12) (entry_agrees ~simplify:true);
  ]

(* The property above only means something if its pass eliminates
   variables and the later clause brings them back: check that it does
   on fixed instances. *)
let test_entry_reopens () =
  let nvars = 12 in
  let reopened = ref 0 in
  for seed = 1 to 20 do
    let early = lcg_instance ~seed ~nvars ~nclauses:30 in
    let late = lcg_instance ~seed:(seed + 100) ~nvars ~nclauses:4 in
    let case = (nvars, early, late, [ Sat.pos (seed mod nvars) ]) in
    let direct, n = entry_run ~direct:true ~simplify:true case in
    let listed, _ = entry_run ~direct:false ~simplify:true case in
    Alcotest.(check bool) (Printf.sprintf "seed %d agrees" seed) true (direct = listed);
    reopened := !reopened + n
  done;
  Alcotest.(check bool) "the pass eliminated variables a later clause re-opened"
    true (!reopened > 0)

(* While the shared per-variable capacity lasts, a new variable is a
   counter bump and a heap entry: no allocation at all.  The capacity
   doubles from one, so variables 513 to 1024 fit after the 513th. *)
let test_new_var_allocates_nothing () =
  let s = Sat.create () in
  ignore (mk_vars s 513);
  let before = Gc.minor_words () in
  for _ = 514 to 1024 do
    ignore (Sat.new_var s)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words for 511 new_var calls" 0.0 words;
  Alcotest.(check int) "variables" 1024 (Sat.num_vars s)

let suite =
  [
    Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "no clauses" `Quick test_no_clauses;
    Alcotest.test_case "implication chain unsat" `Quick test_implication_chain;
    Alcotest.test_case "implication chain model" `Quick test_chain_sat_model;
    Alcotest.test_case "xor chain" `Quick test_xor_chain;
    Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole_3_2;
    Alcotest.test_case "pigeonhole 6/5" `Quick test_pigeonhole_6_5;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "incremental" `Quick test_incremental;
    Alcotest.test_case "tautology handling" `Quick test_duplicate_and_tautology;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "dimacs keeps units (unsat)" `Quick
      test_dimacs_units_unsat;
    Alcotest.test_case "dimacs keeps units (model)" `Quick
      test_dimacs_units_pin_model;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
  @ [
      Alcotest.test_case "pinned search counters" `Quick test_pinned_counters;
      Alcotest.test_case "clause-store compaction" `Quick test_compaction;
    ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) entry_props
  @ [
      Alcotest.test_case "add_clause2/3 re-open eliminated vars" `Quick
        test_entry_reopens;
      Alcotest.test_case "new_var allocates nothing within capacity" `Quick
        test_new_var_allocates_nothing;
    ]
