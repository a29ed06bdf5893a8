(* SatELite-style preprocessing (Eén & Biere, SAT'05) on an extracted
   clause set.  The module is deliberately standalone — it knows nothing
   about watches, trails or activities — so the CDCL core can rebuild its
   own state from the outcome and the DIMACS front end can reuse the same
   pass.  Everything is budgeted: occurrence-bounded elimination, capped
   subset checks, capped probe visits.  The budgets are sized for the
   bit-blasted CEGIS/BMC queries this repository issues (thousands of
   clauses, solved in milliseconds), where the pass must cost less than
   the search time it saves. *)

let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0

type stats = {
  eliminated_vars : int;
  subsumed : int;
  strengthened : int;
  probe_failures : int;
  units : int;
  resolvents : int;
}

type outcome = {
  clauses : int array list;
  units : int list;
  eliminated : (int * int array list) list;
  unsat : bool;
  stats : stats;
}

type cls = {
  mutable lits : int array; (* sorted, duplicate-free *)
  mutable sg : int; (* 62-bit variable signature *)
  mutable dead : bool;
}

(* Budgets.  [max_occ]: both occurrence lists of an elimination candidate
   must be at most this long (gate variables sit at 3–6).  [max_cls_len]:
   clauses longer than this are skipped as subsumers and as elimination
   material.  The check caps bound the quadratic corners. *)
let max_occ = 10
let max_cls_len = 24
let max_subset_checks = 400_000
let max_probe_visits = 60_000
let bve_rounds = 3

exception Unsat_found

(* Raised internally when the caller's [stop] poll turns true; each pass
   catches it at an operation boundary (unit queue drained), so the
   partial outcome is always consistent and sound to install. *)
exception Stopped

type state = {
  nvars : int;
  value : int array; (* per var: -1 undef, 0 false, 1 true *)
  occ : cls list array; (* per literal; dead entries filtered lazily *)
  mutable all : cls list;
  mutable unit_queue : int list;
  mutable unit_trail : int list; (* assignment order, newest first *)
  mutable elim : (int * int array list) list; (* newest first *)
  is_frozen : int -> bool;
  mutable n_elim : int;
  mutable n_subsumed : int;
  mutable n_strengthened : int;
  mutable n_probe : int;
  mutable n_resolvents : int;
}

let clause_sig lits =
  Array.fold_left (fun s l -> s lor (1 lsl ((l lsr 1) mod 62))) 0 lits

let lit_value st l =
  let v = st.value.(var_of l) in
  if v < 0 then -1 else v lxor (l land 1)

(* -- unit assignment ---------------------------------------------------- *)

let enqueue_unit st l =
  match lit_value st l with
  | 1 -> ()
  | 0 -> raise Unsat_found
  | _ -> st.unit_queue <- l :: st.unit_queue

let remove_lit c l =
  let n = Array.length c.lits in
  let a = Array.make (n - 1) 0 in
  let k = ref 0 in
  Array.iter
    (fun x ->
      if x <> l then begin
        a.(!k) <- x;
        incr k
      end)
    c.lits;
  c.lits <- a;
  c.sg <- clause_sig a

let rec propagate_units st =
  match st.unit_queue with
  | [] -> ()
  | l :: rest ->
      st.unit_queue <- rest;
      (match lit_value st l with
      | 1 -> ()
      | 0 -> raise Unsat_found
      | _ ->
          st.value.(var_of l) <- (if is_pos l then 1 else 0);
          st.unit_trail <- l :: st.unit_trail;
          (* Clauses containing [l] are satisfied. *)
          List.iter (fun c -> c.dead <- true) st.occ.(l);
          st.occ.(l) <- [];
          (* Clauses containing [negate l] lose that literal. *)
          let falsified = negate l in
          List.iter
            (fun c ->
              if not c.dead then begin
                remove_lit c falsified;
                match Array.length c.lits with
                | 0 -> raise Unsat_found
                | 1 ->
                    c.dead <- true;
                    enqueue_unit st c.lits.(0)
                | _ -> ()
              end)
            st.occ.(falsified);
          st.occ.(falsified) <- []);
      propagate_units st

(* -- clause construction ------------------------------------------------ *)

let attach st c =
  st.all <- c :: st.all;
  Array.iter (fun l -> st.occ.(l) <- c :: st.occ.(l)) c.lits

(* Add a clause given sorted, duplicate-free, tautology-free, unassigned
   literals. *)
let add_clean st lits =
  match Array.length lits with
  | 0 -> raise Unsat_found
  | 1 -> enqueue_unit st lits.(0)
  | _ -> attach st { lits; sg = clause_sig lits; dead = false }

(* Add a raw input clause, normalized in place (the pass owns its
   input arrays): sort, drop duplicates and assigned literals, detect
   tautologies and satisfied clauses.  The array itself becomes the
   clause's storage unless something was dropped. *)
let add_input st lits =
  Array.sort Int.compare lits;
  let n = ref 0 in
  let sat_ = ref false in
  let last = ref (-2) in
  Array.iter
    (fun l ->
      if l = negate !last then sat_ := true (* tautology *)
      else if l <> !last then begin
        last := l;
        match lit_value st l with
        | 1 -> sat_ := true
        | 0 -> ()
        | _ ->
            lits.(!n) <- l;
            incr n
      end)
    lits;
  if not !sat_ then
    add_clean st
      (if !n = Array.length lits then lits else Array.sub lits 0 !n)

let live_occ st l =
  let live = List.filter (fun c -> not c.dead) st.occ.(l) in
  st.occ.(l) <- live;
  live

(* -- subsumption / self-subsuming resolution ---------------------------- *)

(* Is [a] (with literal [flip] of it read negated; pass -1 for none) a
   subset of [b]?  Both sorted; flipping a literal preserves order because
   [2v] and [2v+1] are adjacent and [b] is tautology-free. *)
let subset_flip a b flip =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na then true
    else if j >= nb then false
    else begin
      let x = if a.(i) = flip then negate a.(i) else a.(i) in
      if x = b.(j) then go (i + 1) (j + 1)
      else if x > b.(j) then go i (j + 1)
      else false
    end
  in
  na <= nb && go 0 0

let subsumption_pass ?(stop = fun () -> false) st =
  let checks = ref 0 in
  let snapshot = List.filter (fun c -> not c.dead) st.all in
  try
  List.iter
    (fun a ->
      if stop () then raise Stopped;
      if
        (not a.dead)
        && Array.length a.lits <= max_cls_len
        && !checks < max_subset_checks
      then begin
        let alen = Array.length a.lits in
        (* Backward subsumption: scan the shortest occurrence list among
           [a]'s literals — every clause containing all of [a] contains
           that literal. *)
        let best = ref a.lits.(0) in
        Array.iter
          (fun l ->
            if List.compare_lengths st.occ.(l) st.occ.(!best) < 0 then
              best := l)
          a.lits;
        List.iter
          (fun b ->
            if (not b.dead) && b != a && Array.length b.lits >= alen then begin
              incr checks;
              if
                a.sg land lnot b.sg = 0
                && subset_flip a.lits b.lits (-1)
              then begin
                b.dead <- true;
                st.n_subsumed <- st.n_subsumed + 1
              end
            end)
          (live_occ st !best);
        (* Self-subsuming resolution: if [a] with [p] flipped subsumes
           [b], resolving on [p] yields [b] minus [negate p] — remove it. *)
        if not a.dead then
          Array.iter
            (fun p ->
              let np = negate p in
              let occ = live_occ st np in
              let survivors =
                List.filter
                  (fun b ->
                    if
                      b.dead
                      || Array.length b.lits < alen
                      || !checks >= max_subset_checks
                    then not b.dead
                    else begin
                      incr checks;
                      if
                        a.sg land lnot b.sg = 0
                        && subset_flip a.lits b.lits p
                      then begin
                        remove_lit b np;
                        st.n_strengthened <- st.n_strengthened + 1;
                        (if Array.length b.lits = 1 then begin
                           b.dead <- true;
                           enqueue_unit st b.lits.(0)
                         end);
                        (* [b] no longer contains [np]: drop it from this
                           occurrence list. *)
                        false
                      end
                      else true
                    end)
                  occ
              in
              st.occ.(np) <- survivors)
            a.lits;
        propagate_units st
      end)
    snapshot
  with Stopped -> ()

(* -- failed-literal probing on the binary implication graph ------------- *)

let probe_pass ?(stop = fun () -> false) st =
  (* Adjacency from the current binary clauses: (a, b) yields the edges
     [¬a -> b] and [¬b -> a].  Edges from clauses later satisfied or
     strengthened stay logically implied by the original set plus units,
     so a stale graph can only find sound failed literals. *)
  let adj = Array.make (2 * st.nvars) [] in
  List.iter
    (fun c ->
      if (not c.dead) && Array.length c.lits = 2 then begin
        let a = c.lits.(0) and b = c.lits.(1) in
        adj.(negate a) <- b :: adj.(negate a);
        adj.(negate b) <- a :: adj.(negate b)
      end)
    st.all;
  let mark = Array.make (2 * st.nvars) (-1) in
  let stamp = ref 0 in
  let visits = ref 0 in
  let probe root =
    (* BFS of everything implied by [root]; a contradiction (both
       polarities reached, or a top-level-false literal reached) fails the
       probe and forces [negate root]. *)
    incr stamp;
    let this = !stamp in
    let queue = Queue.create () in
    let failed = ref false in
    let visit l =
      if (not !failed) && mark.(l) <> this then begin
        mark.(l) <- this;
        incr visits;
        if mark.(negate l) = this || lit_value st l = 0 then failed := true
        else if lit_value st l <> 1 then Queue.add l queue
      end
    in
    visit root;
    while (not !failed) && not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      List.iter visit adj.(l)
    done;
    if !failed then begin
      st.n_probe <- st.n_probe + 1;
      enqueue_unit st (negate root);
      propagate_units st
    end
  in
  (* Probe only literals that actually root an implication chain. *)
  (try
     for v = 0 to st.nvars - 1 do
       if !visits >= max_probe_visits || stop () then raise Exit;
       if st.value.(v) < 0 then begin
         let p = 2 * v in
         if adj.(p) <> [] then probe p;
         if st.value.(v) < 0 && adj.(p + 1) <> [] then probe (p + 1)
       end
     done
   with Exit -> ())

(* -- bounded variable elimination --------------------------------------- *)

(* Resolvent of [a] and [b] on variable [v] (sorted merge, skipping the
   pivot literals); returns [None] for tautologies. *)
let resolve a b v =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb - 2) 0 in
  let k = ref 0 in
  let taut = ref false in
  let push l =
    if !k > 0 && out.(!k - 1) = l then ()
    else begin
      if !k > 0 && out.(!k - 1) = negate l then taut := true;
      out.(!k) <- l;
      incr k
    end
  in
  let i = ref 0 and j = ref 0 in
  while (not !taut) && (!i < na || !j < nb) do
    let take_a =
      if !i >= na then false
      else if !j >= nb then true
      else a.(!i) <= b.(!j)
    in
    let l = if take_a then a.(!i) else b.(!j) in
    if take_a then incr i else incr j;
    if var_of l <> v then push l
  done;
  if !taut then None else Some (Array.sub out 0 !k)

let try_eliminate st v =
  if st.value.(v) >= 0 || st.is_frozen v then false
  else begin
    let pos = live_occ st (2 * v) and neg = live_occ st ((2 * v) + 1) in
    let np = List.length pos and nn = List.length neg in
    if np = 0 && nn = 0 then false
    else if np > max_occ || nn > max_occ then false
    else if
      List.exists (fun c -> Array.length c.lits > max_cls_len) pos
      || List.exists (fun c -> Array.length c.lits > max_cls_len) neg
    then false
    else begin
      (* Count non-tautological resolvents; accept the elimination only
         if it does not grow the clause set (SatELite's rule). *)
      let limit = np + nn in
      let resolvents = ref [] in
      let count = ref 0 in
      (try
         List.iter
           (fun p ->
             List.iter
               (fun n ->
                 match resolve p.lits n.lits v with
                 | None -> ()
                 | Some r ->
                     incr count;
                     if !count > limit then raise Exit;
                     resolvents := r :: !resolvents)
               neg)
           pos;
         (* Accepted: store the original clauses for model extension,
            remove them, add the resolvents. *)
         let stored =
           List.rev_map (fun c -> c.lits) (List.rev_append pos neg)
         in
         List.iter (fun c -> c.dead <- true) pos;
         List.iter (fun c -> c.dead <- true) neg;
         st.occ.(2 * v) <- [];
         st.occ.((2 * v) + 1) <- [];
         st.elim <- (v, stored) :: st.elim;
         st.n_elim <- st.n_elim + 1;
         st.n_resolvents <- st.n_resolvents + List.length !resolvents;
         List.iter (fun r -> add_clean st r) !resolvents;
         propagate_units st;
         true
       with Exit -> false)
    end
  end

let bve_pass ?(stop = fun () -> false) st =
  let eliminated = ref 0 in
  let round = ref 0 in
  let progress = ref true in
  while !progress && !round < bve_rounds do
    incr round;
    progress := false;
    (* Cheapest candidates first: elimination of a low-occurrence variable
       is both most likely to be accepted and most likely to shrink the
       occurrence lists of its neighbours. *)
    let cand = ref [] in
    for v = st.nvars - 1 downto 0 do
      if st.value.(v) < 0 && not (st.is_frozen v) then begin
        let np = List.length st.occ.(2 * v)
        and nn = List.length st.occ.((2 * v) + 1) in
        if np + nn > 0 && np <= max_occ && nn <= max_occ then
          cand := (np * nn, v) :: !cand
      end
    done;
    let cand =
      List.sort
        (fun (a, v) (b, w) ->
          let c = Int.compare a b in
          if c <> 0 then c else Int.compare v w)
        !cand
    in
    (try
       List.iter
         (fun (_, v) ->
           if stop () then raise Stopped;
           if try_eliminate st v then begin
             incr eliminated;
             progress := true
           end)
         cand
     with Stopped -> progress := false)
  done;
  !eliminated

(* -- driver ------------------------------------------------------------- *)

let run ~nvars ~frozen ?(stop = fun () -> false) input =
  let st =
    {
      nvars;
      value = Array.make (max 1 nvars) (-1);
      occ = Array.make (max 1 (2 * nvars)) [];
      all = [];
      unit_queue = [];
      unit_trail = [];
      elim = [];
      is_frozen = frozen;
      n_elim = 0;
      n_subsumed = 0;
      n_strengthened = 0;
      n_probe = 0;
      n_resolvents = 0;
    }
  in
  let unsat =
    try
      List.iter (fun c -> add_input st c) input;
      propagate_units st;
      probe_pass ~stop st;
      subsumption_pass ~stop st;
      ignore (bve_pass ~stop st);
      false
    with Unsat_found -> true
  in
  let clauses =
    if unsat then []
    else
      List.filter_map
        (fun c -> if c.dead then None else Some c.lits)
        st.all
  in
  {
    clauses;
    units = List.rev st.unit_trail;
    eliminated = List.rev st.elim;
    unsat;
    stats =
      {
        eliminated_vars = st.n_elim;
        subsumed = st.n_subsumed;
        strengthened = st.n_strengthened;
        probe_failures = st.n_probe;
        units = List.length st.unit_trail;
        resolvents = st.n_resolvents;
      };
  }
