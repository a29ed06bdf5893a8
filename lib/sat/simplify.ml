(* SatELite-style preprocessing (Eén & Biere, SAT'05) on an extracted
   clause set.  The module is deliberately standalone — it knows nothing
   about watches, trails or activities — so the CDCL core can rebuild its
   own state from the outcome and the DIMACS front end can reuse the same
   pass.  Everything is budgeted: occurrence-bounded elimination, capped
   subset checks, capped probe visits.  The budgets are sized for the
   bit-blasted CEGIS/BMC queries this repository issues (thousands of
   clauses, solved in milliseconds), where the pass must cost less than
   the search time it saves.

   Data layout.  A pass allocates per pass, not per clause or per
   occurrence.  A clause is an id, in creation order, into two dense
   per-clause arrays (a header word with its start, length and dead
   flag; its variable signature), and its sorted literals lie in one
   flat int store; strengthening shrinks a clause in place.  Each
   literal's occurrences are a vector of clause ids, oldest first, in one
   shared pool; scans run newest first.  The store and the pool reclaim
   dead clauses and moved vectors by sliding the live data down when
   they fill up, and grow only when that frees too little: the pass's
   arrays add to the solver's peak memory.  Units, the
   trail, one elimination's resolvents and the probe's BFS queue live in
   reused buffers.  Only the outcome is copied out into fresh arrays.

   Occurrence vectors keep killed clauses until the pass compacts them,
   and their sizes as the pass counts them — dead entries included — rank
   elimination candidates and pick the subsumption scan list.  So a
   vector's count is reset only at the pass's compaction points
   ([live_occ], the self-subsumption scan, a unit's two lists, an
   accepted elimination); the entries it stores may be purged of dead
   clauses at any time ([make_room]) without moving a choice. *)

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

(* Budgets.  [max_occ]: both occurrence lists of an elimination candidate
   must be at most this long (gate variables sit at 3–6).  [max_cls_len]:
   clauses longer than this are skipped as subsumers and as elimination
   material.  The check caps bound the quadratic corners. *)
let max_occ = 10
let max_cls_len = 24
let max_subset_checks = 400_000
let max_probe_visits = 60_000
let bve_rounds = 3

(* An elimination gives up at the first resolvent past [np + nn], so one
   attempt writes at most [2 * max_occ + 1] resolvents of at most
   [2 * max_cls_len - 2] literals each: a fixed buffer holds them. *)
let max_resolvents = (2 * max_occ) + 1
let res_cap = max_resolvents * ((2 * max_cls_len) - 2)

exception Unsat_found

(* Raised internally when the caller's [stop] poll turns true; each pass
   catches it at an operation boundary (unit queue drained), so the
   partial outcome is always consistent and sound to install. *)
exception Stopped

(* A fresh [size]-word array starting with the first [n] words of [a].
   The copy is a plain loop: the new array is in the major heap, where
   [Array.blit] would pay a write barrier per word. *)
let extend a n size =
  let b = Array.make size 0 in
  for i = 0 to n - 1 do
    b.(i) <- a.(i)
  done;
  b

(* Growable int stack: the unit queue and the trail. *)
type stack = { mutable data : int array; mutable sz : int }

let stack cap = { data = Array.make (max 4 cap) 0; sz = 0 }

let push s x =
  if s.sz = Array.length s.data then s.data <- extend s.data s.sz (2 * s.sz);
  s.data.(s.sz) <- x;
  s.sz <- s.sz + 1

type state = {
  nvars : int;
  is_frozen : int -> bool;
  value : int array; (* per var: -1 undef, 0 false, 1 true *)
  (* Clause [c]: [hdr.(c)] is [start lsl 32 lor len lsl 1 lor dead],
     [sg.(c)] its variable signature, and its [len] literals are
     [lits.(start) ..].  The store holds the clauses in id order. *)
  mutable hdr : int array;
  mutable sg : int array;
  mutable ncls : int;
  mutable lits : int array;
  mutable top : int; (* used prefix of [lits] *)
  (* Literal [l]'s occurrences are the [occ.(4l + 1)] clauses stored
     from [pool.(occ.(4l))], oldest first, in a slot of [occ.(4l + 2)]
     words after a header word [l] (a moved-out slot's header is
     [-1 - size]).  [occ.(4l + 3)] is the vector's size as the pass sees
     it: the stored entries plus the dead ones [make_room] dropped
     without the pass compacting the vector. *)
  occ : int array;
  mutable pool : int array;
  mutable pool_top : int;
  queue : stack; (* pending units, newest popped first *)
  trail : stack; (* assigned literals, in assignment order *)
  res : int array; (* one elimination's resolvents, back to back *)
  res_len : int array;
  mutable elim : (int * int array list) list; (* newest first *)
  mutable n_elim : int;
  mutable n_subsumed : int;
  mutable n_strengthened : int;
  mutable n_probe : int;
  mutable n_resolvents : int;
}

let clen st c = (st.hdr.(c) lsr 1) land 0x7FFF_FFFF
let cstart st c = st.hdr.(c) lsr 32
let is_dead st c = st.hdr.(c) land 1 = 1
let kill st c = st.hdr.(c) <- st.hdr.(c) lor 1

(* Clause [c] is live, with [n] literals from [lits.(s)]. *)
let set_live st c s n = st.hdr.(c) <- (s lsl 32) lor (n lsl 1)

let occ_at st l = st.occ.(4 * l)
let occ_len st l = st.occ.((4 * l) + 1)
let occ_count st l = st.occ.((4 * l) + 3)

(* The pass compacted [l]'s vector down to [n] entries. *)
let set_occ st l n =
  st.occ.((4 * l) + 1) <- n;
  st.occ.((4 * l) + 3) <- n

let clause_sig a off n =
  let s = ref 0 in
  for i = off to off + n - 1 do
    s := !s lor (1 lsl ((a.(i) lsr 1) mod 62))
  done;
  !s

let copy_clause st c = Array.sub st.lits (cstart st c) (clen st c)

let lit_value st l =
  let v = st.value.(var_of l) in
  if v < 0 then -1 else v lxor (l land 1)

(* -- unit assignment ---------------------------------------------------- *)

let enqueue_unit st l =
  match lit_value st l with
  | 1 -> ()
  | 0 -> raise Unsat_found
  | _ -> push st.queue l

(* Drop literal [l] (present) from live clause [c], in place. *)
let remove_lit st c l =
  let a = st.lits and s = cstart st c in
  let k = ref s in
  for i = s to s + clen st c - 1 do
    let x = a.(i) in
    if x <> l then begin
      a.(!k) <- x;
      incr k
    end
  done;
  set_live st c s (!k - s);
  st.sg.(c) <- clause_sig a s (!k - s)

let propagate_units st =
  let q = st.queue in
  while q.sz > 0 do
    q.sz <- q.sz - 1;
    let l = q.data.(q.sz) in
    match lit_value st l with
    | 1 -> ()
    | 0 -> raise Unsat_found
    | _ ->
        st.value.(var_of l) <- (if is_pos l then 1 else 0);
        push st.trail l;
        (* Clauses containing [l] are satisfied. *)
        let o = occ_at st l in
        for i = o to o + occ_len st l - 1 do
          kill st st.pool.(i)
        done;
        set_occ st l 0;
        (* Clauses containing [negate l] lose that literal. *)
        let f = negate l in
        let o = occ_at st f in
        for i = o + occ_len st f - 1 downto o do
          let c = st.pool.(i) in
          if not (is_dead st c) then begin
            remove_lit st c f;
            match clen st c with
            | 0 -> raise Unsat_found
            | 1 ->
                kill st c;
                enqueue_unit st st.lits.(cstart st c)
            | _ -> ()
          end
        done;
        set_occ st f 0
  done

(* -- clause construction ------------------------------------------------ *)

(* Make room for [n] more literals in the store: slide the live clauses'
   literals down over the dead ones', then grow the store if it is still
   more than 7/8 full. *)
let make_lits_room st n =
  let k = ref 0 in
  for c = 0 to st.ncls - 1 do
    if not (is_dead st c) then begin
      let s = cstart st c and n = clen st c in
      set_live st c !k n;
      for i = 0 to n - 1 do
        st.lits.(!k + i) <- st.lits.(s + i)
      done;
      k := !k + n
    end
  done;
  st.top <- !k;
  if 8 * (st.top + n) > 7 * Array.length st.lits then
    st.lits <- extend st.lits st.top (3 * (st.top + n) / 2)

(* Store [n] literals of [src] from [off] as a new clause; returns its
   id.  The clause is not attached to any occurrence vector. *)
let new_clause st src off n =
  if st.ncls = Array.length st.hdr then begin
    let cap = 2 * st.ncls in
    st.hdr <- extend st.hdr st.ncls cap;
    st.sg <- extend st.sg st.ncls cap
  end;
  if st.top + n > Array.length st.lits then make_lits_room st n;
  let c = st.ncls and s = st.top in
  for i = 0 to n - 1 do
    st.lits.(s + i) <- src.(off + i)
  done;
  set_live st c s n;
  st.sg.(c) <- clause_sig st.lits s n;
  st.top <- s + n;
  st.ncls <- c + 1;
  c

(* The slot a vector of [n] entries gets when it is laid out. *)
let slot_size n = n + (n / 4) + 1

(* Slide the pool's slots in use down over the moved-out ones, in address
   order.  Each slot shrinks to [slot_size] of its entries if that is
   smaller (so data only moves down); an empty vector gives its slot
   up. *)
let repack_pool st =
  let pool = st.pool in
  let p = ref 0 and q = ref 0 in
  while !p < st.pool_top do
    let h = pool.(!p) in
    if h < 0 then p := !p - h
    else begin
      let m = 4 * h in
      let n = st.occ.(m + 1) and from = !p + 1 in
      p := from + st.occ.(m + 2);
      if n = 0 then st.occ.(m + 2) <- 0
      else begin
        let size = min st.occ.(m + 2) (slot_size n) in
        pool.(!q) <- h;
        for i = 0 to n - 1 do
          pool.(!q + 1 + i) <- pool.(from + i)
        done;
        st.occ.(m) <- !q + 1;
        st.occ.(m + 2) <- size;
        q := !q + 1 + size
      end
    end
  done;
  st.pool_top <- !q

(* Drop the dead clauses stored in [l]'s vector, keeping the order;
   returns how many are left. *)
let drop_dead st l =
  let o = occ_at st l in
  let j = ref o in
  for i = o to o + occ_len st l - 1 do
    let c = st.pool.(i) in
    if not (is_dead st c) then begin
      st.pool.(!j) <- c;
      incr j
    end
  done;
  st.occ.((4 * l) + 1) <- !j - o;
  !j - o

(* Compact [l]'s vector: from now on the pass counts its live clauses
   only. *)
let live_occ st l = set_occ st l (drop_dead st l)

(* Make room in the full occurrence vector of literal [l].  Its dead
   entries go first — the pass goes on counting them until it compacts
   the vector itself, as [occ_count] keeps them; if that frees less than
   half the slot, the vector moves to the pool's end with room for twice
   its entries.  A full pool is repacked first, and grows if it is still
   more than 7/8 full. *)
let make_room st l =
  let m = 4 * l in
  let n = drop_dead st l in
  if 2 * n >= st.occ.(m + 2) then begin
    let size = max 4 (2 * n) in
    if st.pool_top + 1 + size > Array.length st.pool then begin
      repack_pool st;
      let need = st.pool_top + 1 + size in
      if 8 * need > 7 * Array.length st.pool then
        st.pool <- extend st.pool st.pool_top (3 * need / 2)
    end;
    let at = st.occ.(m) and cap = st.occ.(m + 2) and fresh = st.pool_top + 1 in
    if cap > 0 then st.pool.(at - 1) <- -1 - cap;
    st.pool.(fresh - 1) <- l;
    for k = 0 to n - 1 do
      st.pool.(fresh + k) <- st.pool.(at + k)
    done;
    st.occ.(m) <- fresh;
    st.occ.(m + 2) <- size;
    st.pool_top <- fresh + size
  end

let attach st c =
  let s = cstart st c in
  for i = s to s + clen st c - 1 do
    let l = st.lits.(i) in
    let m = 4 * l in
    if st.occ.(m + 1) = st.occ.(m + 2) then make_room st l;
    st.pool.(st.occ.(m) + st.occ.(m + 1)) <- c;
    st.occ.(m + 1) <- st.occ.(m + 1) + 1;
    st.occ.(m + 3) <- st.occ.(m + 3) + 1
  done

(* Add a clause of [n] sorted, duplicate-free, tautology-free, unassigned
   literals read from [src] at [off]. *)
let add_clean st src off n =
  match n with
  | 0 -> raise Unsat_found
  | 1 -> enqueue_unit st src.(off)
  | _ -> attach st (new_clause st src off n)

(* Sort a clause in place, by insertion while it is short: [Array.sort]
   allocates its helper closures on every call. *)
let sort_lits a =
  let n = Array.length a in
  if n > 16 then Array.sort Int.compare a
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* Add a raw input clause, normalized in place (the pass owns its input
   arrays): sort, drop duplicates and tautologies.  Nothing is assigned
   while the input goes in, so no literal is true or false yet.  The
   clause is attached later, with all the others, by [attach_input]. *)
let add_input st lits =
  sort_lits lits;
  let n = ref 0 and taut = ref false and last = ref (-2) in
  for i = 0 to Array.length lits - 1 do
    let l = lits.(i) in
    if l = negate !last then taut := true
    else if l <> !last then begin
      last := l;
      lits.(!n) <- l;
      incr n
    end
  done;
  if not !taut then
    match !n with
    | 0 -> raise Unsat_found
    | 1 -> enqueue_unit st lits.(0)
    | n -> ignore (new_clause st lits 0 n)

(* Attach every input clause in creation order, each occurrence vector
   in a [slot_size] slot for its input count, so the resolvents that land
   on it rarely move it. *)
let attach_input st =
  for i = 0 to st.top - 1 do
    let m = (4 * st.lits.(i)) + 2 in
    st.occ.(m) <- st.occ.(m) + 1
  done;
  let nlits = Array.length st.occ / 4 in
  for l = 0 to nlits - 1 do
    let n = st.occ.((4 * l) + 2) in
    if n > 0 then begin
      st.occ.(4 * l) <- st.pool_top + 1;
      st.occ.((4 * l) + 2) <- slot_size n;
      st.pool_top <- st.pool_top + 1 + slot_size n
    end
  done;
  st.pool <- Array.make (max 64 (2 * st.pool_top)) 0;
  for l = 0 to nlits - 1 do
    if st.occ.((4 * l) + 2) > 0 then st.pool.(st.occ.(4 * l) - 1) <- l
  done;
  for c = 0 to st.ncls - 1 do
    attach st c
  done

(* -- subsumption / self-subsuming resolution ---------------------------- *)

(* Is the literal run [i, ea) (with literal [flip] read negated; pass -1
   for none) a subset of [j, eb)?  Both sorted; flipping a literal
   preserves order because [2v] and [2v+1] are adjacent and the second
   run is tautology-free. *)
let rec subset_from lits flip i ea j eb =
  if i >= ea then true
  else if j >= eb then false
  else begin
    let x = if lits.(i) = flip then negate lits.(i) else lits.(i) in
    let y = lits.(j) in
    if x = y then subset_from lits flip (i + 1) ea (j + 1) eb
    else if x > y then subset_from lits flip i ea (j + 1) eb
    else false
  end

(* Does clause [a] (with [flip] read negated) subsume clause [b]? *)
let subsumes st a b flip =
  let na = clen st a and nb = clen st b in
  st.sg.(a) land lnot st.sg.(b) = 0
  && na <= nb
  &&
  let sa = cstart st a and sb = cstart st b in
  subset_from st.lits flip sa (sa + na) sb (sb + nb)

(* Backward subsumption and self-subsuming resolution with live clause
   [a] of at most [max_cls_len] literals; [checks] counts the subset
   checks of the whole pass. *)
let subsume_with st checks a =
  let alen = clen st a and sa = cstart st a in
  (* Backward subsumption: scan the shortest occurrence vector among
     [a]'s literals — every clause containing all of [a] contains that
     literal. *)
  let best = ref st.lits.(sa) in
  for i = sa to sa + alen - 1 do
    let l = st.lits.(i) in
    if occ_count st l < occ_count st !best then best := l
  done;
  let best = !best in
  live_occ st best;
  let o = occ_at st best in
  for i = o + occ_len st best - 1 downto o do
    let b = st.pool.(i) in
    if (not (is_dead st b)) && b <> a && clen st b >= alen then begin
      incr checks;
      if subsumes st a b (-1) then begin
        kill st b;
        st.n_subsumed <- st.n_subsumed + 1
      end
    end
  done;
  (* Self-subsuming resolution: if [a] with [p] flipped subsumes [b],
     resolving on [p] yields [b] minus [negate p] — remove it.  The scan
     drops dead and strengthened clauses from [negate p]'s vector,
     sliding the survivors to its top, then down. *)
  for i = sa to sa + alen - 1 do
    let np = negate st.lits.(i) in
    let o = occ_at st np and n = occ_len st np in
    let top = ref (o + n) in
    for j = o + n - 1 downto o do
      let b = st.pool.(j) in
      let keep =
        if is_dead st b then false
        else if clen st b < alen || !checks >= max_subset_checks then true
        else begin
          incr checks;
          if subsumes st a b (negate np) then begin
            remove_lit st b np;
            st.n_strengthened <- st.n_strengthened + 1;
            if clen st b = 1 then begin
              kill st b;
              enqueue_unit st st.lits.(cstart st b)
            end;
            false
          end
          else true
        end
      in
      if keep then begin
        decr top;
        st.pool.(!top) <- b
      end
    done;
    let kept = o + n - !top in
    for j = 0 to kept - 1 do
      st.pool.(o + j) <- st.pool.(!top + j)
    done;
    set_occ st np kept
  done

let subsumption_pass stop st =
  let checks = ref 0 in
  (* The pass visits the clauses alive when it starts, newest first. *)
  let alive = Bytes.init st.ncls (fun c -> if is_dead st c then '0' else '1') in
  try
    for a = st.ncls - 1 downto 0 do
      if Bytes.get alive a = '1' then begin
        if stop () then raise Stopped;
        if
          (not (is_dead st a))
          && clen st a <= max_cls_len
          && !checks < max_subset_checks
        then begin
          subsume_with st checks a;
          propagate_units st
        end
      end
    done
  with Stopped -> ()

(* -- failed-literal probing on the binary implication graph ------------- *)

type probe = {
  adj : int array; (* literal [l]'s successors: [edges.(adj.(l)) ..] *)
  edges : int array;
  mark : int array; (* per literal: the stamp of the probe that reached it *)
  bfs : int array;
  mutable tail : int;
  mutable stamp : int;
  mutable visits : int;
  mutable failed : bool;
}

let visit st pr l =
  if (not pr.failed) && pr.mark.(l) <> pr.stamp then begin
    pr.mark.(l) <- pr.stamp;
    pr.visits <- pr.visits + 1;
    if pr.mark.(negate l) = pr.stamp || lit_value st l = 0 then
      pr.failed <- true
    else if lit_value st l <> 1 then begin
      pr.bfs.(pr.tail) <- l;
      pr.tail <- pr.tail + 1
    end
  end

(* BFS of everything implied by [root]; a contradiction (both polarities
   reached, or a top-level-false literal reached) fails the probe and
   forces [negate root]. *)
let probe st pr root =
  pr.stamp <- pr.stamp + 1;
  pr.tail <- 0;
  pr.failed <- false;
  visit st pr root;
  let head = ref 0 in
  while (not pr.failed) && !head < pr.tail do
    let l = pr.bfs.(!head) in
    incr head;
    for e = pr.adj.(l) to pr.adj.(l + 1) - 1 do
      visit st pr pr.edges.(e)
    done
  done;
  if pr.failed then begin
    st.n_probe <- st.n_probe + 1;
    enqueue_unit st (negate root);
    propagate_units st
  end

let probe_pass stop st =
  (* Adjacency from the current binary clauses: (a, b) yields the edges
     [¬a -> b] and [¬b -> a], each literal's edges in clause-age order.
     Edges from clauses later satisfied or strengthened stay logically
     implied by the original set plus units, so a stale graph can only
     find sound failed literals. *)
  let nlits = 2 * st.nvars in
  let adj = Array.make (nlits + 1) 0 in
  let binary c = (not (is_dead st c)) && clen st c = 2 in
  for c = 0 to st.ncls - 1 do
    if binary c then begin
      let s = cstart st c in
      let a = negate st.lits.(s) and b = negate st.lits.(s + 1) in
      adj.(a) <- adj.(a) + 1;
      adj.(b) <- adj.(b) + 1
    end
  done;
  (* Running sums, then fill each literal's slice from its end, newest
     clause first, which leaves [adj.(l)] at the slice's start. *)
  for l = 1 to nlits do
    adj.(l) <- adj.(l) + adj.(l - 1)
  done;
  let edges = Array.make adj.(nlits) 0 in
  let add_edge x y =
    adj.(x) <- adj.(x) - 1;
    edges.(adj.(x)) <- y
  in
  for c = st.ncls - 1 downto 0 do
    if binary c then begin
      let s = cstart st c in
      let a = st.lits.(s) and b = st.lits.(s + 1) in
      add_edge (negate a) b;
      add_edge (negate b) a
    end
  done;
  let pr =
    {
      adj;
      edges;
      mark = Array.make (max 1 nlits) (-1);
      bfs = Array.make (max 1 nlits) 0;
      tail = 0;
      stamp = 0;
      visits = 0;
      failed = false;
    }
  in
  (* Probe only literals that actually root an implication chain. *)
  try
    for v = 0 to st.nvars - 1 do
      if pr.visits >= max_probe_visits || stop () then raise Exit;
      if st.value.(v) < 0 then begin
        let p = 2 * v in
        if adj.(p + 1) > adj.(p) then probe st pr p;
        if st.value.(v) < 0 && adj.(p + 2) > adj.(p + 1) then
          probe st pr (p + 1)
      end
    done
  with Exit -> ()

(* -- bounded variable elimination --------------------------------------- *)

(* Append literal [l] at [out.(k)] unless it is [v]'s; the new end. *)
let emit out k v l =
  if var_of l = v then k
  else begin
    out.(k) <- l;
    k + 1
  end

(* Write the resolvent of clauses [a] and [b] on variable [v] into
   [st.res] at [off]: a sorted merge that skips [v]'s literals and keeps
   a literal both clauses share once.  Returns its length, or -1 for a
   tautology (the clauses clash on another variable). *)
let resolve st a b v off =
  let lits = st.lits and out = st.res in
  let i = ref (cstart st a) and j = ref (cstart st b) and k = ref off in
  let ea = !i + clen st a and eb = !j + clen st b in
  let taut = ref false in
  while (not !taut) && !i < ea && !j < eb do
    let x = lits.(!i) and y = lits.(!j) in
    if var_of x = var_of y then begin
      if x = y then k := emit out !k v x
      else if var_of x <> v then taut := true;
      incr i;
      incr j
    end
    else if x < y then begin
      k := emit out !k v x;
      incr i
    end
    else begin
      k := emit out !k v y;
      incr j
    end
  done;
  if !taut then -1
  else begin
    for i = !i to ea - 1 do
      k := emit out !k v lits.(i)
    done;
    for j = !j to eb - 1 do
      k := emit out !k v lits.(j)
    done;
    !k - off
  end

(* Is one of the [n] clauses listed in the pool from [o] longer than
   [max_cls_len]? *)
let any_long st o n =
  let r = ref false in
  for i = o to o + n - 1 do
    if clen st st.pool.(i) > max_cls_len then r := true
  done;
  !r

let try_eliminate st v =
  if st.value.(v) >= 0 || st.is_frozen v then false
  else begin
    let pl = 2 * v and nl = (2 * v) + 1 in
    live_occ st pl;
    live_occ st nl;
    let po = occ_at st pl and no = occ_at st nl in
    let np = occ_len st pl and nn = occ_len st nl in
    if np = 0 && nn = 0 then false
    else if np > max_occ || nn > max_occ then false
    else if any_long st po np || any_long st no nn then false
    else begin
      (* Count non-tautological resolvents; accept the elimination only
         if it does not grow the clause set (SatELite's rule). *)
      let limit = np + nn in
      let count = ref 0 and fill = ref 0 in
      try
        for i = po + np - 1 downto po do
          for j = no + nn - 1 downto no do
            let n = resolve st st.pool.(i) st.pool.(j) v !fill in
            if n >= 0 then begin
              incr count;
              if !count > limit then raise Exit;
              st.res_len.(!count - 1) <- n;
              fill := !fill + n
            end
          done
        done;
        (* Accepted: store the original clauses for model extension — the
           negative ones oldest first, then the positive ones newest
           first — remove them, add the resolvents newest first. *)
        let stored = ref [] in
        for i = po to po + np - 1 do
          stored := copy_clause st st.pool.(i) :: !stored;
          kill st st.pool.(i)
        done;
        for j = no + nn - 1 downto no do
          stored := copy_clause st st.pool.(j) :: !stored;
          kill st st.pool.(j)
        done;
        set_occ st pl 0;
        set_occ st nl 0;
        st.elim <- (v, !stored) :: st.elim;
        st.n_elim <- st.n_elim + 1;
        st.n_resolvents <- st.n_resolvents + !count;
        for r = !count - 1 downto 0 do
          fill := !fill - st.res_len.(r);
          add_clean st st.res !fill st.res_len.(r)
        done;
        propagate_units st;
        true
      with Exit -> false
    end
  end

let bve_pass stop st =
  (* Cheapest candidates first: elimination of a low-occurrence variable
     is both most likely to be accepted and most likely to shrink the
     occurrence lists of its neighbours.  The key [np * nn] is at most
     [max_occ^2], so a counting sort orders the candidates by key, ties
     by variable; [cand] holds them as [v * nkeys + key]. *)
  let nkeys = (max_occ * max_occ) + 1 in
  let cand = Array.make (max 1 st.nvars) 0 in
  let order = Array.make (max 1 st.nvars) 0 in
  let first = Array.make (nkeys + 1) 0 in
  let round = ref 0 in
  let progress = ref true in
  while !progress && !round < bve_rounds do
    incr round;
    progress := false;
    let ncand = ref 0 in
    Array.fill first 0 (nkeys + 1) 0;
    for v = 0 to st.nvars - 1 do
      if st.value.(v) < 0 && not (st.is_frozen v) then begin
        let np = occ_count st (2 * v) and nn = occ_count st ((2 * v) + 1) in
        if np + nn > 0 && np <= max_occ && nn <= max_occ then begin
          let key = np * nn in
          cand.(!ncand) <- (v * nkeys) + key;
          first.(key + 1) <- first.(key + 1) + 1;
          incr ncand
        end
      end
    done;
    for k = 1 to nkeys do
      first.(k) <- first.(k) + first.(k - 1)
    done;
    for i = 0 to !ncand - 1 do
      let key = cand.(i) mod nkeys in
      order.(first.(key)) <- cand.(i) / nkeys;
      first.(key) <- first.(key) + 1
    done;
    try
      for i = 0 to !ncand - 1 do
        if stop () then raise Stopped;
        if try_eliminate st order.(i) then progress := true
      done
    with Stopped -> progress := false
  done

(* -- driver ------------------------------------------------------------- *)

let run ~nvars ~frozen ?(stop = fun () -> false) input =
  let ncls = ref 0 and nlits = ref 0 in
  List.iter
    (fun a ->
      incr ncls;
      nlits := !nlits + Array.length a)
    input;
  let ccap = max 16 (3 * !ncls / 2) in
  let st =
    {
      nvars;
      is_frozen = frozen;
      value = Array.make (max 1 nvars) (-1);
      hdr = Array.make ccap 0;
      sg = Array.make ccap 0;
      ncls = 0;
      lits = Array.make (max 64 (3 * !nlits / 2)) 0;
      top = 0;
      occ = Array.make (max 1 (8 * nvars)) 0;
      pool = [||];
      pool_top = 0;
      queue = stack 64;
      trail = stack 64;
      res = Array.make res_cap 0;
      res_len = Array.make max_resolvents 0;
      elim = [];
      n_elim = 0;
      n_subsumed = 0;
      n_strengthened = 0;
      n_probe = 0;
      n_resolvents = 0;
    }
  in
  let unsat =
    try
      List.iter (add_input st) input;
      attach_input st;
      propagate_units st;
      probe_pass stop st;
      subsumption_pass stop st;
      bve_pass stop st;
      false
    with Unsat_found -> true
  in
  let clauses = ref [] in
  if not unsat then
    for c = 0 to st.ncls - 1 do
      if not (is_dead st c) then clauses := copy_clause st c :: !clauses
    done;
  let units = ref [] in
  for i = st.trail.sz - 1 downto 0 do
    units := st.trail.data.(i) :: !units
  done;
  {
    clauses = !clauses;
    units = !units;
    eliminated = List.rev st.elim;
    unsat;
    stats =
      {
        eliminated_vars = st.n_elim;
        subsumed = st.n_subsumed;
        strengthened = st.n_strengthened;
        probe_failures = st.n_probe;
        units = st.trail.sz;
        resolvents = st.n_resolvents;
      };
  }
