(* CDCL solver in the MiniSat lineage: two-watched literals, VSIDS with a
   binary heap, phase saving, 1UIP learning with local minimization, Luby
   restarts and learnt-clause reduction.  Performance matters here: the
   bit-blasted BMC instances reach hundreds of thousands of clauses.

   Clause storage is one flat [int array] arena.  A clause is the int
   offset of its header:

     c+0  header: size lsl 2, lor 2 if deleted, lor 1 if learnt
     c+1  LBD
     c+2  activity slot (learnt clauses; an index into the unboxed [act]
          float array), unused for problem clauses
     c+3  the literals, inline

   Watch lists, the [clauses]/[learnts] databases and reasons hold
   offsets.  A reason is one int: -1 for none (decision, assumption or
   level-0 fact), a literal [>= 0] for a binary implication (the
   antecedent, i.e. the clause's other literal), and [-2 - c] for the
   clause at offset [c].  Offset 0 is a reserved two-literal scratch
   clause that a binary conflict is written into.  Deleted clauses stay
   in place until [compact] slides the live ones down the same array;
   that is the only time an offset moves, and it rewrites every watch
   entry and trail reason on the way. *)

module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace
module Progress = Sqed_obs.Progress
module Budget = Sqed_resil.Budget
module Fault = Sqed_resil.Fault

(* Registry handles, interned once at module init.  Clause counters are
   bumped at the (relatively cold) clause-push points; the per-search
   counters (propagations, conflicts, ...) stay in the solver's own
   mutable fields on the hot path and are flushed into the registry as
   deltas when [solve] returns — including on exceptions. *)
let m_clauses = Metrics.counter "sat.clauses"
let m_learnt_clauses = Metrics.counter "sat.learnt_clauses"
let m_decisions = Metrics.counter "sat.decisions"
let m_propagations = Metrics.counter "sat.propagations"
let m_conflicts = Metrics.counter "sat.conflicts"
let m_restarts = Metrics.counter "sat.restarts"
let h_learnt_len = Metrics.histogram "sat.learnt_clause_len"
let h_restart_conflicts = Metrics.histogram "sat.restart_conflicts"
let m_compactions = Metrics.counter "sat.arena.compactions"
let sp_solve = Trace.kind ~cat:"sat" "sat.solve"

(* Preprocessing counters (see Simplify).  Registered eagerly so they
   appear in every metrics snapshot — the smoke tests assert on them. *)
let m_simp_passes = Metrics.counter "sat.simplify.passes"
let m_simp_elim = Metrics.counter "sat.simplify.eliminated_vars"
let m_simp_subsumed = Metrics.counter "sat.simplify.subsumed"
let m_simp_strengthened = Metrics.counter "sat.simplify.strengthened"
let m_simp_probe = Metrics.counter "sat.simplify.probe_failures"
let m_simp_units = Metrics.counter "sat.simplify.units"
let m_simp_resolvents = Metrics.counter "sat.simplify.resolvents"
let m_simp_restored = Metrics.counter "sat.simplify.restored_vars"
let sp_simplify = Trace.kind ~cat:"sat" "sat.simplify"

type lit = int

let pos v = 2 * v
let neg_of_var v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0

(* Growable int vectors start as this shared empty array and materialise
   on first push. *)
let no_data : int array = [||]

(* Growable int vector: the clause databases (clause offsets) and the
   elimination stack (variables). *)
module Ivec = struct
  type t = { mutable data : int array; mutable sz : int }

  let create () = { data = no_data; sz = 0 }

  let push v x =
    if v.sz = Array.length v.data then begin
      let cap = if v.sz = 0 then 4 else 2 * v.sz in
      let d = Array.make cap 0 in
      Array.blit v.data 0 d 0 v.sz;
      v.data <- d
    end;
    v.data.(v.sz) <- x;
    v.sz <- v.sz + 1

  let clear v = v.sz <- 0
  let copy v = { data = Array.sub v.data 0 v.sz; sz = v.sz }
end

(* Watch tables, one per kind: literal [l]'s list is the first [sz.(l)]
   entries of [data.(l)].  Long-clause lists hold clause offsets; binary
   lists hold blocker literals (a binary watcher stores only the clause's
   other literal, which is also the implied one, so binary propagation
   never touches the arena).  Every unused slot shares [no_data], and a
   list grows exactly as an [Ivec] does, so a new variable costs its
   literals no allocation: a fresh solver is created for every CEGIS
   candidate, so per-literal setup is itself on the hot path. *)
let wpush (data : int array array) (sz : int array) l x =
  let n = sz.(l) in
  let d = data.(l) in
  if n = Array.length d then begin
    let d' = Array.make (if n = 0 then 4 else 2 * n) 0 in
    Array.blit d 0 d' 0 n;
    d'.(n) <- x;
    data.(l) <- d'
  end
  else d.(n) <- x;
  sz.(l) <- n + 1

(* Arena clause layout (see the header comment). *)
let hdr_words = 3
let learnt_bit = 1
let deleted_bit = 2
let[@inline] hdr_size h = h lsr 2

(* The scratch clause a binary conflict is written into. *)
let scratch = 0

let fresh_arena cap =
  let a = Array.make cap 0 in
  a.(scratch) <- 2 lsl 2;
  a

let no_reason = -1
let[@inline] reason_of_clause c = -2 - c
let[@inline] clause_of_reason r = -2 - r

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
}

(* Search-strategy knobs, uniform across a solver's lifetime.  The
   defaults reproduce the historical constants exactly (Luby restarts
   with base 100, VSIDS decay 0.95, saved-phase polarity), so a solver
   that never calls [set_strategy] behaves bit-for-bit as before — the
   portfolio layer is the only caller that diversifies these. *)
type strategy = {
  var_decay : float;
  restart_luby : bool;
  restart_base : float;
  restart_growth : float;
  seed : int;
  random_pol_freq : int;
  invert_pol : bool;
}

let default_strategy =
  {
    var_decay = 0.95;
    restart_luby = true;
    restart_base = 100.0;
    restart_growth = 1.5;
    seed = 0;
    random_pol_freq = 0;
    invert_pol = false;
  }

(* Learnt-clause exchange hooks (portfolio).  [export] fires inside
   [record_learnt] for clauses worth sharing (LBD or length under the
   caps) with a fresh literal-array copy; [import] fires at restart
   boundaries, at decision level 0, and returns peer clauses (with their
   LBD) to splice into the learnt database.  Both callbacks run on the
   solver's own domain. *)
type exchange = {
  max_lbd : int;
  max_len : int;
  export : lit array -> int -> unit;
  import : unit -> (lit array * int) list;
}

type t = {
  mutable nvars : int;
  mutable arena : int array; (* clause store, see the header comment *)
  mutable arena_top : int; (* first free word *)
  mutable arena_waste : int; (* words held by deleted clauses *)
  mutable act : float array; (* learnt-clause activities, by slot *)
  mutable act_top : int;
  clauses : Ivec.t; (* problem clauses *)
  learnts : Ivec.t;
  (* Watch tables (see [wpush]): clauses of length >= 3 and binary
     blockers, by literal. *)
  mutable watches : int array array;
  mutable watch_sz : int array;
  mutable bin_watches : int array array;
  mutable bin_sz : int array;
  (* Per-variable arrays, [assign] through [heap_pos] below (and the
     trail), share one capacity, [Array.length assign]; the watch tables
     hold two slots per variable.  [new_var] grows them all together. *)
  mutable assign : int array; (* per var: -1 undef, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : int array; (* see the reason encoding above *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase *)
  mutable seen : bool array;
  mutable trail : int array;
  mutable trail_sz : int;
  mutable trail_lim : int array;
  mutable trail_lim_sz : int;
  mutable qhead : int;
  (* Conflict-analysis buffers.  [an_buf] holds the learnt literals in
     marking order ([0, an_n)), then the literals minimization proved
     redundant ([an_n, an_extra)), which need their [seen] marks cleared;
     both are distinct variables, so [nvars] slots suffice.  [an_stack]
     is the minimization walk's (literal, next antecedent) frames;
     [lvl_stamp] counts an LBD's distinct levels.  The learnt clause
     itself is written straight into the arena's free tail. *)
  mutable an_buf : int array;
  mutable an_n : int;
  mutable an_extra : int;
  mutable an_path : int;
  mutable an_len : int;
  mutable an_lbd : int;
  an_stack : int array;
  mutable lvl_stamp : int array;
  mutable stamp : int;
  mutable heap : int array;
  mutable heap_sz : int;
  mutable heap_pos : int array; (* -1 if not in heap *)
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool; (* false once the empty clause was derived *)
  mutable model : bool array;
  mutable has_model : bool;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_learnt_lits : int;
  mutable max_learnts : float;
  (* Preprocessing state (see Simplify and DESIGN.md "Solver
     preprocessing").  [frozen] vars are never eliminated; [elim] vars
     have been resolved away.  An eliminated variable's defining clauses
     sit in [elim_clauses], and the variable is pushed onto [elim_stack]
     (elimination order) for model extension; [elim_seq] is the position
     of its live stack entry.  A restored variable's entry retires in
     place: an entry at [i] is live iff its variable is eliminated with
     [elim_seq] = [i].  [n_elim] counts the live entries. *)
  mutable frozen : bool array;
  mutable elim : bool array;
  mutable elim_clauses : lit array list array;
  mutable elim_seq : int array;
  mutable elim_stack : Ivec.t;
  mutable n_elim : int;
  mutable simplify_on : bool;
  mutable clauses_at_simplify : int;
  mutable conflicts_at_simplify : int;
  mutable n_solves : int; (* completed [solve] calls (and [prepare]s) *)
  (* Portfolio hooks: the diversification strategy (with [var_inc_scale]
     caching 1/var_decay so the per-conflict path pays no division), the
     xorshift state for randomized polarity (0 keeps saved-phase only),
     the clause-exchange callbacks, and the reason the last [solve]
     returned [Unknown] (None after Sat/Unsat). *)
  mutable strat : strategy;
  mutable var_inc_scale : float;
  mutable rand_state : int;
  mutable exchange : exchange option;
  mutable last_interrupt : Budget.reason option;
}

let clause_decay = 1.0 /. 0.999

(* Minimization gives up beyond this many frames (see [lit_redundant]). *)
let max_frames = 49

let create () =
  {
    nvars = 0;
    arena = fresh_arena 256;
    arena_top = hdr_words + 2;
    arena_waste = 0;
    act = [||];
    act_top = 0;
    clauses = Ivec.create ();
    learnts = Ivec.create ();
    watches = Array.make 2 no_data;
    watch_sz = Array.make 2 0;
    bin_watches = Array.make 2 no_data;
    bin_sz = Array.make 2 0;
    assign = Array.make 1 (-1);
    level = Array.make 1 0;
    reason = Array.make 1 no_reason;
    activity = Array.make 1 0.0;
    polarity = Array.make 1 false;
    seen = Array.make 1 false;
    trail = Array.make 16 0;
    trail_sz = 0;
    trail_lim = Array.make 16 0;
    trail_lim_sz = 0;
    qhead = 0;
    an_buf = Array.make 1 0;
    an_n = 0;
    an_extra = 0;
    an_path = 0;
    an_len = 0;
    an_lbd = 0;
    an_stack = Array.make (2 * max_frames) 0;
    lvl_stamp = [||];
    stamp = 0;
    heap = Array.make 16 0;
    heap_sz = 0;
    heap_pos = Array.make 1 (-1);
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    model = [||];
    has_model = false;
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_restarts = 0;
    n_learnt_lits = 0;
    max_learnts = 0.0;
    frozen = Array.make 1 false;
    elim = Array.make 1 false;
    elim_clauses = Array.make 1 [];
    elim_seq = Array.make 1 0;
    elim_stack = Ivec.create ();
    n_elim = 0;
    simplify_on = false;
    clauses_at_simplify = 0;
    conflicts_at_simplify = 0;
    n_solves = 0;
    strat = default_strategy;
    var_inc_scale = 1.0 /. default_strategy.var_decay;
    rand_state = 0;
    exchange = None;
    last_interrupt = None;
  }

let num_vars s = s.nvars
let num_clauses s = s.clauses.Ivec.sz

let stats s =
  {
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    learnt_literals = s.n_learnt_lits;
  }

(* Cooperative cancellation point for encoding-side work (bit-blaster
   word loops, AIG conversion). *)
let check_budget () =
  (* Doubles as a flight-recorder touch point: a sampling opportunity
     plus a progress heartbeat, each one boolean load when off. *)
  Trace.poll_quick ();
  Progress.beat ();
  Budget.check (Budget.current ())

let last_interrupt s = s.last_interrupt
let note_interrupt s r = s.last_interrupt <- Some r

let set_strategy s st =
  if st.var_decay <= 0.0 || st.var_decay > 1.0 then
    invalid_arg "Sat.set_strategy: var_decay must be in (0, 1]";
  s.strat <- st;
  s.var_inc_scale <- 1.0 /. st.var_decay;
  s.rand_state <- (if st.seed = 0 then 0 else (st.seed * 0x2545F49) lor 1);
  if st.invert_pol then
    for v = 0 to s.nvars - 1 do
      s.polarity.(v) <- not s.polarity.(v)
    done

let set_exchange s ex = s.exchange <- ex

(* xorshift PRNG for randomized decision polarity; only consulted when
   the strategy asks for it, so the default decision path stays
   branch-predictable. *)
let next_rand s =
  let x = s.rand_state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  let x = if x = 0 then 1 else x in
  s.rand_state <- x;
  x

(* -- variable order heap (max-heap on activity) ---------------------- *)

let heap_lt s a b = s.activity.(a) > s.activity.(b)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt s s.heap.(i) s.heap.(p) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_sz && heap_lt s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_sz && heap_lt s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    if s.heap_sz = Array.length s.heap then begin
      let d = Array.make (2 * s.heap_sz) 0 in
      Array.blit s.heap 0 d 0 s.heap_sz;
      s.heap <- d
    end;
    s.heap.(s.heap_sz) <- v;
    s.heap_pos.(v) <- s.heap_sz;
    s.heap_sz <- s.heap_sz + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_sz <- s.heap_sz - 1;
  s.heap.(0) <- s.heap.(s.heap_sz);
  s.heap_pos.(s.heap.(0)) <- 0;
  s.heap_pos.(v) <- -1;
  if s.heap_sz > 0 then heap_down s 0;
  v

(* -- variable allocation --------------------------------------------- *)

let grow_array a n dflt =
  let len = Array.length a in
  if n <= len then a
  else begin
    let d = Array.make (max n (2 * len)) dflt in
    Array.blit a 0 d 0 len;
    d
  end

(* Double the shared per-variable capacity. *)
let grow_vars s =
  let n = 2 * Array.length s.assign in
  s.assign <- grow_array s.assign n (-1);
  s.level <- grow_array s.level n 0;
  s.reason <- grow_array s.reason n no_reason;
  s.activity <- grow_array s.activity n 0.0;
  s.polarity <- grow_array s.polarity n false;
  s.seen <- grow_array s.seen n false;
  s.an_buf <- grow_array s.an_buf n 0;
  s.frozen <- grow_array s.frozen n false;
  s.elim <- grow_array s.elim n false;
  s.elim_clauses <- grow_array s.elim_clauses n [];
  s.elim_seq <- grow_array s.elim_seq n 0;
  s.heap_pos <- grow_array s.heap_pos n (-1);
  s.trail <- grow_array s.trail n 0;
  s.watches <- grow_array s.watches (2 * n) no_data;
  s.watch_sz <- grow_array s.watch_sz (2 * n) 0;
  s.bin_watches <- grow_array s.bin_watches (2 * n) no_data;
  s.bin_sz <- grow_array s.bin_sz (2 * n) 0

(* Slots past [nvars] hold their defaults, so a new variable is only a
   counter bump and a heap entry unless the capacity is full. *)
let new_var s =
  let v = s.nvars in
  if v = Array.length s.assign then grow_vars s;
  s.nvars <- v + 1;
  heap_insert s v;
  v

(* -- assignment ------------------------------------------------------- *)

let lit_val s l =
  (* -1 undef, 0 false, 1 true *)
  let a = s.assign.(var_of l) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level s = s.trail_lim_sz

let enqueue s l reason =
  s.assign.(var_of l) <- 1 lxor (l land 1);
  s.level.(var_of l) <- decision_level s;
  s.reason.(var_of l) <- reason;
  s.polarity.(var_of l) <- is_pos l;
  s.trail.(s.trail_sz) <- l;
  s.trail_sz <- s.trail_sz + 1

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let cla_bump s c =
  let k = s.arena.(c + 2) in
  let x = s.act.(k) +. s.cla_inc in
  s.act.(k) <- x;
  if x > 1e20 then begin
    for i = 0 to s.learnts.Ivec.sz - 1 do
      let k = s.arena.(s.learnts.Ivec.data.(i) + 2) in
      s.act.(k) <- s.act.(k) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* -- clause arena ------------------------------------------------------ *)

(* Make room for a clause of [n] literals at the free tail.  Growth is
   1.5x: the arena is the largest object a deep BMC run keeps. *)
let reserve s n =
  let need = s.arena_top + hdr_words + n in
  if need > Array.length s.arena then begin
    let a = Array.make (max need (Array.length s.arena * 3 / 2)) 0 in
    Array.blit s.arena 0 a 0 s.arena_top;
    s.arena <- a
  end

let new_act_slot s x =
  if s.act_top = Array.length s.act then begin
    let d = Array.make (max 16 (s.act_top * 3 / 2)) 0.0 in
    Array.blit s.act 0 d 0 s.act_top;
    s.act <- d
  end;
  s.act.(s.act_top) <- x;
  s.act_top <- s.act_top + 1;
  s.act_top - 1

(* Turn the [n] literals already written at the (reserved) free tail into
   a clause and return its offset.  Learnt clauses take fresh activity
   slots in allocation order, so slots ascend with offsets — [compact]
   relies on that. *)
let commit s ~learnt ~lbd ?(act = 0.0) n =
  let c = s.arena_top in
  let a = s.arena in
  a.(c) <- (n lsl 2) lor (if learnt then learnt_bit else 0);
  a.(c + 1) <- lbd;
  a.(c + 2) <- (if learnt then new_act_slot s act else 0);
  s.arena_top <- c + hdr_words + n;
  c

let alloc_clause s ~learnt ~lbd ?act lits =
  let n = Array.length lits in
  reserve s n;
  Array.blit lits 0 s.arena (s.arena_top + hdr_words) n;
  commit s ~learnt ~lbd ?act n

let clause_lits s c =
  Array.sub s.arena (c + hdr_words) (hdr_size s.arena.(c))

let delete_clause s c =
  let h = s.arena.(c) in
  s.arena.(c) <- h lor deleted_bit;
  s.arena_waste <- s.arena_waste + hdr_words + hdr_size h

(* Slide the live clauses down the same array, keeping their order, and
   rewrite every reference: watch entries (dropping deleted ones, keeping
   each list's order), the clause databases and the reasons on the trail
   (a variable off the trail never holds a clause reason).  Three passes,
   so two arenas are never live at once:
   1. give each live clause its new offset, parked in its activity word,
      and slide learnt activities down to their new (ascending) slots;
   2. rewrite references while every header is still in place;
   3. move the clauses; a destination never passes its source. *)
let compact s =
  let a = s.arena in
  let top = s.arena_top in
  let off = ref 0 and dst = ref 0 and slot = ref 0 in
  while !off < top do
    let h = a.(!off) in
    if h land deleted_bit = 0 then begin
      if h land learnt_bit <> 0 then begin
        s.act.(!slot) <- s.act.(a.(!off + 2));
        incr slot
      end;
      a.(!off + 2) <- !dst;
      dst := !dst + hdr_words + hdr_size h
    end;
    off := !off + hdr_words + hdr_size h
  done;
  (* Rewrite the first [n] offsets of [d] in place; returns the new
     length. *)
  let relocate d n =
    let j = ref 0 in
    for i = 0 to n - 1 do
      let c = d.(i) in
      if a.(c) land deleted_bit = 0 then begin
        d.(!j) <- a.(c + 2);
        incr j
      end
    done;
    !j
  in
  let ws = s.watches and wsz = s.watch_sz in
  for l = 0 to Array.length ws - 1 do
    wsz.(l) <- relocate ws.(l) wsz.(l)
  done;
  let relocate_vec (v : Ivec.t) = v.Ivec.sz <- relocate v.Ivec.data v.Ivec.sz in
  relocate_vec s.clauses;
  relocate_vec s.learnts;
  for i = 0 to s.trail_sz - 1 do
    let v = var_of s.trail.(i) in
    let r = s.reason.(v) in
    if r < no_reason then
      s.reason.(v) <- reason_of_clause a.(clause_of_reason r + 2)
  done;
  off := 0;
  slot := 0;
  while !off < top do
    let h = a.(!off) in
    let len = hdr_words + hdr_size h in
    if h land deleted_bit = 0 then begin
      let d = a.(!off + 2) in
      Array.blit a !off a d len;
      if h land learnt_bit <> 0 then begin
        a.(d + 2) <- !slot;
        incr slot
      end
      else a.(d + 2) <- 0
    end;
    off := !off + len
  done;
  s.arena_top <- !dst;
  s.act_top <- !slot;
  s.arena_waste <- 0;
  Metrics.incr m_compactions

(* Reclaim once a quarter of the arena is garbage. *)
let maybe_compact s = if 4 * s.arena_waste > s.arena_top then compact s

(* -- clause addition -------------------------------------------------- *)

let watch s c =
  let a = s.arena in
  let l0 = a.(c + hdr_words) and l1 = a.(c + hdr_words + 1) in
  if hdr_size a.(c) = 2 then begin
    (* Both literals stay watched forever (binary watchers are never moved
       and binary clauses are never deleted by reduce_db), so only the
       blocker — the other, implied literal — needs to be recorded. *)
    wpush s.bin_watches s.bin_sz l0 l1;
    wpush s.bin_watches s.bin_sz l1 l0
  end
  else begin
    wpush s.watches s.watch_sz l0 c;
    wpush s.watches s.watch_sz l1 c
  end

(* Sort the [n] literals written at the (reserved) free tail in place,
   dropping duplicates and literals false at level 0.  Returns how many
   literals remain, or -1 for a tautology or a clause satisfied at level
   0.  This is the encoder's hot path (every Tseitin/AIG clause lands
   here), so it sorts monomorphically in place and allocates nothing. *)
let normalize_tail s n =
  let a = s.arena and base = s.arena_top + hdr_words in
  for i = base + 1 to base + n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= base && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  let taut = ref false in
  let k = ref base in
  let last = ref (-2) in
  for i = base to base + n - 1 do
    let l = a.(i) in
    if l = negate !last then taut := true;
    if l <> !last then begin
      last := l;
      let v = lit_val s l in
      if v >= 0 && s.level.(var_of l) = 0 then begin
        if v = 1 then taut := true (* satisfied at top level *)
        (* false at top level: drop *)
      end
      else begin
        a.(!k) <- l;
        incr k
      end
    end
  done;
  if !taut then -1 else !k - base

(* Copy [lits] to the free tail, reserving room; returns their number. *)
let write_tail s lits =
  let n = Array.length lits in
  reserve s n;
  Array.blit lits 0 s.arena (s.arena_top + hdr_words) n;
  n

exception Early_unsat

(* Land the [n] problem-clause literals written at the (reserved) free
   tail: a unit is enqueued, a longer clause committed and watched. *)
let add_tail s n =
  match normalize_tail s n with
  | -1 -> ()
  | 0 ->
      s.ok <- false;
      raise Early_unsat
  | 1 -> (
      let l = s.arena.(s.arena_top + hdr_words) in
      if decision_level s <> 0 then
        invalid_arg "Sat.add_clause: units only at level 0";
      match lit_val s l with
      | 1 -> ()
      | 0 ->
          s.ok <- false;
          raise Early_unsat
      | _ -> enqueue s l no_reason)
  | m ->
      let c = commit s ~learnt:false ~lbd:0 m in
      Ivec.push s.clauses c;
      watch s c;
      Metrics.incr m_clauses

(* Drop the retired entries of [elim_stack], keeping live ones in order
   and renumbering their [elim_seq]. *)
let compact_elim_stack s =
  let st = s.elim_stack in
  let k = ref 0 in
  for i = 0 to st.Ivec.sz - 1 do
    let v = st.Ivec.data.(i) in
    if s.elim.(v) && s.elim_seq.(v) = i then begin
      st.Ivec.data.(!k) <- v;
      s.elim_seq.(v) <- !k;
      incr k
    end
  done;
  st.Ivec.sz <- !k

let rec add_clause_internal s lits =
  if s.ok then begin
    (* A clause over an eliminated variable re-opens it: restore the
       stored clauses (transitively) before the new one lands. *)
    if s.n_elim > 0 then Array.iter (restore_lit s) lits;
    add_tail s (write_tail s lits)
  end

and restore_lit s l = if s.elim.(var_of l) then restore_vars s (var_of l)

(* Un-eliminate [v0]: put its stored clauses back into the live set.
   Stored clauses may mention variables eliminated after [v0], whose own
   stored clauses then also come back.  The closure is found by a walk
   over the stored clauses of affected variables only, unmarking every
   member before any clause is re-added, so the nested
   [add_clause_internal] calls see no eliminated variables.  Members are
   re-inserted and their clauses re-added newest-first (stack order). *)
and restore_vars s v0 =
  if s.elim.(v0) then begin
    s.elim.(v0) <- false;
    let closure = ref [ v0 ] in
    let rec walk = function
      | [] -> ()
      | v :: rest ->
          let todo = ref rest in
          List.iter
            (Array.iter (fun l ->
                 let w = var_of l in
                 if s.elim.(w) then begin
                   s.elim.(w) <- false;
                   closure := w :: !closure;
                   todo := w :: !todo
                 end))
            s.elim_clauses.(v);
          walk !todo
    in
    walk [ v0 ];
    let restored =
      List.sort
        (fun a b -> Int.compare s.elim_seq.(b) s.elim_seq.(a))
        !closure
    in
    let n = List.length restored in
    Metrics.add m_simp_restored n;
    s.n_elim <- s.n_elim - n;
    (* Retired entries stay on the stack until they outnumber live ones. *)
    if s.elim_stack.Ivec.sz > 2 * s.n_elim then compact_elim_stack s;
    List.iter (heap_insert s) restored;
    List.iter
      (fun v ->
        let stored = s.elim_clauses.(v) in
        s.elim_clauses.(v) <- [];
        List.iter (add_clause_internal s) stored)
      restored
  end

let add_clause_a s lits =
  try add_clause_internal s lits with Early_unsat -> ()

let add_clause s lits = add_clause_a s (Array.of_list lits)

(* [add_clause_a] for two and three literals, written straight to the
   free tail: the encoder's gate clauses allocate nothing on the way in. *)
let add_clause2 s l0 l1 =
  if s.ok then
    try
      if s.n_elim > 0 then begin
        restore_lit s l0;
        restore_lit s l1
      end;
      reserve s 2;
      let a = s.arena and base = s.arena_top + hdr_words in
      a.(base) <- l0;
      a.(base + 1) <- l1;
      add_tail s 2
    with Early_unsat -> ()

let add_clause3 s l0 l1 l2 =
  if s.ok then
    try
      if s.n_elim > 0 then begin
        restore_lit s l0;
        restore_lit s l1;
        restore_lit s l2
      end;
      reserve s 3;
      let a = s.arena and base = s.arena_top + hdr_words in
      a.(base) <- l0;
      a.(base + 1) <- l1;
      a.(base + 2) <- l2;
      add_tail s 3
    with Early_unsat -> ()

let freeze s v =
  if v < 0 || v >= s.nvars then invalid_arg "Sat.freeze";
  (try restore_vars s v with Early_unsat -> ());
  s.frozen.(v) <- true

let is_eliminated s v = v >= 0 && v < s.nvars && s.elim.(v)
let set_simplify s b = s.simplify_on <- b

(* -- propagation ------------------------------------------------------ *)

(* Returns the conflicting clause's offset, or -1. *)
let propagate s =
  let confl = ref (-1) in
  (* Nothing allocates clauses during propagation, so the arena can be
     held in a local. *)
  let a = s.arena in
  while !confl < 0 && s.qhead < s.trail_sz do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let false_lit = negate p in
    (* Binary clauses first: each visit is one int load plus an
       assignment lookup — the blocker is the implied literal, so neither
       propagation nor the recorded reason ever touches the arena.  A
       conflicting binary clause is written into the scratch clause. *)
    let bw = s.bin_watches.(false_lit) in
    let nb = s.bin_sz.(false_lit) in
    let bi = ref 0 in
    while !confl < 0 && !bi < nb do
      let blit = bw.(!bi) in
      (match lit_val s blit with
      | 1 -> ()
      | 0 ->
          s.qhead <- s.trail_sz;
          a.(scratch + hdr_words) <- blit;
          a.(scratch + hdr_words + 1) <- false_lit;
          confl := scratch
      | _ -> enqueue s blit false_lit);
      incr bi
    done;
    if !confl < 0 then begin
      (* Pushes below go to other literals' lists, never to this one, so
         its backing array stays put. *)
      let wd = s.watches.(false_lit) in
      let i = ref 0 and j = ref 0 in
      let n = s.watch_sz.(false_lit) in
      while !i < n do
        let c = wd.(!i) in
        incr i;
        let h = a.(c) in
        if h land deleted_bit <> 0 then () (* dropped lazily *)
        else begin
          let l0 = c + hdr_words in
          (* Make sure the false literal is at position 1. *)
          if a.(l0) = false_lit then begin
            a.(l0) <- a.(l0 + 1);
            a.(l0 + 1) <- false_lit
          end;
          let first = a.(l0) in
          if lit_val s first = 1 then begin
            wd.(!j) <- c;
            incr j
          end
          else begin
            (* Look for a new literal to watch. *)
            let stop = l0 + hdr_size h in
            let k = ref (l0 + 2) in
            while !k < stop && lit_val s a.(!k) = 0 do
              incr k
            done;
            if !k < stop then begin
              let nl = a.(!k) in
              a.(l0 + 1) <- nl;
              a.(!k) <- false_lit;
              wpush s.watches s.watch_sz nl c
            end
            else begin
              wd.(!j) <- c;
              incr j;
              if lit_val s first = 0 then begin
                (* Conflict: copy the remaining watchers back. *)
                s.qhead <- s.trail_sz;
                while !i < n do
                  wd.(!j) <- wd.(!i);
                  incr i;
                  incr j
                done;
                confl := c
              end
              else enqueue s first (reason_of_clause c)
            end
          end
        end
      done;
      s.watch_sz.(false_lit) <- !j
    end
  done;
  !confl

(* -- preprocessing ----------------------------------------------------- *)

(* One scan of clause [c] at level 0: [-1] if a literal is true (or,
   with [elim], if it mentions an eliminated variable), otherwise the
   number of unassigned literals, copied in order to the front of
   [!buf] (grown as needed). *)
let unassigned s ~elim buf c =
  let a = s.arena in
  let first = c + hdr_words in
  let stop = first + hdr_size a.(c) in
  if Array.length !buf < stop - first then
    buf := Array.make (max (stop - first) (2 * Array.length !buf)) 0;
  let b = !buf in
  let n = ref 0 and k = ref first in
  while !k < stop do
    let l = a.(!k) in
    let v = lit_val s l in
    if v = 1 || (elim && s.elim.(var_of l)) then begin
      n := -1;
      k := stop
    end
    else begin
      if v < 0 then begin
        b.(!n) <- l;
        incr n
      end;
      incr k
    end
  done;
  !n

(* The live problem clauses with level-0 values folded in, as fresh
   arrays the pass may normalize in place.  After a full level-0
   propagation every unsatisfied clause has at least two unassigned
   literals. *)
let problem_clauses s =
  let input = ref [] and buf = ref [||] in
  for i = 0 to s.clauses.Ivec.sz - 1 do
    let n = unassigned s ~elim:false buf s.clauses.Ivec.data.(i) in
    if n >= 0 then input := Array.sub !buf 0 n :: !input
  done;
  !input

(* Run one Simplify pass over the problem clauses and rebuild the solver
   around the outcome.  Must be called at decision level 0; sets [ok]
   false if the pass derives the empty clause. *)
let simplify_body s =
  if propagate s >= 0 then s.ok <- false;
  if s.ok then begin
    (* Preprocessing degrades rather than raising: Simplify stops at the
       next consistent boundary when the budget runs out, and the pass
       result so far is still sound to install. *)
    let b = Budget.current () in
    let stop () = Budget.over b <> None in
    let o =
      (* The extracted list is handed over, not bound here: the pass
         consumes it and nothing keeps it alive beside its clauses. *)
      Simplify.run ~nvars:s.nvars ~frozen:(fun v -> s.frozen.(v)) ~stop
        (problem_clauses s)
    in
    Metrics.incr m_simp_passes;
    Metrics.add m_simp_elim o.Simplify.stats.Simplify.eliminated_vars;
    Metrics.add m_simp_subsumed o.Simplify.stats.Simplify.subsumed;
    Metrics.add m_simp_strengthened o.Simplify.stats.Simplify.strengthened;
    Metrics.add m_simp_probe o.Simplify.stats.Simplify.probe_failures;
    Metrics.add m_simp_units o.Simplify.stats.Simplify.units;
    Metrics.add m_simp_resolvents o.Simplify.stats.Simplify.resolvents;
    if o.Simplify.unsat then s.ok <- false
    else begin
      List.iter
        (fun (v, stored) ->
          s.elim.(v) <- true;
          s.elim_clauses.(v) <- stored;
          s.elim_seq.(v) <- s.elim_stack.Ivec.sz;
          Ivec.push s.elim_stack v;
          s.n_elim <- s.n_elim + 1)
        o.Simplify.eliminated;
      (* The whole clause database is rebuilt, so every watch list —
         including the blocker-only binary lists, which cannot express
         deletion — is cleared and re-filled.  Old reason clauses no
         longer exist; level-0 implications need no justification anyway
         (analyze never looks at level-0 reasons). *)
      Array.fill s.watch_sz 0 (Array.length s.watch_sz) 0;
      Array.fill s.bin_sz 0 (Array.length s.bin_sz) 0;
      for i = 0 to s.trail_sz - 1 do
        s.reason.(var_of s.trail.(i)) <- no_reason
      done;
      for i = 0 to s.clauses.Ivec.sz - 1 do
        delete_clause s s.clauses.Ivec.data.(i)
      done;
      Ivec.clear s.clauses;
      (* Reclaim the old problem clauses before the new ones land, so the
         rebuild does not grow the arena. *)
      compact s;
      List.iter
        (fun lits ->
          let c = alloc_clause s ~learnt:false ~lbd:0 lits in
          Ivec.push s.clauses c;
          watch s c)
        o.Simplify.clauses;
      (try
         List.iter
           (fun l ->
             match lit_val s l with
             | 1 -> ()
             | 0 ->
                 s.ok <- false;
                 raise Exit
             | _ -> enqueue s l no_reason)
           o.Simplify.units
       with Exit -> ());
      (* Learnt clauses are implied, so they may stay — unless they
         mention an eliminated variable (those clauses must disappear
         with it) or simplify at level 0. *)
      if s.ok then begin
        let old = Array.sub s.learnts.Ivec.data 0 s.learnts.Ivec.sz in
        Ivec.clear s.learnts;
        let buf = ref [||] in
        Array.iter
          (fun c ->
            let n = if s.ok then unassigned s ~elim:true buf c else -1 in
            if n < 0 then delete_clause s c
            else if n = 0 then begin
              s.ok <- false;
              delete_clause s c
            end
            else if n = 1 then begin
              enqueue s !buf.(0) no_reason;
              delete_clause s c
            end
            else if n < hdr_size s.arena.(c) then begin
              (* Shrunk: re-allocated at the tail, keeping LBD and
                 activity. *)
              let c' =
                alloc_clause s ~learnt:true ~lbd:s.arena.(c + 1)
                  ~act:s.act.(s.arena.(c + 2)) (Array.sub !buf 0 n)
              in
              delete_clause s c;
              Ivec.push s.learnts c';
              watch s c'
            end
            else begin
              Ivec.push s.learnts c;
              watch s c
            end)
          old
      end;
      (* Re-propagate the whole level-0 trail against the new database:
         resolvents can propagate under literals that were already set. *)
      if s.ok then begin
        s.qhead <- 0;
        if propagate s >= 0 then s.ok <- false
      end;
      maybe_compact s;
      s.clauses_at_simplify <- s.clauses.Ivec.sz;
      s.conflicts_at_simplify <- s.n_conflicts
    end
  end

let simplify_now s =
  if s.ok && s.trail_lim_sz = 0 then
    Trace.with_span sp_simplify (fun () -> simplify_body s)

(* Minimum new problem clauses since the last pass before [solve]
   re-simplifies. *)
let simplify_threshold = 256

(* Search effort a pass must wait for: one conflict since the last pass
   (or since the solver was built) per this many problem clauses. *)
let simplify_clauses_per_conflict = 200

(* A pass costs a full rebuild of the clause database, so [solve] runs
   one only where the investment amortizes.  [solve] asks at every
   restart boundary, solve entry included (round 0); a pass runs when
   - the instance is not in its first solve: a freshly-built one-shot
     query is dominated by encoding time and dies after one search, so a
     pass in the middle of it costs more than it saves;
   - there is new material: the database grew by [simplify_threshold]
     clauses and by a quarter since the last pass, so long incremental
     runs pay O(log growth) passes and a re-solve with no new clauses
     pays none;
   - the search has earned it: a pass costs time linear in the clause
     database, so the conflicts since the last pass must reach one per
     [simplify_clauses_per_conflict] problem clauses.  A shallow SAT
     query (a BMC depth whose witness costs a few hundred conflicts over
     50-100 k clauses) never pays for a pass that would cost more than
     its whole search, while a hard UNSAT depth gets its pass a few
     restarts in, and a small CEGIS guess solver after a few dozen
     conflicts.
   One-shot callers that do want a pass (DIMACS solving, tests) call
   [simplify_now] explicitly. *)
let maybe_simplify s =
  if
    s.simplify_on && s.ok && s.trail_lim_sz = 0 && s.n_solves > 0
    && s.clauses.Ivec.sz - s.clauses_at_simplify
       >= max simplify_threshold (s.clauses_at_simplify / 4)
    && (s.n_conflicts - s.conflicts_at_simplify) * simplify_clauses_per_conflict
       >= s.clauses.Ivec.sz
  then Trace.with_span sp_simplify (fun () -> simplify_body s)

(* Extend a model of the simplified formula to the eliminated variables.
   The live entries of [elim_stack] are walked newest-first, i.e. in
   reverse elimination order: a stored clause mentions only its own
   variable, never-eliminated variables (already valued) and
   later-eliminated variables (walked earlier), so evaluation is total.
   Setting each variable to satisfy its stored clauses cannot conflict —
   the accepted resolvents guarantee that when all other literals of some
   positive-occurrence clause are false, every negative-occurrence clause
   is satisfied by another literal. *)
let extend_model s =
  for i = s.elim_stack.Ivec.sz - 1 downto 0 do
    let v = s.elim_stack.Ivec.data.(i) in
    if s.elim.(v) && s.elim_seq.(v) = i then begin
      s.model.(v) <- false;
      if
        List.exists
          (fun lits ->
            Array.exists (fun l -> var_of l = v && is_pos l) lits
            && not
                 (Array.exists
                    (fun l ->
                      let w = var_of l in
                      w <> v
                      && (if is_pos l then s.model.(w) else not s.model.(w)))
                    lits))
          s.elim_clauses.(v)
      then s.model.(v) <- true
    end
  done

(* -- backtracking ------------------------------------------------------ *)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_sz - 1 downto bound do
      let v = var_of s.trail.(i) in
      s.assign.(v) <- -1;
      s.reason.(v) <- no_reason;
      heap_insert s v
    done;
    s.trail_sz <- bound;
    s.qhead <- bound;
    s.trail_lim_sz <- lvl
  end

let new_decision_level s =
  if s.trail_lim_sz = Array.length s.trail_lim then
    s.trail_lim <- grow_array s.trail_lim (2 * s.trail_lim_sz) 0;
  s.trail_lim.(s.trail_lim_sz) <- s.trail_sz;
  s.trail_lim_sz <- s.trail_lim_sz + 1

(* -- conflict analysis (first UIP) ------------------------------------- *)

(* Mark one antecedent literal of the current reason/conflict: current-
   level literals are counted on the path, lower-level ones join the
   learnt clause. *)
let analyze_mark s q =
  let v = var_of q in
  if (not s.seen.(v)) && s.level.(v) > 0 then begin
    s.seen.(v) <- true;
    var_bump s v;
    if s.level.(v) >= decision_level s then s.an_path <- s.an_path + 1
    else begin
      s.an_buf.(s.an_n) <- q;
      s.an_n <- s.an_n + 1
    end
  end

(* Clause minimization: a literal is redundant when every path through
   its implication-graph ancestry ends in literals already in the learnt
   clause (or fixed at level 0).  The walk is iterative over the fixed
   (literal, next-antecedent) frame stack, so deep chains cost neither
   OCaml stack nor heap; a frame's reason is re-read from its variable.
   The probe gives up beyond [max_frames] frames (failing is always
   sound, it only keeps a removable literal); giving up cheaply matters,
   because on parity-heavy instances most probes fail and an eager abort
   is what keeps minimization off the profile.  Literals proved redundant
   below the top are marked [seen] (and recorded for clearing) so sibling
   and later probes reuse the result. *)
let lit_redundant s l0 =
  if s.reason.(var_of l0) = no_reason then false
  else begin
    let a = s.arena and st = s.an_stack in
    st.(0) <- l0;
    st.(1) <- 0;
    let depth = ref 1 and ok = ref true in
    while !ok && !depth > 0 do
      let f = 2 * (!depth - 1) in
      let l = st.(f) and k = st.(f + 1) in
      let r = s.reason.(var_of l) in
      let n = if r >= 0 then 1 else hdr_size a.(clause_of_reason r) in
      if k >= n then begin
        decr depth;
        if !depth > 0 then begin
          s.seen.(var_of l) <- true;
          s.an_buf.(s.an_extra) <- l;
          s.an_extra <- s.an_extra + 1
        end
      end
      else begin
        let q = if r >= 0 then r else a.(clause_of_reason r + hdr_words + k) in
        st.(f + 1) <- k + 1;
        if q = negate l || s.level.(var_of q) = 0 || s.seen.(var_of q) then ()
        else if !depth >= max_frames || s.reason.(var_of q) = no_reason then
          ok := false
        else begin
          st.(f + 2) <- q;
          st.(f + 3) <- 0;
          incr depth
        end
      end
    done;
    !ok
  end

(* Derive the first-UIP clause of the conflict [confl] (a clause offset).
   The clause is written at the arena's free tail — asserting literal
   first, then the kept literals in reverse marking order — but not
   committed: [an_len] and [an_lbd] describe it for [record_learnt].
   Returns the backtrack level. *)
let analyze s confl =
  s.an_n <- 0;
  s.an_path <- 0;
  let p = ref (-1) in
  let idx = ref (s.trail_sz - 1) in
  let r = ref (reason_of_clause confl) in
  let continue = ref true in
  while !continue do
    (if !r >= 0 then
       (* Binary implication: the stored literal is the whole antecedent
          (the implied side is skipped exactly as start=1 does below). *)
       analyze_mark s !r
     else begin
       assert (!r <> no_reason);
       let c = clause_of_reason !r in
       if s.arena.(c) land learnt_bit <> 0 then cla_bump s c;
       let start = if !p = -1 then 0 else 1 in
       for k = start to hdr_size s.arena.(c) - 1 do
         analyze_mark s s.arena.(c + hdr_words + k)
       done
     end);
    (* Walk the trail backwards to the next marked literal. *)
    while not s.seen.(var_of s.trail.(!idx)) do
      decr idx
    done;
    let q = s.trail.(!idx) in
    decr idx;
    s.seen.(var_of q) <- false;
    r := s.reason.(var_of q);
    s.an_path <- s.an_path - 1;
    if s.an_path = 0 then begin
      p := negate q;
      continue := false
    end
    else
      (* [q]'s reason contributes; its first literal (q itself) is
         skipped via start=1 in the next round. *)
      p := q
  done;
  (* Only the learnt literals are [seen] now; minimize them, probing in
     reverse marking order. *)
  reserve s (s.an_n + 1);
  let a = s.arena and base = s.arena_top + hdr_words in
  a.(base) <- !p;
  let m = ref 1 in
  s.an_extra <- s.an_n;
  for i = s.an_n - 1 downto 0 do
    let l = s.an_buf.(i) in
    if not (lit_redundant s l) then begin
      a.(base + !m) <- l;
      incr m
    end
  done;
  for i = 0 to s.an_extra - 1 do
    s.seen.(var_of s.an_buf.(i)) <- false
  done;
  (* Backtrack level: the highest level among the kept literals.
     Literal-block distance: the number of distinct levels, counted with
     per-level stamps. *)
  let dl = decision_level s in
  if Array.length s.lvl_stamp <= dl then
    s.lvl_stamp <- grow_array s.lvl_stamp (dl + 1) 0;
  s.stamp <- s.stamp + 1;
  let bt = ref 0 and lbd = ref 0 in
  for i = base to base + !m - 1 do
    let lv = s.level.(var_of a.(i)) in
    if i > base && lv > !bt then bt := lv;
    if s.lvl_stamp.(lv) <> s.stamp then begin
      s.lvl_stamp.(lv) <- s.stamp;
      incr lbd
    end
  done;
  s.an_len <- !m;
  s.an_lbd <- !lbd;
  !bt

(* Install the clause [analyze] left at the free tail, after the
   backjump. *)
let record_learnt s =
  let n = s.an_len and lbd = s.an_lbd in
  let a = s.arena and base = s.arena_top + hdr_words in
  let asserting = a.(base) in
  if n = 1 then begin
    cancel_until s 0;
    if lit_val s asserting = 0 then s.ok <- false
    else if lit_val s asserting = -1 then enqueue s asserting no_reason;
    (* Learnt units are implied by the problem clauses alone
       (assumptions enter the search as reasonless decisions and are
       never resolved into learnt clauses), so they are always worth
       exporting to portfolio peers. *)
    match s.exchange with
    | Some ex -> ex.export [| asserting |] 1
    | None -> ()
  end
  else begin
    (* Put a highest-level literal (other than the asserting one) in
       position 1 so the watches are correct after backjumping. *)
    let best = ref (base + 1) in
    for k = base + 2 to base + n - 1 do
      if s.level.(var_of a.(k)) > s.level.(var_of a.(!best)) then best := k
    done;
    let tmp = a.(base + 1) in
    a.(base + 1) <- a.(!best);
    a.(!best) <- tmp;
    let c = commit s ~learnt:true ~lbd n in
    cla_bump s c;
    Ivec.push s.learnts c;
    watch s c;
    s.n_learnt_lits <- s.n_learnt_lits + n;
    Metrics.incr m_learnt_clauses;
    Metrics.observe h_learnt_len n;
    (* Export a copy: [propagate] reorders clause literals in place. *)
    (match s.exchange with
    | Some ex when lbd <= ex.max_lbd || n <= ex.max_len ->
        ex.export (clause_lits s c) lbd
    | _ -> ());
    if n = 2 then enqueue s asserting a.(base + 1)
    else enqueue s asserting (reason_of_clause c)
  end

(* Splice one peer-learnt clause into the database at decision level 0.
   Imported clauses are implied by the shared problem formula (see
   [record_learnt] on why learnt clauses never depend on assumptions), so
   adding them preserves equisatisfiability — including clauses that
   mention variables this solver has since eliminated, though in practice
   peers share the clone-time elimination state and the defensive skip
   below never fires.  Sorts/dedups like [add_clause_internal] but lands
   the clause in [learnts] with its LBD so [reduce_db] can manage it. *)
let import_learnt s lits lbd =
  if s.ok && s.trail_lim_sz = 0 then begin
    let keep = ref true in
    Array.iter (fun l -> if s.elim.(var_of l) then keep := false) lits;
    if !keep then
      match normalize_tail s (write_tail s lits) with
      | -1 -> ()
      | 0 -> s.ok <- false
      | 1 -> enqueue s s.arena.(s.arena_top + hdr_words) no_reason
      | m ->
          let c = commit s ~learnt:true ~lbd:(min lbd m) m in
          Ivec.push s.learnts c;
          watch s c
  end

let import_clauses s cls =
  List.iter (fun (lits, lbd) -> import_learnt s lits lbd) cls;
  (* New units (or an empty clause) must propagate before the caller
     relies on the solver state again. *)
  if s.ok && s.trail_lim_sz = 0 && propagate s >= 0 then s.ok <- false

(* -- learnt clause DB reduction ---------------------------------------- *)

let locked s c =
  let v = var_of s.arena.(c + hdr_words) in
  s.reason.(v) = reason_of_clause c && s.assign.(v) >= 0

let reduce_db s =
  let l = s.learnts in
  let a = s.arena and act = s.act in
  let arr = Array.sub l.Ivec.data 0 l.Ivec.sz in
  (* Worst first: high LBD, then low activity (glue clauses survive). *)
  Array.sort
    (fun x y ->
      let c = Int.compare a.(y + 1) a.(x + 1) in
      if c <> 0 then c else Float.compare act.(a.(x + 2)) act.(a.(y + 2)))
    arr;
  let half = Array.length arr / 2 in
  Array.iteri
    (fun i c ->
      if i < half && a.(c + 1) > 3 && hdr_size a.(c) > 2 && not (locked s c)
      then delete_clause s c)
    arr;
  Ivec.clear l;
  Array.iter (fun c -> if a.(c) land deleted_bit = 0 then Ivec.push l c) arr;
  maybe_compact s

(* -- decision ----------------------------------------------------------- *)

let pick_branch_var s =
  let v = ref (-1) in
  while !v = -1 && s.heap_sz > 0 do
    let cand = heap_pop s in
    if s.assign.(cand) < 0 && not s.elim.(cand) then v := cand
  done;
  !v

(* -- Luby sequence ------------------------------------------------------ *)

let luby x =
  (* MiniSat's finite-subsequence formulation of the Luby sequence. *)
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  Float.of_int (1 lsl !seq)

type result = Sat | Unsat | Unknown

exception Found of result

let solve_body ?(assumptions = []) s =
  s.has_model <- false;
  s.last_interrupt <- None;
  Fault.check "sat.solve";
  (* The calling domain's budget bounds this search: its allowance is
     counted here per conflict and charged at exit, and the restart /
     1024-conflict / reduce-db boundaries poll it for the deadline and
     for a cancel arriving from another domain. *)
  let budget = Budget.current () in
  let allowance = Budget.conflicts_remaining budget in
  let stop r =
    s.last_interrupt <- Some r;
    raise (Found Unknown)
  in
  let poll () = match Budget.over budget with Some r -> stop r | None -> () in
  if not s.ok then Unsat
  else begin
    let assumptions = Array.of_list assumptions in
    (* Assumption variables must survive elimination: restore any that an
       earlier pass removed and pin them against future passes. *)
    Array.iter (fun a -> freeze s (var_of a)) assumptions;
    if propagate s >= 0 then s.ok <- false;
    if not s.ok then Unsat
    else begin
      let restart_limit = ref 0.0 in
      let conflicts_here = ref 0 in
      let start_conflicts = s.n_conflicts in
      if s.max_learnts = 0.0 then
        s.max_learnts <- max 4000.0 (Float.of_int s.clauses.Ivec.sz /. 3.0);
      let result =
        try
          s.n_restarts <- s.n_restarts - 1;
          (* restart loop *)
          let round = ref 0 in
          while true do
            s.n_restarts <- s.n_restarts + 1;
            restart_limit :=
              (if s.strat.restart_luby then luby !round *. s.strat.restart_base
               else s.strat.restart_base *. (s.strat.restart_growth ** Float.of_int !round));
            incr round;
            conflicts_here := 0;
            cancel_until s 0;
            maybe_simplify s;
            if not s.ok then raise (Found Unsat);
            (* Restart boundary: cheap, and restarts fire every ~100+
               conflicts, so propagation-heavy instances that rarely hit
               the modular conflict check still see the deadline here.
               Also the clause-import point: the trail is at level 0, so
               peer clauses can splice in (and propagate) safely. *)
            (match s.exchange with
            | Some ex ->
                List.iter (fun (lits, lbd) -> import_learnt s lits lbd) (ex.import ());
                if propagate s >= 0 then s.ok <- false;
                if not s.ok then raise (Found Unsat)
            | None -> ());
            poll ();
            (* search *)
            (try
               while true do
                 let confl = propagate s in
                 if confl >= 0 then begin
                   s.n_conflicts <- s.n_conflicts + 1;
                   incr conflicts_here;
                   if s.n_conflicts - start_conflicts >= allowance then
                     stop Budget.Conflicts;
                   if s.n_conflicts land 1023 = 0 then begin
                     (* The sampler reads live totals here because the
                        registry only sees them as deltas at solve
                        exit. *)
                     Trace.poll_sat ~conflicts:s.n_conflicts
                       ~propagations:s.n_propagations
                       ~learnts:s.learnts.Ivec.sz;
                     Progress.beat ();
                     poll ()
                   end;
                   if decision_level s = 0 then begin
                     s.ok <- false;
                     raise (Found Unsat)
                   end;
                   let bt = analyze s confl in
                   cancel_until s bt;
                   record_learnt s;
                   if not s.ok then raise (Found Unsat);
                   s.var_inc <- s.var_inc *. s.var_inc_scale;
                   s.cla_inc <- s.cla_inc *. clause_decay;
                   if Float.of_int !conflicts_here >= !restart_limit then
                     raise Exit
                 end
                 else begin
                   if Float.of_int s.learnts.Ivec.sz -. Float.of_int s.trail_sz
                      >= s.max_learnts
                   then begin
                     (* Learnt-DB reductions are rare and follow long
                        propagation-heavy stretches — another natural
                        deadline boundary. *)
                     poll ();
                     reduce_db s;
                     s.max_learnts <- s.max_learnts *. 1.05
                   end;
                   (* Assumption and decision handling. *)
                   if decision_level s < Array.length assumptions then begin
                     let a = assumptions.(decision_level s) in
                     match lit_val s a with
                     | 1 -> new_decision_level s
                     | 0 -> raise (Found Unsat)
                     | _ ->
                         new_decision_level s;
                         enqueue s a no_reason
                   end
                   else begin
                     let v = pick_branch_var s in
                     if v = -1 then begin
                       (* All variables assigned: model found. *)
                       s.model <- Array.make s.nvars false;
                       for i = 0 to s.nvars - 1 do
                         s.model.(i) <- s.assign.(i) = 1
                       done;
                       extend_model s;
                       s.has_model <- true;
                       raise (Found Sat)
                     end;
                     s.n_decisions <- s.n_decisions + 1;
                     new_decision_level s;
                     let l =
                       if
                         s.strat.random_pol_freq > 0
                         && next_rand s mod s.strat.random_pol_freq = 0
                       then if next_rand s land 1 = 0 then pos v else neg_of_var v
                       else if s.polarity.(v) then pos v
                       else neg_of_var v
                     in
                     enqueue s l no_reason
                   end
                 end
               done
             with Exit -> Metrics.observe h_restart_conflicts !conflicts_here)
          done;
          assert false
        with Found r -> r
      in
      (* [cancel_until 0] restores the solver to its root state, so an
         interrupted (Unknown) solver remains fully reusable. *)
      cancel_until s 0;
      s.n_solves <- s.n_solves + 1;
      Budget.charge budget (s.n_conflicts - start_conflicts);
      result
    end
  end

let solve_traced ?assumptions s =
  if not (!Metrics.enabled || !Trace.enabled) then
    solve_body ?assumptions s
  else
    Trace.with_span sp_solve (fun () ->
        let d0 = s.n_decisions
        and p0 = s.n_propagations
        and c0 = s.n_conflicts
        and r0 = s.n_restarts in
        Fun.protect
          ~finally:(fun () ->
            Metrics.add m_decisions (s.n_decisions - d0);
            Metrics.add m_propagations (s.n_propagations - p0);
            Metrics.add m_conflicts (s.n_conflicts - c0);
            Metrics.add m_restarts (s.n_restarts - r0))
          (fun () -> solve_body ?assumptions s))

let solve ?assumptions s =
  (* Solve-lifecycle record: solves are frequent (once per BMC bound per
     candidate), so this is Debug-level and captured only while a Debug
     sink is attached. *)
  if not (Trace.logs Trace.Debug) then
    solve_traced ?assumptions s
  else begin
    let c0 = s.n_conflicts and t0 = Unix.gettimeofday () in
    let r = solve_traced ?assumptions s in
    Trace.debug "sat.solve"
      [
        ( "result",
          Trace.Str
            (match r with Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown")
        );
        ("vars", Trace.I s.nvars);
        ("conflicts", Trace.I (s.n_conflicts - c0));
        ("us", Trace.F ((Unix.gettimeofday () -. t0) *. 1e6));
      ];
    r
  end

(* -- portfolio plumbing ------------------------------------------------- *)

(* Run the pre-search phase of [solve] on the master solver so portfolio
   workers clone the *post-preprocessing* clause database: assumption
   variables frozen (and restored if eliminated), level-0 propagation at
   fixpoint, and the auto-simplify decision an ordinary [solve] makes at
   its entry boundary.  Workers never simplify, so this is the portfolio
   query's only chance at a pass.  The master does not search itself, so
   [prepare] counts as its solve: the [n_solves] bump makes the query
   after this one eligible, exactly as a completed [solve] would.
   Returns [false] when the instance is already UNSAT. *)
let prepare ?(assumptions = []) s =
  s.has_model <- false;
  s.last_interrupt <- None;
  if not s.ok then false
  else begin
    List.iter (fun a -> freeze s (var_of a)) assumptions;
    if propagate s >= 0 then s.ok <- false;
    if s.ok then maybe_simplify s;
    s.n_solves <- s.n_solves + 1;
    s.ok
  end

let clone s =
  if s.trail_lim_sz <> 0 then invalid_arg "Sat.clone: only at decision level 0";
  let c = create () in
  c.nvars <- s.nvars;
  c.assign <- Array.copy s.assign;
  c.level <- Array.copy s.level;
  (* Level-0 implications need no justification (analyze never follows
     level-0 reasons), so the clone drops them rather than aliasing the
     master's clause objects across domains. *)
  c.reason <- Array.make (Array.length s.reason) no_reason;
  c.activity <- Array.copy s.activity;
  c.polarity <- Array.copy s.polarity;
  c.seen <- Array.make (Array.length s.seen) false;
  c.an_buf <- Array.make (Array.length s.an_buf) 0;
  c.frozen <- Array.copy s.frozen;
  c.elim <- Array.copy s.elim;
  (* Stored clause lists are immutable and their literal arrays are only
     ever read (model extension, restore): sharing them across domains is
     safe, so only the per-variable index is copied. *)
  c.elim_clauses <- Array.copy s.elim_clauses;
  c.elim_seq <- Array.copy s.elim_seq;
  c.elim_stack <- Ivec.copy s.elim_stack;
  c.n_elim <- s.n_elim;
  c.trail <- Array.copy s.trail;
  c.trail_sz <- s.trail_sz;
  c.qhead <- s.qhead;
  c.var_inc <- s.var_inc;
  c.cla_inc <- s.cla_inc;
  c.ok <- s.ok;
  c.max_learnts <- s.max_learnts;
  (* Workers never re-simplify: a mid-search pass would rebuild the
     clause database under the exchange buffer's feet, so the master's
     [prepare] makes the query's one pass decision. *)
  c.simplify_on <- false;
  c.clauses_at_simplify <- s.clauses_at_simplify;
  c.conflicts_at_simplify <- s.conflicts_at_simplify;
  c.n_solves <- s.n_solves;
  let wlen = Array.length s.watches in
  c.watches <- Array.make wlen no_data;
  c.watch_sz <- Array.make wlen 0;
  c.bin_watches <- Array.make wlen no_data;
  c.bin_sz <- Array.make wlen 0;
  c.heap_pos <- Array.make (Array.length s.heap_pos) (-1);
  c.heap <- Array.make (max 16 s.nvars) 0;
  c.heap_sz <- 0;
  for v = 0 to s.nvars - 1 do
    heap_insert c v
  done;
  (* Copy both clause databases into the clone's own arena (sized to the
     live clauses): [propagate] reorders literals in place, so clause
     memory must never be shared between domains.  Copying preserves
     literal order, and watching positions 0/1 replicates the master's
     exact (valid) watch state. *)
  c.arena <- fresh_arena (s.arena_top - s.arena_waste);
  let copy_into dst (src : Ivec.t) =
    for i = 0 to src.Ivec.sz - 1 do
      let cl = src.Ivec.data.(i) in
      let h = s.arena.(cl) in
      let learnt = h land learnt_bit <> 0 in
      let cc =
        alloc_clause c ~learnt ~lbd:s.arena.(cl + 1)
          ?act:(if learnt then Some s.act.(s.arena.(cl + 2)) else None)
          (clause_lits s cl)
      in
      Ivec.push dst cc;
      watch c cc
    done
  in
  copy_into c.clauses s.clauses;
  copy_into c.learnts s.learnts;
  c

let adopt s ~winner =
  if winner.has_model then begin
    s.model <- Array.copy winner.model;
    s.has_model <- true
  end;
  s.last_interrupt <- winner.last_interrupt;
  (* Fold the winner's search counters into the master's [stats] so BMC
     and CLI summaries account the work (the flight-recorder registry
     already saw every worker's deltas when their own [solve] calls
     flushed, so this touches only the local fields). *)
  s.n_decisions <- s.n_decisions + winner.n_decisions;
  s.n_propagations <- s.n_propagations + winner.n_propagations;
  s.n_conflicts <- s.n_conflicts + winner.n_conflicts;
  s.n_restarts <- s.n_restarts + winner.n_restarts;
  s.n_learnt_lits <- s.n_learnt_lits + winner.n_learnt_lits

let value s v =
  if not s.has_model then failwith "Sat.value: no model available";
  if v < Array.length s.model then s.model.(v) else false

let lit_value s l =
  let b = value s (var_of l) in
  if is_pos l then b else not b

let to_dimacs s =
  let buf = Buffer.create 4096 in
  (* Unit clauses never reach [clauses]: they are enqueued on the trail at
     level 0 (both user-added units and top-level propagations, which are
     implied anyway).  Export them as unit clauses so the CNF is
     equisatisfiable with the solver state. *)
  let root_sz = if s.trail_lim_sz = 0 then s.trail_sz else s.trail_lim.(0) in
  let n_total =
    s.clauses.Ivec.sz + root_sz + (if s.ok then 0 else 1)
  in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" s.nvars n_total);
  let emit_lit l =
    let v = var_of l + 1 in
    Buffer.add_string buf (string_of_int (if is_pos l then v else -v));
    Buffer.add_char buf ' '
  in
  for i = 0 to root_sz - 1 do
    emit_lit s.trail.(i);
    Buffer.add_string buf "0\n"
  done;
  for i = 0 to s.clauses.Ivec.sz - 1 do
    let c = s.clauses.Ivec.data.(i) in
    for k = 0 to hdr_size s.arena.(c) - 1 do
      emit_lit s.arena.(c + hdr_words + k)
    done;
    Buffer.add_string buf "0\n"
  done;
  (* A derived empty clause cannot be represented by the stored clauses;
     emit it explicitly so the export stays unsatisfiable. *)
  if not s.ok then Buffer.add_string buf "0\n";
  Buffer.contents buf
