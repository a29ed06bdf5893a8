module Sat = Sqed_sat.Sat
module Metrics = Sqed_obs.Metrics

(* [smt.aig.nodes] counts allocated nodes (inputs + ANDs); [struct_hits]
   counts AND constructions answered by the hash table; [rewrites] counts
   one-level rule applications that avoided a node; [pg_skipped_clauses]
   tracks the clauses currently avoided by polarity-aware conversion (it
   decreases when a missing polarity half is emitted later).  [smt.gates]
   ticks once per AND node, the AIG analogue of one emitted gate.

   Construction is the blaster's hottest loop (tens of millions of [and_]
   calls in a fig3 run), so the graph buffers the counts in plain fields
   and flushes to the registry at conversion boundaries instead of paying
   a domain-local-storage access per node. *)
let m_nodes = Metrics.counter "smt.aig.nodes"
let m_struct_hits = Metrics.counter "smt.aig.struct_hits"
let m_rewrites = Metrics.counter "smt.aig.rewrites"
let m_pg_skipped = Metrics.counter "smt.aig.pg_skipped_clauses"
let m_gates = Metrics.counter "smt.gates"

type edge = int

let etrue = 0
let efalse = 1
let enot e = e lxor 1
let node_of e = e lsr 1
let is_compl e = e land 1 = 1
let is_const e = e lsr 1 = 0
let is_true e = e = etrue
let is_false e = e = efalse

type t = {
  sat : Sat.t;
  (* Per-node storage.  [lhs.(n) = -1] marks a primary input; node 0 is
     the constant and uses neither side.  AND children are edges with
     [lhs <= rhs] (normalized for hashing). *)
  mutable lhs : int array;
  mutable rhs : int array;
  mutable lit : Sat.lit array; (* materialized SAT literal, or -1 *)
  mutable pol : Bytes.t; (* bit 0: positive half emitted; bit 1: negative *)
  mutable n : int;
  (* Open-addressing structural hash table over AND node ids; -1 = empty. *)
  mutable table : int array;
  mutable mask : int;
  mutable entries : int;
  (* Work stack for CNF conversion, packed as [4 * node + polarity_mask]. *)
  mutable stack : int array;
  mutable stack_sz : int;
  (* Buffered metric deltas, flushed at conversion boundaries. *)
  mutable c_nodes : int;
  mutable c_ands : int;
  mutable c_struct : int;
  mutable c_rewrites : int;
  mutable c_pg : int;
}

let create sat =
  let v = Sat.new_var sat in
  let tl = Sat.pos v in
  Sat.add_clause sat [ tl ];
  Sat.freeze sat v;
  let cap = 1024 in
  let t =
    {
      sat;
      lhs = Array.make cap (-1);
      rhs = Array.make cap (-1);
      lit = Array.make cap (-1);
      pol = Bytes.make cap '\000';
      n = 1;
      table = Array.make 2048 (-1);
      mask = 2047;
      entries = 0;
      stack = Array.make 256 0;
      stack_sz = 0;
      c_nodes = 0;
      c_ands = 0;
      c_struct = 0;
      c_rewrites = 0;
      c_pg = 0;
    }
  in
  t.lit.(0) <- tl;
  t

let flush_metrics t =
  if t.c_nodes <> 0 then begin
    Metrics.add m_nodes t.c_nodes;
    t.c_nodes <- 0
  end;
  if t.c_ands <> 0 then begin
    Metrics.add m_gates t.c_ands;
    t.c_ands <- 0
  end;
  if t.c_struct <> 0 then begin
    Metrics.add m_struct_hits t.c_struct;
    t.c_struct <- 0
  end;
  if t.c_rewrites <> 0 then begin
    Metrics.add m_rewrites t.c_rewrites;
    t.c_rewrites <- 0
  end;
  if t.c_pg <> 0 then begin
    Metrics.add m_pg_skipped t.c_pg;
    t.c_pg <- 0
  end

let num_nodes t =
  (* inputs + ANDs + the constant node *)
  t.n

let grow t =
  let cap = Array.length t.lhs in
  let cap' = 2 * cap in
  let ext a =
    let d = Array.make cap' (-1) in
    Array.blit a 0 d 0 cap;
    d
  in
  t.lhs <- ext t.lhs;
  t.rhs <- ext t.rhs;
  t.lit <- ext t.lit;
  let p = Bytes.make cap' '\000' in
  Bytes.blit t.pol 0 p 0 cap;
  t.pol <- p

let hash_pair l r =
  let h = (l * 0x9e3779b1) lxor (r * 0x85ebca6b) in
  (h lxor (h lsr 16)) land max_int

let rec insert_raw t id =
  let i = ref (hash_pair t.lhs.(id) t.rhs.(id) land t.mask) in
  while t.table.(!i) >= 0 do
    i := (!i + 1) land t.mask
  done;
  t.table.(!i) <- id

and rehash t =
  let old = t.table in
  let size = 2 * (t.mask + 1) in
  t.table <- Array.make size (-1);
  t.mask <- size - 1;
  Array.iter (fun id -> if id >= 0 then insert_raw t id) old

let fresh_input t =
  if t.n = Array.length t.lhs then grow t;
  let id = t.n in
  t.n <- id + 1;
  let v = Sat.new_var t.sat in
  t.lit.(id) <- Sat.pos v;
  Sat.freeze t.sat v;
  t.c_nodes <- t.c_nodes + 1;
  2 * id

(* One-level rewrite rules over the operands' children (Brummayer–Biere
   style).  All return a folded edge, or the sentinel [-1] for "no rule
   applies" — sentinel-coded so the hot path allocates nothing. *)
let no_rule = -1

let rec and_ t a b =
  if a = efalse || b = efalse then efalse
  else if a = etrue then b
  else if b = etrue then a
  else if a = b then a
  else if a = enot b then efalse
  else begin
    let r = rewrite t a b in
    if r >= 0 then begin
      t.c_rewrites <- t.c_rewrites + 1;
      r
    end
    else begin
      let l, r = if a <= b then (a, b) else (b, a) in
      lookup_or_create t l r
    end
  end

and rewrite t a b =
  let r = rewrite1 t a b in
  if r >= 0 then r
  else begin
    let r = rewrite1 t b a in
    if r >= 0 then r else rewrite2 t a b
  end

and rewrite1 t a b =
  let n = a lsr 1 in
  if n = 0 || t.lhs.(n) < 0 then no_rule
  else begin
    let a0 = t.lhs.(n) and a1 = t.rhs.(n) in
    if a land 1 = 0 then
      if b = a0 || b = a1 then a (* idempotence: (x&y)&x = x&y *)
      else if b = a0 lxor 1 || b = a1 lxor 1 then efalse (* contradiction *)
      else no_rule
    else if b = a0 lxor 1 || b = a1 lxor 1 then b
      (* subsumption: ~(x&y) & ~x = ~x *)
    else if b = a0 then and_ t a0 (a1 lxor 1)
      (* substitution: ~(x&y) & x = x & ~y *)
    else if b = a1 then and_ t a1 (a0 lxor 1)
    else no_rule
  end

and rewrite2 t a b =
  let na = a lsr 1 and nb = b lsr 1 in
  if na = 0 || nb = 0 || t.lhs.(na) < 0 || t.lhs.(nb) < 0 then no_rule
  else begin
    let a0 = t.lhs.(na) and a1 = t.rhs.(na) in
    let b0 = t.lhs.(nb) and b1 = t.rhs.(nb) in
    if a land 1 = 1 && b land 1 = 1 then
      (* resolution: ~(x&y) & ~(x&~y) = ~x *)
      if (a0 = b0 && a1 = b1 lxor 1) || (a0 = b1 && a1 = b0 lxor 1) then
        a0 lxor 1
      else if (a1 = b0 && a0 = b1 lxor 1) || (a1 = b1 && a0 = b0 lxor 1) then
        a1 lxor 1
      else no_rule
    else if a land 1 = 0 && b land 1 = 0 then
      (* contradiction across operands: (..&x..) & (..&~x..) = false *)
      if
        a0 = b0 lxor 1 || a0 = b1 lxor 1 || a1 = b0 lxor 1 || a1 = b1 lxor 1
      then efalse
      else no_rule
    else no_rule
  end

and lookup_or_create t l r =
  let i = ref (hash_pair l r land t.mask) in
  let found = ref (-1) in
  while !found < 0 && t.table.(!i) >= 0 do
    let id = t.table.(!i) in
    if t.lhs.(id) = l && t.rhs.(id) = r then found := id
    else i := (!i + 1) land t.mask
  done;
  if !found >= 0 then begin
    t.c_struct <- t.c_struct + 1;
    2 * !found
  end
  else begin
    if t.n = Array.length t.lhs then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.lhs.(id) <- l;
    t.rhs.(id) <- r;
    t.table.(!i) <- id;
    t.entries <- t.entries + 1;
    if 2 * t.entries > t.mask then rehash t;
    t.c_nodes <- t.c_nodes + 1;
    t.c_ands <- t.c_ands + 1;
    2 * id
  end

let or_ t a b = enot (and_ t (enot a) (enot b))

(* a^b = ~(a&b) & ~(~a&~b): the inner AND(a,b) is exactly a full adder's
   carry term, so adder sum and carry share one node. *)
let xor_ t a b = and_ t (enot (and_ t a b)) (enot (and_ t (enot a) (enot b)))

let mux t s a b = enot (and_ t (enot (and_ t s a)) (enot (and_ t (enot s) b)))

let and_many t arr =
  if Array.length arr = 0 then etrue
  else begin
    let cur = ref (Array.copy arr) in
    while Array.length !cur > 1 do
      let a = !cur in
      let m = Array.length a in
      let half = (m + 1) / 2 in
      let nxt = Array.make half etrue in
      for i = 0 to (m / 2) - 1 do
        nxt.(i) <- and_ t a.(2 * i) a.((2 * i) + 1)
      done;
      if m land 1 = 1 then nxt.(half - 1) <- a.(m - 1);
      cur := nxt
    done;
    (!cur).(0)
  end

let or_many t arr = enot (and_many t (Array.map enot arr))

(* -- CNF conversion ----------------------------------------------------- *)

type polarity = Pos | Neg | Both

let lit_of_node t n =
  if t.lit.(n) >= 0 then t.lit.(n)
  else begin
    let l = Sat.pos (Sat.new_var t.sat) in
    t.lit.(n) <- l;
    l
  end

let lit t e =
  let l = lit_of_node t (node_of e) in
  if is_compl e then Sat.negate l else l

let freeze t e = Sat.freeze t.sat (Sat.var_of (lit t e))
let check_budget t =
  (* Feed the live node count to the sampler before the budget poll so
     a mid-conversion sample sees the instance as it grows. *)
  Sqed_obs.Trace.note_aig_nodes t.n;
  Sat.check_budget ()

(* Polarity masks: bit 0 = positive (lit -> cone), bit 1 = negative. *)
let mask_of = function Pos -> 1 | Neg -> 2 | Both -> 3
let flip m = ((m land 1) lsl 1) lor ((m lsr 1) land 1)

let push t n m =
  if t.stack_sz = Array.length t.stack then begin
    let d = Array.make (2 * t.stack_sz) 0 in
    Array.blit t.stack 0 d 0 t.stack_sz;
    t.stack <- d
  end;
  t.stack.(t.stack_sz) <- (4 * n) lor m;
  t.stack_sz <- t.stack_sz + 1

let push_edge t e m =
  let n = e lsr 1 in
  if n > 0 && t.lhs.(n) >= 0 then
    push t n (if e land 1 = 1 then flip m else m)

(* The clauses a node's still-missing halves (bits clear in [m]) would
   cost: 2 for the positive half, [cneg] for the negative one. *)
let pending cneg m =
  (if m land 1 = 0 then 2 else 0) + if m land 2 = 0 then cneg else 0

let process_stack t =
  while t.stack_sz > 0 do
    (* Cooperative cancellation point, checked BEFORE popping: each
       node's polarity-byte update plus its clauses is atomic, and an
       aborted conversion leaves the unprocessed items on the stack —
       they are definitional obligations of literals already handed
       out, so [drain] must run them before the next solve.  Clearing
       the stack instead would be unsound. *)
    Sat.check_budget ();
    t.stack_sz <- t.stack_sz - 1;
    let item = t.stack.(t.stack_sz) in
    let n = item lsr 2 and want = item land 3 in
    let have = Char.code (Bytes.get t.pol n) in
    let need = want land lnot have land 3 in
    if need <> 0 then begin
      Bytes.set t.pol n (Char.chr (have lor need));
      let g = lit_of_node t n in
      let l = t.lhs.(n) and r = t.rhs.(n) in
      (* A node whose children are both complemented ANDs sharing an
         opposite pair is an ITE (XOR when the branches are each other's
         complements): emitting it as 2 clauses per polarity beats
         recursing through the decomposed pair, which costs more clauses
         *and* two extra gate variables. *)
      let s = ref (-1) and th = ref (-1) and el = ref (-1) in
      (if l land 1 = 1 && r land 1 = 1 then begin
         let ln = l lsr 1 and rn = r lsr 1 in
         if t.lhs.(ln) >= 0 && t.lhs.(rn) >= 0 then begin
           let x0 = t.lhs.(ln) and x1 = t.rhs.(ln) in
           let y0 = t.lhs.(rn) and y1 = t.rhs.(rn) in
           if x0 = y0 lxor 1 then begin
             s := x0;
             th := x1 lxor 1;
             el := y1 lxor 1
           end
           else if x0 = y1 lxor 1 then begin
             s := x0;
             th := x1 lxor 1;
             el := y0 lxor 1
           end
           else if x1 = y0 lxor 1 then begin
             s := x1;
             th := x0 lxor 1;
             el := y1 lxor 1
           end
           else if x1 = y1 lxor 1 then begin
             s := x1;
             th := x0 lxor 1;
             el := y0 lxor 1
           end
         end
       end);
      (* The negative half's clause count (see [pending]). *)
      let cneg =
        if !s >= 0 then begin
          (* node = if s then th else el *)
          let ls = lit t !s and lt = lit t !th and le = lit t !el in
          if need land 1 <> 0 then begin
            Sat.add_clause3 t.sat (Sat.negate g) (Sat.negate ls) lt;
            Sat.add_clause3 t.sat (Sat.negate g) ls le;
            push_edge t !s 3;
            push_edge t !th 1;
            push_edge t !el 1
          end;
          if need land 2 <> 0 then begin
            Sat.add_clause3 t.sat g (Sat.negate ls) (Sat.negate lt);
            Sat.add_clause3 t.sat g ls (Sat.negate le);
            push_edge t !s 3;
            push_edge t !th 2;
            push_edge t !el 2
          end;
          2
        end
        else begin
          let la = lit t l and lb = lit t r in
          if need land 1 <> 0 then begin
            Sat.add_clause2 t.sat (Sat.negate g) la;
            Sat.add_clause2 t.sat (Sat.negate g) lb;
            push_edge t l 1;
            push_edge t r 1
          end;
          if need land 2 <> 0 then begin
            Sat.add_clause3 t.sat g (Sat.negate la) (Sat.negate lb);
            push_edge t l 2;
            push_edge t r 2
          end;
          1
        end
      in
      (* pg_skipped tracks clauses *currently* avoided: pay down the debt
         when the other half is emitted later. *)
      let after = have lor need in
      t.c_pg <-
        t.c_pg
        + if have = 0 then pending cneg after
          else pending cneg after - pending cneg have
    end
  done

let encode t root pol =
  push_edge t root (mask_of pol);
  process_stack t;
  flush_metrics t

let drain t =
  if t.stack_sz > 0 then process_stack t;
  flush_metrics t

let assert_edge t e =
  if is_true e then ()
  else if is_false e then Sat.add_clause t.sat []
  else begin
    encode t e Pos;
    Sat.add_clause t.sat [ lit t e ]
  end

let assume_lit t e =
  if is_const e then lit t e
  else begin
    encode t e Pos;
    lit t e
  end
