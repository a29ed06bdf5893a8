module Bv = Sqed_bv.Bv
module Metrics = Sqed_obs.Metrics
module Budget = Sqed_resil.Budget
module Fault = Sqed_resil.Fault

(* Gate counts live in [Aig] (one [smt.gates] tick per hash-consed AND
   node); the blaster itself only counts memo hits. *)
let m_cache_hits = Metrics.counter "smt.blast_cache_hits"

(* CNF conversion into the SAT core gets its own timer, nested in the
   callers' [smt.bitblast] spans, so blasting time splits into AIG
   construction ([edges]) and Plaisted–Greenbaum CNF.  A timer, not a
   span: a recorded span per conversion doubles the recorder's most
   frequent event, and a one-domain [fig3 --fast] trace then overflows
   its ring. *)
let t_cnf = Metrics.timer "smt.cnf"

let cnf f =
  if not !Metrics.enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        Metrics.timer_add t_cnf ((Unix.gettimeofday () -. t0) *. 1e6))
      f
  end

(* The memo is keyed by the term itself, so every term the blaster
   encoded stays alive, with its id, for the solver's lifetime: a term
   rebuilt inside a live solver always hits the term universe and then
   this memo, whenever the GC runs. *)
module Tbl = Hashtbl.Make (Term)

(* A budget-aborted [assert_bool] leaves the constraint half-encoded:
   completed sub-terms sit in the cache (sound — their edges carry no
   clauses until encoded) but the top-level unit clause is missing, and
   the graph may hold queued conversion work for literals already handed
   out.  [pending] remembers such asserts (oldest first) so [complete]
   can replay them before the next solve. *)
type t = {
  g : Aig.t;
  cache : Aig.edge array Tbl.t; (* term -> edges *)
  vars : (string * int, Aig.edge array) Hashtbl.t; (* (name, width) *)
  mutable pending : Term.t list;
}

let create sat =
  {
    g = Aig.create sat;
    cache = Tbl.create 1024;
    vars = Hashtbl.create 64;
    pending = [];
  }

(* -- word-level circuits over AIG edges --------------------------------- *)

let full_adder g a b cin =
  let axb = Aig.xor_ g a b in
  let sum = Aig.xor_ g axb cin in
  let cout = Aig.or_ g (Aig.and_ g a b) (Aig.and_ g axb cin) in
  (sum, cout)

let adder g x y cin =
  let w = Array.length x in
  let out = Array.make w Aig.efalse in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, co = full_adder g x.(i) y.(i) !carry in
    out.(i) <- s;
    carry := co
  done;
  out

let negate_vec x = Array.map Aig.enot x
let subtractor g x y = adder g x (negate_vec y) Aig.etrue

let const_vec v =
  Array.init (Bv.width v) (fun i ->
      if Bv.get v i then Aig.etrue else Aig.efalse)

let zero_vec w = Array.make w Aig.efalse

let multiplier g x y =
  let w = Array.length x in
  let acc = ref (zero_vec w) in
  for i = 0 to w - 1 do
    (* O(w^2) gates: the single dominant encoding cost, so poll the
       budget per partial product, not just per term. *)
    Aig.check_budget g;
    (* Partial product of y_i with x shifted left by i, truncated to w. *)
    let pp =
      Array.init w (fun j ->
          if j < i then Aig.efalse else Aig.and_ g y.(i) x.(j - i))
    in
    acc := adder g !acc pp Aig.efalse
  done;
  !acc

let ult_vec g x y =
  (* Ripple comparison from LSB: lt_i = (~x_i & y_i) | ((x_i == y_i) & lt). *)
  let lt = ref Aig.efalse in
  for i = 0 to Array.length x - 1 do
    let xi_lt = Aig.and_ g (Aig.enot x.(i)) y.(i) in
    let eq_i = Aig.enot (Aig.xor_ g x.(i) y.(i)) in
    lt := Aig.or_ g xi_lt (Aig.and_ g eq_i !lt)
  done;
  !lt

let slt_vec g x y =
  let w = Array.length x in
  let x' = Array.copy x and y' = Array.copy y in
  x'.(w - 1) <- Aig.enot x.(w - 1);
  y'.(w - 1) <- Aig.enot y.(w - 1);
  ult_vec g x' y'

(* A balanced AND tree ({!Aig.and_many}) keeps comparator chains shallow
   so local rewriting sees both operands. *)
let eq_vec g x y =
  Aig.and_many g
    (Array.init (Array.length x) (fun i -> Aig.enot (Aig.xor_ g x.(i) y.(i))))

let num_stage_bits w =
  let rec go n = if 1 lsl n >= w then n else go (n + 1) in
  if w <= 1 then 0 else go 1

(* Barrel shifter.  [left] selects the direction; [fill] is the edge
   shifted in (false for shl/lshr, the sign for ashr).  Amount bits
   beyond the stages force the all-fill result. *)
let shifter g ~left ~fill x amt =
  let w = Array.length x in
  let k = num_stage_bits w in
  let cur = ref (Array.copy x) in
  for s = 0 to min (k - 1) (Array.length amt - 1) do
    Aig.check_budget g;
    let dist = 1 lsl s in
    let prev = !cur in
    cur :=
      Array.init w (fun i ->
          let src = if left then i - dist else i + dist in
          let shifted = if src < 0 || src >= w then fill else prev.(src) in
          Aig.mux g amt.(s) shifted prev.(i))
  done;
  (* Stages cover amounts in [0, 2^k); since 2^k >= w, every amount that
     fits the stage bits either shifts correctly or (when >= w) already
     produces the all-fill vector.  Any amount bit >= k set means the
     amount is >= 2^k >= w: force the all-fill result. *)
  let overflow =
    if Array.length amt <= k then Aig.efalse
    else Aig.or_many g (Array.sub amt k (Array.length amt - k))
  in
  Array.map (fun l -> Aig.mux g overflow fill l) !cur

let divider g x y =
  (* Restoring long division, MSB first: returns (quotient, remainder),
     with the SMT-LIB convention for division by zero. *)
  let w = Array.length x in
  let q = Array.make w Aig.efalse in
  let r = ref (zero_vec w) in
  for i = w - 1 downto 0 do
    (* Also O(w^2): a subtractor and comparator per step. *)
    Aig.check_budget g;
    (* r = (r << 1) | x_i *)
    let r' = Array.init w (fun j -> if j = 0 then x.(i) else !r.(j - 1)) in
    let ge = Aig.enot (ult_vec g r' y) in
    q.(i) <- ge;
    let diff = subtractor g r' y in
    r := Array.init w (fun j -> Aig.mux g ge diff.(j) r'.(j))
  done;
  let yzero = eq_vec g y (zero_vec w) in
  let qz = Array.map (fun l -> Aig.mux g yzero Aig.etrue l) q in
  let rz = Array.init w (fun j -> Aig.mux g yzero x.(j) !r.(j)) in
  (qz, rz)

(* -- main translation ---------------------------------------------------- *)

let rec edges b (t : Term.t) =
  match Tbl.find_opt b.cache t with
  | Some ws ->
      Metrics.incr m_cache_hits;
      ws
  | None ->
      let g = b.g in
      (* Only fully-blasted terms enter the cache, so aborting here
         (before any gate of this term exists) is always consistent:
         a later retry recomputes exactly the missing suffix. *)
      Aig.check_budget g;
      let ws =
        match t.Term.node with
        | Term.Var (name, w) -> (
            match Hashtbl.find_opt b.vars (name, w) with
            | Some ws -> ws
            | None ->
                let ws = Array.init w (fun _ -> Aig.fresh_input g) in
                Hashtbl.add b.vars (name, w) ws;
                ws)
        | Term.Const v -> const_vec v
        | Term.Not a -> negate_vec (edges b a)
        | Term.Neg a ->
            let x = edges b a in
            adder g (negate_vec x) (zero_vec (Array.length x)) Aig.etrue
        | Term.And (a, d) -> Array.map2 (Aig.and_ g) (edges b a) (edges b d)
        | Term.Or (a, d) -> Array.map2 (Aig.or_ g) (edges b a) (edges b d)
        | Term.Xor (a, d) -> Array.map2 (Aig.xor_ g) (edges b a) (edges b d)
        | Term.Add (a, d) -> adder g (edges b a) (edges b d) Aig.efalse
        | Term.Sub (a, d) -> subtractor g (edges b a) (edges b d)
        | Term.Mul (a, d) -> multiplier g (edges b a) (edges b d)
        | Term.Udiv (a, d) -> fst (divider g (edges b a) (edges b d))
        | Term.Urem (a, d) -> snd (divider g (edges b a) (edges b d))
        | Term.Shl (a, d) ->
            shifter g ~left:true ~fill:Aig.efalse (edges b a) (edges b d)
        | Term.Lshr (a, d) ->
            shifter g ~left:false ~fill:Aig.efalse (edges b a) (edges b d)
        | Term.Ashr (a, d) ->
            let x = edges b a in
            shifter g ~left:false ~fill:x.(Array.length x - 1) x (edges b d)
        | Term.Eq (a, d) -> [| eq_vec g (edges b a) (edges b d) |]
        | Term.Ult (a, d) -> [| ult_vec g (edges b a) (edges b d) |]
        | Term.Slt (a, d) -> [| slt_vec g (edges b a) (edges b d) |]
        | Term.Ite (s, a, d) ->
            let sel = (edges b s).(0) in
            Array.map2 (fun x y -> Aig.mux g sel x y) (edges b a) (edges b d)
        | Term.Extract (hi, lo, a) ->
            let x = edges b a in
            Array.sub x lo (hi - lo + 1)
        | Term.Zext (w, a) ->
            let x = edges b a in
            Array.init w (fun i ->
                if i < Array.length x then x.(i) else Aig.efalse)
        | Term.Sext (w, a) ->
            let x = edges b a in
            let n = Array.length x in
            Array.init w (fun i -> if i < n then x.(i) else x.(n - 1))
        | Term.Concat (hi, lo) ->
            let h = edges b hi and l = edges b lo in
            Array.append l h
      in
      assert (Array.length ws = t.Term.width);
      Tbl.add b.cache t ws;
      ws

(* -- CNF interface --------------------------------------------------------- *)

let blast t term =
  Fault.check "smt.bitblast";
  (* These literals escape to the caller, who may constrain them in
     either phase and emit clauses over them: encode both polarity
     halves and freeze. *)
  let es = edges t term in
  cnf (fun () ->
      Array.map
        (fun e ->
          Aig.encode t.g e Aig.Both;
          Aig.freeze t.g e;
          Aig.lit t.g e)
        es)

let blast_bool t term =
  if Term.width term <> 1 then invalid_arg "Bitblast.blast_bool: width <> 1";
  (blast t term).(0)

let do_assert t term =
  let e = (edges t term).(0) in
  cnf (fun () -> Aig.assert_edge t.g e)

let assert_bool t term =
  if Term.width term <> 1 then invalid_arg "Bitblast.assert_bool: width <> 1";
  Fault.check "smt.bitblast";
  try do_assert t term
  with Budget.Exhausted _ as e ->
    t.pending <- t.pending @ [ term ];
    raise e

let complete t =
  (* Replayed pending asserts are rare (only after a budget abort) and
     worth a flight-recorder note: they explain surprise re-encoding
     time in the next check. *)
  (match t.pending with
  | [] -> ()
  | pending ->
      Sqed_obs.Trace.info "smt.blast.replay"
        [ ("pending", Sqed_obs.Trace.I (List.length pending)) ]);
  cnf (fun () -> Aig.drain t.g);
  let rec go () =
    match t.pending with
    | [] -> ()
    | term :: rest ->
        (* [do_assert], not [assert_bool]: if the budget dies again the
           term must stay at the head, not be re-queued at the tail. *)
        do_assert t term;
        t.pending <- rest;
        go ()
  in
  go ()

let assume_bool t term =
  if Term.width term <> 1 then invalid_arg "Bitblast.assume_bool: width <> 1";
  Fault.check "smt.bitblast";
  let e = (edges t term).(0) in
  cnf (fun () -> Aig.assume_lit t.g e)

let var_lits t name ~width =
  Option.map (Array.map (Aig.lit t.g)) (Hashtbl.find_opt t.vars (name, width))
