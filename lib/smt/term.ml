module Bv = Sqed_bv.Bv

type t = { id : int; width : int; node : node }

and node =
  | Var of string * int
  | Const of Bv.t
  | Not of t
  | Neg of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Udiv of t * t
  | Urem of t * t
  | Shl of t * t
  | Lshr of t * t
  | Ashr of t * t
  | Eq of t * t
  | Ult of t * t
  | Slt of t * t
  | Ite of t * t * t
  | Extract of int * int * t
  | Zext of int * t
  | Sext of int * t
  | Concat of t * t

let width t = t.width
let equal a b = a == b
let compare a b = Stdlib.compare a.id b.id
let hash t = t.id

(* -- hash-consing ------------------------------------------------------ *)

(* The key hashes/compares a node's children by id, so consing is O(1)
   per node; the hash mixes the tag and the fields arithmetically, with
   no allocation. *)
module Key = struct
  type nonrec t = t

  let mix h x =
    let h = (h lxor x) * 0x100000001b3 in
    h lxor (h lsr 29)

  let un tag a = mix tag a.id
  let bin tag a b = mix (mix tag a.id) b.id

  let hash t =
    match t.node with
    | Var (s, w) -> mix (Hashtbl.hash s) w
    | Const b -> Bv.hash b
    | Not a -> un 1 a
    | Neg a -> un 2 a
    | And (a, b) -> bin 3 a b
    | Or (a, b) -> bin 4 a b
    | Xor (a, b) -> bin 5 a b
    | Add (a, b) -> bin 6 a b
    | Sub (a, b) -> bin 7 a b
    | Mul (a, b) -> bin 8 a b
    | Udiv (a, b) -> bin 9 a b
    | Urem (a, b) -> bin 10 a b
    | Shl (a, b) -> bin 11 a b
    | Lshr (a, b) -> bin 12 a b
    | Ashr (a, b) -> bin 13 a b
    | Eq (a, b) -> bin 14 a b
    | Ult (a, b) -> bin 15 a b
    | Slt (a, b) -> bin 16 a b
    | Ite (c, a, b) -> mix (bin 17 c a) b.id
    | Extract (hi, lo, a) -> mix (mix (un 18 a) hi) lo
    | Zext (w, a) -> mix (un 19 a) w
    | Sext (w, a) -> mix (un 20 a) w
    | Concat (a, b) -> bin 21 a b

  let equal x y =
    match (x.node, y.node) with
    | Var (s1, w1), Var (s2, w2) -> String.equal s1 s2 && w1 = w2
    | Const b1, Const b2 -> Bv.equal b1 b2
    | Not a1, Not a2 | Neg a1, Neg a2 -> a1 == a2
    | And (a1, b1), And (a2, b2)
    | Or (a1, b1), Or (a2, b2)
    | Xor (a1, b1), Xor (a2, b2)
    | Add (a1, b1), Add (a2, b2)
    | Sub (a1, b1), Sub (a2, b2)
    | Mul (a1, b1), Mul (a2, b2)
    | Udiv (a1, b1), Udiv (a2, b2)
    | Urem (a1, b1), Urem (a2, b2)
    | Shl (a1, b1), Shl (a2, b2)
    | Lshr (a1, b1), Lshr (a2, b2)
    | Ashr (a1, b1), Ashr (a2, b2)
    | Eq (a1, b1), Eq (a2, b2)
    | Ult (a1, b1), Ult (a2, b2)
    | Slt (a1, b1), Slt (a2, b2)
    | Concat (a1, b1), Concat (a2, b2) ->
        a1 == a2 && b1 == b2
    | Ite (c1, a1, b1), Ite (c2, a2, b2) -> c1 == c2 && a1 == a2 && b1 == b2
    | Extract (h1, l1, a1), Extract (h2, l2, a2) ->
        h1 = h2 && l1 = l2 && a1 == a2
    | Zext (w1, a1), Zext (w2, a2) | Sext (w1, a1), Sext (w2, a2) ->
        w1 = w2 && a1 == a2
    | _ -> false
end

module Cons = Weak.Make (Key)

(* Each domain owns an independent term universe (a weak hash-consing
   set and an id allocator) behind [Domain.DLS], so solver campaigns can
   run on worker domains without locking the hot consing path.  The set
   holds its terms weakly: a term nothing references is collected, and
   building it again yields a fresh term with a fresh id.  Ids are handed
   out in disjoint blocks off a global atomic counter and never reused,
   so id-keyed caches (bit-blaster, eval) stay correct across
   collections and across domains: terms built on different domains are
   never physically equal, but their ids never collide either.  Sharing
   is only guaranteed within one domain and among live terms, which
   costs sharing, never soundness. *)

let id_block_bits = 20
let next_block = Atomic.make 0

type manager = { set : Cons.t; mutable next_id : int; mutable id_limit : int }

let manager_key =
  Domain.DLS.new_key (fun () ->
      { set = Cons.create 4096; next_id = 0; id_limit = 0 })

let intern width node =
  let m = Domain.DLS.get manager_key in
  if m.next_id >= m.id_limit then begin
    let b = Atomic.fetch_and_add next_block 1 in
    m.next_id <- b lsl id_block_bits;
    m.id_limit <- (b + 1) lsl id_block_bits
  end;
  (* The candidate takes the next id only if the set keeps it. *)
  let fresh = { id = m.next_id; width; node } in
  let t = Cons.merge m.set fresh in
  if t == fresh then m.next_id <- m.next_id + 1;
  t

(* -- leaves ------------------------------------------------------------ *)

let const b = intern (Bv.width b) (Const b)
let of_int ~width n = const (Bv.of_int ~width n)
let tt = const (Bv.one 1)
let ff = const (Bv.zero 1)
let of_bool b = if b then tt else ff

let var name w =
  if w <= 0 then invalid_arg "Term.var: width must be positive";
  (* The same name at different widths denotes distinct variables; within
     one solver instance a name is only ever used at one width. *)
  intern w (Var (name, w))

let is_const t = match t.node with Const b -> Some b | _ -> None

let is_zero t = match t.node with Const b -> Bv.is_zero b | _ -> false
let is_ones t = match t.node with Const b -> Bv.equal b (Bv.ones t.width) | _ -> false

let check2 op a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Term.%s: width mismatch (%d vs %d)" op a.width b.width)

(* -- constructors with folding ----------------------------------------- *)

let not_ a =
  match a.node with
  | Const b -> const (Bv.lognot b)
  | Not x -> x
  | _ -> intern a.width (Not a)

let neg a =
  match a.node with
  | Const b -> const (Bv.neg b)
  | Neg x -> x
  | _ -> intern a.width (Neg a)

let and_ a b =
  check2 "and_" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.logand x y)
  | _ ->
      if is_zero a || is_zero b then const (Bv.zero a.width)
      else if is_ones a then b
      else if is_ones b then a
      else if a == b then a
      else intern a.width (And (a, b))

let or_ a b =
  check2 "or_" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.logor x y)
  | _ ->
      if is_ones a || is_ones b then const (Bv.ones a.width)
      else if is_zero a then b
      else if is_zero b then a
      else if a == b then a
      else intern a.width (Or (a, b))

let xor a b =
  check2 "xor" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.logxor x y)
  | _ ->
      if is_zero a then b
      else if is_zero b then a
      else if a == b then const (Bv.zero a.width)
      else if is_ones a then not_ b
      else if is_ones b then not_ a
      else intern a.width (Xor (a, b))

let add a b =
  check2 "add" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.add x y)
  | _ ->
      if is_zero a then b
      else if is_zero b then a
      else intern a.width (Add (a, b))

let sub a b =
  check2 "sub" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.sub x y)
  | _ -> if is_zero b then a else if a == b then const (Bv.zero a.width)
         else intern a.width (Sub (a, b))

let mul a b =
  check2 "mul" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.mul x y)
  | _ ->
      if is_zero a || is_zero b then const (Bv.zero a.width)
      else if is_const a = Some (Bv.one a.width) then b
      else if is_const b = Some (Bv.one a.width) then a
      else intern a.width (Mul (a, b))

let udiv a b =
  check2 "udiv" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.udiv x y)
  | _ -> intern a.width (Udiv (a, b))

let urem a b =
  check2 "urem" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.urem x y)
  | _ -> intern a.width (Urem (a, b))

let shl a b =
  check2 "shl" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.shl_bv x y)
  | _ -> if is_zero b then a else intern a.width (Shl (a, b))

let lshr a b =
  check2 "lshr" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.lshr_bv x y)
  | _ -> if is_zero b then a else intern a.width (Lshr (a, b))

let ashr a b =
  check2 "ashr" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bv.ashr_bv x y)
  | _ -> if is_zero b then a else intern a.width (Ashr (a, b))

let eq a b =
  check2 "eq" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> of_bool (Bv.equal x y)
  | _ -> if a == b then tt else intern 1 (Eq (a, b))

let ult a b =
  check2 "ult" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> of_bool (Bv.ult x y)
  | _ -> if a == b then ff else intern 1 (Ult (a, b))

let slt a b =
  check2 "slt" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> of_bool (Bv.slt x y)
  | _ -> if a == b then ff else intern 1 (Slt (a, b))

let ule a b = not_ (ult b a)
let ugt a b = ult b a
let uge a b = not_ (ult a b)
let sle a b = not_ (slt b a)
let distinct a b = not_ (eq a b)

let ite c a b =
  if c.width <> 1 then invalid_arg "Term.ite: condition must have width 1";
  check2 "ite" a b;
  match c.node with
  | Const v -> if Bv.is_zero v then b else a
  | _ -> if a == b then a else intern a.width (Ite (c, a, b))

let extract ~hi ~lo a =
  if lo < 0 || hi < lo || hi >= a.width then
    invalid_arg "Term.extract: bad bounds";
  if lo = 0 && hi = a.width - 1 then a
  else
    match a.node with
    | Const b -> const (Bv.extract ~hi ~lo b)
    | Extract (_, lo', x) -> intern (hi - lo + 1) (Extract (hi + lo', lo + lo', x))
    | _ -> intern (hi - lo + 1) (Extract (hi, lo, a))

let zext a w =
  if w < a.width then invalid_arg "Term.zext: smaller target";
  if w = a.width then a
  else match a.node with
    | Const b -> const (Bv.zext b w)
    | _ -> intern w (Zext (w, a))

let sext a w =
  if w < a.width then invalid_arg "Term.sext: smaller target";
  if w = a.width then a
  else match a.node with
    | Const b -> const (Bv.sext b w)
    | _ -> intern w (Sext (w, a))

let concat hi lo =
  match (is_const hi, is_const lo) with
  | Some x, Some y -> const (Bv.concat x y)
  | _ -> intern (hi.width + lo.width) (Concat (hi, lo))

let bit t i = extract ~hi:i ~lo:i t

let redor t = distinct t (const (Bv.zero t.width))
let redand t = eq t (const (Bv.ones t.width))

let implies a b = or_ (not_ a) b

let conj = function
  | [] -> tt
  | x :: xs -> List.fold_left and_ x xs

let disj = function
  | [] -> ff
  | x :: xs -> List.fold_left or_ x xs

(* -- evaluation --------------------------------------------------------- *)

let evaluator lookup =
  let cache : (int, Bv.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt cache t.id with
    | Some v -> v
    | None ->
        let v =
          match t.node with
          | Var (s, w) -> lookup s w
          | Const b -> b
          | Not a -> Bv.lognot (go a)
          | Neg a -> Bv.neg (go a)
          | And (a, b) -> Bv.logand (go a) (go b)
          | Or (a, b) -> Bv.logor (go a) (go b)
          | Xor (a, b) -> Bv.logxor (go a) (go b)
          | Add (a, b) -> Bv.add (go a) (go b)
          | Sub (a, b) -> Bv.sub (go a) (go b)
          | Mul (a, b) -> Bv.mul (go a) (go b)
          | Udiv (a, b) -> Bv.udiv (go a) (go b)
          | Urem (a, b) -> Bv.urem (go a) (go b)
          | Shl (a, b) -> Bv.shl_bv (go a) (go b)
          | Lshr (a, b) -> Bv.lshr_bv (go a) (go b)
          | Ashr (a, b) -> Bv.ashr_bv (go a) (go b)
          | Eq (a, b) -> Bv.of_bool (Bv.equal (go a) (go b))
          | Ult (a, b) -> Bv.of_bool (Bv.ult (go a) (go b))
          | Slt (a, b) -> Bv.of_bool (Bv.slt (go a) (go b))
          | Ite (c, a, b) -> if Bv.is_zero (go c) then go b else go a
          | Extract (hi, lo, a) -> Bv.extract ~hi ~lo (go a)
          | Zext (w, a) -> Bv.zext (go a) w
          | Sext (w, a) -> Bv.sext (go a) w
          | Concat (a, b) -> Bv.concat (go a) (go b)
        in
        Hashtbl.add cache t.id v;
        v
  in
  go

let eval lookup t =
  evaluator
    (fun s w ->
      let v = lookup s in
      if Bv.width v <> w then
        invalid_arg ("Term.eval: width mismatch for variable " ^ s);
      v)
    t

let vars t =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.add seen t.id ();
      match t.node with
      | Var (s, w) -> acc := (s, w) :: !acc
      | Const _ -> ()
      | Not a | Neg a | Extract (_, _, a) | Zext (_, a) | Sext (_, a) -> go a
      | And (a, b) | Or (a, b) | Xor (a, b) | Add (a, b) | Sub (a, b)
      | Mul (a, b) | Udiv (a, b) | Urem (a, b) | Shl (a, b) | Lshr (a, b)
      | Ashr (a, b) | Eq (a, b) | Ult (a, b) | Slt (a, b) | Concat (a, b) ->
          go a; go b
      | Ite (c, a, b) -> go c; go a; go b
    end
  in
  go t;
  List.sort_uniq Stdlib.compare !acc

let size t =
  let seen = Hashtbl.create 16 in
  let n = ref 0 in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.add seen t.id ();
      incr n;
      match t.node with
      | Var _ | Const _ -> ()
      | Not a | Neg a | Extract (_, _, a) | Zext (_, a) | Sext (_, a) -> go a
      | And (a, b) | Or (a, b) | Xor (a, b) | Add (a, b) | Sub (a, b)
      | Mul (a, b) | Udiv (a, b) | Urem (a, b) | Shl (a, b) | Lshr (a, b)
      | Ashr (a, b) | Eq (a, b) | Ult (a, b) | Slt (a, b) | Concat (a, b) ->
          go a; go b
      | Ite (c, a, b) -> go c; go a; go b
    end
  in
  go t;
  !n

let rec pp fmt t =
  let bin name a b = Format.fprintf fmt "(%s %a %a)" name pp a pp b in
  match t.node with
  | Var (s, _) -> Format.pp_print_string fmt s
  | Const b -> Bv.pp fmt b
  | Not a -> Format.fprintf fmt "(bvnot %a)" pp a
  | Neg a -> Format.fprintf fmt "(bvneg %a)" pp a
  | And (a, b) -> bin "bvand" a b
  | Or (a, b) -> bin "bvor" a b
  | Xor (a, b) -> bin "bvxor" a b
  | Add (a, b) -> bin "bvadd" a b
  | Sub (a, b) -> bin "bvsub" a b
  | Mul (a, b) -> bin "bvmul" a b
  | Udiv (a, b) -> bin "bvudiv" a b
  | Urem (a, b) -> bin "bvurem" a b
  | Shl (a, b) -> bin "bvshl" a b
  | Lshr (a, b) -> bin "bvlshr" a b
  | Ashr (a, b) -> bin "bvashr" a b
  | Eq (a, b) -> bin "=" a b
  | Ult (a, b) -> bin "bvult" a b
  | Slt (a, b) -> bin "bvslt" a b
  | Ite (c, a, b) -> Format.fprintf fmt "(ite %a %a %a)" pp c pp a pp b
  | Extract (hi, lo, a) ->
      Format.fprintf fmt "((_ extract %d %d) %a)" hi lo pp a
  | Zext (w, a) ->
      Format.fprintf fmt "((_ zero_extend %d) %a)" (w - a.width) pp a
  | Sext (w, a) ->
      Format.fprintf fmt "((_ sign_extend %d) %a)" (w - a.width) pp a
  | Concat (a, b) -> bin "concat" a b

let to_string t = Format.asprintf "%a" pp t
