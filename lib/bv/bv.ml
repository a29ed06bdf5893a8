(* Little-endian int64 limbs; the top limb is masked so that the
   representation is canonical and [equal]/[hash] can be structural. *)

type t = { width : int; limbs : int64 array }

let limb_bits = 64

let nlimbs width = (width + limb_bits - 1) / limb_bits

let top_mask width =
  let r = width mod limb_bits in
  if r = 0 then -1L else Int64.sub (Int64.shift_left 1L r) 1L

let width v = v.width

let normalize v =
  let n = Array.length v.limbs in
  v.limbs.(n - 1) <- Int64.logand v.limbs.(n - 1) (top_mask v.width);
  v

let make width =
  if width <= 0 then invalid_arg "Bv: width must be positive";
  { width; limbs = Array.make (nlimbs width) 0L }

let zero width = make width

let one width =
  let v = make width in
  v.limbs.(0) <- 1L;
  normalize v

let ones width =
  let v = make width in
  Array.fill v.limbs 0 (Array.length v.limbs) (-1L);
  normalize v

let min_signed width =
  let v = make width in
  let n = Array.length v.limbs in
  let r = (width - 1) mod limb_bits in
  v.limbs.(n - 1) <- Int64.shift_left 1L r;
  v

let of_int64 ~width n =
  let v = make width in
  v.limbs.(0) <- n;
  (* Sign-extend a negative value across higher limbs so that of_int64 of a
     negative number gives the two's-complement wraparound. *)
  if Int64.compare n 0L < 0 then
    for i = 1 to Array.length v.limbs - 1 do
      v.limbs.(i) <- -1L
    done;
  normalize v

let of_int ~width n = of_int64 ~width (Int64.of_int n)

let of_bool b = of_int ~width:1 (if b then 1 else 0)

let get v i =
  if i < 0 || i >= v.width then invalid_arg "Bv.get: index out of range";
  let limb = v.limbs.(i / limb_bits) in
  Int64.logand (Int64.shift_right_logical limb (i mod limb_bits)) 1L = 1L

let set_bit v i b =
  let j = i / limb_bits and k = i mod limb_bits in
  let mask = Int64.shift_left 1L k in
  if b then v.limbs.(j) <- Int64.logor v.limbs.(j) mask
  else v.limbs.(j) <- Int64.logand v.limbs.(j) (Int64.lognot mask)

let of_bits bits =
  let w = Array.length bits in
  let v = make w in
  Array.iteri (fun i b -> if b then set_bit v i true) bits;
  v

let of_binary_string s =
  let digits =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> List.of_seq
  in
  if digits = [] then invalid_arg "Bv.of_binary_string: empty";
  let w = List.length digits in
  let v = make w in
  List.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set_bit v (w - 1 - i) true
      | _ -> invalid_arg "Bv.of_binary_string: non-binary digit")
    digits;
  v

let of_hex_string ~width s =
  let v = make width in
  let pos = ref 0 in
  String.iter
    (fun c ->
      if c <> '_' then begin
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> invalid_arg "Bv.of_hex_string: non-hex digit"
        in
        incr pos;
        ignore d
      end)
    s;
  let ndigits = !pos in
  let idx = ref 0 in
  String.iter
    (fun c ->
      if c <> '_' then begin
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> assert false
        in
        let digit_lo = (ndigits - 1 - !idx) * 4 in
        for b = 0 to 3 do
          let bit = digit_lo + b in
          if bit < width && d land (1 lsl b) <> 0 then set_bit v bit true
        done;
        incr idx
      end)
    s;
  v

let random st w =
  let v = make w in
  for i = 0 to Array.length v.limbs - 1 do
    v.limbs.(i) <- Random.State.int64 st Int64.max_int;
    if Random.State.bool st then v.limbs.(i) <- Int64.lognot v.limbs.(i)
  done;
  normalize v

let is_zero v = Array.for_all (fun l -> l = 0L) v.limbs

let msb v = get v (v.width - 1)

let to_int64 v =
  let ok = ref true in
  for i = 1 to Array.length v.limbs - 1 do
    if v.limbs.(i) <> 0L then ok := false
  done;
  if not !ok then failwith "Bv.to_int64: value exceeds 64 bits";
  v.limbs.(0)

let to_int_opt v =
  let rec high_clear i =
    i >= Array.length v.limbs || (v.limbs.(i) = 0L && high_clear (i + 1))
  in
  if not (high_clear 1) then None
  else
    let l = v.limbs.(0) in
    if Int64.compare l 0L >= 0 && Int64.compare l (Int64.of_int max_int) <= 0
    then Some (Int64.to_int l)
    else None

let to_int v =
  match to_int_opt v with
  | Some n -> n
  | None -> failwith "Bv.to_int: value out of int range"

let check_same_width op a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Bv.%s: width mismatch (%d vs %d)" op a.width b.width)

let equal a b = a.width = b.width && a.limbs = b.limbs

let compare a b =
  let c = Stdlib.compare a.width b.width in
  if c <> 0 then c
  else
    let rec go i =
      if i < 0 then 0
      else
        let c = Int64.unsigned_compare a.limbs.(i) b.limbs.(i) in
        if c <> 0 then c else go (i - 1)
    in
    go (Array.length a.limbs - 1)

let hash v = Hashtbl.hash v

let popcount v =
  let count64 x =
    let c = ref 0 in
    for i = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then incr c
    done;
    !c
  in
  Array.fold_left (fun acc l -> acc + count64 l) 0 v.limbs

(* Addition with carry propagation across limbs. *)
let add a b =
  check_same_width "add" a b;
  let v = make a.width in
  let carry = ref 0L in
  for i = 0 to Array.length v.limbs - 1 do
    let s = Int64.add a.limbs.(i) b.limbs.(i) in
    let s' = Int64.add s !carry in
    (* Unsigned overflow detection: s < a  or  s' < s when carry added. *)
    let c1 = if Int64.unsigned_compare s a.limbs.(i) < 0 then 1L else 0L in
    let c2 = if Int64.unsigned_compare s' s < 0 then 1L else 0L in
    v.limbs.(i) <- s';
    carry := Int64.add c1 c2
  done;
  normalize v

let lognot a =
  let v = make a.width in
  for i = 0 to Array.length v.limbs - 1 do
    v.limbs.(i) <- Int64.lognot a.limbs.(i)
  done;
  normalize v

let neg a = add (lognot a) (one a.width)

let sub a b =
  check_same_width "sub" a b;
  add a (neg b)

let map2 op a b =
  let v = make a.width in
  for i = 0 to Array.length v.limbs - 1 do
    v.limbs.(i) <- op a.limbs.(i) b.limbs.(i)
  done;
  normalize v

let logand a b = check_same_width "logand" a b; map2 Int64.logand a b
let logor a b = check_same_width "logor" a b; map2 Int64.logor a b
let logxor a b = check_same_width "logxor" a b; map2 Int64.logxor a b

(* Schoolbook multiplication over 32-bit half-limbs. *)
let mul a b =
  check_same_width "mul" a b;
  let n = Array.length a.limbs in
  let halves v =
    let h = Array.make (2 * n) 0L in
    for i = 0 to n - 1 do
      h.(2 * i) <- Int64.logand v.limbs.(i) 0xFFFFFFFFL;
      h.(2 * i + 1) <- Int64.shift_right_logical v.limbs.(i) 32
    done;
    h
  in
  let ha = halves a and hb = halves b in
  let acc = Array.make (2 * n) 0L in
  for i = 0 to (2 * n) - 1 do
    for j = 0 to (2 * n) - 1 - i do
      let p = Int64.mul ha.(i) hb.(j) in
      (* Add p into acc starting at half-position i+j with carries. *)
      let k = ref (i + j) in
      let carry = ref p in
      while !carry <> 0L && !k < 2 * n do
        let s = Int64.add acc.(!k) (Int64.logand !carry 0xFFFFFFFFL) in
        acc.(!k) <- Int64.logand s 0xFFFFFFFFL;
        carry :=
          Int64.add (Int64.shift_right_logical !carry 32)
            (Int64.shift_right_logical s 32);
        incr k
      done
    done
  done;
  let v = make a.width in
  for i = 0 to n - 1 do
    v.limbs.(i) <- Int64.logor acc.(2 * i) (Int64.shift_left acc.(2 * i + 1) 32)
  done;
  normalize v

let ult a b = check_same_width "ult" a b; compare a b < 0
let ule a b = check_same_width "ule" a b; compare a b <= 0

let slt a b =
  check_same_width "slt" a b;
  match (msb a, msb b) with
  | true, false -> true
  | false, true -> false
  | _ -> ult a b

let sle a b = slt a b || equal a b

let shl a k =
  if k < 0 then invalid_arg "Bv.shl: negative amount";
  let v = make a.width in
  if k < a.width then
    for i = 0 to a.width - 1 - k do
      if get a i then set_bit v (i + k) true
    done;
  v

let lshr a k =
  if k < 0 then invalid_arg "Bv.lshr: negative amount";
  let v = make a.width in
  if k < a.width then
    for i = k to a.width - 1 do
      if get a i then set_bit v (i - k) true
    done;
  v

let ashr a k =
  if k < 0 then invalid_arg "Bv.ashr: negative amount";
  let s = msb a in
  let v = make a.width in
  for i = 0 to a.width - 1 do
    let src = i + k in
    let bit = if src >= a.width then s else get a src in
    if bit then set_bit v i true
  done;
  v

let amount_of_bv b =
  (* Saturate at the width: any amount >= width behaves like width. *)
  match to_int_opt b with
  | Some n -> n
  | None -> max_int

let shift_sat op a b =
  let k = amount_of_bv b in
  if k >= a.width then op a a.width else op a k

(* [shl]/[lshr]/[ashr] by bitvector amounts; full (unsaturated) shift
   semantics as in SMT-LIB bvshl. *)
let shl_bv a b = shift_sat (fun a k -> if k >= a.width then zero a.width else shl a k) a b
let lshr_bv a b = shift_sat (fun a k -> if k >= a.width then zero a.width else lshr a k) a b

let ashr_bv a b =
  let k = amount_of_bv b in
  if k >= a.width then if msb a then ones a.width else zero a.width
  else ashr a k

let extract ~hi ~lo a =
  if lo < 0 || hi < lo || hi >= a.width then
    invalid_arg "Bv.extract: bad bounds";
  let v = make (hi - lo + 1) in
  for i = lo to hi do
    if get a i then set_bit v (i - lo) true
  done;
  v

let concat hi lo =
  let v = make (hi.width + lo.width) in
  for i = 0 to lo.width - 1 do
    if get lo i then set_bit v i true
  done;
  for i = 0 to hi.width - 1 do
    if get hi i then set_bit v (i + lo.width) true
  done;
  v

let zext a w =
  if w < a.width then invalid_arg "Bv.zext: smaller target width";
  if w = a.width then a
  else
    let v = make w in
    Array.blit a.limbs 0 v.limbs 0 (Array.length a.limbs);
    v

let sext a w =
  if w < a.width then invalid_arg "Bv.sext: smaller target width";
  if w = a.width then a
  else if not (msb a) then zext a w
  else begin
    let v = make w in
    Array.fill v.limbs 0 (Array.length v.limbs) (-1L);
    for i = 0 to a.width - 1 do
      set_bit v i (get a i)
    done;
    normalize v
  end

let redor v = not (is_zero v)
let redand v = equal v (ones v.width)

(* Long division by shift-and-subtract; adequate for the widths we use. *)
let udivrem a b =
  check_same_width "udiv" a b;
  if is_zero b then (ones a.width, a)
  else begin
    let q = make a.width in
    let r = ref (zero a.width) in
    for i = a.width - 1 downto 0 do
      r := shl !r 1;
      if get a i then r := logor !r (one a.width);
      if ule b !r then begin
        r := sub !r b;
        set_bit q i true
      end
    done;
    (q, !r)
  end

let udiv a b = fst (udivrem a b)
let urem a b = snd (udivrem a b)

let sdiv a b =
  check_same_width "sdiv" a b;
  let na = msb a and nb = msb b in
  let ua = if na then neg a else a and ub = if nb then neg b else b in
  if is_zero b then if na then one a.width else ones a.width
  else
    let q = udiv ua ub in
    if na <> nb then neg q else q

let srem a b =
  check_same_width "srem" a b;
  let na = msb a in
  let ua = if na then neg a else a and ub = if msb b then neg b else b in
  if is_zero b then a
  else
    let r = urem ua ub in
    if na then neg r else r

let to_signed_int v =
  if msb v then
    let m = neg v in
    match to_int_opt m with
    | Some n when n <= max_int -> -n
    | _ -> failwith "Bv.to_signed_int: out of range"
  else to_int v

let to_binary_string v =
  String.init v.width (fun i -> if get v (v.width - 1 - i) then '1' else '0')

let to_hex_string v =
  let ndigits = (v.width + 3) / 4 in
  String.init ndigits (fun i ->
      let digit_lo = (ndigits - 1 - i) * 4 in
      let d = ref 0 in
      for b = 3 downto 0 do
        let bit = digit_lo + b in
        if bit < v.width && get v bit then d := !d lor (1 lsl b)
      done;
      "0123456789abcdef".[!d])

let to_string v =
  if v.width <= 62 then Printf.sprintf "%d:%d" (to_int v) v.width
  else Printf.sprintf "0x%s:%d" (to_hex_string v) v.width

let pp fmt v = Format.pp_print_string fmt (to_string v)
