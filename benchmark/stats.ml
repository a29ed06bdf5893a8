(* Order statistics and the metric-line format shared by the benchmark,
   its smoke check and its tests. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so numbers quoted from a Python
   analysis of the printed metrics match the ones computed here. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = i * (n + 1) in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = float_of_int (m - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* The highest whole percentile that still has [tail] samples above it:
   a tail percentile read off fewer samples is noise, not a measurement.
   [None] when [n] samples cannot leave [tail] above any percentile. *)
let high_percentile ~tail n =
  if n < tail + 1 then None else Some (100 * (n - tail) / n)

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* One metric per line, [name value unit]; the value keeps every digit
   the measurement has. *)
let format_line (name, value, unit) =
  Printf.sprintf "%s %.17g %s" name value unit

let parse_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ name; value; unit ] when valid_name name && unit <> "" -> (
      match float_of_string_opt value with
      | Some v when Float.is_finite v -> Some (name, v, unit)
      | _ -> None)
  | _ -> None
