(* Pure run-vs-run and run-vs-history comparison.

   The noise band is median +- max(k*MAD, rel_floor*|median|, abs_floor):
   MAD gives robustness against one outlier run in the history, the
   relative floor keeps a degenerate MAD (identical history values, or
   a 2-entry history) from flagging ordinary jitter, and the absolute
   floor stops sub-second experiments from tripping on scheduler noise. *)

type band = {
  bd_median : float;
  bd_mad : float;
  bd_lo : float;
  bd_hi : float;
  bd_n : int;
}

let median vs =
  match List.sort compare vs with
  | [] -> Float.nan
  | sorted ->
      let n = List.length sorted in
      if n land 1 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let band ?(k = 4.0) ?(rel_floor = 0.35) ?(abs_floor = 0.0) vs =
  match List.filter (fun v -> Float.is_finite v) vs with
  | [] -> None
  | vs ->
      let m = median vs in
      let mad = median (List.map (fun v -> abs_float (v -. m)) vs) in
      let half =
        Float.max (k *. mad) (Float.max (rel_floor *. abs_float m) abs_floor)
      in
      Some
        {
          bd_median = m;
          bd_mad = mad;
          bd_lo = m -. half;
          bd_hi = m +. half;
          bd_n = List.length vs;
        }

type verdict = Improved | Within | Regressed | Insufficient | Fresh

type delta = {
  dl_metric : string;
  dl_base : float;
  dl_cur : float;
  dl_band : band option;
  dl_verdict : verdict;
}

let delta_pct d =
  if Float.is_finite d.dl_base && d.dl_base <> 0.0 && Float.is_finite d.dl_cur
  then Some ((d.dl_cur -. d.dl_base) /. d.dl_base *. 100.0)
  else None

(* -- payload flattening --------------------------------------------------- *)

let metrics_of_payload j =
  let experiments =
    match Json.member "experiments" j with
    | Some (Json.List exps) ->
        List.concat_map
          (fun e ->
            match
              Option.bind (Json.member "name" e) Json.to_string_opt
            with
            | Some name ->
                List.filter_map
                  (fun key ->
                    Option.map
                      (fun v -> (Printf.sprintf "exp.%s.%s" name key, v))
                      (Option.bind (Json.member key e) Json.to_float_opt))
                  [ "wall_s"; "cpu_s"; "clauses"; "conflicts" ]
            | None -> [])
          exps
    | _ -> []
  in
  let run_wall =
    match Option.bind (Json.member "wall_s" j) Json.to_float_opt with
    | Some w -> [ ("run.wall_s", w) ]
    | None -> []
  in
  let registry prefix section =
    match Option.bind (Json.member "metrics" j) (Json.member section) with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (name, v) ->
            Option.map (fun f -> (prefix ^ name, f)) (Json.to_float_opt v))
          kvs
    | _ -> []
  in
  experiments @ run_wall
  @ registry "counter." "counters"
  @ registry "gauge." "gauges"

let gated name =
  name = "run.wall_s"
  || String.length name > 4
     && String.sub name 0 4 = "exp."

(* -- comparisons ---------------------------------------------------------- *)

let compare_runs ?(rel_floor = 0.35) ~base ~cur () =
  let base_metrics = metrics_of_payload base in
  List.map
    (fun (name, v) ->
      match List.assoc_opt name base_metrics with
      | None ->
          {
            dl_metric = name;
            dl_base = Float.nan;
            dl_cur = v;
            dl_band = None;
            dl_verdict = Fresh;
          }
      | Some b ->
          let verdict =
            if not (gated name) then Within
            else if v > b +. (rel_floor *. abs_float b) then Regressed
            else if v < b -. (rel_floor *. abs_float b) then Improved
            else Within
          in
          {
            dl_metric = name;
            dl_base = b;
            dl_cur = v;
            dl_band = None;
            dl_verdict = verdict;
          })
    (metrics_of_payload cur)

let last_n n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

(* The history floor is wider than the A/B one: fig3 --fast wall spans
   39-54s across identical same-machine runs (worse under CI load), and
   with a short history MAD is too small to absorb that, so the relative
   floor alone must cover the documented jitter with margin. *)
let compare_history ?k ?(rel_floor = 0.6) ?(abs_floor = 1.0) ?(window = 20)
    ?(min_history = 2) ~history ~cur () =
  let history = List.map metrics_of_payload (last_n window history) in
  List.map
    (fun (name, v) ->
      let baseline = List.filter_map (List.assoc_opt name) history in
      match band ?k ~rel_floor ~abs_floor baseline with
      | None ->
          {
            dl_metric = name;
            dl_base = Float.nan;
            dl_cur = v;
            dl_band = None;
            dl_verdict = Fresh;
          }
      | Some b ->
          let verdict =
            if b.bd_n < min_history then Insufficient
            else if v > b.bd_hi then Regressed
            else if v < b.bd_lo then Improved
            else Within
          in
          {
            dl_metric = name;
            dl_base = b.bd_median;
            dl_cur = v;
            dl_band = Some b;
            dl_verdict = verdict;
          })
    (metrics_of_payload cur)

let regressions ds =
  List.filter (fun d -> gated d.dl_metric && d.dl_verdict = Regressed) ds

(* -- rendering ------------------------------------------------------------ *)

let verdict_name = function
  | Improved -> "improved"
  | Within -> "within"
  | Regressed -> "REGRESSED"
  | Insufficient -> "insufficient-history"
  | Fresh -> "new"

let fmt_v v =
  if not (Float.is_finite v) then "-"
  else if abs_float v >= 1e6 then Printf.sprintf "%.3g" v
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f" v

let to_string d =
  let pct =
    match delta_pct d with
    | Some p -> Printf.sprintf "%+6.1f%%" p
    | None -> "      -"
  in
  let band_str =
    match d.dl_band with
    | Some b ->
        Printf.sprintf " band [%s, %s] over %d" (fmt_v b.bd_lo) (fmt_v b.bd_hi)
          b.bd_n
    | None -> ""
  in
  Printf.sprintf "%-28s %12s -> %12s %s  %s%s" d.dl_metric (fmt_v d.dl_base)
    (fmt_v d.dl_cur) pct (verdict_name d.dl_verdict) band_str
