(* Run-to-run spread of the benchmark's metrics, for the noise study:

     spread A.jsonl [B.jsonl]

   Each file holds the result lines (the last line of the output) of runs
   of one workload.  Prints, per metric, the median and the distance
   between the quartiles as a share of the median; with a second set, also
   how far its median moved from the first one's. *)

open Sepebench_lib
module Json = Sqed_obs.Json

let load path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.concat_map (fun line ->
         let parsed = Result.to_option (Json.parse line) in
         match Option.bind parsed (Json.member "metrics") with
         | Some (Json.Obj ms) ->
             List.filter_map
               (fun (name, m) ->
                 Option.map (fun v -> (name, v))
                   (Option.bind (Json.member "value" m) Json.to_float_opt))
               ms
         | _ ->
             Printf.eprintf "%s: not a result line: %s\n" path line;
             exit 1)

let values runs name =
  List.filter_map (fun (n, v) -> if n = name then Some v else None) runs

let () =
  let sets = List.map load (List.tl (Array.to_list Sys.argv)) in
  match sets with
  | [] | _ :: _ :: _ :: _ ->
      prerr_endline "usage: spread A.jsonl [B.jsonl]";
      exit 2
  | a :: rest ->
      let names = List.sort_uniq compare (List.map fst a) in
      Printf.printf "%-22s %4s %14s %9s%s\n" "metric" "n" "median" "iqr/med"
        (if rest = [] then "" else "  B med/A med - 1");
      List.iter
        (fun name ->
          let xs = values a name in
          let q1, med, q3 = Stats.quartiles xs in
          let rel = if med = 0.0 then 0.0 else (q3 -. q1) /. med in
          let shift =
            match rest with
            | [ b ] when values b name <> [] && med <> 0.0 ->
                Printf.sprintf "  %+.3f"
                  ((Stats.median (values b name) /. med) -. 1.0)
            | _ -> ""
          in
          Printf.printf "%-22s %4d %14.6g %9.3f%s\n" name (List.length xs) med
            rel shift)
        names
