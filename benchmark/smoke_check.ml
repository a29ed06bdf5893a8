(* Smoke check of one workload against BENCHMARK.json:

     smoke_check SEPEBENCH BENCHMARK.json WORKLOAD

   Runs [SEPEBENCH --workload WORKLOAD --seed 1 --seconds 1] untraced and
   traced, and checks that every printed metric line parses, that the
   untraced run printed every end-to-end metric and the traced run every
   per-layer metric, each with its declared unit, both as a line and in
   the final JSON line, and that both runs were correct with fail_frac 0. *)

open Sepebench_lib
module Json = Sqed_obs.Json

let errors = ref []
let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt

let parse_json what text =
  match Json.parse text with
  | Ok j -> j
  | Error e ->
      Printf.eprintf "%s: invalid JSON: %s\n" what e;
      exit 1

let entries doc key =
  match Json.member key doc with Some (Json.List ms) -> ms | _ -> []

let field_string k m = Option.bind (Json.member k m) Json.to_string_opt

(* (name, unit) of each metric declared under [key]. *)
let declared doc key =
  List.filter_map
    (fun m ->
      match (field_string "name" m, field_string "unit" m) with
      | Some n, Some u -> Some (n, u)
      | _ -> None)
    (entries doc key)

let run_benchmark exe workload trace =
  let exe = if Filename.is_implicit exe then Filename.concat "." exe else exe in
  let args =
    [|
      exe; "--workload"; workload; "--seed"; "1"; "--seconds"; "1";
      "--trace"; trace;
    |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s --trace %s: nonzero exit" workload trace);
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)

let check_output ~what ~expected lines =
  match List.rev lines with
  | [] -> fail "%s: no output" what
  | result_line :: _ ->
      let result = parse_json what result_line in
      let field k = Json.member k result in
      if field "correct" <> Some (Json.Bool true) then
        fail "%s: not correct" what;
      if Option.bind (field "failed") Json.to_int_opt <> Some 0 then
        fail "%s: failed is not 0" what;
      (match Option.bind (field "attempted") Json.to_int_opt with
      | Some n when n >= 1 -> ()
      | _ -> fail "%s: attempted is not a positive count" what);
      let printed =
        List.filter_map
          (fun l ->
            if l == result_line || String.starts_with ~prefix:"#" l then None
            else
              match Stats.parse_line l with
              | Some m -> Some m
              | None ->
                  fail "%s: unparseable metric line %S" what l;
                  None)
          lines
      in
      let metrics = Option.value ~default:Json.Null (field "metrics") in
      List.iter
        (fun (name, unit) ->
          (match List.find_opt (fun (n, _, _) -> n = name) printed with
          | None -> fail "%s: %s not printed" what name
          | Some (_, _, u) when u <> unit ->
              fail "%s: %s printed in %s, declared in %s" what name u unit
          | Some _ -> ());
          match Json.member name metrics with
          | Some m
            when field_string "unit" m = Some unit
                 && Option.bind (Json.member "value" m) Json.to_float_opt
                    <> None ->
              ()
          | _ -> fail "%s: %s missing from the result line" what name)
        expected;
      if
        not (List.exists (fun (n, v, _) -> n = "fail_frac" && v = 0.0) printed)
      then fail "%s: fail_frac 0 not printed" what

let () =
  match Sys.argv with
  | [| _; exe; bench; workload |] ->
      let doc =
        parse_json bench (In_channel.with_open_bin bench In_channel.input_all)
      in
      if
        not
          (List.exists
             (fun m -> field_string "name" m = Some workload)
             (entries doc "workloads"))
      then fail "workload %s is not declared" workload;
      check_output ~what:(workload ^ " untraced")
        ~expected:(declared doc "end_to_end")
        (run_benchmark exe workload "0");
      check_output ~what:(workload ^ " traced")
        ~expected:(declared doc "per_layer")
        (run_benchmark exe workload "1");
      (match List.rev !errors with
      | [] -> Printf.printf "benchmark smoke: %s ok\n" workload
      | errs ->
          List.iter prerr_endline errs;
          exit 1)
  | _ ->
      prerr_endline "usage: smoke_check SEPEBENCH BENCHMARK.json WORKLOAD";
      exit 2
