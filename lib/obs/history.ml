(* Append-only JSONL run ledger.

   Same crash-safety contract as the resil checkpoint journal (one
   flushed line per record, torn tail tolerated on load) but living in
   lib/obs because the report renderer and the diff engine both read
   it, and lib/resil already links against this library. *)

let schema = "sepe.ledger/1"

(* -- provenance ---------------------------------------------------------- *)

(* First line of a subprocess, or None when it fails to run, exits
   nonzero, or prints nothing.  Used only at entry-build time (once per
   run), so the fork cost is irrelevant. *)
let read_cmd cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> None
  with _ -> None

let git_stamp () =
  match read_cmd "git rev-parse --short HEAD 2>/dev/null" with
  | None -> (Json.String "unknown", Json.Null)
  | Some commit ->
      let dirty =
        match read_cmd "git status --porcelain -uno 2>/dev/null" with
        | Some line when line <> "" -> true
        | _ -> false
      in
      (Json.String commit, Json.Bool dirty)

let provenance ~config () =
  let commit, dirty = git_stamp () in
  Json.Obj
    [
      ("git_commit", commit);
      ("git_dirty", dirty);
      ("hostname", Json.String (try Unix.gethostname () with _ -> "unknown"));
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("config", Json.Obj config);
    ]

let entry ~kind ~label ~provenance ~run =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("kind", Json.String kind);
      ("label", Json.String label);
      ("recorded_unix_s", Json.Float (Unix.gettimeofday ()));
      ("provenance", provenance);
      ("run", run);
    ]

(* -- file ---------------------------------------------------------------- *)

(* A crash can leave the file without a trailing newline (a torn last
   line); appending straight after it would fuse the next record onto
   the torn bytes and corrupt it too. *)
let ends_with_newline path =
  if not (Sys.file_exists path) then true
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        len = 0
        ||
        (seek_in ic (len - 1);
         input_char ic = '\n'))
  end

let append path e =
  let fresh_line = ends_with_newline path in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      if not fresh_line then output_char oc '\n';
      output_string oc (Json.to_string e);
      output_char oc '\n';
      flush oc)

type loaded = { entries : Json.t list; dropped : int }

let load path =
  if not (Sys.file_exists path) then { entries = []; dropped = 0 }
  else begin
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let lines =
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.trim l <> "")
    in
    let entries, dropped =
      List.fold_left
        (fun (acc, dropped) line ->
          match Json.parse line with
          | Ok (Json.Obj _ as j)
            when Json.member "schema" j = Some (Json.String schema) ->
              (j :: acc, dropped)
          | Ok _ | Error _ -> (acc, dropped + 1))
        ([], 0) lines
    in
    { entries = List.rev entries; dropped }
  end

(* -- accessors ----------------------------------------------------------- *)

let run_of e = Json.member "run" e

let config_of e =
  Option.bind (Json.member "provenance" e) (Json.member "config")

(* Entries written while the bit-blaster still had a direct-Tseitin
   alternative carry ["aig": true]; every such run used the AIG path
   that is now the only one, so the key is dropped before comparing. *)
let without_legacy_aig = function
  | Json.Obj fields ->
      Json.Obj (List.filter (fun f -> f <> ("aig", Json.Bool true)) fields)
  | j -> j

let compatible a b =
  match (config_of a, config_of b) with
  | Some ca, Some cb -> without_legacy_aig ca = without_legacy_aig cb
  | _ -> false

let summary_line idx e =
  let str k d =
    match Option.bind (Json.member k e) Json.to_string_opt with
    | Some s -> s
    | None -> d
  in
  let ts =
    match Option.bind (Json.member "recorded_unix_s" e) Json.to_float_opt with
    | Some t ->
        let tm = Unix.gmtime t in
        Printf.sprintf "%04d-%02d-%02dT%02d:%02dZ" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    | None -> "????-??-??"
  in
  let prov k =
    match
      Option.bind (Json.member "provenance" e) (fun p ->
          Option.bind (Json.member k p) Json.to_string_opt)
    with
    | Some s -> s
    | None -> "?"
  in
  let dirty =
    match
      Option.bind (Json.member "provenance" e) (Json.member "git_dirty")
    with
    | Some (Json.Bool true) -> "+"
    | _ -> ""
  in
  (* Headline wall: the flight payload's wall_s, else the sum of the
     bench payload's per-experiment walls. *)
  let wall =
    match run_of e with
    | None -> None
    | Some run -> (
        match Option.bind (Json.member "wall_s" run) Json.to_float_opt with
        | Some w -> Some w
        | None -> (
            match Json.member "experiments" run with
            | Some (Json.List exps) ->
                Some
                  (List.fold_left
                     (fun acc x ->
                       match
                         Option.bind (Json.member "wall_s" x) Json.to_float_opt
                       with
                       | Some w -> acc +. w
                       | None -> acc)
                     0.0 exps)
            | _ -> None))
  in
  Printf.sprintf "%3d  %s  %-5s %-18s %s%s  %s" idx ts (str "kind" "?")
    (str "label" "?") (prov "git_commit") dirty
    (match wall with Some w -> Printf.sprintf "%8.1fs" w | None -> "       -")
