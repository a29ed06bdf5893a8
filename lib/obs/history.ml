(* Append-only JSONL run ledger on the Jsonl store shared with the resil
   checkpoint journal.  It lives in lib/obs because the report renderer
   and the diff engine both read it. *)

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

let append = Jsonl.append

type loaded = { entries : Json.t list; dropped : int }

let load path =
  let lines, torn = Jsonl.load path in
  let entries =
    List.filter
      (fun j -> Json.member "schema" j = Some (Json.String schema))
      lines
  in
  { entries; dropped = torn + List.length lines - List.length entries }

(* -- accessors ----------------------------------------------------------- *)

let run_of e = Json.member "run" e

let config_of e =
  Option.bind (Json.member "provenance" e) (Json.member "config")

(* Provenance keys of retired knobs, each with the test that an old
   entry's value (given its whole config) names the behaviour that is now
   the only one.  Such a key is dropped before comparing; any other value
   keeps it, so the entry matches no current one.
   - ["aig": true]: the AIG bit-blasting path, once beside a
     direct-Tseitin one.
   - ["portfolio_deterministic"]: the round-robin portfolio scheduler,
     used by every run that set it and by every run at width 1 (no
     portfolio).  [false] at a width above 1 ran a parallel race. *)
let retired_keys =
  [
    ("aig", fun _ v -> v = Json.Bool true);
    ( "portfolio_deterministic",
      fun fields v ->
        v = Json.Bool true
        || List.assoc_opt "portfolio" fields = Some (Json.Int 1) );
  ]

let without_retired = function
  | Json.Obj fields ->
      let retired (k, v) =
        match List.assoc_opt k retired_keys with
        | Some still_current -> still_current fields v
        | None -> false
      in
      Json.Obj (List.filter (fun f -> not (retired f)) fields)
  | j -> j

let compatible a b =
  match (config_of a, config_of b) with
  | Some ca, Some cb -> without_retired ca = without_retired cb
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
