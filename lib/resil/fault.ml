module Metrics = Sqed_obs.Metrics

let m_injected = Metrics.counter "resil.faults_injected"

exception Injected of string

type schedule =
  | Nth of int                    (* fire on exactly the n-th check *)
  | Every of int * int            (* fire on the n-th, then every m-th *)
  | Prob of int * int ref         (* percent, mutable xorshift state *)

type site = { mutable count : int; mutable sched : schedule }

(* [armed] is the fast-path gate: a single load when injection is off.
   Everything behind it is mutex-protected because worker domains hit
   sites concurrently. *)
let armed = ref false
let mutex = Mutex.create ()
let sites : (string, site) Hashtbl.t = Hashtbl.create 7
let env_read = ref false

let parse_clause clause =
  match String.index_opt clause ':' with
  | None | Some 0 ->
      invalid_arg (Printf.sprintf "fault spec %S: want site:N" clause)
  | Some i ->
      let name = String.sub clause 0 i in
      let arg = String.sub clause (i + 1) (String.length clause - i - 1) in
      let fail () =
        invalid_arg
          (Printf.sprintf "fault spec %S: want N, N/M or pP@S" clause)
      in
      let sched =
        if String.length arg > 0 && arg.[0] = 'p' then
          match
            String.split_on_char '@'
              (String.sub arg 1 (String.length arg - 1))
          with
          | [ p; s ] -> (
              match (int_of_string_opt p, int_of_string_opt s) with
              | Some p, Some s when p >= 0 && p <= 100 ->
                  (* Mix the seed so seed 0 still produces a live state. *)
                  Prob (p, ref (s lxor 0x9E3779B9))
              | _ -> fail ())
          | _ -> fail ()
        else
          match String.split_on_char '/' arg with
          | [ n ] -> (
              match int_of_string_opt n with
              | Some n when n >= 1 -> Nth n
              | _ -> fail ())
          | [ n; m ] -> (
              match (int_of_string_opt n, int_of_string_opt m) with
              | Some n, Some m when n >= 1 && m >= 1 -> Every (n, m)
              | _ -> fail ())
          | _ -> fail ()
      in
      (name, sched)

let configure spec =
  let parsed =
    if String.trim spec = "" then []
    else
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map parse_clause
  in
  Mutex.lock mutex;
  Hashtbl.reset sites;
  List.iter
    (fun (name, sched) -> Hashtbl.replace sites name { count = 0; sched })
    parsed;
  armed := parsed <> [];
  env_read := true;
  Mutex.unlock mutex

let load_env () =
  if not !env_read then begin
    env_read := true;
    match Sys.getenv_opt "SEPE_FAULT" with
    | Some spec when String.trim spec <> "" -> configure spec
    | _ -> ()
  end

let active () =
  load_env ();
  !armed

(* Deterministic per-site xorshift for the probabilistic form. *)
let next_prob st =
  let x = !st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) in
  let x = x land 0x3FFFFFFF in
  st := x;
  x mod 100

let check name =
  if not !env_read then load_env ();
  if !armed then begin
    Mutex.lock mutex;
    let fire =
      match Hashtbl.find_opt sites name with
      | None -> false
      | Some s ->
          s.count <- s.count + 1;
          (match s.sched with
          | Nth n -> s.count = n
          | Every (n, m) -> s.count >= n && (s.count - n) mod m = 0
          | Prob (p, st) -> next_prob st < p)
    in
    if fire then Metrics.add_always m_injected 1;
    Mutex.unlock mutex;
    if fire then begin
      Sqed_obs.Trace.warn "resil.fault.injected"
        [ ("site", Sqed_obs.Trace.Str name) ];
      raise (Injected name)
    end
  end

let reset () =
  Mutex.lock mutex;
  Hashtbl.reset sites;
  armed := false;
  env_read := true;
  Mutex.unlock mutex
