module Json = Sqed_obs.Json
module Metrics = Sqed_obs.Metrics
module Log = Sqed_obs.Log

let m_records = Metrics.counter "resil.checkpoint.records"
let m_resumed = Metrics.counter "resil.checkpoint.resumed"
let m_torn = Metrics.counter "resil.checkpoint.torn_lines"
let m_errors = Metrics.counter "resil.checkpoint.errors"

type t = {
  oc : out_channel;
  table : (string, Json.t) Hashtbl.t;
  mutex : Mutex.t;
}

let parse_line line =
  match Json.parse line with
  | Ok j -> (
      match (Json.member "key" j, Json.member "result" j) with
      | Some (Json.String k), Some r -> Some (k, r)
      | _ -> None)
  | Error _ -> None

let load_existing table path =
  let resumed = ref 0 and torn = ref 0 in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            if String.trim line <> "" then
              match parse_line line with
              | Some (k, r) ->
                  Hashtbl.replace table k r;
                  incr resumed;
                  Metrics.add_always m_resumed 1
              | None ->
                  (* Torn or corrupt line — a crash mid-append.  Only
                     the trailing line can legitimately be torn, but we
                     tolerate (and count) any bad line rather than
                     refuse to resume. *)
                  incr torn;
                  Metrics.add_always m_torn 1
          done
        with End_of_file -> ())
  end;
  (!resumed, !torn)

let open_ path =
  let table = Hashtbl.create 64 in
  let resumed, torn = load_existing table path in
  if torn > 0 then
    Log.warn "resil.checkpoint.torn"
      [ ("path", Log.Str path); ("lines", Log.I torn) ];
  if resumed > 0 then
    Log.info "resil.checkpoint.resumed"
      [ ("path", Log.Str path); ("entries", Log.I resumed) ];
  (* After a torn last line, start a fresh one so the next record does
     not fuse onto the torn bytes. *)
  let fresh_line = Sqed_obs.History.ends_with_newline path in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  if not fresh_line then begin
    output_char oc '\n';
    flush oc
  end;
  { oc; table; mutex = Mutex.create () }

let mem t key =
  Mutex.lock t.mutex;
  let r = Hashtbl.mem t.table key in
  Mutex.unlock t.mutex;
  r

let find t key =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.table key in
  Mutex.unlock t.mutex;
  r

let record t key result =
  (* Fault site first: an injected append failure must leave the
     in-memory table unchanged, like a real write error would. *)
  Fault.check "checkpoint.write";
  let line =
    Json.to_string (Json.Obj [ ("key", Json.String key); ("result", result) ])
  in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      (* One write + flush per line: with O_APPEND a line this short is
         atomic in practice, and flushing bounds loss to the last line. *)
      output_string t.oc (line ^ "\n");
      flush t.oc;
      Hashtbl.replace t.table key result;
      Metrics.add_always m_records 1)

let try_record t key result =
  match record t key result with
  | () -> Ok ()
  | exception e ->
      Metrics.add_always m_errors 1;
      Log.warn "resil.checkpoint.write_failed"
        [ ("key", Log.Str key); ("error", Log.Str (Printexc.to_string e)) ];
      Error (Printexc.to_string e)

let entries t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mutex;
  n

let close t =
  Mutex.lock t.mutex;
  close_out_noerr t.oc;
  Mutex.unlock t.mutex
