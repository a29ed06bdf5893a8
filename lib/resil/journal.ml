module Json = Sqed_obs.Json
module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace
module Jsonl = Sqed_obs.Jsonl

let m_records = Metrics.counter "resil.checkpoint.records"
let m_resumed = Metrics.counter "resil.checkpoint.resumed"
let m_torn = Metrics.counter "resil.checkpoint.torn_lines"
let m_errors = Metrics.counter "resil.checkpoint.errors"

type t = {
  w : Jsonl.writer;
  table : (string, Json.t) Hashtbl.t;
  mutex : Mutex.t;
}

let open_ path =
  let lines, torn = Jsonl.load path in
  let table = Hashtbl.create 64 in
  (* A line that is not a {key, result} record counts as torn too.  Only
     the trailing line can legitimately be torn (a crash mid-append), but
     we tolerate (and count) any bad line rather than refuse to resume. *)
  let resumed, torn =
    List.fold_left
      (fun (resumed, torn) j ->
        match (Json.member "key" j, Json.member "result" j) with
        | Some (Json.String k), Some r ->
            Hashtbl.replace table k r;
            (resumed + 1, torn)
        | _ -> (resumed, torn + 1))
      (0, torn) lines
  in
  Metrics.add_always m_resumed resumed;
  Metrics.add_always m_torn torn;
  if torn > 0 then
    Trace.warn "resil.checkpoint.torn"
      [ ("path", Trace.Str path); ("lines", Trace.I torn) ];
  if resumed > 0 then
    Trace.info "resil.checkpoint.resumed"
      [ ("path", Trace.Str path); ("entries", Trace.I resumed) ];
  { w = Jsonl.open_writer path; table; mutex = Mutex.create () }

let mem t key = Mutex.protect t.mutex (fun () -> Hashtbl.mem t.table key)
let find t key =
  Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.table key)

let record t key result =
  (* Fault site first: an injected append failure must leave the
     in-memory table unchanged, like a real write error would. *)
  Fault.check "checkpoint.write";
  Mutex.protect t.mutex (fun () ->
      Jsonl.write t.w
        (Json.Obj [ ("key", Json.String key); ("result", result) ]);
      Hashtbl.replace t.table key result;
      Metrics.add_always m_records 1)

let try_record t key result =
  match record t key result with
  | () -> Ok ()
  | exception e ->
      Metrics.add_always m_errors 1;
      Trace.warn "resil.checkpoint.write_failed"
        [ ("key", Trace.Str key); ("error", Trace.Str (Printexc.to_string e)) ];
      Error (Printexc.to_string e)

let entries t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.table)
let close t = Mutex.protect t.mutex (fun () -> Jsonl.close t.w)
