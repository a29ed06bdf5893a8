module Json = Sqed_obs.Json
module Trace = Sqed_obs.Trace
module Progress = Sqed_obs.Progress
module Report = Sqed_obs.Report
module Journal = Sqed_resil.Journal
module Verdict = Sqed_resil.Verdict

type 'b codec = { encode : 'b -> Json.t; decode : Json.t -> 'b option }

let note key status detail dur =
  Report.note_case
    { Report.rc_key = key; rc_status = status; rc_detail = detail; rc_dur = dur }

let run ?pool ?jobs ?task_budget ?checkpoint
    ?(detail = fun _ -> "ok") ~key label f tasks =
  let journal =
    Option.map (fun (path, codec) -> (Journal.open_ path, codec)) checkpoint
  in
  let resumed task =
    Option.bind journal (fun (j, codec) ->
        Option.bind (Journal.find j (key task)) codec.decode)
  in
  let tasks = List.map (fun task -> (task, resumed task)) tasks in
  let to_run =
    List.filter_map
      (fun (task, r) -> if Option.is_none r then Some task else None)
      tasks
  in
  let n_resumed = List.length tasks - List.length to_run in
  if n_resumed > 0 then
    Printf.printf "checkpoint: resuming, %d of %d cases already journaled\n%!"
      n_resumed (List.length tasks);
  let jobs =
    match pool with
    | Some p -> Pool.jobs p
    | None -> Option.value jobs ~default:(Pool.default_jobs ())
  in
  Trace.info (label ^ ".start")
    [
      ("tasks", Trace.I (List.length tasks));
      ("resumed", Trace.I n_resumed);
      ("jobs", Trace.I jobs);
    ];
  (* Journal inside the task (workers record concurrently; the journal is
     mutex-protected), so a crash mid-campaign loses at most the tasks in
     flight. *)
  let durs = Array.make (List.length to_run) 0.0 in
  let run_one (i, task) =
    let t0 = Unix.gettimeofday () in
    let v =
      Fun.protect
        ~finally:(fun () ->
          durs.(i) <- durs.(i) +. (Unix.gettimeofday () -. t0))
        (fun () -> f task)
    in
    (match (v, journal) with
    | Verdict.Ok b, Some (j, codec) -> (
        match Journal.try_record j (key task) (codec.encode b) with
        | Ok () -> ()
        | Error msg ->
            Printf.printf "checkpoint: write failed for %s (%s); continuing\n%!"
              (key task) msg)
    | _ -> ());
    v
  in
  let go p =
    Pool.map_result p run_one
      (List.mapi (fun i task -> (i, task)) to_run)
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Option.iter (fun (j, _) -> Journal.close j) journal)
      (fun () ->
        Progress.with_campaign ?task_budget ~jobs ~total:(List.length to_run)
          label (fun () ->
            match pool with
            | Some p -> go p
            | None -> Pool.with_pool ~jobs go))
  in
  let computed =
    List.mapi
      (fun i (task, outcome) ->
        let v =
          match outcome with
          | Ok v -> v
          | Error (e : Pool.task_error) ->
              let msg = Printf.sprintf "%s (attempts: %d)" e.error e.attempts in
              if e.exhausted then Verdict.Unknown msg else Verdict.Failed msg
        in
        let k = key task in
        (match v with
        | Verdict.Ok b -> note k Report.Ok (detail b) durs.(i)
        | Verdict.Unknown msg ->
            Printf.printf "UNKNOWN %s: %s\n%!" k msg;
            note k Report.Unknown msg durs.(i)
        | Verdict.Failed msg ->
            Printf.printf "FAILED  %s: %s\n%!" k msg;
            note k Report.Failed msg durs.(i));
        v)
      (List.combine to_run outcomes)
  in
  let rest = ref computed in
  let verdicts =
    List.map
      (fun (task, r) ->
        match r with
        | Some b ->
            note (key task) Report.Skipped "resumed from checkpoint" 0.0;
            Verdict.Ok b
        | None ->
            let v = List.hd !rest in
            rest := List.tl !rest;
            v)
      tasks
  in
  let summary = Verdict.count ~skipped:n_resumed computed in
  Trace.info (label ^ ".done")
    [
      ("ok", Trace.I summary.Verdict.ok);
      ("unknown", Trace.I summary.Verdict.unknown);
      ("failed", Trace.I summary.Verdict.failed);
      ("skipped", Trace.I summary.Verdict.skipped);
    ];
  (verdicts, summary)
