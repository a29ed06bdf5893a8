(* The flight recorder: spans, log points and samples in one per-domain
   ring; see trace.mli.

   Each domain appends to its own [Ring] (registered so it outlives the
   domain), so recording takes no lock; the views merge and sort at the
   end.  The sink is the only shared mutable channel and is written
   under a mutex. *)

type level = Debug | Info | Warn | Error
type field = Str of string | I of int | F of float | B of bool

type sample = {
  sm_conflicts_s : float;
  sm_props_s : float;
  sm_learnts : int;
  sm_aig_nodes : int;
  sm_heap_words : int;
}

type body =
  | Span of {
      cat : string;
      dur : float;
      depth : int;
      args : (string * string) list;
    }
  | Point of { level : level; fields : (string * field) list }
  | Sample of sample

type entry = { ts : float; dom : int; name : string; body : body }

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : float;
  ev_dur : float;
  ev_tid : int;
  ev_depth : int;
  ev_args : (string * string) list;
}

let enabled = ref false
let sampling = ref false
let interval_us = ref 50_000
let set_interval_us n = interval_us := max 0 n

let m_trace_dropped = Metrics.counter "obs.trace.dropped"
let m_log_dropped = Metrics.counter "obs.log.dropped"
let m_records = Metrics.counter "obs.log.records"
let m_samples = Metrics.counter "obs.sampler.samples"

(* -- per-domain state ------------------------------------------------------ *)

(* One capacity for every kind.  The ring overwrites its *oldest* entry
   once full (Perfetto's ring mode): a long synthesis phase must not
   evict the short BMC phase that runs after it.  Overwrites are counted
   per kind as they happen, so a payload built before the export
   already sees them. *)
let ring_capacity = 200_000
let span_drops = Atomic.make 0
let point_drops = Atomic.make 0

let count_drop e =
  match e.body with
  | Span _ ->
      Atomic.incr span_drops;
      Metrics.add_always m_trace_dropped 1
  | Point _ ->
      Atomic.incr point_drops;
      Metrics.add_always m_log_dropped 1
  | Sample _ -> ()

type dstate = {
  d_dom : int;
  d_ring : entry Ring.t;
  mutable d_depth : int; (* open spans *)
  (* Latest live values reported by the owning hot loops. *)
  mutable d_conflicts : int;
  mutable d_props : int;
  mutable d_learnts : int;
  mutable d_aig : int;
  (* Previous sample, for rates; [d_prev_ts = 0.] until the first. *)
  mutable d_prev_ts : float; (* seconds, absolute *)
  mutable d_prev_conflicts : int;
  mutable d_prev_props : int;
}

let states =
  Ring.per_domain (fun () ->
      {
        d_dom = (Domain.self () :> int);
        d_ring = Ring.create ~on_drop:count_drop ring_capacity;
        d_depth = 0;
        d_conflicts = 0;
        d_props = 0;
        d_learnts = 0;
        d_aig = 0;
        d_prev_ts = 0.0;
        d_prev_conflicts = 0;
        d_prev_props = 0;
      })

let state_key = Ring.key states

let record d ~ts name body =
  let e = { ts = Ring.stamp ts; dom = d.d_dom; name; body } in
  Ring.push d.d_ring e;
  e

(* -- spans ----------------------------------------------------------------- *)

type kind = { k_name : string; k_cat : string; k_timer : Metrics.timer }

let kind ?(cat = "sepe") name =
  { k_name = name; k_cat = cat; k_timer = Metrics.timer name }

let span_with ~name ~cat ~timer ~args f =
  let metrics_on = !Metrics.enabled in
  let tracing_on = !enabled in
  if not (metrics_on || tracing_on) then f ()
  else begin
    let d = if tracing_on then Some (Domain.DLS.get state_key) else None in
    (match d with Some d -> d.d_depth <- d.d_depth + 1 | None -> ());
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dur = (Unix.gettimeofday () -. t0) *. 1e6 in
        if metrics_on then Metrics.timer_add timer dur;
        match d with
        | Some d ->
            d.d_depth <- d.d_depth - 1;
            let span = Span { cat; dur; depth = d.d_depth; args } in
            ignore (record d ~ts:t0 name span)
        | None -> ())
      f
  end

let with_span ?(args = []) k f =
  span_with ~name:k.k_name ~cat:k.k_cat ~timer:k.k_timer ~args f

let with_span_named ?(cat = "sepe") name f =
  if not (!Metrics.enabled || !enabled) then f ()
  else span_with ~name ~cat ~timer:(Metrics.timer name) ~args:[] f

(* -- points ---------------------------------------------------------------- *)

let int_of_level = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

(* Points at [capture_level] or above are recorded.  Info+ is always on
   (a crash must have something to dump); the threshold drops to Debug
   only while a Debug sink is attached. *)
let capture_level = ref (int_of_level Info)
let logs lvl = int_of_level lvl >= !capture_level

let sink_mu = Mutex.create ()
let sink : out_channel option ref = ref None
let sink_is_std = ref false
let sink_level = ref (int_of_level Info)

let field_json = function
  | Str s -> Json.String s
  | I n -> Json.Int n
  | F x -> Json.Float x
  | B b -> Json.Bool b

let sample_json ts s =
  Json.Obj
    [
      ("ts_us", Json.Float ts);
      ("conflicts_s", Json.Float s.sm_conflicts_s);
      ("props_s", Json.Float s.sm_props_s);
      ("learnts", Json.Int s.sm_learnts);
      ("aig_nodes", Json.Int s.sm_aig_nodes);
      ("heap_words", Json.Int s.sm_heap_words);
    ]

let to_json e =
  match e.body with
  | Span { cat; dur; depth; args } ->
      Json.Obj
        [
          ("name", Json.String e.name);
          ("cat", Json.String cat);
          ("ph", Json.String "X");
          ("ts", Json.Float e.ts);
          ("dur", Json.Float dur);
          ("pid", Json.Int 0);
          ("tid", Json.Int e.dom);
          ( "args",
            Json.Obj
              (("depth", Json.String (string_of_int depth))
              :: List.map (fun (k, v) -> (k, Json.String v)) args) );
        ]
  | Point { level; fields } ->
      Json.Obj
        [
          ("ts_us", Json.Float e.ts);
          ("dom", Json.Int e.dom);
          ("level", Json.String (level_name level));
          ("ev", Json.String e.name);
          ( "fields",
            Json.Obj (List.map (fun (k, v) -> (k, field_json v)) fields) );
        ]
  | Sample s -> sample_json e.ts s

let output_line oc e =
  output_string oc (Json.to_string (to_json e));
  output_char oc '\n'

let close_locked () =
  match !sink with
  | Some oc -> if !sink_is_std then flush oc else close_out_noerr oc
  | None -> ()

let set_sink ?(level = Info) path =
  Mutex.protect sink_mu (fun () ->
      close_locked ();
      let oc, std =
        if path = "-" then (stderr, true) else (open_out path, false)
      in
      sink := Some oc;
      sink_is_std := std;
      sink_level := int_of_level level;
      capture_level := min !capture_level (int_of_level level))

let close_sink () =
  Mutex.protect sink_mu (fun () ->
      close_locked ();
      sink := None;
      sink_level := int_of_level Info;
      capture_level := int_of_level Info)

let emit level name fields =
  let li = int_of_level level in
  if li >= !capture_level then begin
    let d = Domain.DLS.get state_key and now = Unix.gettimeofday () in
    let e = record d ~ts:now name (Point { level; fields }) in
    Metrics.add_always m_records 1;
    if !sink <> None && li >= !sink_level then
      Mutex.protect sink_mu (fun () ->
          match !sink with
          | Some oc ->
              output_line oc e;
              if li >= int_of_level Warn then flush oc
          | None -> ())
  end

let debug ev fields = emit Debug ev fields
let info ev fields = emit Info ev fields
let warn ev fields = emit Warn ev fields
let error ev fields = emit Error ev fields

(* -- samples --------------------------------------------------------------- *)

let sample_now d now =
  let dt = now -. d.d_prev_ts in
  let rate cur prev =
    if d.d_prev_ts = 0.0 || dt <= 0.0 then 0.0
    else float_of_int (cur - prev) /. dt
  in
  let s =
    {
      sm_conflicts_s = rate d.d_conflicts d.d_prev_conflicts;
      sm_props_s = rate d.d_props d.d_prev_props;
      sm_learnts = d.d_learnts;
      sm_aig_nodes = d.d_aig;
      sm_heap_words = (Gc.quick_stat ()).Gc.heap_words;
    }
  in
  ignore (record d ~ts:now "sample" (Sample s));
  d.d_prev_ts <- now;
  d.d_prev_conflicts <- d.d_conflicts;
  d.d_prev_props <- d.d_props;
  Metrics.add_always m_samples 1

let maybe_sample d =
  let now = Unix.gettimeofday () in
  if (now -. d.d_prev_ts) *. 1e6 >= float_of_int !interval_us then
    sample_now d now

let poll_sat ~conflicts ~propagations ~learnts =
  if !sampling then begin
    let d = Domain.DLS.get state_key in
    d.d_conflicts <- conflicts;
    d.d_props <- propagations;
    d.d_learnts <- learnts;
    maybe_sample d
  end

(* Racy global tick: only a throttle, precision is irrelevant. *)
let tick = ref 0

let poll_quick () =
  if !sampling then begin
    incr tick;
    let d = Domain.DLS.get state_key in
    (* Until this domain's first sample, bypass the 1/64 mask so a run
       short on polls still leaves a series, not a blank sparkline. *)
    if d.d_prev_ts = 0.0 || !tick land 63 = 0 then maybe_sample d
  end

let note_aig_nodes n =
  if !sampling then (Domain.DLS.get state_key).d_aig <- n

(* -- views ----------------------------------------------------------------- *)

let is_span e = match e.body with Span _ -> true | _ -> false

(* One domain's held entries that [keep] selects, oldest first; a view
   reads the whole ring, so it walks it rather than copying it. *)
let select keep d =
  Ring.fold (fun acc e -> if keep e then e :: acc else acc) [] d.d_ring
  |> List.rev

(* The one merge: held entries that [keep] selects, across domains, in
   start-time order.  Spans are recorded at close, so a parent and its
   first child can share a start tick, and at clock resolution their
   duration too: at equal timestamps the enclosing span (longer, then
   shallower) comes first. *)
let merged keep =
  let outer e =
    match e.body with Span s -> (-.s.dur, s.depth) | _ -> (0.0, 0)
  in
  List.concat_map (select keep) (Ring.all states)
  |> List.stable_sort (fun a b ->
         let c = compare a.ts b.ts in
         if c <> 0 then c
         else
           let c = compare a.dom b.dom in
           if c <> 0 then c else compare (outer a) (outer b))

let events () =
  List.filter_map
    (fun e ->
      match e.body with
      | Span { cat; dur; depth; args } ->
          Some
            {
              ev_name = e.name;
              ev_cat = cat;
              ev_ts = e.ts;
              ev_dur = dur;
              ev_tid = e.dom;
              ev_depth = depth;
              ev_args = args;
            }
      | _ -> None)
    (merged is_span)

let dropped () = Atomic.get span_drops
let log_dropped () = Atomic.get point_drops

let held () =
  List.fold_left
    (fun n d ->
      Ring.fold (fun n e -> if is_span e then n + 1 else n) n d.d_ring)
    0 (Ring.all states)

let tail ?(min_level = Debug) n =
  let floor = int_of_level min_level in
  let pts =
    merged (fun e ->
        match e.body with
        | Point { level; _ } -> int_of_level level >= floor
        | _ -> false)
  in
  let len = List.length pts in
  if len <= n then pts else List.filteri (fun i _ -> i >= len - n) pts

let series () =
  let pick acc e = match e.body with Sample s -> (e.ts, s) :: acc | _ -> acc in
  List.filter_map
    (fun d ->
      match Ring.fold pick [] d.d_ring with
      | [] -> None
      | s -> Some (d.d_dom, List.rev s))
    (Ring.all states)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let samples_json () =
  Json.Obj
    [
      ("interval_us", Json.Int !interval_us);
      ( "domains",
        Json.List
          (List.map
             (fun (dom, samples) ->
               Json.Obj
                 [
                   ("dom", Json.Int dom);
                   ( "samples",
                     Json.List
                       (List.map (fun (ts, s) -> sample_json ts s) samples) );
                 ])
             (series ())) );
    ]

let export path =
  let d = dropped () in
  (* Recorded before the spans are collected: in a full ring the warning
     evicts a span, and the file must hold exactly what [held] counts. *)
  if d > 0 then
    warn "obs.trace.dropped"
      [ ("events", I d); ("ring_capacity", I ring_capacity) ];
  let spans = merged is_span in
  let to_stdout = path = "-" in
  let oc = if to_stdout then stdout else open_out path in
  Fun.protect
    ~finally:(fun () -> if to_stdout then flush oc else close_out oc)
    (fun () ->
      (* A JSON array with one event per line: valid JSON for Perfetto /
         chrome://tracing, greppable line-by-line. *)
      output_string oc "[\n";
      List.iteri
        (fun i e ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Json.to_string (to_json e)))
        spans;
      output_string oc "\n]\n")

let validate_export path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Json.parse text with
  | Result.Error e -> Result.Error ("invalid JSON: " ^ e)
  | Ok (Json.List evs) ->
      let check i ev =
        let str_member k =
          match Json.member k ev with Some (Json.String s) -> Some s | _ -> None
        in
        let num_member k =
          match Json.member k ev with
          | Some (Json.Float _ | Json.Int _) -> true
          | _ -> false
        in
        if str_member "name" = None then
          Result.Error (Printf.sprintf "event %d: missing name" i)
        else if str_member "ph" <> Some "X" then
          Result.Error (Printf.sprintf "event %d: ph must be \"X\"" i)
        else if not (num_member "ts" && num_member "dur") then
          Result.Error (Printf.sprintf "event %d: missing ts/dur" i)
        else if
          match Json.member "tid" ev with
          | Some j -> Json.to_int_opt j = None
          | None -> true
        then Result.Error (Printf.sprintf "event %d: missing tid" i)
        else Ok ()
      in
      let rec go i = function
        | [] -> Ok (List.length evs)
        | ev :: rest -> (
            match check i ev with
            | Ok () -> go (i + 1) rest
            | Result.Error e -> Result.Error e)
      in
      go 0 evs
  | Ok _ -> Error "top-level value is not an array"

let reset () =
  List.iter
    (fun d ->
      Ring.clear d.d_ring;
      d.d_depth <- 0;
      d.d_conflicts <- 0;
      d.d_props <- 0;
      d.d_learnts <- 0;
      d.d_aig <- 0;
      d.d_prev_ts <- 0.0;
      d.d_prev_conflicts <- 0;
      d.d_prev_props <- 0)
    (Ring.all states);
  Atomic.set span_drops 0;
  Atomic.set point_drops 0;
  Ring.restart_clock ()
