(* Span tracer with Chrome trace_event export.

   Spans are recorded as complete ("ph":"X") events: we time the bracket
   with [Fun.protect] so a raised exception still closes the span, and
   emit one event at close with the begin timestamp and duration. Each
   domain appends to its own [Ring] (registered so it outlives the
   domain), so the hot path takes no lock; [events] / [export] merge and
   sort at the end. *)

let enabled = ref false

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : float; (* microseconds since the recorder epoch *)
  ev_dur : float; (* microseconds *)
  ev_tid : int;
  ev_depth : int;
  ev_args : (string * string) list;
}

type kind = { k_name : string; k_cat : string; k_timer : Metrics.timer }

let kind ?(cat = "sepe") name =
  { k_name = name; k_cat = cat; k_timer = Metrics.timer name }

(* -- per-domain rings ----------------------------------------------------- *)

let ring_capacity = 200_000

(* Each domain records into a bounded ring and overwrites its *oldest*
   events once full (Perfetto's ring mode).  Keeping the newest events
   matters: a long synthesis phase must not evict the short BMC phase
   that runs after it from the trace.  Overwrites are counted as they
   happen, so a payload built before the export already sees them. *)
let m_dropped = Metrics.counter "obs.trace.dropped"
let drop_one () = Metrics.add_always m_dropped 1

type buffer = { b_tid : int; b_ring : event Ring.t; mutable b_depth : int }

let buffers =
  Ring.per_domain (fun () ->
      {
        b_tid = (Domain.self () :> int);
        b_ring = Ring.create ~on_drop:drop_one ring_capacity;
        b_depth = 0;
      })

let buffer_key = Ring.key buffers

(* -- spans --------------------------------------------------------------- *)

let span_with ~name ~cat ~timer ~args f =
  let metrics_on = !Metrics.enabled in
  let tracing_on = !enabled in
  if not (metrics_on || tracing_on) then f ()
  else begin
    let buf = if tracing_on then Some (Domain.DLS.get buffer_key) else None in
    (match buf with Some b -> b.b_depth <- b.b_depth + 1 | None -> ());
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dur_us = (Unix.gettimeofday () -. t0) *. 1e6 in
        if metrics_on then Metrics.timer_add timer dur_us;
        match buf with
        | Some b ->
            b.b_depth <- b.b_depth - 1;
            Ring.push b.b_ring
              {
                ev_name = name;
                ev_cat = cat;
                ev_ts = Ring.stamp t0;
                ev_dur = dur_us;
                ev_tid = b.b_tid;
                ev_depth = b.b_depth;
                ev_args = args;
              }
        | None -> ())
      f
  end

let with_span ?(args = []) k f =
  span_with ~name:k.k_name ~cat:k.k_cat ~timer:k.k_timer ~args f

let with_span_named ?(cat = "sepe") name f =
  if not (!Metrics.enabled || !enabled) then f ()
  else span_with ~name ~cat ~timer:(Metrics.timer name) ~args:[] f

(* -- collection and export ----------------------------------------------- *)

let events () =
  let all = List.concat_map (fun b -> Ring.to_list b.b_ring) (Ring.all buffers) in
  (* Start-time order; at equal timestamps the longer span is the
     enclosing one and must come first (events are recorded at close, so
     a parent and its first child can share a start tick). *)
  List.sort
    (fun a b ->
      let c = compare a.ev_ts b.ev_ts in
      if c <> 0 then c else compare b.ev_dur a.ev_dur)
    all

let dropped () =
  List.fold_left (fun acc b -> acc + Ring.dropped b.b_ring) 0 (Ring.all buffers)

let held () =
  List.fold_left
    (fun acc b -> acc + Ring.total b.b_ring - Ring.dropped b.b_ring)
    0 (Ring.all buffers)

let event_json ev =
  Json.Obj
    [
      ("name", Json.String ev.ev_name);
      ("cat", Json.String ev.ev_cat);
      ("ph", Json.String "X");
      ("ts", Json.Float ev.ev_ts);
      ("dur", Json.Float ev.ev_dur);
      ("pid", Json.Int 0);
      ("tid", Json.Int ev.ev_tid);
      ( "args",
        Json.Obj
          (("depth", Json.String (string_of_int ev.ev_depth))
          :: List.map (fun (k, v) -> (k, Json.String v)) ev.ev_args) );
    ]

let warn_dropped () =
  let d = dropped () in
  if d > 0 then
    Log.warn "obs.trace.dropped"
      [ ("events", Log.I d); ("ring_capacity", Log.I ring_capacity) ]

let export path =
  let evs = events () in
  warn_dropped ();
  let to_stdout = path = "-" in
  let oc = if to_stdout then stdout else open_out path in
  Fun.protect
    ~finally:(fun () -> if to_stdout then flush oc else close_out oc)
    (fun () ->
      (* A JSON array with one event per line: valid JSON for Perfetto /
         chrome://tracing, greppable line-by-line. *)
      output_string oc "[\n";
      List.iteri
        (fun i ev ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Json.to_string (event_json ev)))
        evs;
      output_string oc "\n]\n")

let validate_export path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Json.parse text with
  | Error e -> Error ("invalid JSON: " ^ e)
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
          Error (Printf.sprintf "event %d: missing name" i)
        else if str_member "ph" <> Some "X" then
          Error (Printf.sprintf "event %d: ph must be \"X\"" i)
        else if not (num_member "ts" && num_member "dur") then
          Error (Printf.sprintf "event %d: missing ts/dur" i)
        else if
          match Json.member "tid" ev with
          | Some j -> Json.to_int_opt j = None
          | None -> true
        then Error (Printf.sprintf "event %d: missing tid" i)
        else Ok ()
      in
      let rec go i = function
        | [] -> Ok (List.length evs)
        | ev :: rest -> (
            match check i ev with Ok () -> go (i + 1) rest | Error e -> Error e)
      in
      go 0 evs
  | Ok _ -> Error "top-level value is not an array"

let reset () =
  List.iter
    (fun b ->
      Ring.clear b.b_ring;
      b.b_depth <- 0)
    (Ring.all buffers);
  Ring.restart_clock ()
