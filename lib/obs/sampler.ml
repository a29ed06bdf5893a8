(* Periodic per-domain time-series sampler.

   Each domain keeps its latest reported live values (conflicts,
   propagations, learnts, AIG nodes) in domain-local state and appends
   a sample row to its own [Ring] when the interval has elapsed — no
   locks on the hot path, same registration scheme as [Trace]/[Log]. *)

let enabled = ref false
let interval_us = ref 50_000
let set_interval_us n = interval_us := max 0 n

let m_samples = Metrics.counter "obs.sampler.samples"

type sample = {
  sm_ts : float;
  sm_conflicts_s : float;
  sm_props_s : float;
  sm_learnts : int;
  sm_aig_nodes : int;
  sm_heap_words : int;
}

let ring_capacity = 2048

type dstate = {
  d_dom : int;
  d_ring : sample Ring.t;
  (* Latest live values reported by the owning hot loops. *)
  mutable d_conflicts : int;
  mutable d_props : int;
  mutable d_learnts : int;
  mutable d_aig : int;
  (* Previous sample, for rate computation. *)
  mutable d_prev_ts : float; (* seconds, absolute *)
  mutable d_prev_conflicts : int;
  mutable d_prev_props : int;
}

let states =
  Ring.per_domain (fun () ->
      {
        d_dom = (Domain.self () :> int);
        d_ring = Ring.create ring_capacity;
        d_conflicts = 0;
        d_props = 0;
        d_learnts = 0;
        d_aig = 0;
        d_prev_ts = 0.0;
        d_prev_conflicts = 0;
        d_prev_props = 0;
      })

let state_key = Ring.key states

let sample_now d now =
  let dt = now -. d.d_prev_ts in
  let rate cur prev = if dt <= 0.0 then 0.0 else float_of_int (cur - prev) /. dt in
  let s =
    {
      sm_ts = Ring.stamp now;
      sm_conflicts_s =
        (if d.d_prev_ts = 0.0 then 0.0 else rate d.d_conflicts d.d_prev_conflicts);
      sm_props_s =
        (if d.d_prev_ts = 0.0 then 0.0 else rate d.d_props d.d_prev_props);
      sm_learnts = d.d_learnts;
      sm_aig_nodes = d.d_aig;
      sm_heap_words = (Gc.quick_stat ()).Gc.heap_words;
    }
  in
  Ring.push d.d_ring s;
  d.d_prev_ts <- now;
  d.d_prev_conflicts <- d.d_conflicts;
  d.d_prev_props <- d.d_props;
  Metrics.add_always m_samples 1

let maybe_sample d =
  let now = Unix.gettimeofday () in
  if (now -. d.d_prev_ts) *. 1e6 >= float_of_int !interval_us then
    sample_now d now

let poll_sat ~conflicts ~propagations ~learnts =
  if !enabled then begin
    let d = Domain.DLS.get state_key in
    d.d_conflicts <- conflicts;
    d.d_props <- propagations;
    d.d_learnts <- learnts;
    maybe_sample d
  end;
  Progress.beat ()

(* Racy global tick: only a throttle, precision is irrelevant. *)
let tick = ref 0

let poll_quick () =
  if !enabled then begin
    incr tick;
    let d = Domain.DLS.get state_key in
    (* Tick-count fallback: until this domain has recorded its first
       sample, bypass the 1/64 mask so a run short on polls (a fast
       bench cell, a test) still leaves a series behind instead of a
       blank sparkline. *)
    if Ring.total d.d_ring = 0 || !tick land 63 = 0 then maybe_sample d
  end;
  Progress.beat ()

let note_aig_nodes n =
  if !enabled then begin
    let d = Domain.DLS.get state_key in
    d.d_aig <- n
  end

let series () =
  List.map (fun d -> (d.d_dom, Ring.to_list d.d_ring)) (Ring.all states)
  |> List.filter (fun (_, s) -> s <> [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sample_json s =
  Json.Obj
    [
      ("ts_us", Json.Float s.sm_ts);
      ("conflicts_s", Json.Float s.sm_conflicts_s);
      ("props_s", Json.Float s.sm_props_s);
      ("learnts", Json.Int s.sm_learnts);
      ("aig_nodes", Json.Int s.sm_aig_nodes);
      ("heap_words", Json.Int s.sm_heap_words);
    ]

let to_json () =
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
                   ("samples", Json.List (List.map sample_json samples));
                 ])
             (series ())) );
    ]

let reset () =
  List.iter
    (fun d ->
      Ring.clear d.d_ring;
      d.d_conflicts <- 0;
      d.d_props <- 0;
      d.d_learnts <- 0;
      d.d_aig <- 0;
      d.d_prev_ts <- 0.0;
      d.d_prev_conflicts <- 0;
      d.d_prev_props <- 0)
    (Ring.all states);
  Ring.restart_clock ()
