(* Tests for the observability layer (Sqed_obs): the hand-rolled checked
   JSON parser, the sharded metrics registry, and the span tracer.  The
   registry and tracer are global state shared with the instrumented
   libraries, so every test runs under [isolated], which resets both and
   restores the enabled flags to off (their library default). *)

module Json = Sqed_obs.Json
module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace
module Progress = Sqed_obs.Progress
module Report = Sqed_obs.Report

let reset_all () =
  Metrics.reset ();
  Trace.reset ();
  Report.reset ()

let isolated f () =
  reset_all ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.enabled := false;
      Trace.enabled := false;
      Progress.enabled := false;
      Trace.sampling := false;
      Trace.set_interval_us 50_000;
      Trace.close_sink ();
      reset_all ())
    f

(* ---------------------------------------------------------------- *)
(* JSON                                                              *)
(* ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("flags", Json.List [ Json.Bool true; Json.Bool false ]);
        ("n", Json.Int (-42));
        ("pi", Json.Float 3.25);
        ("s", Json.String "a\"b\\c\nd\te\r \x01");
        ("empty", Json.Obj []);
        ("nested", Json.List [ Json.Obj [ ("k", Json.Int 1) ] ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' ->
      Alcotest.(check string)
        "print/parse/print fixpoint" (Json.to_string v) (Json.to_string v')
  | Error e -> Alcotest.fail ("roundtrip parse failed: " ^ e)

let test_json_accept () =
  let ok s =
    match Json.parse s with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "%S rejected: %s" s e)
  in
  ok "null";
  ok " [ 1 , 2.5 , -3e2 ] ";
  ok {|{"a":[],"b":{},"c":"é\n"}|};
  ok "\"\"";
  match Json.parse "\"\\u0041\"" with
  | Ok (Json.String "A") -> ()
  | _ -> Alcotest.fail "\\u0041 should decode to A"

let test_json_reject () =
  let bad s =
    match Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" s)
  in
  bad "";
  bad "{} trailing";
  bad "[1,]";
  bad "{\"a\":}";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "\"bad \\q escape\"";
  bad "\"raw \x01 control\"";
  bad "tru";
  bad "[1 2]";
  bad "--3"

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)
(* ---------------------------------------------------------------- *)

let test_counter_gating () =
  let c = Metrics.counter "test.gated" in
  Metrics.incr c;
  Alcotest.(check int) "disabled increments are dropped" 0
    (Metrics.counter_value c);
  Metrics.enabled := true;
  Metrics.add c 5;
  Alcotest.(check int) "enabled increments land" 5 (Metrics.counter_value c);
  Alcotest.(check int) "find_counter sees the same value" 5
    (Metrics.find_counter "test.gated");
  Alcotest.(check int) "unknown counter reads 0" 0
    (Metrics.find_counter "test.never-registered")

let test_counter_domains () =
  (* The sharded-store design means concurrent increments from several
     domains must sum exactly, with no atomics on the hot path. *)
  Metrics.enabled := true;
  let c = Metrics.counter "test.domains" in
  let per_domain = 50_000 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.incr c
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  Alcotest.(check int) "4 domains + caller sum exactly" (5 * per_domain)
    (Metrics.counter_value c)

let test_histogram_buckets () =
  Alcotest.(check int) "0 -> bucket 0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "1 -> bucket 0" 0 (Metrics.bucket_of 1);
  Alcotest.(check int) "2 -> bucket 1" 1 (Metrics.bucket_of 2);
  Alcotest.(check int) "3 -> bucket 1" 1 (Metrics.bucket_of 3);
  Alcotest.(check int) "4 -> bucket 2" 2 (Metrics.bucket_of 4);
  Alcotest.(check int) "7 -> bucket 2" 2 (Metrics.bucket_of 7);
  Alcotest.(check int) "8 -> bucket 3" 3 (Metrics.bucket_of 8);
  Alcotest.(check int) "1024 -> bucket 10" 10 (Metrics.bucket_of 1024);
  Metrics.enabled := true;
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 7; 8 ];
  let j = Metrics.to_json () in
  let hist =
    match Json.member "histograms" j with
    | Some hs -> Json.member "test.hist" hs
    | None -> None
  in
  match hist with
  | None -> Alcotest.fail "test.hist missing from snapshot"
  | Some hj ->
      Alcotest.(check (option int))
        "count" (Some 7)
        (Option.bind (Json.member "count" hj) Json.to_int_opt);
      Alcotest.(check (option int))
        "sum" (Some 25)
        (Option.bind (Json.member "sum" hj) Json.to_int_opt)

let test_metrics_json_roundtrip () =
  Metrics.enabled := true;
  let c = Metrics.counter "test.json.counter" in
  let g = Metrics.gauge "test.json.gauge" in
  let t = Metrics.timer "test.json.timer" in
  Metrics.add c 7;
  Metrics.set g 31;
  Metrics.timer_add t 1500.0;
  let text = Json.to_string (Metrics.to_json ()) in
  match Json.parse text with
  | Error e -> Alcotest.fail ("snapshot does not re-parse: " ^ e)
  | Ok j ->
      let counter_of name =
        Option.bind (Json.member "counters" j) (fun cs ->
            Option.bind (Json.member name cs) Json.to_int_opt)
      in
      Alcotest.(check (option int))
        "counter survives" (Some 7)
        (counter_of "test.json.counter");
      Alcotest.(check bool) "gauges present" true
        (Json.member "gauges" j <> None);
      Alcotest.(check bool) "timers present" true
        (Json.member "timers" j <> None)

let test_reset () =
  Metrics.enabled := true;
  let c = Metrics.counter "test.reset" in
  Metrics.add c 9;
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes but keeps the registration" 0
    (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "counter usable after reset" 1
    (Metrics.counter_value c)

(* ---------------------------------------------------------------- *)
(* Tracing                                                           *)
(* ---------------------------------------------------------------- *)

let k_outer = Trace.kind ~cat:"test" "test.outer"
let k_inner = Trace.kind ~cat:"test" "test.inner"
let k_boom = Trace.kind ~cat:"test" "test.boom"

let test_span_nesting () =
  Trace.enabled := true;
  let r =
    Trace.with_span k_outer (fun () ->
        Trace.with_span k_inner (fun () -> 41) + 1)
  in
  Alcotest.(check int) "with_span returns f's value" 42 r;
  match Trace.events () with
  | [ outer; inner ] ->
      (* Sorted by start time: the outer span opens first even though it
         closes (and is recorded) last. *)
      Alcotest.(check string) "outer first" "test.outer" outer.Trace.ev_name;
      Alcotest.(check string) "inner second" "test.inner" inner.Trace.ev_name;
      Alcotest.(check int) "outer depth" 0 outer.Trace.ev_depth;
      Alcotest.(check int) "inner depth" 1 inner.Trace.ev_depth;
      Alcotest.(check bool) "inner starts inside outer" true
        (inner.Trace.ev_ts >= outer.Trace.ev_ts);
      Alcotest.(check bool) "inner ends inside outer" true
        (inner.Trace.ev_ts +. inner.Trace.ev_dur
        <= outer.Trace.ev_ts +. outer.Trace.ev_dur)
  | evs ->
      Alcotest.fail (Printf.sprintf "expected 2 events, got %d"
                       (List.length evs))

let test_span_exception_safe () =
  Trace.enabled := true;
  (try Trace.with_span k_boom (fun () -> failwith "boom")
   with Failure _ -> ());
  (match Trace.events () with
  | [ ev ] -> Alcotest.(check string) "span recorded" "test.boom"
                ev.Trace.ev_name
  | evs ->
      Alcotest.fail (Printf.sprintf "expected 1 event, got %d"
                       (List.length evs)));
  (* Depth bookkeeping must have unwound: a fresh span sits at depth 0. *)
  Trace.with_span k_outer (fun () -> ());
  match Trace.events () with
  | [ _; ev ] -> Alcotest.(check int) "depth unwound" 0 ev.Trace.ev_depth
  | _ -> Alcotest.fail "expected 2 events"

let test_span_disabled_is_transparent () =
  Alcotest.(check int) "value passes through" 7
    (Trace.with_span k_outer (fun () -> 7));
  Alcotest.(check int) "no events recorded" 0 (List.length (Trace.events ()))

let test_span_feeds_timer () =
  (* Metrics on, tracing off: spans must feed the phase timer without
     buffering any events. *)
  Metrics.enabled := true;
  Trace.with_span k_outer (fun () -> ());
  Alcotest.(check int) "no events buffered" 0 (List.length (Trace.events ()));
  let j = Metrics.to_json () in
  let calls =
    Option.bind (Json.member "timers" j) (fun ts ->
        Option.bind (Json.member "test.outer" ts) (fun t ->
            Option.bind (Json.member "calls" t) Json.to_int_opt))
  in
  Alcotest.(check (option int)) "timer counted the call" (Some 1) calls

let test_export_roundtrip () =
  Trace.enabled := true;
  Trace.with_span ~args:[ ("k", "3") ] k_outer (fun () ->
      Trace.with_span k_inner (fun () -> ()));
  let path = Filename.temp_file "sepe_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.export path;
      match Trace.validate_export path with
      | Ok n -> Alcotest.(check int) "every span exported and re-parsed" 2 n
      | Error e -> Alcotest.fail ("exported trace invalid: " ^ e))

(* ---------------------------------------------------------------- *)
(* Flight recorder: log, sampler, progress, report                   *)
(* ---------------------------------------------------------------- *)

let point_fields e =
  match e.Trace.body with
  | Trace.Point { fields; _ } -> fields
  | _ -> Alcotest.fail "expected a point"

let test_log_ring_wrap () =
  let cap = Trace.ring_capacity in
  let extra = 50 in
  for i = 0 to cap + extra - 1 do
    Trace.info "test.wrap" [ ("i", Trace.I i) ]
  done;
  let evs = Trace.tail (cap + extra) in
  Alcotest.(check int) "ring keeps exactly its capacity" cap
    (List.length evs);
  Alcotest.(check int) "overwrites are counted" extra (Trace.log_dropped ());
  (* The survivors are the newest [cap] records: the first retained
     event is the one that displaced record 0. *)
  (match evs with
  | first :: _ -> (
      match List.assoc_opt "i" (point_fields first) with
      | Some (Trace.I i) -> Alcotest.(check int) "oldest survivor" extra i
      | _ -> Alcotest.fail "field i missing")
  | [] -> Alcotest.fail "empty tail");
  Alcotest.(check int) "tail n truncates to the newest n" 7
    (List.length (Trace.tail 7))

let test_log_multidomain_merge () =
  let per_domain = 100 in
  let emit () =
    for i = 1 to per_domain do
      Trace.info "test.interleave" [ ("i", Trace.I i) ]
    done
  in
  let domains = Array.init 3 (fun _ -> Domain.spawn emit) in
  emit ();
  Array.iter Domain.join domains;
  let evs = Trace.tail (8 * per_domain) in
  Alcotest.(check int) "all records captured across domains"
    (4 * per_domain) (List.length evs);
  let doms = List.sort_uniq compare (List.map (fun e -> e.Trace.dom) evs) in
  Alcotest.(check bool) "records from several domains" true
    (List.length doms >= 2);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Trace.ts <= b.Trace.ts && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "merged tail is in timestamp order" true (sorted evs)

let test_log_level_filter () =
  Trace.debug "test.quiet" [];
  Trace.info "test.loud" [];
  Trace.warn "test.louder" [];
  Alcotest.(check int) "debug is not captured without a debug sink" 2
    (List.length (Trace.tail 10));
  Alcotest.(check int) "min_level filters the tail" 1
    (List.length (Trace.tail ~min_level:Trace.Warn 10))

let test_sampler_series_monotone () =
  Trace.sampling := true;
  Trace.set_interval_us 0;
  for i = 1 to 20 do
    Trace.poll_sat ~conflicts:(i * 100) ~propagations:(i * 1000)
      ~learnts:i
  done;
  match Trace.series () with
  | [ (_, samples) ] ->
      Alcotest.(check int) "one sample per poll at interval 0" 20
        (List.length samples);
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            fst a <= fst b && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "timestamps nondecreasing" true
        (monotone samples);
      List.iter
        (fun (_, s) ->
          Alcotest.(check bool) "rates are nonnegative" true
            (s.Trace.sm_conflicts_s >= 0.0 && s.Trace.sm_props_s >= 0.0);
          Alcotest.(check bool) "heap words sampled" true
            (s.Trace.sm_heap_words > 0))
        samples;
      let _, last = List.nth samples 19 in
      Alcotest.(check int) "learnt DB size tracks the live value" 20
        last.Trace.sm_learnts
  | series ->
      Alcotest.fail
        (Printf.sprintf "expected 1 domain series, got %d"
           (List.length series))

let test_sampler_disabled_is_silent () =
  Trace.poll_sat ~conflicts:1000 ~propagations:10000 ~learnts:5;
  Trace.poll_quick ();
  Alcotest.(check int) "no series recorded while disabled" 0
    (List.length (Trace.series ()))

let test_sampler_first_poll_samples () =
  (* The empty-series blind spot: at the default 50ms interval a short
     run used to record nothing because poll_quick's 1/64 tick mask ate
     the few polls it made.  The mask is bypassed until the domain's
     first sample, so even a single quick poll leaves a series. *)
  Trace.sampling := true;
  Trace.set_interval_us 50_000;
  Trace.poll_quick ();
  match Trace.series () with
  | [ (_, [ _ ]) ] -> ()
  | series ->
      Alcotest.fail
        (Printf.sprintf "expected one 1-sample series, got %d series"
           (List.length series))

let test_progress_eta () =
  Alcotest.(check (option (float 1e-9))) "no ETA before the first case"
    None
    (Progress.eta ~done_:0 ~total:10 ~sum_dur:0.0 ~jobs:2);
  Alcotest.(check (option (float 1e-9)))
    "mean 2s x 8 remaining / 2 jobs = 8s" (Some 8.0)
    (Progress.eta ~done_:2 ~total:10 ~sum_dur:4.0 ~jobs:2);
  Alcotest.(check (option (float 1e-9))) "done campaign has zero ETA"
    (Some 0.0)
    (Progress.eta ~done_:10 ~total:10 ~sum_dur:30.0 ~jobs:4);
  (* Degenerate jobs values must not divide by zero. *)
  match Progress.eta ~done_:1 ~total:3 ~sum_dur:1.0 ~jobs:0 with
  | Some eta -> Alcotest.(check bool) "jobs=0 clamps" true (Float.is_finite eta)
  | None -> Alcotest.fail "jobs=0 should still project"

let test_progress_disabled_transparent () =
  Alcotest.(check int) "with_campaign passes the value through" 41
    (Progress.with_campaign ~total:5 "test" (fun () -> 41));
  Alcotest.(check string) "no status line without a campaign" ""
    (Progress.render_line ())

let test_report_roundtrip () =
  Metrics.enabled := true;
  Trace.sampling := true;
  Trace.set_interval_us 0;
  Trace.info "test.report" [ ("phase", Trace.Str "unit") ];
  Trace.poll_sat ~conflicts:512 ~propagations:4096 ~learnts:3;
  Report.note_case
    { Report.rc_key = "unit/ok"; rc_status = Report.Ok;
      rc_detail = "synthesized"; rc_dur = 1.25 };
  Report.note_case
    { Report.rc_key = "unit/skip"; rc_status = Report.Skipped;
      rc_detail = "resumed from checkpoint"; rc_dur = 0.0 };
  let path = Filename.temp_file "sepe_report" ".html" in
  let sidecar = ref "" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      if !sidecar <> "" && Sys.file_exists !sidecar then Sys.remove !sidecar)
    (fun () ->
      sidecar :=
        Report.write ~title:"unit run" ~cmdline:"test" ~path ();
      Alcotest.(check bool) "sidecar sits next to the report" true
        (Filename.check_suffix !sidecar ".json");
      let read_all p =
        let ic = open_in_bin p in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let html = read_all path in
      Alcotest.(check bool) "report is self-contained HTML" true
        (String.length html > 0
        && String.starts_with ~prefix:"<!DOCTYPE html>" html);
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "sparkline SVG inlined" true
        (contains html "<svg");
      Alcotest.(check bool) "case rows rendered" true
        (contains html "unit/ok");
      match Json.parse (read_all !sidecar) with
      | Error e -> Alcotest.fail ("run.json does not re-parse: " ^ e)
      | Ok j ->
          Alcotest.(check (option string))
            "schema tag" (Some "sepe.flight/1")
            (Option.bind (Json.member "schema" j) Json.to_string_opt);
          let n_cases =
            match Json.member "cases" j with
            | Some (Json.List cs) -> List.length cs
            | _ -> -1
          in
          Alcotest.(check int) "both case rows in the sidecar" 2 n_cases;
          Alcotest.(check bool) "metrics snapshot embedded" true
            (Json.member "metrics" j <> None);
          Alcotest.(check bool) "sampler series embedded" true
            (Json.member "samples" j <> None);
          Alcotest.(check bool) "log tail embedded" true
            (Json.member "log_tail" j <> None))

let test_report_run_payload_and_history () =
  let module History = Sqed_obs.History in
  Metrics.enabled := true;
  Report.note_case
    { Report.rc_key = "unit/a"; rc_status = Report.Ok; rc_detail = "ok";
      rc_dur = 0.01 };
  let payload = Report.run_payload ~title:"unit" ~cmdline:"test" () in
  (match Json.parse (Json.to_string payload) with
  | Error e -> Alcotest.fail ("run_payload does not re-parse: " ^ e)
  | Ok j ->
      Alcotest.(check (option string))
        "payload carries the flight schema" (Some "sepe.flight/1")
        (Option.bind (Json.member "schema" j) Json.to_string_opt);
      Alcotest.(check bool) "payload has wall_s" true
        (Json.member "wall_s" j <> None);
      Alcotest.(check bool) "payload embeds metrics" true
        (Json.member "metrics" j <> None));
  (* A ledger history renders a cross-run section in the report. *)
  let entry wall =
    History.entry ~kind:"sepe" ~label:"unit"
      ~provenance:(History.provenance ~config:[ ("jobs", Json.Int 1) ] ())
      ~run:(Json.Obj [ ("wall_s", Json.Float wall) ])
  in
  let path = Filename.temp_file "sepe_report" ".html" in
  let sidecar = ref "" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      if !sidecar <> "" && Sys.file_exists !sidecar then Sys.remove !sidecar)
    (fun () ->
      sidecar :=
        Report.write ~title:"unit" ~cmdline:"test"
          ~history:[ entry 0.01; entry 0.02 ] ~path ();
      let ic = open_in_bin path in
      let html =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let contains needle =
        let n = String.length needle and h = String.length html in
        let rec go i = i + n <= h && (String.sub html i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "history section rendered" true
        (contains "History (2 archived runs)");
      Alcotest.(check bool) "whole-run wall row present" true
        (contains "run.wall_s"))

(* ---------------------------------------------------------------- *)
(* The shared ring, live drop counts and the shared clock            *)
(* ---------------------------------------------------------------- *)

module Ring = Sqed_obs.Ring

let test_trace_drops_counted_live () =
  (* The counter must move as the ring wraps, not at export: payloads
     built before the trace is exported read it too. *)
  Trace.enabled := true;
  let k = 7 in
  for _ = 1 to Trace.ring_capacity + k do
    Trace.with_span k_inner (fun () -> ())
  done;
  Alcotest.(check int) "obs.trace.dropped before any export" k
    (Metrics.find_counter "obs.trace.dropped");
  Alcotest.(check int) "Trace.dropped agrees" k (Trace.dropped ())

let test_drops_counted_per_kind () =
  (* One ring holds every kind: a full ring of spans evicts the older
     log record first, and each eviction is counted under its own kind. *)
  Trace.enabled := true;
  Trace.info "test.evicted" [];
  let k = 3 in
  for _ = 1 to Trace.ring_capacity + k do
    Trace.with_span k_inner (fun () -> ())
  done;
  Alcotest.(check int) "obs.log.dropped counts the point" 1
    (Metrics.find_counter "obs.log.dropped");
  Alcotest.(check int) "obs.trace.dropped counts the k spans" k
    (Metrics.find_counter "obs.trace.dropped");
  Alcotest.(check int) "Trace.log_dropped agrees" 1 (Trace.log_dropped ());
  Alcotest.(check int) "Trace.dropped agrees" k (Trace.dropped ());
  Alcotest.(check int) "the point is gone" 0 (List.length (Trace.tail 10));
  Alcotest.(check int) "the ring is full of spans" Trace.ring_capacity
    (Trace.held ())

let test_ring_wrap_keeps_newest () =
  let drops = ref 0 in
  let r = Ring.create ~on_drop:(fun _ -> incr drops) 5 in
  Alcotest.(check (list int)) "empty ring reads nothing" [] (Ring.to_list r);
  for i = 0 to 12 do
    Ring.push r i
  done;
  Alcotest.(check (list int)) "newest capacity entries, oldest first"
    [ 8; 9; 10; 11; 12 ] (Ring.to_list r);
  Alcotest.(check int) "total counts every push" 13 (Ring.total r);
  Alcotest.(check int) "dropped is the overflow" 8 (Ring.dropped r);
  Alcotest.(check int) "on_drop ran once per overwrite" 8 !drops

let test_ring_cursor_clipped () =
  let r = Ring.create 4 in
  for i = 0 to 9 do
    Ring.push r i
  done;
  Alcotest.(check (list int)) "stale cursor clipped to the window"
    [ 6; 7; 8; 9 ] (Ring.read_from r 2);
  Alcotest.(check (list int)) "cursor inside the window" [ 8; 9 ]
    (Ring.read_from r 8);
  Alcotest.(check (list int)) "cursor at total reads nothing" []
    (Ring.read_from r (Ring.total r))

let test_ring_outlives_domain () =
  let p = Ring.per_domain (fun () -> Ring.create 8) in
  let d =
    Domain.spawn (fun () ->
        let r = Domain.DLS.get (Ring.key p) in
        List.iter (Ring.push r) [ 1; 2; 3 ])
  in
  Domain.join d;
  Alcotest.(check (list (list int))) "joined domain's entries readable"
    [ [ 1; 2; 3 ] ]
    (List.map Ring.to_list (Ring.all p))

let test_ring_clear () =
  let r = Ring.create 3 in
  for i = 0 to 5 do
    Ring.push r i
  done;
  Ring.clear r;
  Alcotest.(check (list int)) "clear empties" [] (Ring.to_list r);
  Alcotest.(check int) "clear zeroes dropped" 0 (Ring.dropped r);
  Alcotest.(check int) "clear zeroes total" 0 (Ring.total r);
  Ring.push r 42;
  Alcotest.(check (list int)) "usable after clear" [ 42 ] (Ring.to_list r)

let test_shared_clock () =
  (* After a reset, a span, a log record and a sample emitted in that
     order are stamped in that order. *)
  Trace.enabled := true;
  Trace.sampling := true;
  Trace.set_interval_us 0;
  List.iter
    (fun (name, single_reset) ->
      reset_all ();
      Unix.sleepf 0.002;
      single_reset ();
      Trace.with_span k_outer (fun () -> ());
      Trace.info "test.clock" [];
      Trace.poll_sat ~conflicts:1 ~propagations:1 ~learnts:1;
      match (Trace.events (), Trace.tail 10, Trace.series ()) with
      | [ ev ], [ lg ], [ (_, [ (sm_ts, _) ]) ] ->
          Alcotest.(check bool) (name ^ ": span before log record") true
            (ev.Trace.ev_ts <= lg.Trace.ts);
          Alcotest.(check bool) (name ^ ": log record before sample") true
            (lg.Trace.ts <= sm_ts)
      | _ -> Alcotest.fail (name ^ ": expected one event of each kind"))
    [ ("Trace.reset", Trace.reset) ]

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick (isolated test_json_roundtrip);
    Alcotest.test_case "json accepts valid input" `Quick
      (isolated test_json_accept);
    Alcotest.test_case "json rejects invalid input" `Quick
      (isolated test_json_reject);
    Alcotest.test_case "counter gating" `Quick (isolated test_counter_gating);
    Alcotest.test_case "counters sum across domains" `Quick
      (isolated test_counter_domains);
    Alcotest.test_case "histogram bucket boundaries" `Quick
      (isolated test_histogram_buckets);
    Alcotest.test_case "metrics snapshot re-parses" `Quick
      (isolated test_metrics_json_roundtrip);
    Alcotest.test_case "reset keeps registrations" `Quick
      (isolated test_reset);
    Alcotest.test_case "span nesting and ordering" `Quick
      (isolated test_span_nesting);
    Alcotest.test_case "spans close on exception" `Quick
      (isolated test_span_exception_safe);
    Alcotest.test_case "disabled tracer is transparent" `Quick
      (isolated test_span_disabled_is_transparent);
    Alcotest.test_case "spans feed phase timers" `Quick
      (isolated test_span_feeds_timer);
    Alcotest.test_case "export validates" `Quick
      (isolated test_export_roundtrip);
    Alcotest.test_case "log ring wraps and counts drops" `Quick
      (isolated test_log_ring_wrap);
    Alcotest.test_case "log tail merges domains in order" `Quick
      (isolated test_log_multidomain_merge);
    Alcotest.test_case "log level filtering" `Quick
      (isolated test_log_level_filter);
    Alcotest.test_case "sampler series is monotone" `Quick
      (isolated test_sampler_series_monotone);
    Alcotest.test_case "disabled sampler records nothing" `Quick
      (isolated test_sampler_disabled_is_silent);
    Alcotest.test_case "progress ETA projection" `Quick
      (isolated test_progress_eta);
    Alcotest.test_case "disabled progress is transparent" `Quick
      (isolated test_progress_disabled_transparent);
    Alcotest.test_case "report round-trips through run.json" `Quick
      (isolated test_report_roundtrip);
    Alcotest.test_case "a single quick poll records the first sample" `Quick
      (isolated test_sampler_first_poll_samples);
    Alcotest.test_case "run payload and report history section" `Quick
      (isolated test_report_run_payload_and_history);
    Alcotest.test_case "trace drops are counted as they happen" `Quick
      (isolated test_trace_drops_counted_live);
    Alcotest.test_case "spans evict an older point, drops counted per kind"
      `Quick (isolated test_drops_counted_per_kind);
    Alcotest.test_case "ring keeps the newest entries" `Quick
      (isolated test_ring_wrap_keeps_newest);
    Alcotest.test_case "ring clips a stale cursor" `Quick
      (isolated test_ring_cursor_clipped);
    Alcotest.test_case "ring outlives its domain" `Quick
      (isolated test_ring_outlives_domain);
    Alcotest.test_case "ring clear empties and zeroes drops" `Quick
      (isolated test_ring_clear);
    Alcotest.test_case "one clock for spans, log records and samples" `Quick
      (isolated test_shared_clock);
  ]
