(* Tests for the differential engine (Sqed_obs.Diff) and the run ledger
   (Sqed_obs.History).  Diff is pure — no clock, no filesystem — so most
   of this file is straight-line value checks plus qcheck properties over
   the noise-band math (the part whose edge cases bite: empty history,
   MAD=0 degeneracy, NaN baselines, window trimming).  The History tests
   exercise the append/load round-trip and the torn-line recovery against
   a real temp file. *)

module Json = Sqed_obs.Json
module Diff = Sqed_obs.Diff
module History = Sqed_obs.History
module Solver = Sqed_smt.Solver
module Provenance = Sqed_exp.Provenance

let close = Alcotest.(check (float 1e-9))

(* -- payload builders ---------------------------------------------------- *)

(* A bench-summary shape: experiment records + counters. *)
let bench_payload ?(name = "fig3") ?cpu ~wall ~clauses ~conflicts () =
  Json.Obj
    [
      ( "experiments",
        Json.List
          [
            Json.Obj
              ([
                 ("name", Json.String name);
                 ("wall_s", Json.Float wall);
                 ("clauses", Json.Int clauses);
                 ("conflicts", Json.Int conflicts);
               ]
              @ Option.fold ~none:[]
                  ~some:(fun c -> [ ("cpu_s", Json.Float c) ])
                  cpu);
          ] );
      ( "metrics",
        Json.Obj
          [ ("counters", Json.Obj [ ("sat.decisions", Json.Int 1000) ]) ] );
    ]

(* A flight-recorder sidecar shape: top-level wall_s + counters. *)
let flight_payload ~wall =
  Json.Obj
    [
      ("schema", Json.String "sepe.flight/1");
      ("wall_s", Json.Float wall);
      ( "metrics",
        Json.Obj
          [
            ("counters", Json.Obj [ ("obs.log.records", Json.Int 7) ]);
            ("gauges", Json.Obj [ ("fig3.hpf_total_ms", Json.Int 23_700) ]);
          ] );
    ]

let find metric ds = List.find (fun d -> d.Diff.dl_metric = metric) ds

let verdict_of metric ds = (find metric ds).Diff.dl_verdict

let pp_verdict = function
  | Diff.Improved -> "Improved"
  | Diff.Within -> "Within"
  | Diff.Regressed -> "Regressed"
  | Diff.Insufficient -> "Insufficient"
  | Diff.Fresh -> "Fresh"

let check_verdict msg expect got =
  Alcotest.(check string) msg (pp_verdict expect) (pp_verdict got)

(* -- median / band ------------------------------------------------------- *)

let test_median () =
  close "odd length" 42.0 (Diff.median [ 54.0; 42.0; 39.0 ]);
  close "even length averages the middle pair" 40.5
    (Diff.median [ 54.0; 39.0; 42.0; 12.0 ]);
  Alcotest.(check bool) "empty list is nan" true
    (Float.is_nan (Diff.median []))

let test_band_empty_and_nan () =
  Alcotest.(check bool) "empty history has no band" true
    (Diff.band [] = None);
  Alcotest.(check bool) "all-NaN history has no band" true
    (Diff.band [ Float.nan; Float.nan ] = None);
  match Diff.band [ 10.0; Float.nan; 12.0 ] with
  | None -> Alcotest.fail "mixed NaN history must still band"
  | Some b ->
      Alcotest.(check int) "NaN points dropped from the count" 2 b.Diff.bd_n

let test_band_mad_zero_degenerate () =
  (* Identical history values: MAD = 0, so the relative floor must keep
     the band from collapsing to a point. *)
  match Diff.band [ 10.0; 10.0; 10.0 ] with
  | None -> Alcotest.fail "constant history must band"
  | Some b ->
      close "MAD is zero" 0.0 b.Diff.bd_mad;
      close "half-width is the relative floor" 6.5 b.Diff.bd_lo;
      close "band is symmetric" 13.5 b.Diff.bd_hi

let test_band_zero_baseline () =
  (* All-zero history: median 0 kills the relative floor too; only the
     absolute floor keeps the band non-degenerate. *)
  (match Diff.band [ 0.0; 0.0; 0.0 ] with
  | None -> Alcotest.fail "zero history must band"
  | Some b ->
      close "degenerate zero band collapses to a point" 0.0 b.Diff.bd_hi);
  match Diff.band ~abs_floor:1.0 [ 0.0; 0.0; 0.0 ] with
  | None -> Alcotest.fail "zero history must band"
  | Some b ->
      close "absolute floor opens the band" 1.0 b.Diff.bd_hi;
      close "symmetrically" (-1.0) b.Diff.bd_lo

let test_band_jitter_tolerance () =
  (* The documented fig3 --fast jitter: 39-54s across same-machine runs.
     Any value inside the observed spread must stay within band. *)
  let history = [ 42.2; 54.1; 39.4; 47.0 ] in
  match Diff.band history with
  | None -> Alcotest.fail "jitter history must band"
  | Some b ->
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "%.1fs is inside the band" v)
            true
            (v >= b.Diff.bd_lo && v <= b.Diff.bd_hi))
        history;
      Alcotest.(check bool) "a doubled wall is outside" true
        (2.0 *. Diff.median history > b.Diff.bd_hi)

(* -- flattening / gating -------------------------------------------------- *)

let test_metrics_of_payload () =
  let ms =
    Diff.metrics_of_payload
      (bench_payload ~cpu:40.0 ~wall:42.0 ~clauses:120_000 ~conflicts:3_000
         ())
  in
  close "experiment wall" 42.0 (List.assoc "exp.fig3.wall_s" ms);
  close "experiment cpu" 40.0 (List.assoc "exp.fig3.cpu_s" ms);
  Alcotest.(check bool) "experiment cpu is gated" true
    (Diff.gated "exp.fig3.cpu_s");
  close "experiment clauses" 120_000.0 (List.assoc "exp.fig3.clauses" ms);
  close "experiment conflicts" 3_000.0 (List.assoc "exp.fig3.conflicts" ms);
  close "counters flatten" 1000.0 (List.assoc "counter.sat.decisions" ms);
  let fs = Diff.metrics_of_payload (flight_payload ~wall:7.5) in
  close "flight wall" 7.5 (List.assoc "run.wall_s" fs);
  close "flight counters" 7.0 (List.assoc "counter.obs.log.records" fs);
  close "gauges flatten too" 23_700.0 (List.assoc "gauge.fig3.hpf_total_ms" fs);
  Alcotest.(check bool) "gauges are not gated" false
    (Diff.gated "gauge.fig3.hpf_total_ms");
  Alcotest.(check int) "unknown shapes flatten to nothing" 0
    (List.length (Diff.metrics_of_payload (Json.String "junk")))

let test_gated () =
  Alcotest.(check bool) "whole-run wall is gated" true
    (Diff.gated "run.wall_s");
  Alcotest.(check bool) "experiment metrics are gated" true
    (Diff.gated "exp.fig3.wall_s");
  Alcotest.(check bool) "counters are not gated" false
    (Diff.gated "counter.sat.decisions");
  Alcotest.(check bool) "bare exp. prefix is not a metric" false
    (Diff.gated "exp.")

(* -- two-run compare ------------------------------------------------------ *)

let test_compare_runs () =
  let base = bench_payload ~wall:40.0 ~clauses:1000 ~conflicts:100 () in
  let cur = bench_payload ~wall:41.0 ~clauses:2000 ~conflicts:50 () in
  let ds = Diff.compare_runs ~base ~cur () in
  check_verdict "small wall delta is within" Diff.Within
    (verdict_of "exp.fig3.wall_s" ds);
  check_verdict "doubled clauses regress" Diff.Regressed
    (verdict_of "exp.fig3.clauses" ds);
  check_verdict "halved conflicts improve" Diff.Improved
    (verdict_of "exp.fig3.conflicts" ds);
  check_verdict "counters never regress a run" Diff.Within
    (verdict_of "counter.sat.decisions" ds);
  (* A metric the baseline never saw. *)
  let cur2 = bench_payload ~name:"sweep" ~wall:5.0 ~clauses:10 ~conflicts:1 () in
  let ds2 = Diff.compare_runs ~base ~cur:cur2 () in
  check_verdict "unknown experiment is fresh" Diff.Fresh
    (verdict_of "exp.sweep.wall_s" ds2);
  Alcotest.(check bool) "fresh base is nan" true
    (Float.is_nan (find "exp.sweep.wall_s" ds2).Diff.dl_base)

let test_compare_runs_zero_base () =
  let base = bench_payload ~wall:0.0 ~clauses:0 ~conflicts:0 () in
  let cur = bench_payload ~wall:0.0 ~clauses:0 ~conflicts:5 () in
  let ds = Diff.compare_runs ~base ~cur () in
  check_verdict "0 -> 0 is within" Diff.Within (verdict_of "exp.fig3.wall_s" ds);
  check_verdict "0 -> 5 regresses (zero base has zero slack)" Diff.Regressed
    (verdict_of "exp.fig3.conflicts" ds);
  Alcotest.(check bool) "delta_pct undefined on a zero base" true
    (Diff.delta_pct (find "exp.fig3.conflicts" ds) = None)

let test_delta_pct () =
  let base = bench_payload ~wall:40.0 ~clauses:1000 ~conflicts:100 () in
  let cur = bench_payload ~wall:50.0 ~clauses:1000 ~conflicts:100 () in
  let ds = Diff.compare_runs ~base ~cur () in
  match Diff.delta_pct (find "exp.fig3.wall_s" ds) with
  | Some p -> close "+25%" 25.0 p
  | None -> Alcotest.fail "finite nonzero base must yield a pct"

(* -- history compare ------------------------------------------------------ *)

let hist walls =
  List.map (fun w -> bench_payload ~wall:w ~clauses:1000 ~conflicts:100 ()) walls

let test_history_empty () =
  let ds =
    Diff.compare_history ~history:[]
      ~cur:(bench_payload ~wall:42.0 ~clauses:1000 ~conflicts:100 ())
      ()
  in
  check_verdict "no history: everything is fresh" Diff.Fresh
    (verdict_of "exp.fig3.wall_s" ds);
  Alcotest.(check int) "no regressions to report" 0
    (List.length (Diff.regressions ds))

let test_history_single_entry () =
  let ds =
    Diff.compare_history ~history:(hist [ 40.0 ])
      ~cur:(bench_payload ~wall:400.0 ~clauses:1000 ~conflicts:100 ())
      ()
  in
  check_verdict "one point is insufficient even for a 10x blowup"
    Diff.Insufficient
    (verdict_of "exp.fig3.wall_s" ds);
  Alcotest.(check int) "and the sentinel passes" 0
    (List.length (Diff.regressions ds))

let test_history_banded () =
  let history = hist [ 42.2; 54.1; 39.4 ] in
  let within =
    Diff.compare_history ~history
      ~cur:(bench_payload ~wall:47.0 ~clauses:1000 ~conflicts:100 ())
      ()
  in
  check_verdict "in-spread wall is within" Diff.Within
    (verdict_of "exp.fig3.wall_s" within);
  let slow =
    Diff.compare_history ~history
      ~cur:(bench_payload ~wall:95.0 ~clauses:1000 ~conflicts:100 ())
      ()
  in
  check_verdict "doubled wall regresses" Diff.Regressed
    (verdict_of "exp.fig3.wall_s" slow);
  Alcotest.(check int) "exactly one gated regression" 1
    (List.length (Diff.regressions slow));
  let fast =
    Diff.compare_history ~history
      ~cur:(bench_payload ~wall:10.0 ~clauses:1000 ~conflicts:100 ())
      ()
  in
  check_verdict "a 4x speedup is an improvement" Diff.Improved
    (verdict_of "exp.fig3.wall_s" fast)

let test_history_window () =
  (* Ancient slow runs beyond the window must not widen the band. *)
  let history = hist [ 500.0; 510.0; 40.0; 41.0; 42.0 ] in
  let ds =
    Diff.compare_history ~window:3 ~history
      ~cur:(bench_payload ~wall:300.0 ~clauses:1000 ~conflicts:100 ())
      ()
  in
  check_verdict "window trims the old slow era" Diff.Regressed
    (verdict_of "exp.fig3.wall_s" ds);
  match (find "exp.fig3.wall_s" ds).Diff.dl_band with
  | Some b -> Alcotest.(check int) "band spans the window only" 3 b.Diff.bd_n
  | None -> Alcotest.fail "banded metric must carry its band"

let test_history_abs_floor () =
  (* Sub-second metrics: 0.1s -> 0.9s is a huge relative jump but under
     the one-second absolute floor, so it must not flag. *)
  let history = hist [ 0.1; 0.12; 0.11 ] in
  let ds =
    Diff.compare_history ~history
      ~cur:(bench_payload ~wall:0.9 ~clauses:1000 ~conflicts:100 ())
      ()
  in
  check_verdict "sub-second jitter stays within" Diff.Within
    (verdict_of "exp.fig3.wall_s" ds)

let test_to_string () =
  let ds =
    Diff.compare_history
      ~history:(hist [ 40.0; 41.0; 42.0 ])
      ~cur:(bench_payload ~wall:200.0 ~clauses:1000 ~conflicts:100 ())
      ()
  in
  let line = Diff.to_string (find "exp.fig3.wall_s" ds) in
  let contains needle =
    let n = String.length needle and h = String.length line in
    let rec go i = i + n <= h && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "line names the metric" true (contains "exp.fig3.wall_s");
  Alcotest.(check bool) "line shouts the verdict" true (contains "REGRESSED");
  Alcotest.(check bool) "line shows the band" true (contains "band [")

(* -- History: ledger file ------------------------------------------------- *)

let with_temp f =
  let path = Filename.temp_file "sepe_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let config =
  [
    ("jobs", Json.Int 1);
    ("fast", Json.Bool true);
    ("simplify", Json.Bool true);
    ("portfolio", Json.Int 1);
  ]

let mk_entry ?(config = config) label wall =
  History.entry ~kind:"bench" ~label
    ~provenance:(History.provenance ~config ())
    ~run:(bench_payload ~wall ~clauses:1000 ~conflicts:100 ())

let test_ledger_roundtrip () =
  with_temp (fun path ->
      Sys.remove path;
      (* load of a missing file is an empty ledger, not an error *)
      let empty = History.load path in
      Alcotest.(check int) "missing file is empty" 0
        (List.length empty.History.entries);
      History.append path (mk_entry "a" 40.0);
      History.append path (mk_entry "b" 41.0);
      let l = History.load path in
      Alcotest.(check int) "both entries back" 2 (List.length l.History.entries);
      Alcotest.(check int) "nothing dropped" 0 l.History.dropped;
      let first = List.hd l.History.entries in
      Alcotest.(check (option string))
        "oldest first"
        (Some "a")
        (Option.bind (Json.member "label" first) Json.to_string_opt);
      Alcotest.(check bool) "run payload survives the round-trip" true
        (match History.run_of first with
        | Some run ->
            List.mem_assoc "exp.fig3.wall_s" (Diff.metrics_of_payload run)
        | None -> false))

let test_ledger_torn_line () =
  with_temp (fun path ->
      History.append path (mk_entry "a" 40.0);
      History.append path (mk_entry "b" 41.0);
      (* simulate a crash mid-append *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"schema\":\"sepe.ledger/1\",\"kind";
      close_out oc;
      let l = History.load path in
      Alcotest.(check int) "intact entries survive" 2
        (List.length l.History.entries);
      Alcotest.(check int) "torn line counted" 1 l.History.dropped;
      (* and the ledger is still appendable *)
      History.append path (mk_entry "c" 42.0))

let test_ledger_provenance () =
  let e = mk_entry "a" 40.0 in
  let prov = Json.member "provenance" e in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "provenance has %s" f)
        true
        (Option.bind prov (Json.member f) <> None))
    [ "git_commit"; "hostname"; "cores"; "ocaml"; "config" ]

let test_ledger_compatible () =
  let a = mk_entry "a" 40.0 in
  let b = mk_entry "b" 41.0 in
  Alcotest.(check bool) "same config is compatible" true
    (History.compatible a b);
  let other = mk_entry ~config:(("jobs", Json.Int 8) :: List.tl config) "c" 9.0 in
  Alcotest.(check bool) "different jobs is not" false
    (History.compatible a other);
  let bare = Json.Obj [ ("schema", Json.String History.schema) ] in
  Alcotest.(check bool) "entries without a config never match" false
    (History.compatible a bare)

(* A run appended after a crash tore the last line must land on a line
   of its own: fused onto the torn bytes it would be dropped with them. *)
let test_ledger_append_after_torn_tail () =
  with_temp (fun path ->
      History.append path (mk_entry "a" 40.0);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"schema\":\"sepe.ledger/1\",\"kind";
      close_out oc;
      History.append path (mk_entry "b" 41.0);
      let l = History.load path in
      Alcotest.(check (list string))
        "both intact entries survive" [ "a"; "b" ]
        (List.filter_map
           (fun e -> Option.bind (Json.member "label" e) Json.to_string_opt)
           l.History.entries);
      Alcotest.(check int) "only the torn fragment is dropped" 1
        l.History.dropped)

(* Ledger entries written while a direct-Tseitin bit-blaster existed
   stamp ["aig": true] between [simplify] and [portfolio]; they ran the
   AIG path that is now the only one, so they stay usable baselines. *)
let test_ledger_legacy_aig () =
  let legacy v =
    let rec insert = function
      | ("portfolio", _) :: _ as rest -> ("aig", Json.Bool v) :: rest
      | f :: rest -> f :: insert rest
      | [] -> []
    in
    mk_entry ~config:(insert config) "old" 40.0
  in
  let current = mk_entry "new" 41.0 in
  Alcotest.(check bool) "aig=true entry matches a current one" true
    (History.compatible (legacy true) current);
  Alcotest.(check bool) "symmetric" true
    (History.compatible current (legacy true));
  Alcotest.(check bool) "aig=false entry does not" false
    (History.compatible (legacy false) current)

(* The committed ledger predates two retired knobs: its entries stamp
   ["aig": true] and ["portfolio_deterministic": false] at width 1.
   Both name what every run now does, so the entries must stay
   baselines for the current stamp.  At a width above 1, [false] ran the
   retired parallel race and must not match; [true] ran the round-robin
   that remains and must. *)
let test_ledger_committed_entries () =
  let committed = History.load "../LEDGER_sepe.jsonl" in
  let current_config =
    let saved = Solver.config () in
    Solver.set_config Solver.default_config;
    Fun.protect
      ~finally:(fun () -> Solver.set_config saved)
      (fun () -> Provenance.config ~jobs:1 ~fast:true)
  in
  Alcotest.(check bool) "current stamp is {jobs, fast, simplify, portfolio}"
    true (current_config = config);
  let current = mk_entry ~config:current_config "new" 41.0 in
  Alcotest.(check int) "four committed entries" 4
    (List.length committed.History.entries);
  List.iter
    (fun old ->
      Alcotest.(check bool) "committed entry matches the current stamp" true
        (History.compatible old current))
    committed.History.entries;
  let with_width width =
    List.map
      (function "portfolio", _ -> ("portfolio", Json.Int width) | f -> f)
      config
  in
  let old ~width det =
    let retired = ("portfolio_deterministic", Json.Bool det) in
    mk_entry ~config:(with_width width @ [ retired ]) "old" 40.0
  in
  let at width = mk_entry ~config:(with_width width) "new" 41.0 in
  Alcotest.(check bool) "round-robin at width 3 matches" true
    (History.compatible (old ~width:3 true) (at 3));
  Alcotest.(check bool) "race at width 3 does not" false
    (History.compatible (old ~width:3 false) (at 3))

(* -- properties ----------------------------------------------------------- *)

let finite_list =
  QCheck.(list_of_size Gen.(1 -- 12) (float_bound_exclusive 1000.0))

let prop_median_bounded =
  QCheck.Test.make ~name:"median lies between min and max" ~count:200
    finite_list (fun vs ->
      let m = Diff.median vs in
      m >= List.fold_left Float.min Float.infinity vs
      && m <= List.fold_left Float.max Float.neg_infinity vs)

let prop_band_contains_median =
  QCheck.Test.make ~name:"band always contains its median" ~count:200
    finite_list (fun vs ->
      match Diff.band vs with
      | None -> false
      | Some b -> b.Diff.bd_lo <= b.Diff.bd_median && b.Diff.bd_median <= b.Diff.bd_hi)

let prop_band_monotone_in_k =
  QCheck.Test.make ~name:"larger k never narrows the band" ~count:200
    QCheck.(pair finite_list (pair (float_bound_exclusive 8.0) (float_bound_exclusive 8.0)))
    (fun (vs, (k1, k2)) ->
      let k_lo = Float.min k1 k2 and k_hi = Float.max k1 k2 in
      match (Diff.band ~k:k_lo vs, Diff.band ~k:k_hi vs) with
      | Some narrow, Some wide ->
          wide.Diff.bd_lo <= narrow.Diff.bd_lo
          && narrow.Diff.bd_hi <= wide.Diff.bd_hi
      | _ -> false)

let prop_history_median_within =
  QCheck.Test.make ~name:"re-running the median of history is never a regression"
    ~count:100
    QCheck.(list_of_size Gen.(2 -- 8) (float_bound_exclusive 500.0))
    (fun walls ->
      let ds =
        Diff.compare_history ~history:(hist walls)
          ~cur:
            (bench_payload ~wall:(Diff.median walls) ~clauses:1000
               ~conflicts:100 ())
          ()
      in
      Diff.regressions ds = [])

let suite =
  [
    Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "band: empty and NaN history" `Quick
      test_band_empty_and_nan;
    Alcotest.test_case "band: MAD=0 falls back to relative floor" `Quick
      test_band_mad_zero_degenerate;
    Alcotest.test_case "band: zero baseline needs the absolute floor" `Quick
      test_band_zero_baseline;
    Alcotest.test_case "band: tolerates documented fig3 jitter" `Quick
      test_band_jitter_tolerance;
    Alcotest.test_case "payload flattening" `Quick test_metrics_of_payload;
    Alcotest.test_case "gate set" `Quick test_gated;
    Alcotest.test_case "two-run compare" `Quick test_compare_runs;
    Alcotest.test_case "two-run compare: zero baselines" `Quick
      test_compare_runs_zero_base;
    Alcotest.test_case "delta percentage" `Quick test_delta_pct;
    Alcotest.test_case "history: empty" `Quick test_history_empty;
    Alcotest.test_case "history: single entry is insufficient" `Quick
      test_history_single_entry;
    Alcotest.test_case "history: banded verdicts" `Quick test_history_banded;
    Alcotest.test_case "history: window trims old eras" `Quick
      test_history_window;
    Alcotest.test_case "history: absolute floor for sub-second metrics" `Quick
      test_history_abs_floor;
    Alcotest.test_case "delta rendering" `Quick test_to_string;
    Alcotest.test_case "ledger append/load round-trip" `Quick
      test_ledger_roundtrip;
    Alcotest.test_case "ledger drops a torn trailing line" `Quick
      test_ledger_torn_line;
    Alcotest.test_case "ledger entries carry provenance" `Quick
      test_ledger_provenance;
    Alcotest.test_case "config compatibility gate" `Quick
      test_ledger_compatible;
    QCheck_alcotest.to_alcotest prop_median_bounded;
    QCheck_alcotest.to_alcotest prop_band_contains_median;
    QCheck_alcotest.to_alcotest prop_band_monotone_in_k;
    QCheck_alcotest.to_alcotest prop_history_median_within;
    Alcotest.test_case "ledger append after a torn tail" `Quick
      test_ledger_append_after_torn_tail;
    Alcotest.test_case "ledger: legacy aig=true config is compatible" `Quick
      test_ledger_legacy_aig;
    Alcotest.test_case "ledger: committed entries match the current stamp"
      `Quick test_ledger_committed_entries;
  ]
