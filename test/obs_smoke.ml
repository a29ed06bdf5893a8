(* End-to-end observability smoke check, run by the @obs-smoke alias
   (wired into `dune runtest`).

   With metrics and tracing enabled it drives one tiny flow through every
   instrumented layer — an HPF-CEGIS synthesis (SAT/SMT/synth spans) plus
   one tiny-core BMC verification (BMC spans) — exports the Chrome trace,
   re-parses it with the checked JSON parser and asserts the span names
   and solver counters the instrumentation promises.  Exits nonzero on
   any failure, so a silent regression in the plumbing fails `runtest`. *)

module Json = Sqed_obs.Json
module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace
module Synth = Sqed_synth
module V = Sepe_sqed.Verifier

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    Printf.printf "FAIL %s\n" name;
    incr failures
  end

let () =
  Metrics.enabled := true;
  Trace.enabled := true;

  (* Synthesis leg: exercises sat.solve / smt.bitblast / synth spans. *)
  let options =
    {
      Synth.Engine.default_options with
      Synth.Engine.k = 1;
      n_max = 3;
      time_budget = Some 60.0;
      config = { Synth.Cegis.default_config with Synth.Cegis.xlen = 4 };
    }
  in
  let r =
    Synth.Hpf.synthesize ~options ~spec:(Synth.Library_.spec "SUB")
      ~library:Synth.Library_.default ()
  in
  check "synthesis found a program" (r.Synth.Engine.programs <> []);

  (* BMC leg: exercises bmc.depth / bmc.unroll spans. *)
  let v =
    V.run ~bug:Sqed_proc.Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10
      ~time_budget:120.0 Sqed_proc.Config.tiny
  in
  check "BMC witness detected the bug" (V.detected v);

  (* The trace must round-trip through the checked parser. *)
  let path = Filename.temp_file "sepe_obs_smoke" ".json" in
  Trace.export path;
  (match Trace.validate_export path with
  | Ok n ->
      check "trace validates" true;
      check "trace is non-trivial" (n > 10);
      check "no events dropped" (Trace.dropped () = 0)
  | Error e ->
      Printf.printf "FAIL trace validates: %s\n" e;
      incr failures);
  Sys.remove path;

  (* Every instrumented layer must have produced its spans... *)
  let names =
    List.fold_left
      (fun acc ev -> ev.Trace.ev_name :: acc)
      [] (Trace.events ())
  in
  List.iter
    (fun n -> check ("span " ^ n) (List.mem n names))
    [
      "sat.solve"; "sat.simplify"; "smt.check"; "smt.bitblast";
      "synth.multiset"; "cegis.iteration"; "bmc.depth"; "bmc.unroll";
    ];

  (* ...and the registry must hold real solver work. *)
  List.iter
    (fun c -> check ("counter " ^ c) (Metrics.find_counter c > 0))
    [
      "sat.clauses"; "sat.propagations"; "sat.conflicts"; "smt.gates";
      "smt.check_calls"; "synth.cegis_iterations"; "bmc.bounds_checked";
      (* Most of the SUB flow's multisets fail on the two random seed
         examples alone, so Locsynth's refutation probe must fire. *)
      "synth.probe_refuted";
      (* Preprocessing is on by default, and any bit-blasted problem has
         Tseitin-internal gates to eliminate — the simplifier must have
         both run and done real work. *)
      "sat.simplify.passes"; "sat.simplify.eliminated_vars";
      (* The AIG gate layer is on by default: blasting any circuit must
         allocate nodes, hit the structural hash on shared subterms, and
         skip clause halves via polarity-aware conversion. *)
      "smt.aig.nodes"; "smt.aig.struct_hits";
      "smt.aig.pg_skipped_clauses";
    ];

  (* The metrics snapshot must itself be valid JSON. *)
  (match Json.parse (Json.to_string (Metrics.to_json ())) with
  | Ok _ -> check "metrics snapshot re-parses" true
  | Error e ->
      Printf.printf "FAIL metrics snapshot re-parses: %s\n" e;
      incr failures);

  if !failures > 0 then begin
    Printf.printf "obs-smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "obs-smoke: all checks passed"
