(* Post-run check for the @bench-smoke alias: parse the JSON summary the
   bench harness just wrote (with the checked parser — the same one that
   validates trace exports) and assert that the SAT preprocessor actually
   ran and did real work during the experiment.  This is the guard that
   keeps the `simplify` plumbing honest end-to-end: if the default ever
   silently flips off, or the counters stop being published, the smoke
   alias fails instead of the regression surfacing as a mystery slowdown
   in a full bench run. *)

module Json = Sqed_obs.Json

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    Printf.printf "FAIL %s\n" name;
    incr failures
  end

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The end-of-run heap reading both payloads carry: live words after a
   full collection, never above the heap's top, and the allocation
   totals: promotion only moves words the minor heap allocated. *)
let check_heap what j =
  let field name =
    Option.bind (Json.member "heap" j) (fun h ->
        Option.bind (Json.member name h) Json.to_int_opt)
  in
  check (what ^ " records the live heap after a full collection")
    (match (field "live_words", field "top_heap_words") with
    | Some live, Some top -> live > 0 && live <= top
    | _ -> false);
  check (what ^ " records minor and promoted words")
    (match (field "minor_words", field "promoted_words") with
    | Some minor, Some promoted ->
        minor > 0 && promoted > 0 && promoted <= minor
    | _ -> false)

(* --report mode, used by the @report-smoke alias: validate the flight
   recorder's artifacts — the run.json sidecar, the JSONL event log and
   (optionally) the standalone metrics snapshot — all through the same
   checked parser.  The counter assertions pin the recorder's plumbing:
   if log records stop reaching the ring, the sampler stops firing, or
   the trace drop counter is unregistered, this fails in CI rather than
   leaving silent holes in every future report. *)
let check_report run_json log_jsonl metrics_json =
  (match Json.parse (read_file run_json) with
  | Error e ->
      Printf.printf "FAIL %s does not parse: %s\n" run_json e;
      incr failures
  | Ok j ->
      check "run.json schema is sepe.flight/1"
        (Json.member "schema" j = Some (Json.String "sepe.flight/1"));
      check "run.json records wall_s > 0"
        (match Option.bind (Json.member "wall_s" j) Json.to_float_opt with
        | Some w -> w > 0.0
        | None -> false);
      let counter name =
        Option.bind (Json.member "metrics" j) (fun m ->
            Option.bind (Json.member "counters" m) (fun c ->
                Option.bind (Json.member name c) Json.to_int_opt))
      in
      List.iter
        (fun name ->
          check
            (Printf.sprintf "counter %s > 0" name)
            (match counter name with Some v -> v > 0 | None -> false))
        [ "obs.log.records"; "obs.sampler.samples" ];
      (* Present even at 0: a clean run drops nothing, but the counters
         must stay published so drop spikes are visible when they come. *)
      List.iter
        (fun name ->
          check (Printf.sprintf "counter %s present" name)
            (counter name <> None))
        [ "obs.trace.dropped"; "obs.log.dropped" ];
      let nonempty_list name =
        match Json.member name j with
        | Some (Json.List (_ :: _)) -> true
        | _ -> false
      in
      check "sampler recorded at least one domain series"
        (match Option.bind (Json.member "samples" j) (Json.member "domains") with
        | Some (Json.List (d :: _)) -> (
            match Json.member "samples" d with
            | Some (Json.List (_ :: _)) -> true
            | _ -> false)
        | _ -> false);
      check "per-case verdict rows present" (nonempty_list "cases");
      check_heap "run.json" j;
      check "log tail embedded" (nonempty_list "log_tail"));
  (* Every line of the JSONL sink must re-parse and carry the record
     envelope. *)
  let lines =
    String.split_on_char '\n' (read_file log_jsonl)
    |> List.filter (fun l -> String.trim l <> "")
  in
  check "JSONL log is non-empty" (lines <> []);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Error e ->
          check (Printf.sprintf "log line %d parses (%s)" (i + 1) e) false
      | Ok j ->
          check
            (Printf.sprintf "log line %d has ts_us/level/ev" (i + 1))
            (Json.member "ts_us" j <> None
            && Json.member "level" j <> None
            && Json.member "ev" j <> None))
    lines;
  (match metrics_json with
  | None -> ()
  | Some path -> (
      match Json.parse (read_file path) with
      | Ok _ -> check "metrics snapshot parses" true
      | Error e ->
          Printf.printf "FAIL %s does not parse: %s\n" path e;
          incr failures));
  if !failures > 0 then begin
    Printf.printf "report-smoke check: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "report-smoke check: all checks passed"

(* --portfolio mode, used by the @portfolio-smoke alias: after a
   `fig3 --fast --portfolio 2` run (witness BMC on), assert through the
   run.json sidecar that the portfolio actually raced — solves and
   workers counted, clauses exported into the exchange — and through the
   full JSONL stream (run.json only embeds a tail) that the per-worker
   flight-recorder events were emitted.  This pins the whole dispatch
   chain: flag -> Solver.create -> BMC depth gate -> Portfolio.solve ->
   counters/events. *)
let check_portfolio run_json log_jsonl =
  (match Json.parse (read_file run_json) with
  | Error e ->
      Printf.printf "FAIL %s does not parse: %s\n" run_json e;
      incr failures
  | Ok j ->
      let counter name =
        Option.bind (Json.member "metrics" j) (fun m ->
            Option.bind (Json.member "counters" m) (fun c ->
                Option.bind (Json.member name c) Json.to_int_opt))
      in
      List.iter
        (fun name ->
          check
            (Printf.sprintf "counter %s > 0" name)
            (match counter name with Some v -> v > 0 | None -> false))
        [
          "sat.portfolio.solves"; "sat.portfolio.workers";
          "sat.portfolio.exported"; "sat.portfolio.wins";
        ];
      (* Published even at 0, so sharing regressions stay visible. *)
      List.iter
        (fun name ->
          check
            (Printf.sprintf "counter %s present" name)
            (counter name <> None))
        [ "sat.portfolio.imported"; "sat.portfolio.banked";
          "sat.portfolio.lost" ]);
  let lines =
    String.split_on_char '\n' (read_file log_jsonl)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let has_event name =
    List.exists
      (fun line ->
        match Json.parse line with
        | Ok j -> Json.member "ev" j = Some (Json.String name)
        | Error _ -> false)
      lines
  in
  check "portfolio.worker.start events logged" (has_event "portfolio.worker.start");
  check "a worker verdict event logged"
    (has_event "portfolio.worker.won"
    || has_event "portfolio.worker.lost"
    || has_event "portfolio.worker.exhausted");
  if !failures > 0 then begin
    Printf.printf "portfolio-smoke check: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "portfolio-smoke check: all checks passed"

(* --ledger mode, used by the @history-smoke alias: after bench runs have
   appended to a run ledger, re-read it line by line with the checked
   parser and assert every entry carries the sepe.ledger/1 envelope —
   schema tag, provenance block (commit, host, cores, compiler, the
   compat-gating config) and an embedded run payload — and that the file
   holds at least the expected number of entries.  Then corrupt a copy
   with a torn trailing line (the crash the append discipline is designed
   to survive) and assert History.load drops exactly that line while
   keeping every intact entry. *)
let check_ledger path min_entries =
  let module History = Sqed_obs.History in
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  check
    (Printf.sprintf "ledger holds >= %d entries (got %d)" min_entries
       (List.length lines))
    (List.length lines >= min_entries);
  List.iteri
    (fun i line ->
      let tag name ok = check (Printf.sprintf "entry %d %s" (i + 1) name) ok in
      match Json.parse line with
      | Error e -> tag (Printf.sprintf "parses (%s)" e) false
      | Ok j ->
          tag "schema is sepe.ledger/1"
            (Json.member "schema" j = Some (Json.String History.schema));
          tag "has kind/label/recorded_unix_s"
            (Json.member "kind" j <> None
            && Json.member "label" j <> None
            && Json.member "recorded_unix_s" j <> None);
          let prov = Json.member "provenance" j in
          tag "provenance fields present"
            (List.for_all
               (fun f -> Option.bind prov (Json.member f) <> None)
               [ "git_commit"; "hostname"; "cores"; "ocaml"; "config" ]);
          tag "config carries the compat-gate keys"
            (List.for_all
               (fun f ->
                 Option.bind prov (fun p ->
                     Option.bind (Json.member "config" p) (Json.member f))
                 <> None)
               [ "jobs"; "fast"; "simplify"; "portfolio" ]);
          tag "embeds a run payload"
            (match Json.member "run" j with
            | Some (Json.Obj _) -> true
            | _ -> false))
    lines;
  let loaded = History.load path in
  check "History.load keeps every intact line"
    (List.length loaded.History.entries = List.length lines
    && loaded.History.dropped = 0);
  (* Torn-line rejection: a crash mid-append leaves a partial line. *)
  let torn = path ^ ".torn" in
  let oc = open_out_bin torn in
  output_string oc (read_file path);
  output_string oc "{\"schema\":\"sepe.ledger/1\",\"kind\":\"ben";
  close_out oc;
  let reloaded = History.load torn in
  check "torn trailing line is dropped, intact entries survive"
    (List.length reloaded.History.entries = List.length lines
    && reloaded.History.dropped = 1);
  if !failures > 0 then begin
    Printf.printf "history-smoke check: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "history-smoke check: all checks passed"

let () =
  if Array.length Sys.argv > 2 && Sys.argv.(1) = "--ledger" then begin
    let min_entries =
      if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 1
    in
    check_ledger Sys.argv.(2) min_entries;
    exit 0
  end;
  if Array.length Sys.argv > 3 && Sys.argv.(1) = "--portfolio" then begin
    check_portfolio Sys.argv.(2) Sys.argv.(3);
    exit 0
  end;
  if Array.length Sys.argv > 3 && Sys.argv.(1) = "--report" then begin
    let metrics =
      if Array.length Sys.argv > 4 then Some Sys.argv.(4) else None
    in
    check_report Sys.argv.(2) Sys.argv.(3) metrics;
    exit 0
  end;
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_sepe.json" in
  match Json.parse (read_file path) with
  | Error e ->
      Printf.printf "FAIL %s does not parse: %s\n" path e;
      exit 1
  | Ok j ->
      check "summary records simplify=true"
        (Json.member "simplify" j = Some (Json.Bool true));
      check_heap "summary" j;
      let counter name =
        Option.bind (Json.member "metrics" j) (fun m ->
            Option.bind (Json.member "counters" m) (fun c ->
                Option.bind (Json.member name c) Json.to_int_opt))
      in
      List.iter
        (fun name ->
          check
            (Printf.sprintf "counter %s > 0" name)
            (match counter name with Some v -> v > 0 | None -> false))
        [
          "sat.simplify.passes"; "sat.simplify.eliminated_vars";
          (* The AIG gate layer is on by default: nodes were built, the
             structural hash answered repeats, and polarity-aware
             conversion skipped clause halves. *)
          "smt.aig.nodes"; "smt.aig.struct_hits"; "smt.aig.rewrites";
          "smt.aig.pg_skipped_clauses";
          (* Guards the sampler blind spot: bench keeps the sampler on
             whenever metrics are, and the first-poll fallback means even
             a short run records at least one sample.  A zero here means
             the time-series layer silently died. *)
          "obs.sampler.samples";
        ];
      (* The resilience layer's counters must be published even when the
         run was clean (value 0): operators grep for them to tell "no
         retries happened" from "retry accounting fell off". *)
      List.iter
        (fun name ->
          check
            (Printf.sprintf "counter %s present" name)
            (counter name <> None))
        [
          "resil.retries"; "resil.task_failures";
          "resil.faults_injected"; "resil.budget.exhausted";
          "resil.checkpoint.records";
        ];
      (match Json.member "experiments" j with
      | Some (Json.List (_ :: _)) -> check "at least one experiment record" true
      | _ -> check "at least one experiment record" false);
      if !failures > 0 then begin
        Printf.printf "bench-smoke check: %d failure(s)\n" !failures;
        exit 1
      end;
      print_endline "bench-smoke check: all checks passed"
