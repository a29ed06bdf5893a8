(* The SEPE-SQED benchmark.

     dune exec --root . benchmark/sepebench.exe -- \
       --workload synth|detect|refute|hunt --seed N --seconds S --trace 0|1

   One client in a closed loop on one domain.  Setup builds the workload's
   cells; then the cells run one after another, each starting when the
   last one ends, pass after pass (the first in the workload's order, the
   others in a seeded one), until every cell has run once and [--seconds]
   have passed since the first one started.  A repeat still running when
   the window closes is stopped and discarded.  Every verdict goes through
   its known-answer oracle (Oracle), outside the timed span.

   End-to-end times are sums over the cells, so each is the cost of one
   pass over the workload whatever the cell order and however many
   repeats fitted.  With [--trace 1] the passes alternate between
   untraced and traced: traced passes read the library's own counters and
   timers around each cell for the per-layer table, untraced ones give
   the tracing overhead.

   Prints [name value unit] per metric, then one JSON line with the
   verdict counts and the metrics of the mode (end-to-end or per-layer).
   Exits 1 when any verdict was wrong, 2 on a bad command line. *)

open Sepebench_lib
module Metrics = Sqed_obs.Metrics
module Span = Sqed_obs.Trace
module Json = Sqed_obs.Json

let safety_deadline_s = 300.0

(* Setup takes milliseconds, so one measurement of it is mostly noise. *)
let setup_reps = 21

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | Some _ -> find ()
      in
      find ())

let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* -- reading the library's registry -------------------------------------- *)

(* Counters as "c:<name>", timer totals in seconds as "t:<name>",
   histogram sums as "h:<name>". *)
let registry () =
  let tbl = Hashtbl.create 128 in
  let snapshot = Metrics.to_json () in
  let section name prefix read =
    match Json.member name snapshot with
    | Some (Json.Obj kvs) ->
        List.iter
          (fun (k, v) ->
            Option.iter (fun x -> Hashtbl.replace tbl (prefix ^ k) x) (read v))
          kvs
    | _ -> ()
  in
  let number v = Option.map float_of_int (Json.to_int_opt v) in
  let field f v = Option.bind (Json.member f v) number in
  section "counters" "c:" number;
  section "timers" "t:" (fun v ->
      Option.map (fun us -> us /. 1e6) (field "total_us" v));
  section "histograms" "h:" (field "sum");
  tbl

exception Missing of string

(* One traced cell run's share of each per-layer metric, from registry
   deltas.  A name the library no longer registers makes that metric
   [None], so a renamed counter prints as missing instead of as 0. *)
let layer_shares (cell : Workload.cell) (f : Workload.finished) ~before
    ~after ~cpu =
  let d key =
    match Hashtbl.find_opt after key with
    | None -> raise (Missing key)
    | Some a -> a -. Option.value ~default:0.0 (Hashtbl.find_opt before key)
  in
  let blast () = d "t:smt.bitblast" and solve () = d "t:sat.solve" in
  let unroll () = d "t:bmc.unroll" in
  let check () = d "t:sepebench.bmc.check" in
  (* A self time is an engine's span minus the solver layers under it, on
     the cells that run that engine. *)
  let is_bmc = cell.engine = `Bmc in
  let synth_self () =
    if is_bmc then 0.0
    else
      d "t:sepebench.synth.hpf" +. d "t:sepebench.synth.iter" -. blast ()
      -. solve ()
  in
  let bmc_self () =
    if is_bmc then check () -. blast () -. solve () -. unroll () else 0.0
  in
  [
    ("synth.multisets_tried", fun () -> d "c:synth.multisets");
    ("synth.cegis_iterations", fun () -> d "c:synth.cegis_iterations");
    ("synth.solver_calls", fun () -> d "c:synth.solver_calls");
    ("synth.programs", fun () -> float_of_int f.Workload.programs);
    ("synth.self_s", synth_self);
    ("smt.blast_s", blast);
    ("smt.check_calls", fun () -> d "c:smt.check_calls");
    ("smt.gates", fun () -> d "c:smt.gates");
    ("smt.aig.nodes", fun () -> d "c:smt.aig.nodes");
    ("smt.aig.struct_hits", fun () -> d "c:smt.aig.struct_hits");
    ("smt.blast_cache_hits", fun () -> d "c:smt.blast_cache_hits");
    ("sat.simplify_s", fun () -> d "t:sat.simplify");
    ( "sat.simplify.eliminated_vars",
      fun () -> d "c:sat.simplify.eliminated_vars" );
    (* sat.simplify runs inside sat.solve *)
    ("sat.search_s", fun () -> solve () -. d "t:sat.simplify");
    ("sat.conflicts", fun () -> d "c:sat.conflicts");
    ("sat.propagations", fun () -> d "c:sat.propagations");
    ("sat.decisions", fun () -> d "c:sat.decisions");
    ("sat.restarts", fun () -> d "c:sat.restarts");
    ("sat.learnt_literals", fun () -> d "h:sat.learnt_clause_len");
    ("sat.clauses", fun () -> d "c:sat.clauses");
    ("bmc.check_s", check);
    ("bmc.bounds_checked", fun () -> d "c:bmc.bounds_checked");
    ("bmc.self_s", bmc_self);
    ("rtl.unroll_s", unroll);
    ("sim.replay_s", fun () -> d "t:sepebench.replay");
    ("trace.cpu_s", fun () -> cpu);
  ]
  |> List.map (fun (name, share) ->
         (name, match share () with v -> Some v | exception Missing _ -> None))

(* -- the closed loop ---------------------------------------------------- *)

type sample = {
  cell : int;
  traced : bool;
  cpu : float;
  wall : float;
  cex_depth : int option;
  shares : (string * float option) list;  (** traced passes only *)
}

type run = {
  samples : sample list;
  attempted : int;
  failures : (string * string) list;  (** cell label, reason *)
  passes : int;
  first_pass_rss_mb : float;
}

let set_tracing on =
  Metrics.enabled := on;
  Span.enabled := on

let measure ~cells ~seed ~seconds ~traced_run =
  let rng = Random.State.make [| seed |] in
  let min_passes = if traced_run then 2 else 1 in
  let window_end = Unix.gettimeofday () +. seconds in
  let samples = ref [] and failures = ref [] and attempted = ref 0 in
  let run_cell ~mandatory ~traced i =
    let cell = cells.(i) in
    let now = Unix.gettimeofday () in
    let safety = now +. safety_deadline_s in
    (* Only a repeat may be cut short by the window. *)
    let windowed = (not mandatory) && window_end < safety in
    let deadline = if windowed then window_end else safety in
    let before = if traced then registry () else Hashtbl.create 0 in
    let c0 = cpu_now () in
    let result =
      match
        Workload.span Workload.k_cell (fun () -> cell.Workload.run ~deadline)
      with
      | r -> Ok r
      | exception e -> Error ("raised " ^ Printexc.to_string e)
    in
    let cpu = cpu_now () -. c0 and wall = Unix.gettimeofday () -. now in
    let verdict =
      match result with
      | Error e -> Some (Error e)
      | Ok None when windowed -> None
      | Ok None ->
          Some
            (Error
               (Printf.sprintf "gave up at the %.0f s safety deadline"
                  safety_deadline_s))
      | Ok (Some finished) ->
          Some (Result.map (fun () -> finished) (finished.check ()))
    in
    match verdict with
    | None -> ()
    | Some (Error reason) ->
        incr attempted;
        failures := (cell.label, reason) :: !failures
    | Some (Ok finished) ->
        incr attempted;
        let shares =
          if traced then
            layer_shares cell finished ~before ~after:(registry ()) ~cpu
          else []
        in
        let sample =
          { cell = i; traced; cpu; wall; cex_depth = finished.cex_depth; shares }
        in
        samples := sample :: !samples
  in
  (* The library's hash-consed terms are never freed, so the heap grows
     with every cell run and its peak depends on the order cells ran in.
     Memory is therefore read after a first pass in the workload's own
     order; the seed orders the repeats. *)
  let first_pass_rss_mb = ref 0.0 in
  let rec passes pass =
    let mandatory = pass < min_passes in
    if mandatory || Unix.gettimeofday () < window_end then begin
      let traced = traced_run && pass mod 2 = 1 in
      set_tracing traced;
      let n = Array.length cells in
      List.iter
        (fun i ->
          if mandatory || Unix.gettimeofday () < window_end then
            run_cell ~mandatory ~traced i)
        (if pass = 0 then List.init n Fun.id else shuffle rng n);
      if pass = 0 then first_pass_rss_mb := peak_rss_mb ();
      passes (pass + 1)
    end
    else pass
  in
  let passes = passes 0 in
  set_tracing false;
  {
    samples = List.rev !samples;
    attempted = !attempted;
    failures = List.rev !failures;
    passes;
    first_pass_rss_mb = !first_pass_rss_mb;
  }

(* -- aggregation --------------------------------------------------------- *)

(* Each cell's fastest repeat among the samples [keep] selects.  Repeats of
   a cell do the same work, so what varies between them is interference
   from the rest of the machine: on a shared host a cell's repeats within
   one run spread by 12 %, one-sided, and the minimum filters that out
   where the median does not. *)
let fastest ~ncells ~keep value samples =
  List.filter_map
    (fun i ->
      match List.filter (fun s -> s.cell = i && keep s) samples with
      | [] -> None
      | ss ->
          let best = List.fold_left (fun m s -> Float.min m (value s)) in
          Some (i, best infinity ss))
    (List.init ncells Fun.id)

let sum xs = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 xs
let untraced s = not s.traced
let cpu_of s = s.cpu

let end_to_end ~setup_s ~ncells run =
  let cpu = fastest ~ncells ~keep:untraced cpu_of run.samples in
  let wall = fastest ~ncells ~keep:untraced (fun s -> s.wall) run.samples in
  [
    ("setup_s", setup_s, "s");
    ("cpu_s", sum cpu, "s");
    ("wall_s", sum wall, "s");
    ("cell_cpu_s.p50", Stats.median (List.map snd cpu), "s");
    ("peak_rss_mb", run.first_pass_rss_mb, "MB");
  ]

(* Printed beside the end-to-end metrics: the sample count behind
   cell_cpu_s.p50, and the paper's own claims where the workload makes
   them (Fig. 3's HPF/iterative time, Table 1 and Fig. 4's trace
   length). *)
let workload_lines ~cells run =
  let ncells = Array.length cells in
  let cpu = fastest ~ncells ~keep:untraced cpu_of run.samples in
  let n = List.length cpu in
  let engine_cpu e =
    sum (List.filter (fun (i, _) -> cells.(i).Workload.engine = e) cpu)
  in
  let depths =
    List.filter_map
      (fun s -> Option.map float_of_int s.cex_depth)
      run.samples
  in
  [ ("cell_cpu_s.n", float_of_int n, "count") ]
  @ (match Stats.high_percentile ~tail:10 n with
    | Some p when p > 50 ->
        let sorted = Array.of_list (Stats.sorted (List.map snd cpu)) in
        [ (Printf.sprintf "cell_cpu_s.p%d" p, sorted.(p * n / 100), "s") ]
    | _ -> [])
  @ (if engine_cpu `Iter > 0.0 then
       [ ("hpf_iter_cpu_ratio", engine_cpu `Hpf /. engine_cpu `Iter, "ratio") ]
     else [])
  @
  if depths = [] then []
  else [ ("cex_depth.p50", Stats.median depths, "cycles") ]

(* Per-layer metrics with their values, or [None] when missing. *)
let per_layer ~ncells ~qed_build_s run =
  let traced = List.filter (fun s -> s.traced) run.samples in
  let names = match traced with [] -> [] | s :: _ -> List.map fst s.shares in
  let total name =
    let share s =
      match List.assoc name s.shares with
      | Some v -> v
      | None -> raise (Missing name)
    in
    match fastest ~ncells ~keep:(fun _ -> true) share traced with
    | per_cell -> Some (sum per_cell)
    | exception Missing _ -> None
  in
  let totals = List.map (fun n -> (n, total n)) names in
  let get n = Option.join (List.assoc_opt n totals) in
  let ( let* ) = Option.bind in
  let ratio a b =
    let* x = get a in
    let* y = get b in
    Some (if y > 0.0 then x /. y else 0.0)
  in
  let untraced_cpu = sum (fastest ~ncells ~keep:untraced cpu_of run.samples) in
  let layer_share =
    let* blast = get "smt.blast_s" in
    let* simplify = get "sat.simplify_s" in
    let* search = get "sat.search_s" in
    let* unroll = get "rtl.unroll_s" in
    let* cpu = get "trace.cpu_s" in
    Some ((blast +. simplify +. search +. unroll) /. cpu)
  in
  let unit n = if String.ends_with ~suffix:"_s" n then "s" else "count" in
  List.map (fun (n, v) -> (n, v, unit n)) totals
  @ [
      ("synth.yield", ratio "synth.programs" "synth.multisets_tried", "ratio");
      ("sat.props_per_s", ratio "sat.propagations" "sat.search_s", "1/s");
      ("qed.build_s", Some qed_build_s, "s");
      ( "trace.overhead",
        Option.map
          (fun cpu -> (cpu /. untraced_cpu) -. 1.0)
          (get "trace.cpu_s"),
        "ratio" );
      ("trace.layer_share", layer_share, "ratio");
    ]

(* -- output -------------------------------------------------------------- *)

let json_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let usage =
  "sepebench --workload synth|detect|refute|hunt [--seed N] [--seconds S] \
   [--trace 0|1]"

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 25.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  synth|detect|refute|hunt");
      ("--seed", Arg.Set_int seed, "N  repeat order and oracle inputs");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1  per-layer run with a Chrome trace");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Workload.names && (!trace = 0 || !trace = 1))
  then begin
    prerr_endline usage;
    exit 2
  end;
  let traced_run = !trace = 1 in
  Metrics.enabled := traced_run;
  let build_time tbl =
    Option.value ~default:0.0 (Hashtbl.find_opt tbl "t:sepebench.qed.build")
  in
  let build_before = build_time (registry ()) in
  (* Each repetition starts from a collected heap and keeps nothing alive
     but the last one's cells, so repetitions see the same heap. *)
  let cells = ref [] in
  let setup_times =
    List.init setup_reps (fun _ ->
        cells := [];
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        cells := Workload.setup !workload ~seed:!seed;
        Unix.gettimeofday () -. t0)
  in
  let qed_build_s =
    (build_time (registry ()) -. build_before) /. float_of_int setup_reps
  in
  Metrics.enabled := false;
  let cells = Array.of_list !cells in
  let ncells = Array.length cells in
  let run = measure ~cells ~seed:!seed ~seconds:!seconds ~traced_run in
  let failed = List.length run.failures in
  let correct = failed = 0 in
  List.iter
    (fun (label, reason) -> Printf.printf "# FAILED %s: %s\n" label reason)
    run.failures;
  Printf.printf "# workload %s, seed %d: %d cells, %d passes, %d samples\n"
    !workload !seed ncells run.passes (List.length run.samples);
  let fail_frac =
    ( "fail_frac",
      float_of_int failed /. float_of_int (max 1 run.attempted),
      "ratio" )
  in
  let metrics, extra =
    if not correct then ([], [])
    else if traced_run then begin
      let path = Printf.sprintf "sepebench-%s.trace.json" !workload in
      Span.export path;
      Printf.printf "# chrome trace: %s (%d events dropped)\n" path
        (Span.dropped ());
      let all = per_layer ~ncells ~qed_build_s run in
      List.iter
        (fun (n, v, _) -> if v = None then Printf.printf "%s missing\n" n)
        all;
      ( List.filter_map
          (fun (n, v, u) -> Option.map (fun v -> (n, v, u)) v)
          all,
        [] )
    end
    else
      ( end_to_end ~setup_s:(Stats.median setup_times) ~ncells run,
        workload_lines ~cells run )
  in
  List.iter
    (fun m -> print_endline (Stats.format_line m))
    (metrics @ (fail_frac :: extra));
  print_endline (json_line ~correct ~attempted:run.attempted ~failed metrics);
  if not correct then exit 1
