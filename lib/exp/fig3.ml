(* The flagship experiment (paper Fig. 3): time to synthesize equivalent
   programs per original instruction, HPF-CEGIS vs iterative CEGIS.

   Shared between the bench harness and the `sepe fig3` subcommand so the
   workload is identical wherever it runs.  The optional witness phase
   appends one tiny BMC verification so a `sepe fig3 --trace` trace also
   contains bmc.depth spans; the bench harness keeps it off to preserve
   the historical fig3 workload.

   Each (case, engine, seed) cell is one task of a supervised
   Sqed_par.Campaign: a crashing cell degrades to a FAILED line instead of
   killing the campaign, and `?checkpoint` journals completed cells so an
   interrupted run can resume skipping them. *)

module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module V = Sepe_sqed.Verifier
module Synth = Sqed_synth
module Json = Sqed_obs.Json
module Metrics = Sqed_obs.Metrics
module Campaign = Sqed_par.Campaign
module Verdict = Sqed_resil.Verdict

let engine_name = function `Hpf -> "hpf" | `Iter -> "iter"

let cell_key (case, engine, seed) =
  Printf.sprintf "fig3/%s/%s/%d" case (engine_name engine) seed

(* A cell's journal record: [elapsed] seconds and the HPF multiset
   counters ([tried]/[total], 0 for iterative CEGIS). *)
let codec =
  {
    Campaign.encode =
      (fun (elapsed, tried, total) ->
        Json.Obj
          [
            ("elapsed", Json.Float elapsed);
            ("tried", Json.Int tried);
            ("total", Json.Int total);
          ]);
    decode =
      (fun j ->
        match
          ( Option.bind (Json.member "elapsed" j) Json.to_float_opt,
            Option.bind (Json.member "tried" j) Json.to_int_opt,
            Option.bind (Json.member "total" j) Json.to_int_opt )
        with
        | Some elapsed, Some tried, Some total -> Some (elapsed, tried, total)
        | _ -> None);
  }

let run ?(fast = false) ?jobs ?(witness = false) ?checkpoint ?cases
    ?seeds ?k ?time_budget () =
  Print.section
    "Fig. 3 - time to synthesize equivalent programs per original \
     instruction\n(HPF-CEGIS vs iterative CEGIS; the classical baseline is \
     E4)";
  let cases =
    match cases with
    | Some cs -> cs
    | None ->
        if fast then [ "ADD"; "SUB"; "XOR"; "OR" ]
        else List.map (fun s -> s.Synth.Component.g_name) Synth.Library_.specs
  in
  let k = match k with Some k -> k | None -> if fast then 2 else 8 in
  let seeds =
    match seeds with Some s -> s | None -> if fast then [ 1 ] else [ 1; 2; 3 ]
  in
  let budget =
    match time_budget with
    | Some b -> b
    | None -> if fast then 60.0 else 300.0
  in
  let mk_options seed =
    {
      Synth.Engine.default_options with
      Synth.Engine.k;
      n_max = 3;
      seed;
      time_budget = Some budget;
      config = { Synth.Cegis.default_config with Synth.Cegis.xlen = 8 };
    }
  in
  Printf.printf
    "library: 30 components; k=%d programs of >=3 components; multisets of \
     size 3; xlen=8; budget %.0fs/run; mean over %d seeds\n\n"
    k budget (List.length seeds);
  (* One pool task per (case, engine, seed) cell.  Cells are seeded and
     independent, so the numbers are identical for any jobs value; rows
     are aggregated and printed in case order afterwards. *)
  let tasks =
    List.concat_map
      (fun case ->
        List.concat_map
          (fun seed -> [ (case, `Hpf, seed); (case, `Iter, seed) ])
          seeds)
      cases
  in
  let run_cell (case, engine, seed) =
    let spec = Synth.Library_.spec case in
    let options = mk_options seed in
    match engine with
    | `Hpf ->
        let r =
          Synth.Hpf.synthesize ~options ~spec ~library:Synth.Library_.default ()
        in
        Verdict.Ok
          ( Print.seconds r.Synth.Engine.elapsed,
            r.Synth.Engine.stats.Synth.Cegis.multisets_tried,
            r.Synth.Engine.multisets_total )
    | `Iter ->
        let r =
          Synth.Iterative.synthesize ~options ~spec
            ~library:Synth.Library_.default
        in
        Verdict.Ok (Print.seconds r.Synth.Engine.elapsed, 0, 0)
  in
  (* Journaled cells are skipped; their stored numbers enter the table as
     if just computed. *)
  let verdicts, summary =
    Campaign.run ?jobs ~task_budget:budget
      ?checkpoint:(Option.map (fun path -> (path, codec)) checkpoint)
      ~key:cell_key "fig3" run_cell tasks
  in
  let cells =
    List.filter_map
      (fun (task, v) ->
        match v with
        | Verdict.Ok cell -> Some (task, cell)
        | Verdict.Unknown _ | Verdict.Failed _ -> None)
      (List.combine tasks verdicts)
  in
  Printf.printf "%-8s %12s %12s %10s %14s\n" "case" "HPF (s)" "iter (s)"
    "HPF/iter" "HPF multisets";
  let rows = ref [] in
  List.iter
    (fun case ->
      let times engine =
        List.filter_map
          (fun ((c, e, _), (t, _, _)) ->
            if c = case && e = engine then Some t else None)
          cells
      in
      let mean = function
        | [] -> Float.nan
        | ts -> List.fold_left ( +. ) 0.0 ts /. Float.of_int (List.length ts)
      in
      (* Mirror the sequential report: the multiset counters of the last
         seed's HPF run. *)
      let tried, total_ms =
        let last_seed = List.nth seeds (List.length seeds - 1) in
        match List.assoc_opt (case, `Hpf, last_seed) cells with
        | Some (_, tried, total) -> (tried, total)
        | None -> (0, 0)
      in
      let th = mean (times `Hpf) and ti = mean (times `Iter) in
      let fmt t = if Float.is_nan t then "-" else Printf.sprintf "%.2f" t in
      rows := (case, th, ti) :: !rows;
      Printf.printf "%-8s %12s %12s %10s %9d/%d\n%!" case (fmt th) (fmt ti)
        (fmt (th /. ti))
        tried total_ms)
    cases;
  let complete = List.filter (fun (_, t, i) -> not (Float.is_nan (t +. i))) !rows in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 complete in
  let th = total (fun (_, a, _) -> a) and ti = total (fun (_, _, b) -> b) in
  (* Publish the headline totals as gauges so ledger'd runs archive the
     paper's Fig-3 claim (the run ledger flattens gauges for cross-run
     comparison) from either driver, not just the bench harness. *)
  Metrics.set (Metrics.gauge "fig3.hpf_total_ms") (int_of_float (th *. 1e3));
  Metrics.set (Metrics.gauge "fig3.iter_total_ms") (int_of_float (ti *. 1e3));
  if ti > 0.0 then
    Printf.printf
      "\noverall: HPF %.1fs vs iterative %.1fs -> %.0f%% time reduction \
       (paper: ~50%% average)\n"
      th ti
      (100.0 *. (1.0 -. (th /. ti)));
  if witness then begin
    Printf.printf
      "\nwitness BMC: SEPE-SQED detecting the ADD mutation on the tiny core\n%!";
    let r =
      V.run ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10 ~time_budget:120.0
        Config.tiny
    in
    Printf.printf "witness: %s\n%!" (V.outcome_to_string r)
  end;
  summary
