module Config = Sqed_proc.Config
module Synth = Sqed_synth
module Qed = Sqed_qed

type synthesized_case = {
  case : string;
  programs : Synth.Program.t list;
  chosen : Synth.Program.t option;
  elapsed : float;
}

let builtin_table cfg =
  let p = Qed.Partition.make Qed.Partition.Edsep cfg in
  Qed.Equiv_table.builtin ~xlen:cfg.Config.xlen ~n_temp:p.Qed.Partition.n_temp

let key_of_case case =
  match Qed.Equiv_table.key_of_name case with
  | Some key -> key
  | None -> invalid_arg ("Flow.key_of_case: " ^ case)

(* A usable table entry writes its E destination once, fits the partition's
   temporaries, and is not a same-name single line. *)
let usable partition spec_name p =
  Synth.Program.temps_needed p <= partition.Qed.Partition.n_temp
  && (Synth.Program.n_components p > 1
     ||
     match Synth.Program.components p with
     | [ c ] -> c.Synth.Component.name <> spec_name
     | _ -> true)

let choose partition spec_name programs =
  let candidates = List.filter (usable partition spec_name) programs in
  let better a b =
    compare
      (Synth.Program.n_insns a, Synth.Program.n_components a)
      (Synth.Program.n_insns b, Synth.Program.n_components b)
  in
  match List.sort better candidates with p :: _ -> Some p | [] -> None

let synthesize_table ?options ?cases ?jobs ?pool cfg =
  let options =
    match options with
    | Some o ->
        { o with Synth.Engine.config = { o.Synth.Engine.config with Synth.Cegis.xlen = cfg.Config.xlen } }
    | None ->
        {
          Synth.Engine.default_options with
          Synth.Engine.config =
            { Synth.Cegis.default_config with Synth.Cegis.xlen = cfg.Config.xlen };
        }
  in
  let cases =
    match cases with
    | Some cs -> cs
    | None -> List.map (fun s -> s.Synth.Component.g_name) Synth.Library_.specs
  in
  let partition = Qed.Partition.make Qed.Partition.Edsep cfg in
  (* One synthesis task per original instruction; each worker domain owns
     its solvers and term universe.  A case whose task failed degrades to
     its built-in template: it contributes no programs, so [chosen = None]
     below selects the fallback entry. *)
  let verdicts, summary =
    Sqed_par.Campaign.run ?pool ?jobs
      ~key:(fun case -> "synth/" ^ case)
      "synth"
      (fun case ->
        Sqed_resil.Verdict.Ok
          (Synth.Hpf.synthesize ~options ~spec:(Synth.Library_.spec case)
             ~library:Synth.Library_.default ()))
      cases
  in
  let results =
    List.map2
      (fun case v ->
        match v with
        | Sqed_resil.Verdict.Ok result ->
            let programs = result.Synth.Engine.programs in
            {
              case;
              programs;
              chosen = choose partition case programs;
              elapsed = result.Synth.Engine.elapsed;
            }
        | Sqed_resil.Verdict.Unknown _ | Sqed_resil.Verdict.Failed _ ->
            { case; programs = []; chosen = None; elapsed = 0.0 })
      cases verdicts
  in
  let entries =
    List.filter_map
      (fun r ->
        match r.chosen with
        | Some p -> Some (key_of_case r.case, p)
        | None -> None)
      results
  in
  let table =
    Qed.Equiv_table.of_synthesis entries ~fallback:(builtin_table cfg)
  in
  (* Independent cross-check against the golden interpreter before the
     table reaches the verifier; a conversion bug here would silently
     weaken the method. *)
  (match Qed.Equiv_table.validate ~cfg ~partition table with
  | Ok () -> ()
  | Error e -> failwith ("Flow.synthesize_table: invalid table: " ^ e));
  (table, results, summary)
