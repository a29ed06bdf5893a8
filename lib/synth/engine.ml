module Budget = Sqed_resil.Budget

type options = {
  config : Cegis.config;
  n_max : int;
  k : int;
  min_components : int;
  seed : int;
  time_budget : float option;
}

let default_options =
  {
    config = Cegis.default_config;
    n_max = 3;
    k = 5;
    min_components = 3;
    seed = 1;
    time_budget = None;
  }

type result = {
  programs : Program.t list;
  stats : Cegis.stats;
  multisets_total : int;
  elapsed : float;
  budget_exhausted : bool;
}

let countable opts p = Program.n_components p >= opts.min_components

let search ?(learn = fun _ _ -> ()) ?(all_used = true) ?max_programs ~options
    ~spec ~total multisets =
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun b -> started +. b) options.time_budget in
  Budget.within ?deadline @@ fun () ->
  let budget = Budget.current () in
  let max_programs =
    Option.value max_programs
      ~default:options.config.Cegis.max_programs_per_multiset
  in
  let stats = Cegis.mk_stats () in
  let programs = ref [] in
  let countable_found = ref 0 in
  let undecided = ref false in
  (* [true] when the search ends short of [k] on a budget. *)
  let rec go multisets =
    if !countable_found >= options.k then false
    else
      match multisets () with
      | Seq.Nil -> !undecided
      | Seq.Cons _ when Budget.over budget <> None -> true
      | Seq.Cons (ms, rest) ->
          let found, outcome =
            Locsynth.synthesize ~config:options.config ~spec ~components:ms
              ~require_all_used:all_used ~max_programs ~stats ()
          in
          if outcome = Locsynth.Budget_exhausted then undecided := true;
          List.iter
            (fun p ->
              programs := p :: !programs;
              if countable options p then incr countable_found)
            found;
          learn ms found;
          go rest
  in
  let budget_exhausted = go multisets in
  {
    programs = List.rev !programs;
    stats;
    multisets_total = total;
    elapsed = Unix.gettimeofday () -. started;
    budget_exhausted;
  }

let report label r =
  String.concat "\n  "
    (Printf.sprintf
       "%s: %d programs in %.2fs (%d/%d multisets, %d CEGIS iterations, %d \
        solver calls%s)"
       label (List.length r.programs) r.elapsed r.stats.Cegis.multisets_tried
       r.multisets_total r.stats.Cegis.cegis_iterations
       r.stats.Cegis.solver_calls
       (if r.budget_exhausted then ", budget exhausted" else "")
    :: List.map Program.to_string r.programs)
