module Bv = Sqed_bv.Bv
module Term = Sqed_smt.Term
module Solver = Sqed_smt.Solver
module Budget = Sqed_resil.Budget
module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace

let sp_multiset = Trace.kind ~cat:"synth" "synth.multiset"
let sp_iter = Trace.kind ~cat:"synth" "cegis.iteration"
let m_iters = Metrics.counter "synth.cegis_iterations"
let m_solver_calls = Metrics.counter "synth.solver_calls"
let m_counterexamples = Metrics.counter "synth.counterexamples"
let m_programs = Metrics.counter "synth.programs_found"
let m_multisets = Metrics.counter "synth.multisets"
let m_probe_refuted = Metrics.counter "synth.probe_refuted"
let h_multiset_size = Metrics.histogram "synth.multiset_size"

type outcome = Complete | Budget_exhausted

(* Atomic: see Cegis.fresh. *)
let fresh =
  let n = Atomic.make 0 in
  fun prefix -> Printf.sprintf "%s~%d" prefix (Atomic.fetch_and_add n 1)

let loc_width n_locs =
  let rec go k = if 1 lsl k >= n_locs then k else go (k + 1) in
  max 1 (go 1)

let synthesize ~config:cfg ~spec ~components ~require_all_used ~max_programs
    ~stats () =
  (* Strengthened input constraint: components named like the specification
     cannot appear in an equivalent program (identity wirings through
     pass-through lines would let the program execute the original
     instruction on the original values).  In multiset mode such multisets
     fail immediately. *)
  if
    require_all_used
    && List.exists
         (fun c -> c.Component.name = spec.Component.g_name)
         components
  then begin
    stats.Cegis.multisets_tried <- stats.Cegis.multisets_tried + 1;
    Metrics.incr m_multisets;
    ([], Complete)
  end
  else begin
  Trace.with_span
    ~args:[ ("size", string_of_int (List.length components)) ]
    sp_multiset
  @@ fun () ->
  Metrics.incr m_multisets;
  Metrics.observe h_multiset_size (List.length components);
  let xlen = cfg.Cegis.xlen in
  let comps = Array.of_list components in
  let n = Array.length comps in
  let spec_inputs = Array.of_list spec.Component.g_inputs in
  let n_in = Array.length spec_inputs in
  let n_locs = n_in + n in
  let lw = loc_width (n_locs + 1) in
  let loc i = Term.of_int ~width:lw i in
  let imm_input_locs =
    List.concat
      (List.mapi
         (fun i k -> if k = Component.Imm12 then [ i ] else [])
         (Array.to_list spec_inputs))
  in
  let reg_input_locs =
    List.concat
      (List.mapi
         (fun i k -> if k = Component.Reg then [ i ] else [])
         (Array.to_list spec_inputs))
  in
  (* The program output is the line at the last location. *)
  let out_loc = n_locs - 1 in
  let budget = Budget.current () in
  (* One session: the full encoding over [examples], then the
     guess-verify loop.  A [probe] session stops after its first check and
     reports [Complete] only when that check was UNSAT; a model or an
     Unknown decides nothing and reads as [Budget_exhausted].  Verified
     programs go to [found]. *)
  let run_session ~probe ~found examples =
    let solver = Solver.create () in
    let assert_ t = Solver.assert_ solver t in
    let l_out = Array.init n (fun _ -> Term.var (fresh "lo") lw) in
    let l_in =
      Array.init n (fun j ->
          Array.of_list
            (List.map (fun _ -> Term.var (fresh "li") lw) comps.(j).Component.inputs))
    in
    let attr_vars =
      Array.init n (fun j ->
          List.map (fun w -> Term.var (fresh "la") w) comps.(j).Component.attrs)
    in
    (* ψ_wfp: output locations are the line slots, pairwise distinct. *)
    Array.iter
      (fun lo ->
        assert_ (Term.ule (loc n_in) lo);
        assert_ (Term.ult lo (loc n_locs)))
      l_out;
    for j = 0 to n - 1 do
      for k = j + 1 to n - 1 do
        assert_ (Term.distinct l_out.(j) l_out.(k))
      done
    done;
    (* Inputs: kind compatibility and acyclicity. *)
    for j = 0 to n - 1 do
      List.iteri
        (fun x kind ->
          let li = l_in.(j).(x) in
          (match kind with
          | Component.Imm12 ->
              assert_
                (Term.disj (List.map (fun i -> Term.eq li (loc i)) imm_input_locs))
          | Component.Reg ->
              let ok =
                List.map (fun i -> Term.eq li (loc i)) reg_input_locs
                @ [ Term.ule (loc n_in) li ]
              in
              assert_ (Term.disj ok);
              assert_ (Term.ult li (loc n_locs)));
          assert_ (Term.ult li l_out.(j)))
        comps.(j).Component.inputs
    done;
    (* Input constraint (Section 4.1): same-name components must not be wired
       identically to the specification's inputs. *)
    for j = 0 to n - 1 do
      if comps.(j).Component.name = spec.Component.g_name then begin
        let identity =
          List.mapi (fun x _ -> Term.eq l_in.(j).(x) (loc x))
            comps.(j).Component.inputs
        in
        match identity with
        | [] -> ()
        | _ -> assert_ (Term.not_ (Term.conj identity))
      end
    done;
    (* Relevance: in multiset mode every component's output must be read (or
       be the program output), so a size-n multiset yields n-component
       programs — exactly the iterative-CEGIS discipline. *)
    if require_all_used then
      for j = 0 to n - 1 do
        let consumers =
          List.concat
            (List.init n (fun k ->
                 if k = j then []
                 else
                   Array.to_list
                     (Array.map (fun li -> Term.eq li l_out.(j)) l_in.(k))))
        in
        assert_ (Term.disj (Term.eq l_out.(j) (loc out_loc) :: consumers))
      done;
    (* ψ_conn + φ_lib per example. *)
    let add_example ex =
      let ex = Array.of_list ex in
      let v =
        Array.init n_locs (fun i ->
            if i < n_in then Term.const ex.(i) else Term.var (fresh "lv") xlen)
      in
      let value_at li kind =
        let candidates =
          match kind with
          | Component.Imm12 -> imm_input_locs
          | Component.Reg -> reg_input_locs @ List.init n (fun j -> n_in + j)
        in
        match candidates with
        | [] ->
            (* No compatible source exists (e.g. an Imm12 input with an
               R-type specification): ψ_wfp already forces UNSAT, any value
               of the right width will do here. *)
            Term.of_int ~width:(Component.spec_input_width ~xlen kind) 0
        | first :: rest ->
            List.fold_left
              (fun acc i -> Term.ite (Term.eq li (loc i)) v.(i) acc)
              v.(first) rest
      in
      for j = 0 to n - 1 do
        let args =
          List.mapi
            (fun x kind -> value_at l_in.(j).(x) kind)
            comps.(j).Component.inputs
        in
        let out = comps.(j).Component.sem ~xlen args attr_vars.(j) in
        for p = n_in to n_locs - 1 do
          assert_ (Term.implies (Term.eq l_out.(j) (loc p)) (Term.eq v.(p) out))
        done
      done;
      let spec_out =
        spec.Component.g_sem ~xlen (Array.to_list (Array.map Term.const ex))
      in
      assert_ (Term.eq v.(out_loc) spec_out)
    in
    let decode_model () =
      let order =
        List.sort
          (fun (_, a) (_, b) -> compare a b)
          (List.init n (fun j ->
               (j, Bv.to_int (Solver.model_var solver l_out.(j)))))
      in
      let line_of_loc = Hashtbl.create 16 in
      List.iteri
        (fun line (_, outloc) -> Hashtbl.replace line_of_loc outloc line)
        order;
      let lines =
        List.map
          (fun (j, _) ->
            let args =
              List.mapi
                (fun x _ ->
                  let li = Bv.to_int (Solver.model_var solver l_in.(j).(x)) in
                  if li < n_in then Program.Input li
                  else Program.Line (Hashtbl.find line_of_loc li))
                comps.(j).Component.inputs
            in
            let attrs = List.map (Solver.model_var solver) attr_vars.(j) in
            { Program.comp = comps.(j); args; attr_values = attrs })
          order
      in
      { Program.spec_inputs = spec.Component.g_inputs; lines }
    in
    let block_current_wiring () =
      (* Forbid this exact (order, wiring) assignment. *)
      let eqs = ref [] in
      Array.iter
        (fun lo -> eqs := Term.eq lo (Term.const (Solver.model_var solver lo)) :: !eqs)
        l_out;
      Array.iter
        (fun lis ->
          Array.iter
            (fun li ->
              eqs := Term.eq li (Term.const (Solver.model_var solver li)) :: !eqs)
            lis)
        l_in;
      assert_ (Term.not_ (Term.conj !eqs))
    in
    List.iter add_example examples;
    (* One guess-verify round, bracketed by its own span.  The recursion
       lives in [loop] *outside* the span so nesting depth stays flat — a
       span per iteration, not a span tower. *)
    let step examples_added =
      stats.Cegis.cegis_iterations <- stats.Cegis.cegis_iterations + 1;
      stats.Cegis.solver_calls <- stats.Cegis.solver_calls + 1;
      Metrics.incr m_iters;
      Metrics.incr m_solver_calls;
      match
        Solver.check ?max_conflicts:cfg.Cegis.max_conflicts solver
      with
      | Solver.Unsat -> `Done Complete
      | Solver.Unknown -> `Done Budget_exhausted
      | Solver.Sat when probe -> `Done Budget_exhausted
      | Solver.Sat -> (
          let program = decode_model () in
          stats.Cegis.solver_calls <- stats.Cegis.solver_calls + 1;
          stats.Cegis.verify_calls <- stats.Cegis.verify_calls + 1;
          Metrics.incr m_solver_calls;
          let s2 = Solver.create () in
          let input_vars =
            List.map
              (fun kind ->
                Term.var (fresh "lvin") (Component.spec_input_width ~xlen kind))
              spec.Component.g_inputs
          in
          let lhs = Program.sem ~xlen program input_vars in
          let rhs = spec.Component.g_sem ~xlen input_vars in
          Solver.assert_ s2 (Term.distinct lhs rhs);
          match
            Solver.check ?max_conflicts:cfg.Cegis.max_conflicts s2
          with
          | Solver.Unsat ->
              found := program :: !found;
              Metrics.incr m_programs;
              block_current_wiring ();
              `Continue examples_added
          | Solver.Unknown -> `Done Budget_exhausted
          | Solver.Sat ->
              let ex = List.map (Solver.model_var s2) input_vars in
              add_example ex;
              Metrics.incr m_counterexamples;
              `Continue (examples_added + 1))
    in
    let rec loop examples_added =
      if List.length !found >= max_programs then Complete
      else if examples_added > 8 * cfg.Cegis.max_cegis_iters then Budget_exhausted
      else if Budget.over budget <> None then Budget_exhausted
      else
        match Trace.with_span sp_iter (fun () -> step examples_added) with
        | `Done outcome -> outcome
        | `Continue examples_added -> loop examples_added
    in
    loop 0
  in
  (* A budget that runs out inside an encoding [assert_] ends the session
     like an Unknown check, keeping the programs verified so far. *)
  let session ~probe examples =
    let found = ref [] in
    match run_session ~probe ~found examples with
    | outcome -> (List.rev !found, outcome)
    | exception Budget.Exhausted _ -> (List.rev !found, Budget_exhausted)
  in
  (* Refutation probe: most multisets cannot meet the specification even
     on the two random seed examples, and a session over those two costs
     a fraction of the full one to blast.  Its constraints are a subset of
     the full session's, so UNSAT there is the full session's own first
     answer; otherwise the full session runs exactly as it would without
     the probe. *)
  let examples = Cegis.initial_examples cfg spec in
  let n_examples = List.length examples in
  let probe_examples = List.filteri (fun i _ -> i >= n_examples - 2) examples in
  let result =
    match session ~probe:true probe_examples with
    | _, Complete ->
        Metrics.incr m_probe_refuted;
        ([], Complete)
    | _ -> session ~probe:false examples
  in
  stats.Cegis.multisets_tried <- stats.Cegis.multisets_tried + 1;
  result
  end
