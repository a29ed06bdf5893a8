module Bv = Sqed_bv.Bv
module Term = Sqed_smt.Term
module Solver = Sqed_smt.Solver
module Unroll = Sqed_rtl.Unroll
module Qed_top = Sqed_qed.Qed_top
module Encode = Sqed_isa.Encode

(* [Span], not [Trace]: this library's own [Trace] module is the
   counterexample trace. *)
module Span = Sqed_obs.Trace
module Metrics = Sqed_obs.Metrics
module Budget = Sqed_resil.Budget

let sp_depth = Span.kind ~cat:"bmc" "bmc.depth"
let sp_unroll = Span.kind ~cat:"bmc" "bmc.unroll"
let sp_base = Span.kind ~cat:"bmc" "bmc.base"
let sp_step = Span.kind ~cat:"bmc" "bmc.step"
let m_bounds = Metrics.counter "bmc.bounds_checked"
let h_depth_us = Metrics.histogram "bmc.depth_solve_us"

type outcome =
  | Counterexample of Trace.t
  | No_counterexample
  | Gave_up of int

type stats = {
  bounds_checked : int;
  solve_time : float;
  clauses : int;
  sat_conflicts : int;
  sat : Sqed_sat.Sat.stats;
  gave_up : Sqed_resil.Budget.reason option;
}

(* Shallow bounds solve in milliseconds; cloning the clause database
   into the portfolio's workers there would cost more than the search.
   The portfolio engages once the unrolling is deep enough that the
   search dominates the cloning. *)
let default_portfolio_from = 4

let bool_of bv = not (Bv.is_zero bv)

let extract_trace model u solver depth =
  (* One evaluator for the whole trace: every read below reaches back to
     step 0 through the same unrolled cone, which it then walks once. *)
  let value = Solver.model_evaluator solver in
  let value_out step name = value (Unroll.output u ~step name) in
  let input_names =
    List.map fst (Sqed_rtl.Circuit.inputs model.Qed_top.circuit)
  in
  let steps =
    List.init depth (fun t ->
        let core_valid = bool_of (value_out t "core_valid") in
        let consumed = bool_of (value_out t "consumed") in
        let is_orig = bool_of (value_out t "is_orig") in
        let core_instr =
          if core_valid then Encode.decode (value_out t "core_instr") else None
        in
        let orig_instr =
          if consumed && is_orig then core_instr else None
        in
        let raw_inputs =
          List.map (fun name -> (name, value (Unroll.input u ~step:t name)))
            input_names
        in
        {
          Trace.cycle = t;
          orig_instr;
          core_instr = (if consumed then core_instr else None);
          is_orig;
          stall = bool_of (value_out t "stall");
          qed_ready = bool_of (value_out t "qed_ready");
          consistent = bool_of (value_out t "consistent");
          raw_inputs;
        })
  in
  let consumed_steps = List.filter (fun s -> s.Trace.core_instr <> None) steps in
  let cfg = model.Qed_top.cfg in
  let final_regs =
    List.init (cfg.Sqed_qed.Qed_top.Config.nregs - 1) (fun i ->
        let name = Printf.sprintf "x%d" (i + 1) in
        (i + 1, value (Unroll.reg_at u ~step:(depth - 1) name)))
  in
  let initial_state =
    List.map
      (fun (name, w) -> (name, value (Term.var name w)))
      (Unroll.init_vars u)
  in
  {
    Trace.steps;
    length = depth;
    instructions = List.length consumed_steps;
    originals =
      List.length (List.filter (fun s -> s.Trace.is_orig) consumed_steps);
    final_regs;
    initial_state;
  }

let check ?time_budget ?(start_bound = 1) ?(progress = fun _ _ -> ()) ~bound
    model =
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun b -> started +. b) time_budget in
  (* The time budget bounds the whole bounded run, unrolling and
     encoding included, so deep unrolls that never reach the CDCL loop
     still respect it. *)
  Budget.within ?deadline @@ fun () ->
  let budget = Budget.current () in
  let solver = Solver.create () in
  let u = Unroll.create model.Qed_top.circuit in
  (* QED-consistent symbolic initial state. *)
  List.iter
    (fun (_label, t) -> Solver.assert_ solver t)
    (Qed_top.init_assumptions model);
  let result = ref No_counterexample in
  let bounds = ref 0 in
  let gave_up_reason = ref None in
  (try
     for k = 1 to bound do
       try
       (* Polled before the depth, so [Gave_up k] always means every
          depth below k is settled and depth k is not. *)
       Option.iter (fun r -> raise (Budget.Exhausted r)) (Budget.over budget);
       (* The whole depth (unrolling included) sits in one span; [Exit]
          raised on a counterexample still closes it via Fun.protect. *)
       Span.with_span ~args:[ ("k", string_of_int k) ] sp_depth @@ fun () ->
       Span.with_span sp_unroll (fun () -> Unroll.extend_to u k);
       let t = k - 1 in
       Solver.assert_ solver
         (Term.eq (Unroll.output u ~step:t "assume_ok") Term.tt);
       let bad = Term.eq (Unroll.output u ~step:t "bad") Term.tt in
       if k < start_bound then
         (* Below the shortest possible violation: record the fact without
            paying for the solver call. *)
         Solver.assert_ solver (Term.not_ bad)
       else begin
       incr bounds;
       Metrics.incr m_bounds;
       (* Deep bounds opt into portfolio solving (a no-op at width 1). *)
       Solver.set_portfolio_active solver (k >= default_portfolio_from);
       let t0 = if !Metrics.enabled then Unix.gettimeofday () else 0.0 in
       let r = Solver.check ~assumptions:[ bad ] solver in
       if !Metrics.enabled then
         Metrics.observe_us h_depth_us ((Unix.gettimeofday () -. t0) *. 1e6);
       (match r with
       | Solver.Sat ->
           result := Counterexample (extract_trace model u solver k);
           raise Exit
       | Solver.Unsat ->
           (* The property is now known to hold at this depth; telling the
              solver so strengthens later queries. *)
           Solver.assert_ solver (Term.not_ bad)
       | Solver.Unknown ->
           result := Gave_up k;
           gave_up_reason := Solver.last_unknown solver;
           raise Exit)
       end;
       progress k (Unix.gettimeofday () -. started)
       with Budget.Exhausted r ->
         (* Budget died before or during unrolling/encoding
            (Solver.check maps its own exhaustion to Unknown): an
            inconclusive depth. *)
         result := Gave_up k;
         gave_up_reason := Some r;
         raise Exit
     done
   with Exit -> ());
  let st = Solver.stats solver in
  ( !result,
    {
      bounds_checked = !bounds;
      solve_time = Unix.gettimeofday () -. started;
      clauses = Solver.num_clauses solver;
      sat_conflicts = st.Sqed_sat.Sat.conflicts;
      sat = st;
      gave_up = !gave_up_reason;
    } )

let replay model trace =
  let init = Hashtbl.create 32 in
  List.iter
    (fun (name, v) -> Hashtbl.replace init name v)
    trace.Trace.initial_state;
  let sim =
    Sqed_rtl.Sim.create ~initial:(Hashtbl.find_opt init)
      model.Qed_top.circuit
  in
  let bad_at_end = ref false in
  List.iter
    (fun step ->
      let outs = Sqed_rtl.Sim.cycle sim step.Trace.raw_inputs in
      bad_at_end := not (Bv.is_zero (List.assoc "bad" outs)))
    trace.Trace.steps;
  !bad_at_end

type proof_outcome =
  | Proved of int
  | Base_cex of Trace.t
  | Not_inductive of int
  | Proof_gave_up of int

let prove ?time_budget ~max_k model =
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun b -> started +. b) time_budget in
  Budget.within ?deadline @@ fun () ->
  let budget = Budget.current () in
  (* Base case: ordinary BMC up to max_k. *)
  let base_solver = Solver.create () in
  let base = Unroll.create model.Qed_top.circuit in
  List.iter
    (fun (_label, t) -> Solver.assert_ base_solver t)
    (Qed_top.init_assumptions model);
  (* Inductive step: arbitrary start, constraints at every step. *)
  let step_solver = Solver.create () in
  let step = Unroll.create ~free_initial_state:true model.Qed_top.circuit in
  let bounds = ref 0 in
  let result = ref (Not_inductive max_k) in
  let gave_up_reason = ref None in
  (try
     for k = 1 to max_k do
       try
       Option.iter (fun r -> raise (Budget.Exhausted r)) (Budget.over budget);
       Solver.set_portfolio_active base_solver (k >= default_portfolio_from);
       Solver.set_portfolio_active step_solver (k >= default_portfolio_from);
       (* base: no counterexample of depth k *)
       Unroll.extend_to base k;
       let t = k - 1 in
       Solver.assert_ base_solver
         (Term.eq (Unroll.output base ~step:t "assume_ok") Term.tt);
       let bad_base = Term.eq (Unroll.output base ~step:t "bad") Term.tt in
       incr bounds;
       Metrics.incr m_bounds;
       (match
          Span.with_span ~args:[ ("k", string_of_int k) ] sp_base (fun () ->
              Solver.check ~assumptions:[ bad_base ] base_solver)
        with
       | Solver.Sat ->
           result := Base_cex (extract_trace model base base_solver k);
           raise Exit
       | Solver.Unsat -> Solver.assert_ base_solver (Term.not_ bad_base)
       | Solver.Unknown ->
           result := Proof_gave_up k;
           gave_up_reason := Solver.last_unknown base_solver;
           raise Exit);
       (* step: from any clean k-prefix, step k cannot fail *)
       Unroll.extend_to step (k + 1);
       Solver.assert_ step_solver
         (Term.eq (Unroll.output step ~step:t "assume_ok") Term.tt);
       Solver.assert_ step_solver
         (Term.not_ (Term.eq (Unroll.output step ~step:t "bad") Term.tt));
       Solver.assert_ step_solver
         (Term.eq (Unroll.output step ~step:k "assume_ok") Term.tt);
       let bad_step = Term.eq (Unroll.output step ~step:k "bad") Term.tt in
       incr bounds;
       Metrics.incr m_bounds;
       (match
          Span.with_span ~args:[ ("k", string_of_int k) ] sp_step (fun () ->
              Solver.check ~assumptions:[ bad_step ] step_solver)
        with
       | Solver.Unsat ->
           result := Proved k;
           raise Exit
       | Solver.Sat -> () (* spurious: deepen k *)
       | Solver.Unknown ->
           result := Proof_gave_up k;
           gave_up_reason := Solver.last_unknown step_solver;
           raise Exit)
       with Budget.Exhausted r ->
         result := Proof_gave_up k;
         gave_up_reason := Some r;
         raise Exit
     done
   with Exit -> ());
  let st = Solver.stats base_solver in
  ( !result,
    {
      bounds_checked = !bounds;
      solve_time = Unix.gettimeofday () -. started;
      clauses = Solver.num_clauses base_solver + Solver.num_clauses step_solver;
      sat_conflicts = st.Sqed_sat.Sat.conflicts;
      sat = st;
      gave_up = !gave_up_reason;
    } )

(* Replay a raw input stream and report at which cycle (if any) [bad]
   fires, together with the per-cycle outputs needed to rebuild a trace. *)
let replay_stream model ~initial inputs =
  let init = Hashtbl.create 32 in
  List.iter (fun (name, v) -> Hashtbl.replace init name v) initial;
  let sim =
    Sqed_rtl.Sim.create ~initial:(Hashtbl.find_opt init)
      model.Qed_top.circuit
  in
  let outs = List.map (fun step_inputs -> Sqed_rtl.Sim.cycle sim step_inputs) inputs in
  let bad_at =
    List.mapi (fun i o -> (i, not (Bv.is_zero (List.assoc "bad" o)))) outs
    |> List.find_opt snd
    |> Option.map fst
  in
  (bad_at, outs)

let rebuild_trace ~initial inputs outs depth =
  let flag o name = not (Bv.is_zero (List.assoc name o)) in
  let steps =
    List.filteri (fun i _ -> i < depth) (List.combine inputs outs)
    |> List.mapi (fun i (step_inputs, o) ->
           let consumed = flag o "consumed" in
           let is_orig = flag o "is_orig" in
           let core_instr =
             if flag o "core_valid" then
               Sqed_isa.Encode.decode (List.assoc "core_instr" o)
             else None
           in
           {
             Trace.cycle = i;
             orig_instr = (if consumed && is_orig then core_instr else None);
             core_instr = (if consumed then core_instr else None);
             is_orig;
             stall = flag o "stall";
             qed_ready = flag o "qed_ready";
             consistent = flag o "consistent";
             raw_inputs = step_inputs;
           })
  in
  let consumed_steps = List.filter (fun s -> s.Trace.core_instr <> None) steps in
  {
    Trace.steps;
    length = depth;
    instructions = List.length consumed_steps;
    originals =
      List.length (List.filter (fun s -> s.Trace.is_orig) consumed_steps);
    final_regs = [];
    initial_state = initial;
  }

let shrink model trace =
  let initial = trace.Trace.initial_state in
  let suppress inputs i =
    List.mapi
      (fun j step_inputs ->
        if j <> i then step_inputs
        else
          List.map
            (fun (name, v) ->
              if name = "orig_valid" then (name, Bv.zero 1) else (name, v))
            step_inputs)
      inputs
  in
  let current = ref (List.map (fun s -> s.Trace.raw_inputs) trace.Trace.steps) in
  let improved = ref true in
  while !improved do
    improved := false;
    let n = List.length !current in
    let i = ref 0 in
    while !i < n do
      let candidate = suppress !current !i in
      (match replay_stream model ~initial candidate with
      | Some _, _ ->
          if candidate <> !current then begin
            current := candidate;
            improved := true
          end
      | None, _ -> ());
      incr i
    done
  done;
  match replay_stream model ~initial !current with
  | Some d, outs -> rebuild_trace ~initial !current outs (d + 1)
  | None, _ -> trace
