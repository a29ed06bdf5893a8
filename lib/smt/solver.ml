module Bv = Sqed_bv.Bv
module Sat = Sqed_sat.Sat
module Portfolio = Sqed_sat.Portfolio
module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace
module Budget = Sqed_resil.Budget

let sp_check = Trace.kind ~cat:"smt" "smt.check"
let sp_blast = Trace.kind ~cat:"smt" "smt.bitblast"
let m_checks = Metrics.counter "smt.check_calls"
let h_check_us = Metrics.histogram "smt.check_latency_us"

type result = Sat | Unsat | Unknown

type config = { simplify : bool; portfolio : int }

type t = {
  sat : Sat.t;
  blaster : Bitblast.t;
  mutable has_model : bool;
  config : config; (* portfolio width clamped to at least 1 *)
  (* The per-query gate: the BMC engine flips this on only for deep
     bounds, so cheap shallow queries (and every CEGIS candidate) never
     pay clone overhead even when `--portfolio K` is global. *)
  mutable portfolio_active : bool;
  mutable last_unknown : Budget.reason option;
}

let default_config = { simplify = true; portfolio = 1 }

(* The run-wide configuration: a front-end sets it once from its flags
   before any solver exists, and every [create] without [?config] reads
   it.  The ledger's provenance stamp reads the same value back. *)
let run_config = ref default_config

let set_config c = run_config := { c with portfolio = max 1 c.portfolio }
let config () = !run_config

let create ?config () =
  let c = match config with Some c -> c | None -> !run_config in
  let sat = Sat.create () in
  Sat.set_simplify sat c.simplify;
  {
    sat;
    blaster = Bitblast.create sat;
    has_model = false;
    config = { c with portfolio = max 1 c.portfolio };
    portfolio_active = false;
    last_unknown = None;
  }

let set_portfolio_active s b = s.portfolio_active <- b
let last_unknown s = s.last_unknown

let assert_ s t =
  if Term.width t <> 1 then invalid_arg "Solver.assert_: width <> 1";
  s.has_model <- false;
  (* May raise [Budget.Exhausted] mid-encoding when the calling domain's
     budget runs out; the half-done work is remembered and finished by
     the next [check] (which also re-raises nothing: it maps to
     Unknown). *)
  Trace.with_span sp_blast (fun () -> Bitblast.assert_bool s.blaster t)

let check ?(assumptions = []) ?max_conflicts s =
  Trace.with_span sp_check (fun () ->
      s.has_model <- false;
      Metrics.incr m_checks;
      let t0 = if !Metrics.enabled then Unix.gettimeofday () else 0.0 in
      s.last_unknown <- None;
      let r =
        try
          (* The per-call cap bounds the *whole* check — encoding
             included, which dominates on blast-heavy instances. *)
          Budget.within ?max_conflicts (fun () ->
              let assumption_lits =
                Trace.with_span sp_blast (fun () ->
                    (* Finish encoding work a budget-aborted assert left
                       behind — solving with missing definitional
                       clauses would be unsound. *)
                    Bitblast.complete s.blaster;
                    List.map
                      (fun t -> Bitblast.assume_bool s.blaster t)
                      assumptions)
              in
              let verdict =
                if s.config.portfolio > 1 && s.portfolio_active then
                  Portfolio.solve ~k:s.config.portfolio
                    ~assumptions:assumption_lits s.sat
                else Sat.solve ~assumptions:assumption_lits s.sat
              in
              match verdict with
              | Sat.Sat ->
                  s.has_model <- true;
                  Sat
              | Sat.Unsat -> Unsat
              | Sat.Unknown ->
                  s.last_unknown <- Sat.last_interrupt s.sat;
                  Unknown)
        with Budget.Exhausted reason ->
          s.last_unknown <- Some reason;
          Unknown
      in
      if !Metrics.enabled then
        Metrics.observe_us h_check_us ((Unix.gettimeofday () -. t0) *. 1e6);
      if Trace.logs Trace.Debug then
        Trace.debug "smt.check"
          [
            ( "result",
              Trace.Str
                (match r with
                | Sat -> "sat"
                | Unsat -> "unsat"
                | Unknown -> "unknown") );
            ("assumptions", Trace.I (List.length assumptions));
          ];
      r)

(* Unblasted variables are unconstrained: they read as zero at the width
   of their [Var] node. *)
let model_lookup s name w =
  match Bitblast.var_lits s.blaster name ~width:w with
  | Some lits -> Bv.of_bits (Array.map (fun l -> Sat.lit_value s.sat l) lits)
  | None -> Bv.zero w

let model_var s t =
  if not s.has_model then failwith "Solver.model_var: no model";
  match t.Term.node with
  | Term.Var (name, w) -> model_lookup s name w
  | _ -> invalid_arg "Solver.model_var: not a variable"

let model_evaluator s =
  if not s.has_model then failwith "Solver.model_evaluator: no model";
  Term.evaluator (model_lookup s)

let model_value s t =
  if not s.has_model then failwith "Solver.model_value: no model";
  Term.evaluator (model_lookup s) t

let to_dimacs s = Sat.to_dimacs s.sat

let num_clauses s = Sat.num_clauses s.sat
let num_vars s = Sat.num_vars s.sat
let stats s = Sat.stats s.sat

let check_valid ?max_conflicts t =
  let s = create () in
  assert_ s (Term.not_ t);
  match check ?max_conflicts s with
  | Unsat -> (Unsat, [])
  | Sat ->
      let model =
        List.map
          (fun (name, w) -> (name, model_var s (Term.var name w)))
          (Term.vars t)
      in
      (Sat, model)
  | Unknown -> (Unknown, [])
