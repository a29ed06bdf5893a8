(* The four workloads and their cells.  A cell is one call into a layer's
   public entry point that ends in a checkable verdict: a synthesized
   table row or one bounded model check.  Setup builds every cell's
   inputs (verification models, specs, oracle vectors) before anything is
   timed; each run of a cell is then a fresh engine call on those inputs.

   Sizing: a cell set must fit several times into one run of the
   benchmark, so each workload is a fixed slice of the paper's
   experiments (README.md gives the measured cost of every cell). *)

module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module Insn = Sqed_isa.Insn
module Engine = Sqed_bmc.Engine
module Qed_top = Sqed_qed.Qed_top
module Equiv_table = Sqed_qed.Equiv_table
module Synth = Sqed_synth
module V = Sepe_sqed.Verifier

(* The benchmark's own spans around each call into a layer.  Declaring
   them up front registers their timers even when a workload never enters
   one, so every per-layer metric reads a value. *)
let kind name = Sqed_obs.Trace.kind ~cat:"sepebench" ("sepebench." ^ name)
let k_cell = kind "cell"
let k_build = kind "qed.build"
let k_check = kind "bmc.check"
let k_replay = kind "replay"
let k_hpf = kind "synth.hpf"
let k_iter = kind "synth.iter"
let span = Sqed_obs.Trace.with_span

type finished = {
  check : unit -> (unit, string) result;  (** the known-answer oracle *)
  cex_depth : int option;
  programs : int;  (** synthesized programs, counted or not *)
}

type cell = {
  label : string;
  engine : [ `Hpf | `Iter | `Bmc ];
  run : deadline:float -> finished option;
      (** [None]: [deadline] (absolute, wall clock) passed first *)
}

let seconds_left deadline = deadline -. Unix.gettimeofday ()

(* -- synth: Fig. 3 table rows ------------------------------------------ *)

(* The fig3 --fast cases at xlen 8.  The engine seed is part of the
   workload, not of the benchmark seed: synthesis time swings 6x between
   engine seeds (seed 1: the two XOR cells alone take 18 s), and at seed 2
   every cell takes 0.2-3 s. *)
let synth_cases = [ "ADD"; "SUB"; "XOR"; "OR" ]
let synth_engine_seed = 2

(* Operand pairs each synthesized program is run on; their reference
   results are computed at setup. *)
let oracle_pairs = 1000

let synth_options deadline =
  {
    Synth.Engine.default_options with
    Synth.Engine.k = 2;
    n_max = 3;
    seed = synth_engine_seed;
    time_budget = Some (seconds_left deadline);
    config = { Synth.Cegis.default_config with Synth.Cegis.xlen = 8 };
  }

let synth_cell ~seed case engine =
  let spec = Synth.Library_.spec case in
  let op = List.find (fun op -> Insn.rop_name op = case) Insn.all_rops in
  let reference =
    Oracle.reference ~seed:(Hashtbl.hash (seed, case)) ~xlen:8 ~op oracle_pairs
  in
  let library = Synth.Library_.default in
  let name, k, synthesize =
    match engine with
    | `Hpf ->
        ( "hpf",
          k_hpf,
          fun options -> Synth.Hpf.synthesize ~options ~spec ~library () )
    | `Iter ->
        ( "iter",
          k_iter,
          fun options -> Synth.Iterative.synthesize ~options ~spec ~library )
  in
  let run ~deadline =
    let options = synth_options deadline in
    let r = span k (fun () -> synthesize options) in
    if r.Synth.Engine.budget_exhausted && seconds_left deadline <= 0.0 then None
    else
      Some
        {
          check = (fun () -> Oracle.check_synth ~options ~reference r);
          cex_depth = None;
          programs = List.length r.Synth.Engine.programs;
        }
  in
  {
    label = Printf.sprintf "synth/%s/%s" case name;
    engine = (engine :> [ `Hpf | `Iter | `Bmc ]);
    run;
  }

let synth ~seed =
  List.concat_map
    (fun case -> [ synth_cell ~seed case `Hpf; synth_cell ~seed case `Iter ])
    synth_cases

(* -- BMC workloads ------------------------------------------------------- *)

let config_for bug = if Bug.needs_m bug then Config.tiny_m else Config.tiny

let bmc_cell ~label ~model ~expect ~start_bound ~bound =
  let run ~deadline =
    let outcome, _ =
      span k_check (fun () ->
          Engine.check ~start_bound ~bound
            ~time_budget:(seconds_left deadline) model)
    in
    match outcome with
    | Engine.Gave_up _ when seconds_left deadline <= 0.0 -> None
    | _ ->
        let replay t = span k_replay (fun () -> Engine.replay model t) in
        Some
          {
            check = (fun () -> Oracle.check_bmc ~expect ~replay outcome);
            cex_depth =
              (match outcome with
              | Engine.Counterexample t -> Some t.Sqed_bmc.Trace.length
              | _ -> None);
            programs = 0;
          }
  in
  { label; engine = `Bmc; run }

let build f = span k_build f

(* Table 1 focuses the original-instruction stream on the mutated class,
   which is sound for witness queries (see Qed_top.build). *)
let table1_focus bug =
  Option.bind (Bug.table1_row bug) (fun row ->
      match List.find_opt (fun op -> Insn.rop_name op = row) Insn.all_rops with
      | Some op -> Some (Equiv_table.Kr op)
      | None -> (
          match
            List.find_opt (fun op -> Insn.iop_name op = row) Insn.all_iops
          with
          | Some op -> Some (Equiv_table.Ki op)
          | None -> if row = "SW" then Some Equiv_table.Ksw else None))

(* Table-1 SEPE-SQED witnesses.  The sweep starts one depth below the
   class minimum (one UNSAT query, then the SAT one); table1 in the paper
   harness starts two below, which makes a pass 3.5 times as long. *)
let detect () =
  List.map
    (fun bug ->
      let cfg = config_for bug in
      let min_depth =
        Option.get (V.min_cex_depth ~method_:V.Sepe_sqed ~bug cfg)
      in
      let model =
        build (fun () -> Qed_top.edsep ~bug ?focus:(table1_focus bug) cfg)
      in
      bmc_cell ~label:("detect/" ^ Bug.name bug) ~model
        ~expect:(Oracle.Witness min_depth) ~start_bound:(min_depth - 1)
        ~bound:(min_depth + 4))
    Bug.all_single

(* Table-1 SQED controls: EDDI-V cannot see a single-instruction bug, so
   every cell is an UNSAT proof.  Depths 6..7; adding depth 8 would
   quadruple the cell cost. *)
let refute () =
  List.map
    (fun bug ->
      let model = build (fun () -> Qed_top.eddi ~bug (config_for bug)) in
      bmc_cell ~label:("refute/" ^ Bug.name bug) ~model ~expect:Oracle.Proof
        ~start_bound:6 ~bound:7)
    Bug.all_single

(* Fig. 4 multiple-instruction bugs found by SEPE-SQED with an unfocused
   stream, sweeping depth from 1.  The slice is three search-bound bugs
   (4-28 k conflicts a cell) and load-use-stall, the bug fig4 --fast runs:
   a pass of about 9 s.  Left out: fwd-priority and store-interference
   (14 s and 28 s a cell), wb-clobber-on-store (6 s, a 15 s pass), and
   three bugs found at depth 8 in under 700 conflicts, which is detect's
   profile. *)
let hunt_bugs =
  [
    Bug.Bug_fwd_wb;
    Bug.Bug_stall_corrupt;
    Bug.Bug_wb_bypass;
    Bug.Bug_load_use_stall;
  ]

let hunt () =
  List.map
    (fun bug ->
      let model = build (fun () -> Qed_top.edsep ~bug (config_for bug)) in
      bmc_cell ~label:("hunt/" ^ Bug.name bug) ~model ~expect:(Oracle.Witness 1)
        ~start_bound:1 ~bound:14)
    hunt_bugs

let workloads =
  [
    ("synth", synth);
    ("detect", fun ~seed:_ -> detect ());
    ("refute", fun ~seed:_ -> refute ());
    ("hunt", fun ~seed:_ -> hunt ());
  ]

let names = List.map fst workloads

(* Builds the named workload's cells; raises [Not_found] on other names. *)
let setup name ~seed = (List.assoc name workloads) ~seed
