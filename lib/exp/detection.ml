(* The paper's bug-detection experiments, Table 1 (single-instruction
   bugs: SEPE-SQED detects them, SQED cannot) and Fig. 4
   (multiple-instruction bugs: both detect).  One campaign task per bug
   builds one typed row, journaled as a JSON object; rows print in
   catalogue order once every bug has finished. *)

module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module V = Sepe_sqed.Verifier
module Engine = Sqed_bmc.Engine
module Budget = Sqed_resil.Budget
module Json = Sqed_obs.Json
module Verdict = Sqed_resil.Verdict

type outcome =
  | Found of int
  | Clean of int
  | Gave_up of int * Budget.reason option

type cell = { outcome : outcome; seconds : float; conflicts : int }

type row = { bug : Bug.t; sepe : cell; sqed : cell }

let cell (r : V.result) =
  {
    outcome =
      (match r.V.outcome with
      | Engine.Counterexample t -> Found t.Sqed_bmc.Trace.length
      | Engine.No_counterexample -> Clean r.V.bound
      | Engine.Gave_up k -> Gave_up (k, r.V.stats.Engine.gave_up));
    seconds = Print.seconds r.V.stats.Engine.solve_time;
    conflicts = r.V.stats.Engine.sat_conflicts;
  }

(* A cell object is keyed by its outcome kind: {"found": 8, ...},
   {"clean": 8, ...} or {"gave_up": 9, "reason": "deadline", ...}. *)
let cell_json c =
  let kind, n, reason =
    match c.outcome with
    | Found n -> ("found", n, None)
    | Clean n -> ("clean", n, None)
    | Gave_up (k, r) -> ("gave_up", k, r)
  in
  let why r = ("reason", Json.String (Budget.string_of_reason r)) in
  Json.Obj
    (((kind, Json.Int n) :: Option.to_list (Option.map why reason))
    @ [ ("seconds", Json.Float c.seconds);
        ("conflicts", Json.Int c.conflicts) ])

let field j k f = Option.bind (Json.member k j) f

let reason_of_string s =
  List.find_opt
    (fun r -> Budget.string_of_reason r = s)
    Budget.[ Deadline; Conflicts; Cancelled ]

let cell_of_json j =
  let int k = field j k Json.to_int_opt in
  let outcome =
    match (int "found", int "clean", int "gave_up") with
    | Some n, _, _ -> Some (Found n)
    | _, Some n, _ -> Some (Clean n)
    | _, _, Some k ->
        let reason = field j "reason" Json.to_string_opt in
        Some (Gave_up (k, Option.bind reason reason_of_string))
    | _ -> None
  in
  match (outcome, field j "seconds" Json.to_float_opt, int "conflicts") with
  | Some outcome, Some seconds, Some conflicts ->
      Some { outcome; seconds; conflicts }
  | _ -> None

let codec =
  {
    Sqed_par.Campaign.encode =
      (fun r ->
        Json.Obj
          [
            ("bug", Json.String (Bug.name r.bug));
            ("sepe", cell_json r.sepe);
            ("sqed", cell_json r.sqed);
          ]);
    decode =
      (fun j ->
        let bug b = Option.bind (Json.to_string_opt b) Bug.of_name in
        match
          ( field j "bug" bug,
            field j "sepe" cell_of_json,
            field j "sqed" cell_of_json )
        with
        | Some bug, Some sepe, Some sqed -> Some { bug; sepe; sqed }
        | _ -> None);
  }

(* One task per bug, journaled under [<label>/<bug>]; a failed bug
   prints one FAILED line and no row. *)
let campaign ?jobs ?checkpoint ~budget label row line bugs =
  let verdicts, summary =
    Sqed_par.Campaign.run ?jobs ~task_budget:budget
      ?checkpoint:(Option.map (fun path -> (path, codec)) checkpoint)
      ~detail:line
      ~key:(fun bug -> label ^ "/" ^ Bug.name bug)
      label
      (fun bug -> Verdict.Ok (row bug))
      bugs
  in
  List.iter
    (function Verdict.Ok r -> print_endline (line r) | _ -> ())
    verdicts;
  summary

(* E2 / Table 1: injected single-instruction bugs. *)

let table1_budget fast = if fast then 120.0 else 600.0

(* The shortest SEPE-SQED counterexample the bug's class allows. *)
let min_depth bug =
  Option.value ~default:1
    (V.min_cex_depth ~method_:V.Sepe_sqed ~bug
       (Bug.config_for bug Config.tiny))

let table1_row ?(fast = false) bug =
  let budget = table1_budget fast in
  let cfg = Bug.config_for bug Config.tiny in
  let min_depth = min_depth bug in
  (* Witness (SAT) queries may soundly focus the original-instruction
     stream on the mutated class. *)
  let focus =
    Option.bind (Bug.table1_row bug) Sqed_qed.Equiv_table.key_of_name
  in
  let sepe =
    if min_depth <= 10 then
      (* Incremental sweep from just below the class minimum: finds the
         shortest trace, and the UNSAT depths before it are cheap. *)
      V.run ~bug ?focus ~method_:V.Sepe_sqed ~bound:(min_depth + 4)
        ~start_bound:(max 1 (min_depth - 2))
        ~time_budget:budget cfg
    else
      (* Long sequences (MULH): one SAT query at the class minimum, sound
         by bad-persistence; the table's hardest cell gets triple time. *)
      V.run ~bug ?focus ~method_:V.Sepe_sqed ~bound:(min_depth + 4)
        ~start_bound:min_depth ~time_budget:(3.0 *. budget) cfg
  in
  (* The SQED control stops at a comparable shallow depth: beyond the
     class minimum EDDI UNSAT proofs explode and add no information. *)
  let sqed_bound, sqed_budget =
    match V.trace sepe with
    | Some t ->
        ( min t.Sqed_bmc.Trace.length 9,
          Float.max 180.0 (3.0 *. sepe.V.stats.Engine.solve_time) )
    | None -> (8, budget)
  in
  let sqed =
    V.run ~bug ~method_:V.Sqed ~bound:sqed_bound ~start_bound:6
      ~time_budget:sqed_budget cfg
  in
  { bug; sepe = cell sepe; sqed = cell sqed }

let table1_line { bug; sepe; sqed } =
  let why = Option.map Budget.string_of_reason in
  let sepe_col =
    match sepe.outcome with
    | Found n ->
        Printf.sprintf "%.2fs (d%s%d)" sepe.seconds
          (if min_depth bug <= 10 then "=" else "<=")
          n
    | Clean n ->
        Printf.sprintf "no counterexample up to bound %d (%.2fs)" n
          sepe.seconds
    | Gave_up (k, r) ->
        Printf.sprintf "gave up at depth %d (%.2fs%s)" k sepe.seconds
          (Option.fold ~none:"" ~some:(( ^ ) ", ") (why r))
  in
  let sqed_col =
    match sqed.outcome with
    | Found _ -> Printf.sprintf "DETECTED?! %.2fs" sqed.seconds
    | Clean n -> Printf.sprintf "-  (clean to d=%d)" n
    | Gave_up (k, r) ->
        Printf.sprintf "-  (%s at d=%d)"
          (Option.value ~default:"budget" (why r))
          k
  in
  Printf.sprintf "%-6s | %-42s | %-16s | %s"
    (Option.value ~default:"?" (Bug.table1_row bug))
    (Bug.describe bug) sepe_col sqed_col

let table1 ?(fast = false) ?jobs ?checkpoint () =
  Print.section
    "Table 1 - injected single-instruction bugs\n\
     (SEPE-SQED detects each; SQED, checked at the same depth with more \
     time, reports nothing)";
  let budget = table1_budget fast in
  Printf.printf
    "core: %s (+m for MULH); budget %.0fs/cell.\n\
     The [bad] state is persistent (idle inputs freeze a violated state),\n\
     so one SAT query at depth D witnesses the bug and one UNSAT query at\n\
     depth D covers every depth <= D.\n\n\
     %-6s | %-42s | %-16s | %s\n%s\n"
    (Config.to_string Config.tiny)
    budget "Type" "Function" "SEPE-SQED" "SQED" Print.line;
  campaign ?jobs ?checkpoint ~budget "table1" (table1_row ~fast) table1_line
    (if fast then [ Bug.Bug_add; Bug.Bug_xor; Bug.Bug_sw ]
     else Bug.all_single)

(* E3 / Fig. 4: multiple-instruction bugs. *)

let fig4_bound = 14

let fig4_budget fast = if fast then 180.0 else 900.0

let fig4_row ?(fast = false) bug =
  let cfg = Bug.config_for bug Config.tiny in
  let time_budget = fig4_budget fast in
  let sqed = V.run ~bug ~method_:V.Sqed ~bound:fig4_bound ~time_budget cfg in
  let sepe =
    V.run ~bug ~method_:V.Sepe_sqed ~bound:fig4_bound ~time_budget cfg
  in
  { bug; sepe = cell sepe; sqed = cell sqed }

let fig4_line { bug; sepe; sqed } =
  let col c =
    match c.outcome with
    | Found n -> Printf.sprintf "%8.2f(%2d)" c.seconds n
    | Gave_up _ -> "  gave-up"
    | Clean _ -> "    clean"
  in
  let ratios =
    match (sqed.outcome, sepe.outcome) with
    | Found l1, Found l2 ->
        Printf.sprintf "%9.2f %9.2f"
          (sqed.seconds /. sepe.seconds)
          (Float.of_int l1 /. Float.of_int l2)
    | _ -> ""
  in
  Printf.sprintf "%-18s %14s %14s %s" (Bug.name bug) (col sqed) (col sepe)
    ratios

let fig4 ?(fast = false) ?jobs ?checkpoint () =
  Print.section
    "Fig. 4 - multiple-instruction bugs: detection time and counterexample \
     length,\nSQED vs SEPE-SQED (both detect; ratios > 1 favour SEPE-SQED)";
  let budget = fig4_budget fast in
  Printf.printf
    "core: %s; BMC bound %d; budget %.0fs/cell\n\n%-18s %14s %14s %9s %9s\n"
    (Config.to_string Config.tiny)
    fig4_bound budget "bug" "SQED s(len)" "SEPE s(len)" "t-ratio" "len-ratio";
  campaign ?jobs ?checkpoint ~budget "fig4" (fig4_row ~fast) fig4_line
    (if fast then [ Bug.Bug_fwd_mem_rs1; Bug.Bug_load_use_stall ]
     else Bug.all_multi)
