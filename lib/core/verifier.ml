module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module Qed_top = Sqed_qed.Qed_top
module Engine = Sqed_bmc.Engine

type method_ = Sqed | Sepe_sqed

let method_name = function Sqed -> "SQED" | Sepe_sqed -> "SEPE-SQED"

type result = {
  method_ : method_;
  bug : Bug.t option;
  bound : int;
  outcome : Engine.outcome;
  stats : Engine.stats;
}

let min_cex_depth ~method_ ?bug cfg =
  match bug with
  | None -> None
  | Some bug -> (
      match Bug.table1_row bug with
      | None -> None
      | Some row ->
          let scheme =
            match method_ with
            | Sqed -> Sqed_qed.Partition.Eddi
            | Sepe_sqed -> Sqed_qed.Partition.Edsep
          in
          let p = Sqed_qed.Partition.make scheme cfg in
          let table =
            match method_ with
            | Sqed -> Sqed_qed.Equiv_table.duplicate
            | Sepe_sqed ->
                Sqed_qed.Equiv_table.builtin ~xlen:cfg.Config.xlen
                  ~n_temp:p.Sqed_qed.Partition.n_temp
          in
          let key = Sqed_qed.Equiv_table.key_of_name row in
          Option.map
            (fun key -> Sqed_qed.Equiv_table.seq_len table key + 6)
            key)

let run ?bug ?table ?check_mem ?focus ?core ?time_budget ?start_bound
    ?progress ~method_ ~bound cfg =
  let model =
    match method_ with
    | Sqed -> Qed_top.eddi ?bug ?check_mem ?focus ?core cfg
    | Sepe_sqed -> Qed_top.edsep ?bug ?check_mem ?focus ?core ?table cfg
  in
  let outcome, stats =
    Engine.check ?time_budget ?start_bound ?progress ~bound model
  in
  { method_; bug; bound; outcome; stats }

let detected r =
  match r.outcome with
  | Engine.Counterexample _ -> true
  | Engine.No_counterexample | Engine.Gave_up _ -> false

let trace r =
  match r.outcome with
  | Engine.Counterexample t -> Some t
  | Engine.No_counterexample | Engine.Gave_up _ -> None

let outcome_to_string r =
  match r.outcome with
  | Engine.Counterexample t ->
      Printf.sprintf "bug found at depth %d (%.2fs)" t.Sqed_bmc.Trace.length
        r.stats.Engine.solve_time
  | Engine.No_counterexample ->
      Printf.sprintf "no counterexample up to bound %d (%.2fs)" r.bound
        r.stats.Engine.solve_time
  | Engine.Gave_up k ->
      let why =
        match r.stats.Engine.gave_up with
        | Some reason ->
            Printf.sprintf ", %s" (Sqed_resil.Budget.string_of_reason reason)
        | None -> ""
      in
      Printf.sprintf "gave up at depth %d (%.2fs%s)" k
        r.stats.Engine.solve_time why
