(* Known-answer checks on every cell outcome.  None of them trusts the
   engine that produced the answer: synthesized programs run on the golden
   ISA interpreter, counterexamples replay on the concrete cycle
   simulator.  A proof cell can only be checked against its expected
   verdict; certifying the UNSAT answer itself is not done here. *)

module Bv = Sqed_bv.Bv
module Exec = Sqed_isa.Exec
module Program = Sqed_synth.Program
module Engine = Sqed_bmc.Engine

(* [n] seeded operand pairs with the instruction's result on each, from
   the golden interpreter's ALU. *)
let reference ~seed ~xlen ~op n =
  let rng = Random.State.make [| seed |] in
  List.init n (fun _ ->
      let a = Bv.random rng xlen in
      let b = Bv.random rng xlen in
      (a, b, Exec.alu_r ~xlen op a b))

(* Compile [program] with its two inputs in x1/x2 and its result in x3,
   run it on the interpreter and compare with the reference results. *)
let program_matches ~xlen program reference =
  let temps = List.init (Program.temps_needed program) (fun i -> 4 + i) in
  match
    Program.to_insns ~xlen program ~dst:3 ~inputs:[ `Reg 1; `Reg 2 ] ~temps
  with
  | exception (Failure _ | Invalid_argument _) -> false
  | insns ->
      List.for_all
        (fun (a, b, expected) ->
          let st = Exec.create ~xlen ~mem_words:2 in
          Exec.set_reg st 1 a;
          Exec.set_reg st 2 b;
          Exec.run st insns;
          Bv.equal (Exec.reg st 3) expected)
        reference

let check_synth ~options ~reference (r : Sqed_synth.Engine.result) =
  let xlen = options.Sqed_synth.Engine.config.Sqed_synth.Cegis.xlen in
  let k = options.Sqed_synth.Engine.k in
  let countable =
    List.filter (Sqed_synth.Engine.countable options) r.programs
  in
  if r.budget_exhausted then Error "synthesis ran out of budget"
  else if List.length countable < k then
    Error
      (Printf.sprintf "%d countable programs, expected %d"
         (List.length countable) k)
  else
    match
      List.find_opt
        (fun p -> not (program_matches ~xlen p reference))
        r.programs
    with
    | Some p ->
        Error
          ("program disagrees with the interpreter: " ^ Program.to_string p)
    | None -> Ok ()

type expect =
  | Witness of int  (** a replayable counterexample at least this deep *)
  | Proof  (** no counterexample up to the bound *)

let check_bmc ~expect ~replay outcome =
  match (expect, outcome) with
  | Proof, Engine.No_counterexample -> Ok ()
  | Proof, Engine.Counterexample t ->
      Error
        (Printf.sprintf "counterexample at depth %d on a proof cell"
           t.Sqed_bmc.Trace.length)
  | Witness _, Engine.No_counterexample -> Error "no counterexample found"
  | Witness min_depth, Engine.Counterexample t ->
      let depth = t.Sqed_bmc.Trace.length in
      if depth < min_depth then
        Error
          (Printf.sprintf "counterexample at depth %d, below the minimum %d"
             depth min_depth)
      else if not (replay t) then
        Error
          (Printf.sprintf "counterexample at depth %d does not replay" depth)
      else Ok ()
  | _, Engine.Gave_up k -> Error (Printf.sprintf "gave up at depth %d" k)
