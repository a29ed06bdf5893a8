(* The full Fig. 1 workflow, end to end:

   upper half — synthesize semantically equivalent programs for a couple of
   instruction classes with HPF-CEGIS and fold them into an EDSEP-V
   equivalence table (classes without a synthesized program keep the
   built-in template);

   lower half — attach the EDSEP-V module with *that* table to a mutated
   core and model-check the universal property.

   Run with:  dune exec examples/end_to_end.exe *)

module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module Flow = Sepe_sqed.Flow
module V = Sepe_sqed.Verifier
module Synth = Sqed_synth

let () =
  let cfg = Config.tiny in
  Printf.printf "core: %s\n\n" (Config.to_string cfg);

  print_endline "== Fig. 1 upper half: program synthesis (HPF-CEGIS) ==";
  let options =
    {
      Synth.Engine.default_options with
      Synth.Engine.k = 1;
      min_components = 2;
      time_budget = Some 120.0;
    }
  in
  let table, cases, _ =
    Flow.synthesize_table ~options ~cases:[ "ADD"; "XOR" ] cfg
  in
  List.iter
    (fun c ->
      Printf.printf "%s: %d candidate programs in %.1fs%s\n" c.Flow.case
        (List.length c.Flow.programs)
        c.Flow.elapsed
        (match c.Flow.chosen with
        | Some p -> "\n  installed: " ^ Synth.Program.to_string p
        | None -> " (keeping built-in template)"))
    cases;
  print_endline "\nresulting equivalence table:";
  print_endline (Sqed_qed.Equiv_table.to_string table);

  print_endline "\n== Fig. 1 lower half: verification with the synthesized table ==";
  let bug = Bug.Bug_add in
  Printf.printf "injected bug: %s (%s)\n" (Bug.name bug) (Bug.describe bug);
  let r =
    V.run ~bug ~table ~method_:V.Sepe_sqed ~bound:12 ~time_budget:900.0 cfg
  in
  Printf.printf "SEPE-SQED: %s\n" (V.outcome_to_string r);
  match V.trace r with
  | Some t -> print_endline (Sqed_bmc.Trace.to_string t)
  | None -> ()
