(* Bounded-heap smoke (the @heap-smoke alias).

   Every [Locsynth.synthesize] call builds fresh location, attribute and
   line-value variables and every constraint over them; once the call
   returns, those terms are garbage.  Terms are hash-consed weakly, so
   repeated synthesis must not grow the heap: the live major-heap words
   after a full collection at call 100 stay within twice the reading at
   call 10. *)

module Synth = Sqed_synth

let calls = 100
let reference_call = 10

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let () =
  let config = { Synth.Cegis.default_config with Synth.Cegis.xlen = 8 } in
  let spec = Synth.Library_.spec "ADD" in
  let components = List.map Synth.Library_.find [ "NEG"; "SUB" ] in
  let stats = Synth.Cegis.mk_stats () in
  let reference = ref 0 in
  for i = 1 to calls do
    let found, _ =
      Synth.Locsynth.synthesize ~config ~spec ~components
        ~require_all_used:true ~max_programs:1 ~stats ()
    in
    if found = [] then failwith "heap-smoke: ADD over NEG, SUB not synthesized";
    if i = reference_call then reference := live_words ()
  done;
  let last = live_words () in
  Printf.printf "heap-smoke: %d live words at call %d, %d at call %d\n"
    !reference reference_call last calls;
  if last > 2 * !reference then begin
    Printf.printf "FAIL live heap grew more than 2x over %d calls\n" calls;
    exit 1
  end
