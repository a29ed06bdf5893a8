(* Console layout shared by the experiments and the bench harness. *)

let line = String.make 72 '-'

let section title = Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* Through the journal's own writer and back: [Json.Float] writes three
   decimals, so this is the value a resumed campaign decodes. *)
let seconds t =
  float_of_string (Sqed_obs.Json.to_string (Sqed_obs.Json.Float t))
