(* An [Imm12] input reads only the specification's immediate; under a
   specification without one, such a component could only ever be dead,
   yet every component must take a line. *)
let suppliable spec c =
  let imm kinds = List.mem Component.Imm12 kinds in
  (not (imm c.Component.inputs)) || imm spec.Component.g_inputs

(* The classical algorithm is the shared loop over one multiset, the
   whole library less the components the specification cannot feed,
   each component available as one line, with dead components
   permitted. *)
let synthesize ~options ~spec ~library =
  Engine.search ~all_used:false ~max_programs:1 ~options ~spec ~total:1
    (Seq.return (List.filter (suppliable spec) library))
