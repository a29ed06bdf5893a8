(* The classical algorithm is the shared loop over one multiset, the
   whole library, each component available as one line, with dead
   components permitted. *)
let synthesize ~options ~spec ~library =
  Engine.search ~all_used:false ~max_programs:1 ~options ~spec ~total:1
    (Seq.return library)
