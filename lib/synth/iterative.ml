let synthesize ~options ~spec ~library =
  let multisets =
    Multiset.up_to library options.Engine.n_max
    |> Multiset.shuffle ~seed:options.Engine.seed
  in
  Engine.search ~options ~spec ~total:(List.length multisets)
    (List.to_seq multisets)
