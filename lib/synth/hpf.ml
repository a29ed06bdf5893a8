let weight weights comp =
  Option.value (Hashtbl.find_opt weights comp.Component.label) ~default:(1, 1)

let priority ~alpha ~weights ~g_name multiset =
  let cs, es =
    List.fold_left
      (fun (cs, es) comp ->
        let c, e = weight weights comp in
        let chi = if comp.Component.name = g_name then 1 else 0 in
        (cs + c - (alpha * chi), es + e))
      (0, 0) multiset
  in
  Float.of_int cs /. Float.of_int es

(* Lines 13 and 16: a productive multiset raises its components' choice
   weights, an unproductive one their exclusion weights. *)
let bump weights ~productive multiset =
  List.iter
    (fun comp ->
      let c, e = weight weights comp in
      Hashtbl.replace weights comp.Component.label
        (if productive then (c + 1, e) else (c, e + 1)))
    multiset

(* Algorithm 1 line 5: combinations with replacement at the fixed size
   n (small multisets cannot contribute >=3-component programs anyway),
   in seed-shuffled order. *)
let pool ~options library =
  Array.of_list
    (Multiset.shuffle ~seed:options.Engine.seed
       (Multiset.combinations_with_replacement library options.Engine.n_max))

let g_library_size = Sqed_obs.Metrics.gauge "synth.library_size"

let synthesize ?(alpha = 1) ~options ~spec ~library () =
  Sqed_obs.Metrics.set g_library_size (List.length library);
  (* Line 2: every weight starts at (1, 1), which is what [weight] reads
     for a component not in the table yet. *)
  let weights = Hashtbl.create 64 in
  let pool = pool ~options library in
  let alive = Array.make (Array.length pool) true in
  let g_name = spec.Component.g_name in
  (* Line 8: always take the highest-priority pending multiset; ties go
     to the earlier entry of the shuffled pool, mirroring the shuffle
     applied to the iterative baseline. *)
  let rec pick () =
    let best = ref (-1) in
    let best_p = ref neg_infinity in
    Array.iteri
      (fun i ms ->
        if alive.(i) then begin
          let p = priority ~alpha ~weights ~g_name ms in
          if p > !best_p then begin
            best_p := p;
            best := i
          end
        end)
      pool;
    if !best < 0 then Seq.Nil
    else begin
      alive.(!best) <- false;
      Seq.Cons (pool.(!best), pick)
    end
  in
  Engine.search ~options ~spec ~total:(Array.length pool)
    ~learn:(fun ms found -> bump weights ~productive:(found <> []) ms)
    pick
