(** HPF-CEGIS — CEGIS based on the highest priority first (Algorithm 1,
    Section 4.2), the paper's synthesis contribution.

    Each component j carries a choice weight c_j and an exclusion weight
    e_j (both start at 1 and are incremented by 1).  Each round selects the
    pending multiset with the highest priority

    priority = (Σ_j (c_j − α·χ_j)) / (Σ_j e_j)

    where χ_j = 1 when component j has the same name as the original
    instruction g (penalizing datapath overlap).  On a successful
    synthesis, the multiset's components have their choice weights
    increased; on failure, their exclusion weights.  The multiset loop
    itself, with its early stop at [k] countable programs, is
    {!Engine.search}. *)

val priority :
  alpha:int ->
  weights:(string, int * int) Hashtbl.t ->
  g_name:string ->
  Component.t list ->
  float
(** Exposed for tests and ablation benches. *)

val pool : options:Engine.options -> Component.t list -> Component.t list array
(** The multiset pool, [combinations_with_replacement library n_max] (the
    paper's line 5 uses a fixed multiset size) in seed-shuffled order.
    Priority ties go to the earlier entry, so taken in this order the
    pool is HPF without learning (the ablation's no-learning arm). *)

val synthesize :
  ?alpha:int ->
  options:Engine.options ->
  spec:Component.spec ->
  library:Component.t list ->
  unit ->
  Engine.result
