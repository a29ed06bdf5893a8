(** Iterative CEGIS (Buchwald et al., Section 2.2): enumerate multisets of
    increasing size by combinations with replacement ({!Multiset.up_to}),
    shuffle them (with the engine seed) and run {!Engine.search} over them
    in that order until [k] countable programs are found. *)

val synthesize :
  options:Engine.options ->
  spec:Component.spec ->
  library:Component.t list ->
  Engine.result
