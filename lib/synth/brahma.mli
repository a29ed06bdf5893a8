(** Classical component-based CEGIS (Gulwani et al.): one synthesis query
    with first-order location variables over the {e entire} library, every
    component appearing once as a line of the candidate program.

    With a realistic library this does not terminate in a practical budget
    (Section 6.1: "Classical CEGIS failed to synthesize a single original
    instruction even after several weeks"); it is implemented faithfully as
    the failing baseline and is exercised under an explicit budget.

    Every component must take a line, so components with an immediate
    input are left out under a specification without an immediate (an
    R-type one): nothing could feed them. *)

val synthesize :
  options:Engine.options ->
  spec:Component.spec ->
  library:Component.t list ->
  Engine.result
(** {!Engine.search} over the single multiset [library] (less the
    components [spec] cannot feed), stopping at the
    first program: [programs] holds at most one, and an empty list with
    [budget_exhausted = false] means the library cannot express the
    specification. *)
