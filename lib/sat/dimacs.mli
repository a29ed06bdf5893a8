(** DIMACS CNF import/export, for cross-checking the CDCL solver against
    external SAT solvers and for archiving hard instances. *)

type cnf = { num_vars : int; clauses : int list list }
(** Literals in DIMACS convention: variable indices from 1, negative for
    negated; no trailing 0s. *)

val parse : string -> (cnf, string) result
(** Parse DIMACS text ([c] comments and a [p cnf V C] header). *)

val print : cnf -> string
(** Render a CNF back to DIMACS text (header plus one clause per line). *)

val solve : ?portfolio:int -> cnf -> Sat.result * bool array option
(** Run the CDCL solver on a parsed instance; on SAT, the array maps
    variable i (1-based, index i-1) to its value.  [portfolio] above 1
    runs that many diversified workers via {!Portfolio.solve}. *)
