(** SatELite-style CNF preprocessing: bounded variable elimination,
    subsumption / self-subsuming resolution, and failed-literal probing on
    the binary implication graph.

    [run] consumes a clause set (literals in the solver's [2*var (+1)]
    encoding) and returns an equisatisfiable simplified set together with
    everything the caller needs to stay sound:

    - [units]: literals forced true at top level (by strengthening chains,
      failed-literal probes, or unit resolvents);
    - [eliminated]: for every variable removed by elimination, the clauses
      that mentioned it at removal time, in elimination order — a model of
      the simplified set extends to a model of the original by walking
      this list {e newest-first} and picking each variable's value from
      its stored clauses (see {!Sat}'s model extension);
    - [unsat]: the preprocessor itself derived the empty clause.

    Variables for which [frozen] holds are never eliminated (but still
    benefit from subsumption, strengthening and probing): the caller
    freezes variables whose clauses must survive verbatim — bit-blaster
    cache outputs that future incremental blasts will reference, and
    assumption variables.  All transformations are standard and preserve
    equisatisfiability; elimination additionally requires the stored
    clauses for model reconstruction.

    The pass is budgeted (bounded occurrence counts for elimination,
    capped subset checks, capped probe visits) so its cost stays linear-ish
    in the formula size.  It allocates per pass, not per clause: a flat
    literal store and pooled occurrence vectors, with only the outcome
    copied out.  Measured on the bit-blasted BMC instances of
    [sepebench refute] (~25 k clauses a pass) and [hunt] (39–57 k) on a
    shared 2-vCPU VM, whole pass including the solver's extraction and
    rebuild: about 60 ms a [refute] pass and 100–115 ms a [hunt] pass,
    against 90–110 and 170–240 ms for the list-based pass it replaced;
    a [refute] pass allocates 0.5 M minor words (the outcome) and 0.85 M
    words of per-pass arrays, against 8.4 M and 0.1 M. *)

type stats = {
  eliminated_vars : int;
  subsumed : int;  (** clauses removed by backward subsumption *)
  strengthened : int;  (** literals removed by self-subsuming resolution *)
  probe_failures : int;  (** failed literals found by binary-graph probing *)
  units : int;  (** top-level assignments discovered by the pass *)
  resolvents : int;  (** clauses added by variable elimination *)
}

type outcome = {
  clauses : int array list;  (** surviving clauses (each length >= 2) *)
  units : int list;  (** literals true at top level *)
  eliminated : (int * int array list) list;
      (** (var, clauses containing it when eliminated), oldest first *)
  unsat : bool;
  stats : stats;
}

val run :
  nvars:int ->
  frozen:(int -> bool) ->
  ?stop:(unit -> bool) ->
  int array list ->
  outcome
(** Simplify the clause set.  Input clauses may be unsorted, contain
    duplicate literals, tautologies or units; literals must be
    [< 2*nvars].  The result mentions no eliminated variable.

    [run] takes ownership of the input arrays: it sorts and compacts
    each one in place, and the outcome's [clauses] and [eliminated]
    lists may share them.  Callers pass fresh arrays and must not
    mutate the outcome's arrays.

    [stop] is polled at operation boundaries (per subsumption clause,
    per probe, per elimination candidate); once it turns true the pass
    degrades — it finishes the current atomic operation, skips the rest,
    and returns the (sound, equisatisfiable) outcome accumulated so far.
    It never raises on account of [stop]. *)
