(** Symbolic-location component-based CEGIS (Gulwani et al.'s encoding):
    the component order and wiring are first-order location variables
    solved together with the internal attributes, so one incremental SMT
    session decides a whole multiset.

    This is the engine behind both the per-multiset [CEGIS(g, S)] call of
    Algorithm 1 (components = the multiset, every component required to be
    used) and the classical whole-library baseline (components = the
    entire library, used once each, dead components allowed). *)

type outcome = Complete | Budget_exhausted

val synthesize :
  config:Cegis.config ->
  spec:Component.spec ->
  components:Component.t list ->
  require_all_used:bool ->
  max_programs:int ->
  stats:Cegis.stats ->
  unit ->
  Program.t list * outcome
(** Verified programs, wiring-distinct (each solution's location
    assignment is blocked before searching for the next).

    The call runs under the calling domain's budget
    ({!Sqed_resil.Budget.current}), polled before each guess–verify
    round; [config.max_conflicts] caps each check.  A budget that runs
    out, in a check or in the middle of encoding, ends the call with
    the programs verified so far and [Budget_exhausted]; it never
    raises.

    Refutation probe: before the full session (all of
    {!Cegis.initial_examples}), the same encoding is built over only the
    last two seed examples, the pseudo-random ones, and checked once.  If
    that check is UNSAT the multiset is refuted and the result is
    [([], Complete)]; the counter [synth.probe_refuted] counts these.
    The probe asserts a subset of the full session's constraints, so the
    full session's first check would have been UNSAT too, or would have
    run out of budget first ([Budget_exhausted] then, with no programs
    either way).  Otherwise the
    probe is dropped and the full session runs exactly as without it: the
    programs, their order and the outcome do not depend on the probe.
    The probe's check counts as one solver call and one CEGIS iteration
    in [stats] and in the [synth.*] counters. *)
