(** The synthesis driver shared by the three engines (classical/Brahma,
    iterative, HPF): their options, their result, and the one multiset
    loop that runs the per-multiset [CEGIS(g, S)] call of Algorithm 1.
    The engines differ only in which multiset goes next. *)

type options = {
  config : Cegis.config;
  n_max : int;  (** largest multiset size *)
  k : int;  (** stop once this many programs of >= [min_components] exist *)
  min_components : int;
      (** the paper counts only programs "consisting of at least three
          components" towards the early-stop threshold *)
  seed : int;  (** shuffle seed for the multiset pool *)
  time_budget : float option;
      (** wall-clock seconds; narrows the calling domain's budget *)
}

val default_options : options

type result = {
  programs : Program.t list;
  stats : Cegis.stats;
  multisets_total : int;
  elapsed : float;
  budget_exhausted : bool;
}

val countable : options -> Program.t -> bool
(** Does a program count towards [k]? *)

val search :
  ?learn:(Component.t list -> Program.t list -> unit) ->
  ?all_used:bool ->
  ?max_programs:int ->
  options:options ->
  spec:Component.spec ->
  total:int ->
  Component.t list Seq.t ->
  result
(** [search ~options ~spec ~total multisets] runs {!Locsynth.synthesize}
    on each multiset in turn and collects the programs, until [k]
    countable programs exist, the sequence ends or the budget runs out.
    [total] is the pool size reported as [multisets_total].

    The budget is the calling domain's ({!Sqed_resil.Budget.current}),
    narrowed once by {!Sqed_resil.Budget.within} to [time_budget]
    seconds from entry, polled before each multiset (and by [Locsynth]
    before each guess–verify round); running out never raises.
    [budget_exhausted] is [true] when the search ends short of [k]
    either on that budget or with some multiset left undecided (its
    session ran out of budget, [config.max_conflicts] or
    [config.max_cegis_iters]).

    Each multiset is forced only after [learn] (default: nothing) has
    seen the previous one and the programs it yielded, so a strategy
    may pick the next from what the earlier ones taught it.
    [all_used] (default [true]) requires every component to be used;
    [max_programs] (default [config.max_programs_per_multiset]) caps
    the programs taken from one multiset. *)

val report : string -> result -> string
(** [report label r]: one summary line (programs, seconds, multisets
    tried of [multisets_total], CEGIS iterations, solver calls, budget
    exhaustion), then one indented line per program. *)
