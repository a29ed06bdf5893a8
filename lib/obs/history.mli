(** Persistent cross-run ledger: an append-only, torn-line-tolerant
    JSONL archive of run records.

    Every archived run is one JSON object per line (schema
    {!schema} = [sepe.ledger/1]) wrapping the run's machine-readable
    payload — a [run.json] flight-recorder snapshot or a bench summary —
    together with environment {!provenance}: git commit and dirty flag,
    hostname, core count, OCaml version and the solver configuration in
    force.  The file is a {!Jsonl} store, like the [lib/resil]
    checkpoint journal: an append is one flushed line, so a crash can
    lose at most the line being written; {!load} silently drops a torn
    trailing line and counts it, which keeps a ledger shared by
    interrupted runs safe to keep appending to.

    The ledger is the substrate for the differential engine ({!Diff})
    and the perf-regression sentinel: [bench --baseline] compares the
    run it just finished against the config-compatible tail of a
    ledger, and [sepe runs list|show|compare] browse one from the
    shell. *)

val schema : string
(** The entry schema tag, [sepe.ledger/1]. *)

(** {1 Building entries} *)

val provenance : config:(string * Json.t) list -> unit -> Json.t
(** Environment stamp for a new entry: [git_commit] (short hash, or
    ["unknown"] outside a work tree), [git_dirty], [hostname], [cores]
    (recommended domain count), [ocaml] (compiler version) and the
    caller-supplied [config] object — by convention the
    [{jobs, fast, simplify, portfolio}] knobs that make two runs
    comparable ([Sqed_exp.Provenance.config]). *)

val entry :
  kind:string -> label:string -> provenance:Json.t -> run:Json.t -> Json.t
(** Wrap a run payload as one ledger entry: [kind] is the producing
    binary (["bench"] or ["sepe"]), [label] the experiment or
    subcommand, [run] the machine-readable payload archived verbatim.
    The entry is stamped with the current wall-clock time. *)

(** {1 The file} *)

val append : string -> Json.t -> unit
(** [append path e] appends [e] as one line to [path] (creating it if
    needed) and flushes.  After a torn last line it first terminates
    that line, so the torn fragment stays one droppable line and [e]
    survives {!load}.  Raises [Sys_error] when the file cannot be
    opened or written. *)

type loaded = {
  entries : Json.t list;  (** parseable entries, oldest first *)
  dropped : int;  (** torn or malformed lines silently skipped *)
}

val load : string -> loaded
(** Read a ledger back.  A missing file is an empty ledger; a torn
    trailing line (or any unparseable line) is dropped and counted, not
    an error. *)

(** {1 Entry accessors} *)

val run_of : Json.t -> Json.t option
(** The archived run payload of an entry. *)

val config_of : Json.t -> Json.t option
(** The provenance config object of an entry. *)

val compatible : Json.t -> Json.t -> bool
(** [compatible a b] is true when both entries carry a provenance
    config and the configs are structurally equal — the gate that keeps
    the sentinel from comparing, say, a [--no-simplify] run against a
    preprocessed baseline.  Keys of retired knobs are ignored when the
    old run used what is now the only behaviour, so such entries stay
    usable baselines: ["aig": true] (written while a direct-Tseitin
    bit-blaster still existed), and ["portfolio_deterministic"] when it
    is [true] or the run's [portfolio] width is 1 (a [false] at a larger
    width ran the retired parallel race).  Entries without a config are
    never compatible. *)

val summary_line : int -> Json.t -> string
(** One human-readable line for [sepe runs list]: index, UTC
    timestamp, kind/label, git stamp and headline wall seconds. *)
