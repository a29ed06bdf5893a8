(* Portfolio CDCL: K diversified workers race on clones of one instance,
   sharing low-LBD learnt clauses through a bounded ring and stopping
   each other through Budget cancellation.  See portfolio.mli and
   docs/SOLVER.md for the soundness argument and the determinism
   story. *)

module Budget = Sqed_resil.Budget
module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace

let m_solves = Metrics.counter "sat.portfolio.solves"
let m_workers = Metrics.counter "sat.portfolio.workers"
let m_exported = Metrics.counter "sat.portfolio.exported"
let m_imported = Metrics.counter "sat.portfolio.imported"
let m_banked = Metrics.counter "sat.portfolio.banked"
let m_cancelled = Metrics.counter "sat.portfolio.cancelled"
let m_wins = Metrics.counter "sat.portfolio.wins"

(* Clauses worth the exchange traffic: glue-ish (low LBD) or short. *)
let export_max_lbd = 4
let export_max_len = 4

(* Deterministic mode runs each worker for this many conflicts per
   round-robin slice. *)
let det_quantum = 2048

(* On a single-core host the parallel path degrades to OS timesharing
   between K domains: every worker runs K times slower and the race
   loses to the round-robin scheduler, which harvests the same strategy
   diversity without the context-switch and clone-contention tax.
   [solve] therefore falls back to round-robin when the runtime
   recommends a single domain; tests set [force_spawn] to exercise the
   Domain.spawn path regardless. *)
let force_spawn = ref false

(* Bounded shared exchange buffer: an overwrite-oldest [Sqed_obs.Ring]
   of clause entries under one mutex.  Workers touch it only at restart
   boundaries (a flush of their local pending list plus a drain of
   peers' news), so the lock is uncontended in practice — the hot CDCL
   loop never sees it.  Overflow overwrites the oldest entries: the
   exchange is best-effort, losing a clause costs only rediscovery. *)
module Ring = struct
  module R = Sqed_obs.Ring

  type entry = { lits : Sat.lit array; lbd : int; owner : int }
  type t = { lock : Mutex.t; ring : entry R.t }

  let capacity = 4096
  let create () = { lock = Mutex.create (); ring = R.create capacity }

  let append_locked t owner pending =
    List.iter (fun (lits, lbd) -> R.push t.ring { lits; lbd; owner }) pending

  (* Flush [pending] (oldest first) and return every peer entry appended
     since [cursor], oldest first, in one critical section. *)
  let swap t ~owner ~cursor pending =
    Mutex.protect t.lock (fun () ->
        append_locked t owner pending;
        let news = R.read_from t.ring !cursor in
        cursor := R.total t.ring;
        List.filter_map
          (fun e -> if e.owner <> owner then Some (e.lits, e.lbd) else None)
          news)

  let flush t ~owner pending =
    Mutex.protect t.lock (fun () -> append_locked t owner pending)

  (* Everything currently buffered, oldest first (for the master
     bank-back after the race). *)
  let contents t =
    Mutex.protect t.lock (fun () ->
        List.map (fun e -> (e.lits, e.lbd)) (R.to_list t.ring))
end

(* Deterministic diversification table.  Worker 0 keeps the stock
   strategy (so a one-worker portfolio searches like the single-engine
   solver); higher indices vary the VSIDS decay, the restart schedule,
   the initial phase and — from worker 4 on — sprinkle random decision
   polarities. *)
let strategy_for i =
  if i = 0 then Sat.default_strategy
  else begin
    let decays = [| 0.95; 0.92; 0.97; 0.90; 0.94; 0.96; 0.91; 0.93 |] in
    {
      Sat.var_decay = decays.(i mod Array.length decays);
      restart_luby = i land 1 = 0;
      restart_base = (if i land 1 = 0 then 100.0 else 32.0);
      restart_growth = 1.3 +. (0.1 *. Float.of_int (i mod 3));
      seed = 0x9E37 + (7919 * i);
      random_pol_freq = (if i >= 4 then 64 else 0);
      invert_pol = i land 1 = 1;
    }
  end

let sum a = Array.fold_left ( + ) 0 a

let reason_str = function
  | Some r -> Budget.string_of_reason r
  | None -> "none"

let solve ?(assumptions = []) ?(deterministic = false) ~k s =
  if k <= 1 then Sat.solve ~assumptions s
  else if not (Sat.prepare ~assumptions s) then Sat.Unsat
  else begin
    let caller = Budget.current () in
    (* A fresh budget with the caller's deadline and remaining
       allowance, for a worker or for the round-robin scheduler. *)
    let fresh () =
      Budget.create ~deadline:(Budget.deadline caller)
        ~max_conflicts:(Budget.conflicts_remaining caller) ()
    in
    match Budget.over caller with
    | Some r ->
        (* Spent before any worker could start: report it without paying
           for clones or domains. *)
        Sat.note_interrupt s r;
        Sat.Unknown
    | None ->
        Metrics.incr m_solves;
        Metrics.add m_workers k;
        let clones = Array.init k (fun _ -> Sat.clone s) in
        let ring = Ring.create () in
        (* Per-worker exchange state: [pending.(i)] and [cursor.(i)] are
           only ever touched from worker [i]'s domain; the controller
           reads them after the joins (which synchronize). *)
        let pending = Array.make k [] in
        let cursor = Array.init k (fun _ -> ref 0) in
        let exported = Array.make k 0 in
        let imported = Array.make k 0 in
        let results = Array.make k Sat.Unknown in
        let winner = Atomic.make (-1) in
        let exchange_for i =
          {
            Sat.max_lbd = export_max_lbd;
            max_len = export_max_len;
            export =
              (fun lits lbd ->
                pending.(i) <- (lits, lbd) :: pending.(i);
                exported.(i) <- exported.(i) + 1);
            import =
              (fun () ->
                let mine = List.rev pending.(i) in
                pending.(i) <- [];
                let got = Ring.swap ring ~owner:i ~cursor:cursor.(i) mine in
                imported.(i) <- imported.(i) + List.length got;
                got);
          }
        in
        let round_robin =
          deterministic
          || ((not !force_spawn) && Domain.recommended_domain_count () <= 1)
        in
        let setup i =
          let w = clones.(i) in
          Sat.set_strategy w (strategy_for i);
          Sat.set_exchange w (Some (exchange_for i));
          Trace.info "portfolio.worker.start"
            [
              ("worker", Trace.I i);
              ("deterministic", Trace.B deterministic);
              ( "scheduler",
                Trace.Str (if round_robin then "round-robin" else "parallel") );
              ("seed", Trace.I (strategy_for i).Sat.seed);
              ("luby", Trace.B (strategy_for i).Sat.restart_luby);
            ];
          w
        in
        (* Why the round-robin race stopped without a verdict. *)
        let stop = ref None in
        if round_robin then begin
          (* Round-robin mode — [deterministic], or a single-core host:
             the workers run on this domain in fixed round-robin slices
             of [det_quantum] conflicts, the exchange schedule is a
             deterministic function of the search, and the verdict is
             the first definitive answer in worker order.  The workers
             share one budget: together they spend at most the caller's
             allowance. *)
          let workers = Array.init k setup in
          let shared = fresh () in
          while Atomic.get winner < 0 && !stop = None do
            let i = ref 0 in
            while !i < k && Atomic.get winner < 0 && !stop = None do
              let w = workers.(!i) in
              if Budget.conflicts_remaining shared <= 0 then
                stop := Some Budget.Conflicts
              else if Budget.over caller = Some Budget.Cancelled then
                (* [shared] carries the caller's limits but not its
                   cancel: look for one between slices. *)
                stop := Some Budget.Cancelled
              else begin
                let r =
                  Budget.with_current shared (fun () ->
                      Budget.within ~max_conflicts:det_quantum (fun () ->
                          Sat.solve ~assumptions w))
                in
                (match r with
                | Sat.Unknown -> (
                    match Sat.last_interrupt w with
                    | Some Budget.Conflicts | None ->
                        () (* slice spent; next worker *)
                    | Some r -> stop := Some r)
                | _ ->
                    results.(!i) <- r;
                    ignore (Atomic.compare_and_set winner (-1) !i))
              end;
              incr i
            done
          done;
          Array.iteri (fun i p -> Ring.flush ring ~owner:i (List.rev p)) pending
        end
        else begin
          (* Parallel mode: one domain per worker; the first definitive
             finisher takes the winner slot and cancels the peers'
             budgets, which their solve loops observe at the restart /
             1024-conflict / reduce-db poll sites.  Each worker's own
             budget carries the full remaining allowance: the usual
             portfolio accounting, where "effort" is per engine. *)
          let budgets = Array.init k (fun _ -> fresh ()) in
          let finished = Atomic.make 0 in
          let run i =
            let w = setup i in
            let r =
              try
                Budget.with_current budgets.(i) (fun () ->
                    Sat.solve ~assumptions w)
              with e ->
                Trace.warn "portfolio.worker.error"
                  [
                    ("worker", Trace.I i);
                    ("exn", Trace.Str (Printexc.to_string e));
                  ];
                Sat.Unknown
            in
            results.(i) <- r;
            (* Flush straggler exports so the bank-back below sees them. *)
            Ring.flush ring ~owner:i (List.rev pending.(i));
            pending.(i) <- [];
            if r <> Sat.Unknown && Atomic.compare_and_set winner (-1) i then
              Array.iteri
                (fun j b -> if j <> i then Budget.cancel b)
                budgets
          in
          let domains =
            Array.init k (fun i ->
                Domain.spawn (fun () ->
                    Fun.protect
                      ~finally:(fun () -> Atomic.incr finished)
                      (fun () -> run i)))
          in
          (* The controller polls the caller's budget while the race runs
             and relays a cancel to the workers.  Its deadline and
             allowance the workers carry themselves, so they report
             those reasons first-hand. *)
          while Atomic.get finished < k do
            if Budget.over caller = Some Budget.Cancelled then
              Array.iter Budget.cancel budgets;
            Unix.sleepf 0.001
          done;
          Array.iter Domain.join domains
        end;
        (* Verdict, adoption and bank-back. *)
        let w = Atomic.get winner in
        let adopted =
          if w >= 0 then w
          else begin
            (* All workers gave up: surface a real reason (deadline or
               conflict cap) over a relayed cancellation when one
               exists. *)
            let rep = ref 0 in
            Array.iteri
              (fun i c ->
                match Sat.last_interrupt c with
                | Some Budget.Deadline | Some Budget.Conflicts ->
                    if
                      (match Sat.last_interrupt clones.(!rep) with
                      | Some Budget.Deadline | Some Budget.Conflicts -> false
                      | _ -> true)
                    then rep := i
                | _ -> ())
              clones;
            !rep
          end
        in
        let banked = Ring.contents ring in
        Sat.import_clauses s banked;
        Sat.adopt s ~winner:clones.(adopted);
        (* A round-robin worker ends every spent slice on [Conflicts],
           so the representative's reason need not be the one that
           stopped the race. *)
        Option.iter (Sat.note_interrupt s) !stop;
        Budget.charge caller (Sat.stats clones.(adopted)).Sat.conflicts;
        Metrics.add m_exported (sum exported);
        Metrics.add m_imported (sum imported);
        Metrics.add m_banked (List.length banked);
        if w >= 0 then begin
          Metrics.incr m_wins;
          Metrics.add m_cancelled (k - 1)
        end;
        Array.iteri
          (fun i r ->
            let st = Sat.stats clones.(i) in
            let fields =
              [
                ("worker", Trace.I i);
                ("conflicts", Trace.I st.Sat.conflicts);
                ("exported", Trace.I exported.(i));
                ("imported", Trace.I imported.(i));
              ]
            in
            if i = w then
              Trace.info "portfolio.worker.won"
                (( "result",
                   Trace.Str (match r with Sat.Sat -> "sat" | _ -> "unsat") )
                :: fields)
            else if w >= 0 then Trace.info "portfolio.worker.cancelled" fields
            else
              Trace.info "portfolio.worker.exhausted"
                (("reason", Trace.Str (reason_str (Sat.last_interrupt clones.(i))))
                :: fields))
          results;
        if w >= 0 then results.(w)
        else begin
          (* [adopt] already copied the representative's interrupt
             reason onto the master. *)
          Sat.Unknown
        end
  end
