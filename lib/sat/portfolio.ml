(* Portfolio CDCL: K diversified workers take turns on clones of one
   instance in fixed round-robin slices on the calling domain, sharing
   low-LBD learnt clauses through a bounded ring.  See portfolio.mli and
   docs/SOLVER.md for the soundness argument. *)

module Budget = Sqed_resil.Budget
module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace
module Ring = Sqed_obs.Ring

let m_solves = Metrics.counter "sat.portfolio.solves"
let m_workers = Metrics.counter "sat.portfolio.workers"
let m_exported = Metrics.counter "sat.portfolio.exported"
let m_imported = Metrics.counter "sat.portfolio.imported"
let m_banked = Metrics.counter "sat.portfolio.banked"
let m_lost = Metrics.counter "sat.portfolio.lost"
let m_wins = Metrics.counter "sat.portfolio.wins"

(* Clauses worth the exchange traffic: glue-ish (low LBD) or short. *)
let export_max_lbd = 4
let export_max_len = 4

(* Each worker runs for this many conflicts per round-robin slice. *)
let quantum = 2048

(* The exchange buffer: an overwrite-oldest ring of clause entries.
   Workers touch it only at restart boundaries (a flush of their local
   pending list plus a drain of peers' news), and one domain runs every
   worker, so it needs no lock.  Overflow overwrites the oldest entries:
   the exchange is best-effort, losing a clause costs only
   rediscovery. *)
type entry = { lits : Sat.lit array; lbd : int; owner : int }

let ring_capacity = 4096

let append ring owner pending =
  List.iter (fun (lits, lbd) -> Ring.push ring { lits; lbd; owner }) pending

(* Flush [pending] (oldest first) and return every peer entry appended
   since [cursor], oldest first. *)
let swap ring ~owner ~cursor pending =
  append ring owner pending;
  let news = Ring.read_from ring !cursor in
  cursor := Ring.total ring;
  List.filter_map
    (fun e -> if e.owner <> owner then Some (e.lits, e.lbd) else None)
    news

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

let solve ?(assumptions = []) ~k s =
  if k <= 1 then Sat.solve ~assumptions s
  else if not (Sat.prepare ~assumptions s) then Sat.Unsat
  else begin
    let caller = Budget.current () in
    match Budget.over caller with
    | Some r ->
        (* Spent before any worker could start: report it without paying
           for clones. *)
        Sat.note_interrupt s r;
        Sat.Unknown
    | None ->
        Metrics.incr m_solves;
        Metrics.add m_workers k;
        let clones = Array.init k (fun _ -> Sat.clone s) in
        let ring = Ring.create ring_capacity in
        let pending = Array.make k [] in
        let cursor = Array.init k (fun _ -> ref 0) in
        let exported = Array.make k 0 in
        let imported = Array.make k 0 in
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
                let got = swap ring ~owner:i ~cursor:cursor.(i) mine in
                imported.(i) <- imported.(i) + List.length got;
                got);
          }
        in
        Array.iteri
          (fun i w ->
            Sat.set_strategy w (strategy_for i);
            Sat.set_exchange w (Some (exchange_for i));
            Trace.info "portfolio.worker.start"
              [
                ("worker", Trace.I i);
                ("seed", Trace.I (strategy_for i).Sat.seed);
                ("luby", Trace.B (strategy_for i).Sat.restart_luby);
              ])
          clones;
        (* The workers take fixed slices of [quantum] conflicts in worker
           order, so the exchange schedule is a deterministic function of
           the search and the verdict is the first definitive answer.
           They share one budget with the caller's deadline and
           remaining allowance: together they spend at most that. *)
        let shared =
          Budget.create ~deadline:(Budget.deadline caller)
            ~max_conflicts:(Budget.conflicts_remaining caller) ()
        in
        (* The first definitive answer, with its worker. *)
        let won = ref None in
        (* Why the race stopped without a verdict. *)
        let stop = ref None in
        let i = ref 0 in
        while !won = None && !stop = None do
          let w = clones.(!i) in
          if Budget.conflicts_remaining shared <= 0 then
            stop := Some Budget.Conflicts
          else if Budget.over caller = Some Budget.Cancelled then
            (* [shared] carries the caller's limits but not its cancel:
               look for one between slices. *)
            stop := Some Budget.Cancelled
          else begin
            let r =
              Budget.with_current shared (fun () ->
                  Budget.within ~max_conflicts:quantum (fun () ->
                      Sat.solve ~assumptions w))
            in
            match r with
            | Sat.Unknown -> (
                match Sat.last_interrupt w with
                | Some Budget.Conflicts | None ->
                    () (* slice spent; next worker *)
                | Some r -> stop := Some r)
            | r -> won := Some (!i, r)
          end;
          i := (!i + 1) mod k
        done;
        Array.iteri (fun i p -> append ring i (List.rev p)) pending;
        (* Verdict, adoption and bank-back. *)
        let w, verdict =
          match !won with Some (i, r) -> (i, r) | None -> (-1, Sat.Unknown)
        in
        let adopted =
          if w >= 0 then w
          else begin
            (* No worker answered: adopt the first that stopped on a
               real limit (deadline or conflict cap), else worker 0. *)
            let rec first i =
              if i >= k then 0
              else
                match Sat.last_interrupt clones.(i) with
                | Some (Budget.Deadline | Budget.Conflicts) -> i
                | _ -> first (i + 1)
            in
            first 0
          end
        in
        let banked = List.map (fun e -> (e.lits, e.lbd)) (Ring.to_list ring) in
        Sat.import_clauses s banked;
        Sat.adopt s ~winner:clones.(adopted);
        (* A worker ends every spent slice on [Conflicts], so the adopted
           worker's reason need not be the one that stopped the race. *)
        Option.iter (Sat.note_interrupt s) !stop;
        Budget.charge caller (Sat.stats clones.(adopted)).Sat.conflicts;
        Metrics.add m_exported (sum exported);
        Metrics.add m_imported (sum imported);
        Metrics.add m_banked (List.length banked);
        if w >= 0 then begin
          Metrics.incr m_wins;
          Metrics.add m_lost (k - 1)
        end;
        Array.iteri
          (fun i c ->
            let st = Sat.stats c in
            let fields =
              [
                ("worker", Trace.I i);
                ("conflicts", Trace.I st.Sat.conflicts);
                ("exported", Trace.I exported.(i));
                ("imported", Trace.I imported.(i));
              ]
            in
            if i = w then
              let result = if verdict = Sat.Sat then "sat" else "unsat" in
              Trace.info "portfolio.worker.won"
                (("result", Trace.Str result) :: fields)
            else if w >= 0 then Trace.info "portfolio.worker.lost" fields
            else
              Trace.info "portfolio.worker.exhausted"
                (("reason", Trace.Str (reason_str (Sat.last_interrupt c)))
                :: fields))
          clones;
        (* With no winner, [adopt] already copied the adopted worker's
           interrupt reason onto the master. *)
        verdict
  end
