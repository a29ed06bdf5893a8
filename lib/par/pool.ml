module Metrics = Sqed_obs.Metrics
module Trace = Sqed_obs.Trace
module Progress = Sqed_obs.Progress
module Budget = Sqed_resil.Budget
module Fault = Sqed_resil.Fault

(* Supervision instruments ([add_always]: they must report under
   [--stats] with observability off, and the smoke checks assert their
   presence in every metrics snapshot). *)
let m_retries = Metrics.counter "resil.retries"
let m_task_failures = Metrics.counter "resil.task_failures"
let sp_retry = Trace.kind ~cat:"resil" "resil.retry"

type task = int -> unit
(** A queued task receives the index of the worker slot executing it. *)

(* Per-worker stats live in the global metrics registry (counters named
   [par.worker.<i>.*], in microseconds) rather than in a pool-private
   record, so [--metrics] / [--metrics-json] see them like every other
   instrument.  They use [add_always]: [--stats] must keep working with
   observability off.  Each pool captures the counter values at [create]
   and [stats] reports the delta, giving per-pool numbers even though the
   registry aggregates across all pools ever created. *)

type worker_counters = {
  c_tasks : Metrics.counter;
  c_busy_us : Metrics.counter;
  c_wait_us : Metrics.counter;
}

let worker_counters i =
  {
    c_tasks = Metrics.counter (Printf.sprintf "par.worker.%d.tasks" i);
    c_busy_us = Metrics.counter (Printf.sprintf "par.worker.%d.busy_us" i);
    c_wait_us = Metrics.counter (Printf.sprintf "par.worker.%d.queue_wait_us" i);
  }

type t = {
  n_jobs : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  counters : worker_counters array;
  baseline : (int * int * int) array; (* (tasks, busy_us, wait_us) at create *)
}

let default_jobs () =
  match Sys.getenv_opt "SEPE_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let worker p i =
  Trace.info "pool.worker.start" [ ("worker", Trace.I i) ];
  let rec loop () =
    Mutex.lock p.mutex;
    while Queue.is_empty p.queue && not p.closed do
      Condition.wait p.nonempty p.mutex
    done;
    if Queue.is_empty p.queue then begin
      Mutex.unlock p.mutex;
      (* closed: exit *)
      Trace.info "pool.worker.exit" [ ("worker", Trace.I i) ]
    end
    else begin
      let task = Queue.pop p.queue in
      Mutex.unlock p.mutex;
      task i;
      loop ()
    end
  in
  loop ()

let create ?jobs () =
  let n_jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  let counters = Array.init n_jobs worker_counters in
  let p =
    {
      n_jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      domains = [];
      counters;
      baseline =
        Array.map
          (fun c ->
            ( Metrics.counter_value c.c_tasks,
              Metrics.counter_value c.c_busy_us,
              Metrics.counter_value c.c_wait_us ))
          counters;
    }
  in
  p.domains <- List.init (n_jobs - 1) (fun i -> Domain.spawn (fun () -> worker p (i + 1)));
  p

let jobs p = p.n_jobs

let check_open p = if p.closed then invalid_arg "Pool: already shut down"

let to_us dt = int_of_float (dt *. 1e6)

(* Run [run 0 .. run (n - 1)] and return once every one has finished.
   [run] must not raise: a worker domain has nowhere to send an
   exception. *)
let run_batch p run n =
  check_open p;
  (* The batch's completion counter, guarded by the pool mutex. *)
  let remaining = ref n in
  let batch_done = Condition.create () in
  let run_task i w =
    let t0 = Unix.gettimeofday () in
    Progress.task_begin w;
    run i;
    let dt = Unix.gettimeofday () -. t0 in
    Progress.task_end dt;
    (* Counter writes happen before the batch-done critical section: the
       mutex release/acquire pair is what makes them visible to a [stats]
       read issued after [map_result] returns. *)
    let c = p.counters.(w) in
    Metrics.add_always c.c_tasks 1;
    Metrics.add_always c.c_busy_us (to_us dt);
    Mutex.lock p.mutex;
    decr remaining;
    if !remaining = 0 then Condition.broadcast batch_done;
    Mutex.unlock p.mutex
  in
  if p.n_jobs = 1 then
    (* Inline: deterministic submission order, no queueing (and hence no
       queue wait). *)
    for i = 0 to n - 1 do
      run_task i 0
    done
  else begin
    Mutex.lock p.mutex;
    for i = 0 to n - 1 do
      let queued_at = Unix.gettimeofday () in
      Queue.push
        (fun w ->
          Metrics.add_always p.counters.(w).c_wait_us
            (to_us (Unix.gettimeofday () -. queued_at));
          run_task i w)
        p.queue
    done;
    Condition.broadcast p.nonempty;
    Mutex.unlock p.mutex;
    (* The caller's domain also works the queue until the batch drains, so
       [jobs = n] means n busy domains, not n workers plus an idle waiter. *)
    let rec help () =
      Mutex.lock p.mutex;
      if !remaining = 0 then Mutex.unlock p.mutex
      else if Queue.is_empty p.queue then begin
        (* Tasks of this batch are still running on workers: wait. *)
        while !remaining > 0 do
          Condition.wait batch_done p.mutex
        done;
        Mutex.unlock p.mutex
      end
      else begin
        let task = Queue.pop p.queue in
        Mutex.unlock p.mutex;
        task 0;
        help ()
      end
    in
    help ()
  end

(* -- supervised mapping ------------------------------------------------- *)

type task_error = { error : string; attempts : int; exhausted : bool }

(* A failing task gets one retry, after this many seconds. *)
let retries = 1
let backoff = 0.05

let run_supervised f x =
  let rec attempt k sleep =
    (* The task's limits are its own: it starts under no ambient budget
       and narrows one with [Budget.within] where it needs one. *)
    match
      Budget.with_current Budget.unlimited (fun () ->
          Fault.check "pool.task";
          f x)
    with
    | r -> Ok r
    | exception e ->
        let exhausted =
          match e with Budget.Exhausted _ -> true | _ -> false
        in
        let transient =
          (* Budget exhaustion would recur (the work is simply too big)
             and injected faults are deterministic by design; everything
             else is worth a bounded retry. *)
          match e with
          | Budget.Exhausted _ | Fault.Injected _ -> false
          | _ -> true
        in
        if transient && k < retries then begin
          Metrics.add_always m_retries 1;
          Trace.warn "resil.task.retry"
            [
              ("attempt", Trace.I (k + 1));
              ("backoff_s", Trace.F sleep);
              ("error", Trace.Str (Printexc.to_string e));
            ];
          Trace.with_span sp_retry (fun () -> Unix.sleepf sleep);
          attempt (k + 1) (sleep *. 2.)
        end
        else begin
          Metrics.add_always m_task_failures 1;
          Trace.warn "resil.task.failed"
            [
              ("attempts", Trace.I (k + 1));
              ("exhausted", Trace.B exhausted);
              ("error", Trace.Str (Printexc.to_string e));
            ];
          Error { error = Printexc.to_string e; attempts = k + 1; exhausted }
        end
  in
  attempt 0 backoff

let map_result p f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let results = Array.make n None in
  (* The supervised wrap never raises, so the batch always runs to
     completion with one verdict per task. *)
  run_batch p (fun i -> results.(i) <- Some (run_supervised f xs.(i))) n;
  Array.to_list (Array.map Option.get results)

type worker_stats = {
  worker : int;
  tasks : int;
  busy : float;
  queue_wait : float;
}

let stats p =
  List.init p.n_jobs (fun i ->
      let c = p.counters.(i) in
      let t0, b0, w0 = p.baseline.(i) in
      {
        worker = i;
        tasks = Metrics.counter_value c.c_tasks - t0;
        busy = float_of_int (Metrics.counter_value c.c_busy_us - b0) /. 1e6;
        queue_wait =
          float_of_int (Metrics.counter_value c.c_wait_us - w0) /. 1e6;
      })

let shutdown p =
  if not p.closed then begin
    Mutex.lock p.mutex;
    p.closed <- true;
    Condition.broadcast p.nonempty;
    Mutex.unlock p.mutex;
    List.iter Domain.join p.domains;
    p.domains <- []
  end

let with_pool ?jobs f =
  let p = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
