(* Live campaign status line.

   One global campaign at a time, guarded by a mutex; heartbeats are
   throttled per domain (tick mask + a 100ms window) before they touch
   the lock, so per-check-point cost stays negligible. Rendering
   rewrites a single stderr line with \r + erase-to-EOL. *)

let enabled = ref false

(* Set only while a campaign is active *and* [enabled]; [beat]'s fast
   path is this single boolean load. *)
let active = ref false

type state = {
  mutable label : string;
  mutable total : int;
  mutable done_ : int;
  mutable sum_dur : float;
  mutable t0 : float;
  mutable task_budget : float; (* seconds; 0 = unknown *)
  mutable jobs : int;
  mutable out : out_channel;
  mutable last_render : float;
  (* In-flight tasks: domain id -> (worker slot, last heartbeat). *)
  inflight : (int, int * float) Hashtbl.t;
  (* Worker slots already flagged as stalled (warn once each). *)
  stalled : (int, unit) Hashtbl.t;
}

let mu = Mutex.create ()

let st =
  {
    label = "";
    total = 0;
    done_ = 0;
    sum_dur = 0.0;
    t0 = 0.0;
    task_budget = 0.0;
    jobs = 1;
    out = stderr;
    last_render = 0.0;
    inflight = Hashtbl.create 8;
    stalled = Hashtbl.create 8;
  }

let stall_factor = 2.0

let eta ~done_ ~total ~sum_dur ~jobs =
  if done_ <= 0 then None
  else
    let mean = sum_dur /. float_of_int done_ in
    let remaining = max 0 (total - done_) in
    Some (mean *. float_of_int remaining /. float_of_int (max 1 jobs))

let fmt_secs s =
  if s < 60.0 then Printf.sprintf "%.1fs" s
  else Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)

(* Call with [mu] held. *)
let line_locked now =
  if not !active then ""
  else begin
    let eta_s =
      match
        eta ~done_:st.done_ ~total:st.total ~sum_dur:st.sum_dur ~jobs:st.jobs
      with
      | None -> "--"
      | Some s -> "~" ^ fmt_secs s
    in
    let n_stalled =
      if st.task_budget <= 0.0 then 0
      else
        Hashtbl.fold
          (fun _ (_, hb) acc ->
            if now -. hb > stall_factor *. st.task_budget then acc + 1 else acc)
          st.inflight 0
    in
    Printf.sprintf "[%s] %d/%d done | elapsed %s | eta %s | %d running%s"
      st.label st.done_ st.total
      (fmt_secs (now -. st.t0))
      eta_s
      (Hashtbl.length st.inflight)
      (if n_stalled > 0 then Printf.sprintf " | %d STALLED?" n_stalled else "")
  end

let render_line () =
  Mutex.lock mu;
  let s = line_locked (Unix.gettimeofday ()) in
  Mutex.unlock mu;
  s

(* Call with [mu] held. *)
let render_locked now =
  if now -. st.last_render >= 0.15 then begin
    st.last_render <- now;
    (* Warn once per worker slot that crosses the stall threshold. *)
    if st.task_budget > 0.0 then
      Hashtbl.iter
        (fun _dom (w, hb) ->
          if
            now -. hb > stall_factor *. st.task_budget
            && not (Hashtbl.mem st.stalled w)
          then begin
            Hashtbl.replace st.stalled w ();
            Trace.warn "obs.progress.stall"
              [
                ("worker", Trace.I w);
                ("silent_s", Trace.F (now -. hb));
                ("budget_s", Trace.F st.task_budget);
              ]
          end)
        st.inflight;
    output_string st.out ("\r\027[K" ^ line_locked now);
    flush st.out
  end

let task_begin w =
  if !active then begin
    let now = Unix.gettimeofday () in
    Mutex.lock mu;
    Hashtbl.replace st.inflight (Domain.self () :> int) (w, now);
    render_locked now;
    Mutex.unlock mu
  end

let task_end dur =
  if !active then begin
    let now = Unix.gettimeofday () in
    Mutex.lock mu;
    Hashtbl.remove st.inflight (Domain.self () :> int);
    st.done_ <- st.done_ + 1;
    st.sum_dur <- st.sum_dur +. dur;
    (* A finished case always repaints, budget throttle aside. *)
    st.last_render <- 0.0;
    render_locked now;
    Mutex.unlock mu
  end

(* Per-domain beat throttle: a cheap racy tick counter keeps the clock
   read off the per-term bit-blast path; the 100ms window keeps the
   mutex off the per-1024-conflicts path. *)
let beat_tick = ref 0
let beat_last_key = Domain.DLS.new_key (fun () -> ref 0.0)

let beat () =
  if !active then begin
    incr beat_tick;
    if !beat_tick land 255 = 0 then begin
      let last = Domain.DLS.get beat_last_key in
      let now = Unix.gettimeofday () in
      if now -. !last >= 0.1 then begin
        last := now;
        Mutex.lock mu;
        let dom = (Domain.self () :> int) in
        (match Hashtbl.find_opt st.inflight dom with
        | Some (w, _) -> Hashtbl.replace st.inflight dom (w, now)
        | None -> ());
        render_locked now;
        Mutex.unlock mu
      end
    end
  end

let start ?(out = stderr) ?(task_budget = 0.0) ?(jobs = 1) ~total label =
  Mutex.lock mu;
  st.label <- label;
  st.total <- total;
  st.done_ <- 0;
  st.sum_dur <- 0.0;
  st.t0 <- Unix.gettimeofday ();
  st.task_budget <- task_budget;
  st.jobs <- jobs;
  st.out <- out;
  st.last_render <- 0.0;
  Hashtbl.reset st.inflight;
  Hashtbl.reset st.stalled;
  active := true;
  Mutex.unlock mu

let finish () =
  Mutex.lock mu;
  if !active then begin
    active := false;
    output_string st.out "\r\027[K";
    flush st.out
  end;
  Mutex.unlock mu

let with_campaign ?out ?task_budget ?jobs ~total label f =
  if (not !enabled) || !active || total <= 0 then f ()
  else begin
    start ?out ?task_budget ?jobs ~total label;
    Fun.protect ~finally:finish f
  end
