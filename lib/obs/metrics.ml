(* Global metrics registry.

   Counters are the hot path (gate construction, clause pushes, unit
   propagation) so they avoid shared atomics entirely: each domain owns a
   plain-int cell array keyed by a dense counter id (domain-local storage),
   and reads sum across all per-domain stores. Gauges, histograms and
   timers fire orders of magnitude less often and use [Atomic] directly.

   Everything observable is gated on the single [enabled] flag; when it is
   false the per-event cost is one boolean load. *)

let enabled = ref false

let registry_mu = Mutex.create ()

(* -- counters ----------------------------------------------------------- *)

type counter = int

let max_counters = 512
let counter_names = Array.make max_counters ""
let n_counters = ref 0
let counter_ids : (string, int) Hashtbl.t = Hashtbl.create 64

(* Every per-domain store ever created; entries outlive their domain so
   counts from finished workers are never lost. *)
let stores = Ring.per_domain (fun () -> Array.make max_counters 0)
let store_key = Ring.key stores

let counter name =
  Mutex.lock registry_mu;
  let id =
    match Hashtbl.find_opt counter_ids name with
    | Some id -> id
    | None ->
        let id = !n_counters in
        if id >= max_counters then begin
          Mutex.unlock registry_mu;
          invalid_arg ("Metrics.counter: registry full: " ^ name)
        end;
        incr n_counters;
        counter_names.(id) <- name;
        Hashtbl.add counter_ids name id;
        id
  in
  Mutex.unlock registry_mu;
  id

let add_always c n =
  let a = Domain.DLS.get store_key in
  a.(c) <- a.(c) + n

let add c n = if !enabled then add_always c n
let incr c = add c 1

let counter_value c =
  List.fold_left (fun acc a -> acc + a.(c)) 0 (Ring.all stores)

let find_counter name =
  Mutex.lock registry_mu;
  let id = Hashtbl.find_opt counter_ids name in
  Mutex.unlock registry_mu;
  match id with None -> 0 | Some c -> counter_value c

(* -- gauges ------------------------------------------------------------- *)

type gauge = { g_name : string; g_value : int Atomic.t }

let gauges : gauge list ref = ref []

let gauge name =
  Mutex.lock registry_mu;
  let g =
    match List.find_opt (fun g -> g.g_name = name) !gauges with
    | Some g -> g
    | None ->
        let g = { g_name = name; g_value = Atomic.make 0 } in
        gauges := g :: !gauges;
        g
  in
  Mutex.unlock registry_mu;
  g

let set g v = if !enabled then Atomic.set g.g_value v

(* -- histograms --------------------------------------------------------- *)

(* Log2 buckets: values <= 1 land in bucket 0; bucket [i] covers
   [2^i, 2^(i+1)). 48 buckets cover any int we will ever observe. *)

let n_buckets = 48

type histogram = {
  h_name : string;
  h_buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
}

let histograms : histogram list ref = ref []

let histogram name =
  Mutex.lock registry_mu;
  let h =
    match List.find_opt (fun h -> h.h_name = name) !histograms with
    | Some h -> h
    | None ->
        let h =
          {
            h_name = name;
            h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0;
          }
        in
        histograms := h :: !histograms;
        h
  in
  Mutex.unlock registry_mu;
  h

let bucket_of v =
  if v <= 1 then 0
  else begin
    let b = ref 0 in
    let v = ref v in
    while !v > 1 do
      v := !v lsr 1;
      Stdlib.incr b
    done;
    min !b (n_buckets - 1)
  end

let observe h v =
  if !enabled then begin
    Atomic.incr h.h_buckets.(bucket_of v);
    Atomic.incr h.h_count;
    ignore (Atomic.fetch_and_add h.h_sum (max 0 v))
  end

let observe_us h us = observe h (int_of_float us)

(* -- timers ------------------------------------------------------------- *)

(* Fed by [Trace.with_span] when metrics are on: one (calls, total_us)
   accumulator per span kind, which is what the phase table reports. *)

type timer = {
  t_name : string;
  t_calls : int Atomic.t;
  t_total_us : int Atomic.t;
}

let timers : timer list ref = ref []

let timer name =
  Mutex.lock registry_mu;
  let t =
    match List.find_opt (fun t -> t.t_name = name) !timers with
    | Some t -> t
    | None ->
        let t =
          { t_name = name; t_calls = Atomic.make 0; t_total_us = Atomic.make 0 }
        in
        timers := t :: !timers;
        t
  in
  Mutex.unlock registry_mu;
  t

let timer_add t us =
  Atomic.incr t.t_calls;
  ignore (Atomic.fetch_and_add t.t_total_us (int_of_float us))

(* -- snapshot ----------------------------------------------------------- *)

let counters_snapshot () =
  Mutex.lock registry_mu;
  let n = !n_counters in
  let sums = Array.make n 0 in
  List.iter
    (fun a ->
      for i = 0 to n - 1 do
        sums.(i) <- sums.(i) + a.(i)
      done)
    (Ring.all stores);
  let out = List.init n (fun i -> (counter_names.(i), sums.(i))) in
  Mutex.unlock registry_mu;
  List.sort compare out

let to_json () =
  let counters =
    List.map (fun (name, v) -> (name, Json.Int v)) (counters_snapshot ())
  in
  let gauges =
    !gauges
    |> List.map (fun g -> (g.g_name, Json.Int (Atomic.get g.g_value)))
    |> List.sort compare
  in
  let timers =
    !timers
    |> List.map (fun t ->
           let calls = Atomic.get t.t_calls in
           let total = Atomic.get t.t_total_us in
           ( t.t_name,
             Json.Obj
               [
                 ("calls", Json.Int calls);
                 ("total_us", Json.Int total);
                 ( "mean_us",
                   Json.Float
                     (if calls = 0 then 0.0
                      else float_of_int total /. float_of_int calls) );
               ] ))
    |> List.sort compare
  in
  let histograms =
    !histograms
    |> List.map (fun h ->
           let buckets = ref [] in
           for i = n_buckets - 1 downto 0 do
             let c = Atomic.get h.h_buckets.(i) in
             if c > 0 then
               buckets :=
                 Json.Obj [ ("pow2", Json.Int i); ("count", Json.Int c) ]
                 :: !buckets
           done;
           ( h.h_name,
             Json.Obj
               [
                 ("count", Json.Int (Atomic.get h.h_count));
                 ("sum", Json.Int (Atomic.get h.h_sum));
                 ("buckets", Json.List !buckets);
               ] ))
    |> List.sort compare
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("timers", Json.Obj timers);
      ("histograms", Json.Obj histograms);
    ]

let report () =
  let b = Buffer.create 1024 in
  let timers =
    !timers
    |> List.filter (fun t -> Atomic.get t.t_calls > 0)
    |> List.sort (fun a b ->
           compare (Atomic.get b.t_total_us) (Atomic.get a.t_total_us))
  in
  if timers <> [] then begin
    Buffer.add_string b "phase                            calls     total_ms   mean_us\n";
    Buffer.add_string b "-----                            -----     --------   -------\n";
    List.iter
      (fun t ->
        let calls = Atomic.get t.t_calls in
        let total = Atomic.get t.t_total_us in
        Buffer.add_string b
          (Printf.sprintf "%-30s %8d %12.1f %9.1f\n" t.t_name calls
             (float_of_int total /. 1000.)
             (float_of_int total /. float_of_int (max 1 calls))))
      timers
  end;
  let counters = List.filter (fun (_, v) -> v <> 0) (counters_snapshot ()) in
  if counters <> [] then begin
    Buffer.add_string b "\ncounter                                       value\n";
    Buffer.add_string b "-------                                       -----\n";
    List.iter
      (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%-40s %10d\n" name v))
      counters
  end;
  let gauges =
    List.filter (fun g -> Atomic.get g.g_value <> 0) !gauges
    |> List.sort (fun a b -> compare a.g_name b.g_name)
  in
  if gauges <> [] then begin
    Buffer.add_string b "\ngauge                                         value\n";
    Buffer.add_string b "-----                                         -----\n";
    List.iter
      (fun g ->
        Buffer.add_string b
          (Printf.sprintf "%-40s %10d\n" g.g_name (Atomic.get g.g_value)))
      gauges
  end;
  let hists =
    List.filter (fun h -> Atomic.get h.h_count > 0) !histograms
    |> List.sort (fun a b -> compare a.h_name b.h_name)
  in
  if hists <> [] then begin
    Buffer.add_string b
      "\nhistogram                           count        sum      mean\n";
    Buffer.add_string b
      "---------                           -----        ---      ----\n";
    List.iter
      (fun h ->
        let count = Atomic.get h.h_count in
        let sum = Atomic.get h.h_sum in
        Buffer.add_string b
          (Printf.sprintf "%-30s %10d %10d %9.1f\n" h.h_name count sum
             (float_of_int sum /. float_of_int (max 1 count))))
      hists
  end;
  Buffer.contents b

let reset () =
  Mutex.lock registry_mu;
  List.iter (fun a -> Array.fill a 0 (Array.length a) 0) (Ring.all stores);
  List.iter (fun g -> Atomic.set g.g_value 0) !gauges;
  List.iter
    (fun h ->
      Array.iter (fun b -> Atomic.set b 0) h.h_buckets;
      Atomic.set h.h_count 0;
      Atomic.set h.h_sum 0)
    !histograms;
  List.iter
    (fun t ->
      Atomic.set t.t_calls 0;
      Atomic.set t.t_total_us 0)
    !timers;
  Mutex.unlock registry_mu
