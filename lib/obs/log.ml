(* Structured event log with an always-on bounded ring.

   Same shape as [Trace]: each domain appends to its own [Ring]
   (registered so it outlives the domain) so emission takes no lock;
   [tail] merges and sorts on demand. The sink is the only shared
   mutable channel and is written under a mutex. *)

type level = Debug | Info | Warn | Error

let int_of_level = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type field = Str of string | I of int | F of float | B of bool

type event = {
  lg_ts : float;
  lg_dom : int;
  lg_level : level;
  lg_ev : string;
  lg_fields : (string * field) list;
}

let m_records = Metrics.counter "obs.log.records"
let m_dropped = Metrics.counter "obs.log.dropped"

(* Records at [capture_level] or above reach the ring.  Info+ is always
   on (the ring exists precisely so a crash has something to dump); the
   threshold only drops to Debug while a Debug sink is attached. *)
let capture_level = ref (int_of_level Info)
let logs lvl = int_of_level lvl >= !capture_level

(* -- per-domain rings ---------------------------------------------------- *)

let ring_capacity = 512

let rings =
  Ring.per_domain (fun () ->
      Ring.create
        ~on_drop:(fun () -> Metrics.add_always m_dropped 1)
        ring_capacity)

let ring_key = Ring.key rings

(* -- sink ---------------------------------------------------------------- *)

let sink_mu = Mutex.create ()
let sink : out_channel option ref = ref None
let sink_is_std = ref false
let sink_level = ref (int_of_level Info)

let field_json = function
  | Str s -> Json.String s
  | I n -> Json.Int n
  | F x -> Json.Float x
  | B b -> Json.Bool b

let to_json e =
  Json.Obj
    [
      ("ts_us", Json.Float e.lg_ts);
      ("dom", Json.Int e.lg_dom);
      ("level", Json.String (level_name e.lg_level));
      ("ev", Json.String e.lg_ev);
      ("fields", Json.Obj (List.map (fun (k, v) -> (k, field_json v)) e.lg_fields));
    ]

let write_sink e =
  Mutex.lock sink_mu;
  (match !sink with
  | Some oc ->
      output_string oc (Json.to_string (to_json e));
      output_char oc '\n';
      if int_of_level e.lg_level >= int_of_level Warn then flush oc
  | None -> ());
  Mutex.unlock sink_mu

let set_sink ?(level = Info) path =
  Mutex.lock sink_mu;
  (match !sink with
  | Some oc ->
      if !sink_is_std then flush oc else close_out_noerr oc
  | None -> ());
  let oc, std = if path = "-" then (stderr, true) else (open_out path, false) in
  sink := Some oc;
  sink_is_std := std;
  sink_level := int_of_level level;
  capture_level := min !capture_level (int_of_level level);
  Mutex.unlock sink_mu

let close_sink () =
  Mutex.lock sink_mu;
  (match !sink with
  | Some oc -> if !sink_is_std then flush oc else close_out_noerr oc
  | None -> ());
  sink := None;
  sink_level := int_of_level Info;
  capture_level := int_of_level Info;
  Mutex.unlock sink_mu

(* -- emission ------------------------------------------------------------ *)

let emit level ev fields =
  let li = int_of_level level in
  if li >= !capture_level then begin
    let e =
      {
        lg_ts = Ring.stamp (Unix.gettimeofday ());
        lg_dom = (Domain.self () :> int);
        lg_level = level;
        lg_ev = ev;
        lg_fields = fields;
      }
    in
    Ring.push (Domain.DLS.get ring_key) e;
    Metrics.add_always m_records 1;
    if !sink <> None && li >= !sink_level then write_sink e
  end

let debug ev fields = emit Debug ev fields
let info ev fields = emit Info ev fields
let warn ev fields = emit Warn ev fields
let error ev fields = emit Error ev fields

(* -- ring inspection ----------------------------------------------------- *)

let events ?(min_level = Debug) () =
  let all = List.concat_map Ring.to_list (Ring.all rings) in
  let all =
    List.filter (fun e -> int_of_level e.lg_level >= int_of_level min_level) all
  in
  List.sort
    (fun a b ->
      let c = compare a.lg_ts b.lg_ts in
      if c <> 0 then c else compare a.lg_dom b.lg_dom)
    all

let tail ?min_level n =
  let evs = events ?min_level () in
  let len = List.length evs in
  if len <= n then evs else List.filteri (fun i _ -> i >= len - n) evs

let dump_tail ?min_level n oc =
  List.iter
    (fun e ->
      output_string oc (Json.to_string (to_json e));
      output_char oc '\n')
    (tail ?min_level n);
  flush oc

let dropped () =
  List.fold_left (fun acc r -> acc + Ring.dropped r) 0 (Ring.all rings)

let reset () =
  List.iter Ring.clear (Ring.all rings);
  Ring.restart_clock ()
