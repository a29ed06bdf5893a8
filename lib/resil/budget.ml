module Metrics = Sqed_obs.Metrics

let m_exhausted = Metrics.counter "resil.budget.exhausted"

type reason = Deadline | Conflicts | Cancelled

exception Exhausted of reason

type t = {
  deadline : float;                (* absolute; [infinity] = uncapped *)
  mutable conflicts_left : int;    (* [max_int] = uncapped *)
  mutable spent : int;             (* conflicts charged, capped or not *)
  mutable ticks : int;             (* check calls since last clock sample *)
  mutable dead : reason option;    (* sticky once exhausted *)
  limited : bool;                  (* false only for [unlimited] *)
  parent : t option;               (* the budget [within] narrowed *)
}

let unlimited =
  { deadline = infinity; conflicts_left = max_int; spent = 0; ticks = 0;
    dead = None; limited = false; parent = None }

let make ?(parent = unlimited) ~deadline ~conflicts () =
  {
    deadline = Float.min deadline parent.deadline;
    conflicts_left = min conflicts parent.conflicts_left;
    spent = 0;
    ticks = 0;
    dead = None;
    limited = true;
    parent = (if parent.limited then Some parent else None);
  }

let create ?deadline ?max_conflicts () =
  match (deadline, max_conflicts) with
  | None, None -> unlimited
  | _ ->
      make
        ~deadline:(Option.value deadline ~default:infinity)
        ~conflicts:(Option.value max_conflicts ~default:max_int)
        ()

let is_unlimited b = not b.limited
let deadline b = b.deadline
let conflicts_remaining b = b.conflicts_left

let string_of_reason = function
  | Deadline -> "deadline"
  | Conflicts -> "conflicts"
  | Cancelled -> "cancelled"

(* Sample the clock once per [poll_mask + 1] checks: gettimeofday is a
   vDSO call (~20 ns) but check points sit inside per-gate loops. *)
let poll_mask = 255

(* An ancestor's sticky verdict (a cancel, typically from another
   domain).  Its deadline and allowance were folded in at [within]. *)
let rec inherited b =
  match b.parent with
  | None -> None
  | Some p -> ( match p.dead with None -> inherited p | r -> r)

let die b r =
  b.dead <- Some r;
  Metrics.add_always m_exhausted 1;
  (* Fires once per budget ([dead] is sticky and re-raises above), so an
     Info record here is cold. *)
  Sqed_obs.Trace.info "resil.budget.exhausted"
    [ ("reason", Sqed_obs.Trace.Str (string_of_reason r)) ];
  raise (Exhausted r)

let check b =
  if b.limited then begin
    (match b.dead with Some r -> raise (Exhausted r) | None -> ());
    if b.conflicts_left <= 0 then die b Conflicts;
    b.ticks <- b.ticks + 1;
    if b.ticks land poll_mask = 0 then begin
      if b.deadline < infinity && Unix.gettimeofday () > b.deadline then
        die b Deadline;
      match inherited b with Some r -> die b r | None -> ()
    end
  end

let over b =
  if not b.limited then None
  else
    match b.dead with
    | Some _ as r -> r
    | None ->
        let r =
          if b.conflicts_left <= 0 then Some Conflicts
          else if b.deadline < infinity && Unix.gettimeofday () > b.deadline
          then Some Deadline
          else inherited b
        in
        (* Written only when spent: a [None] store could overwrite a
           cancel another domain just made. *)
        if r <> None then b.dead <- r;
        r

let charge b n =
  if b.limited then begin
    b.spent <- b.spent + n;
    if b.conflicts_left <> max_int then
      b.conflicts_left <-
        (if n >= b.conflicts_left then 0 else b.conflicts_left - n)
  end

let cancel b = if b.limited then b.dead <- Some Cancelled

(* Ambient per-domain budget.  DLS so worker domains see their own
   binding. *)
let current_key = Domain.DLS.new_key (fun () -> unlimited)

let current () = Domain.DLS.get current_key

let with_current b f =
  let prev = Domain.DLS.get current_key in
  Domain.DLS.set current_key b;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f

let within ?deadline ?max_conflicts f =
  match (deadline, max_conflicts) with
  | None, None -> f ()
  | _ ->
      let parent = current () in
      let child =
        make ~parent
          ~deadline:(Option.value deadline ~default:infinity)
          ~conflicts:(Option.value max_conflicts ~default:max_int)
          ()
      in
      Domain.DLS.set current_key child;
      Fun.protect
        ~finally:(fun () ->
          Domain.DLS.set current_key parent;
          charge parent child.spent)
        f
