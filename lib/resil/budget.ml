module Metrics = Sqed_obs.Metrics

let m_exhausted = Metrics.counter "resil.budget.exhausted"

type reason = Deadline | Conflicts | Cancelled

exception Exhausted of reason

type t = {
  mutable deadline : float;        (* absolute; [infinity] = uncapped *)
  mutable conflicts_left : int;    (* [max_int] = uncapped *)
  mutable ticks : int;             (* check calls since last clock sample *)
  mutable dead : reason option;    (* sticky once exhausted *)
  limited : bool;                  (* false only for [unlimited] *)
}

let unlimited =
  { deadline = infinity; conflicts_left = max_int; ticks = 0;
    dead = None; limited = false }

let create ?deadline ?max_conflicts () =
  match (deadline, max_conflicts) with
  | None, None -> unlimited
  | _ ->
      {
        deadline = Option.value deadline ~default:infinity;
        conflicts_left = Option.value max_conflicts ~default:max_int;
        ticks = 0;
        dead = None;
        limited = true;
      }

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

let die b r =
  b.dead <- Some r;
  Metrics.add_always m_exhausted 1;
  (* Fires once per budget ([dead] is sticky and re-raises above), so an
     Info record here is cold. *)
  Sqed_obs.Log.info "resil.budget.exhausted"
    [ ("reason", Sqed_obs.Log.Str (string_of_reason r)) ];
  raise (Exhausted r)

let check b =
  if b.limited then begin
    (match b.dead with Some r -> raise (Exhausted r) | None -> ());
    if b.conflicts_left <= 0 then die b Conflicts;
    b.ticks <- b.ticks + 1;
    if
      b.ticks land poll_mask = 0
      && b.deadline < infinity
      && Unix.gettimeofday () > b.deadline
    then die b Deadline
  end

let over b =
  if not b.limited then None
  else
    match b.dead with
    | Some _ as r -> r
    | None ->
        if b.conflicts_left <= 0 then begin
          b.dead <- Some Conflicts;
          Some Conflicts
        end
        else if b.deadline < infinity && Unix.gettimeofday () > b.deadline
        then begin
          b.dead <- Some Deadline;
          Some Deadline
        end
        else None

let charge b n =
  if b.limited && b.conflicts_left <> max_int then
    b.conflicts_left <- (if n >= b.conflicts_left then 0 else b.conflicts_left - n)

let cancel b = if b.limited then b.dead <- Some Cancelled

(* Ambient per-domain budget, installed by the worker pool's supervised
   map for soft per-task deadlines.  DLS so worker domains see their own
   binding. *)
let current_key = Domain.DLS.new_key (fun () -> unlimited)

let current () = Domain.DLS.get current_key

let with_current b f =
  let prev = Domain.DLS.get current_key in
  Domain.DLS.set current_key b;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f
