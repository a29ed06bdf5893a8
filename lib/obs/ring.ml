(* Overwrite-oldest ring, per-domain registration and the recorder
   clock; see ring.mli. *)

type 'a t = {
  capacity : int;
  on_drop : unit -> unit;
  mutable slots : 'a array; (* [||] until the first push *)
  mutable total : int;
}

let create ?(on_drop = ignore) capacity =
  { capacity; on_drop; slots = [||]; total = 0 }

let push r x =
  if Array.length r.slots = 0 then r.slots <- Array.make r.capacity x
  else begin
    if r.total >= r.capacity then r.on_drop ();
    r.slots.(r.total mod r.capacity) <- x
  end;
  r.total <- r.total + 1

let total r = r.total
let dropped r = max 0 (r.total - r.capacity)

let read_from r cursor =
  let lo = max (max cursor 0) (r.total - r.capacity) in
  if lo >= r.total then []
  else List.init (r.total - lo) (fun i -> r.slots.((lo + i) mod r.capacity))

let to_list r = read_from r 0

let clear r =
  r.slots <- [||];
  r.total <- 0

type 'a per_domain = {
  key : 'a Domain.DLS.key;
  mu : Mutex.t;
  values : 'a list ref;
}

let per_domain make =
  let mu = Mutex.create () and values = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let v = make () in
        Mutex.protect mu (fun () -> values := v :: !values);
        v)
  in
  { key; mu; values }

let key p = p.key
let all p = Mutex.protect p.mu (fun () -> !(p.values))

let epoch = ref (Unix.gettimeofday ())
let stamp t = (t -. !epoch) *. 1e6
let restart_clock () = epoch := Unix.gettimeofday ()
