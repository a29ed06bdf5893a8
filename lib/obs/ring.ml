(* Overwrite-oldest ring, per-domain registration and the recorder
   clock; see ring.mli. *)

type 'a t = {
  capacity : int;
  on_drop : 'a -> unit;
  mutable slots : 'a array; (* grows by doubling until [capacity] *)
  mutable total : int;
}

let create ?(on_drop = ignore) capacity =
  { capacity; on_drop; slots = [||]; total = 0 }

let push r x =
  if r.total >= r.capacity then begin
    let i = r.total mod r.capacity in
    r.on_drop r.slots.(i);
    r.slots.(i) <- x
  end
  else begin
    (* Below capacity nothing has wrapped, so entry [i] sits in slot
       [i] and growing is a prefix copy. *)
    let len = Array.length r.slots in
    if r.total = len then begin
      let grown = Array.make (min r.capacity (max 16 (2 * len))) x in
      Array.blit r.slots 0 grown 0 len;
      r.slots <- grown
    end;
    r.slots.(r.total) <- x
  end;
  r.total <- r.total + 1

let total r = r.total
let dropped r = max 0 (r.total - r.capacity)

let read_from r cursor =
  let lo = max (max cursor 0) (r.total - r.capacity) in
  if lo >= r.total then []
  else List.init (r.total - lo) (fun i -> r.slots.((lo + i) mod r.capacity))

let to_list r = read_from r 0

let fold f acc r =
  let acc = ref acc in
  for i = max 0 (r.total - r.capacity) to r.total - 1 do
    acc := f !acc r.slots.(i mod r.capacity)
  done;
  !acc

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
