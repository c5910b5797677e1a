type t = {
  interval_s : float;
  mask : int;
  clock : unit -> float;
  out : string -> unit;
  ticks : int Atomic.t;
  (* guarded by [lock]: last emission time *)
  mutable last : float;
  lock : Mutex.t;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let default_out line = Printf.eprintf "%s\n%!" line

let create ?(interval_s = 0.5) ?(every = 1024) ?(clock = Unix.gettimeofday)
    ?(out = default_out) () =
  {
    interval_s;
    mask = next_pow2 (max 1 every) - 1;
    clock;
    out;
    ticks = Atomic.make 0;
    last = neg_infinity;
    lock = Mutex.create ();
  }

let current : t option ref = ref None

let install t = current := Some t
let uninstall () = current := None
let emit_if_due t snapshot =
  let now = t.clock () in
  Mutex.lock t.lock;
  let due = now -. t.last >= t.interval_s in
  if due then t.last <- now;
  Mutex.unlock t.lock;
  (* render outside the lock: snapshots may be arbitrarily slow *)
  if due then t.out (snapshot ())

let tick snapshot =
  match !current with
  | None -> ()
  | Some t ->
    let n = Atomic.fetch_and_add t.ticks 1 in
    if n land t.mask = t.mask then emit_if_due t snapshot

let checkpoint snapshot =
  match !current with
  | None -> ()
  | Some t -> emit_if_due t snapshot

let force snapshot =
  match !current with
  | None -> ()
  | Some t -> t.out (snapshot ())
