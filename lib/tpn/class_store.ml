(* Lock-striped store of canonical (marking, domain) classes.

   2^k stripes, each an independently-locked hashtable, a key's stripe
   chosen by the low bits of its hash so every operation on one
   marking serializes through one mutex.  The payload is structured —
   per marking we keep the list of canonical domains already explored
   — because subsumption needs to scan the domains under one marking,
   and that list is exactly the unit the stripe lock protects.

   The enabled-transition vector is a function of the marking (classes
   are built by State_class, whose [fire] derives [enabled] from the
   marking), so the marking alone is a sound skeleton key: equal
   markings imply equal enabled sets and equal DBM dimensions. *)

type entry = {
  dhash : int;  (* Dbm.hash of the stored domain, compared first *)
  domain : Dbm.t;
}

module Skeleton = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )

  let hash (m : int array) =
    let h = ref 0x811c9dc5 in
    Array.iter
      (fun x -> h := (!h lxor (x land 0xffff)) * 0x01000193 land max_int)
      m;
    !h
end)

type stripe = {
  lock : Mutex.t;
  buckets : entry list ref Skeleton.t;
}

type t = {
  stripes : stripe array;
  mask : int;
  subsume : bool;
  total : int Atomic.t;
  duplicates : int Atomic.t;
  subsumed : int Atomic.t;
  contended : int Atomic.t;
}

type verdict = Fresh | Duplicate | Subsumed

type stats = {
  stripes : int;
  entries : int;
  skeletons : int;
  duplicates : int;
  subsumed : int;
  contended : int;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(stripes = 64) ?(subsume = true) () =
  let n = next_pow2 (max 1 stripes) in
  {
    stripes =
      Array.init n (fun _ ->
          { lock = Mutex.create (); buckets = Skeleton.create 64 });
    mask = n - 1;
    subsume;
    total = Atomic.make 0;
    duplicates = Atomic.make 0;
    subsumed = Atomic.make 0;
    contended = Atomic.make 0;
  }

let subsume_enabled t = t.subsume

let marking_hash (m : int array) =
  let h = ref 0x811c9dc5 in
  Array.iter
    (fun x -> h := (!h lxor (x land 0xffff)) * 0x01000193 land max_int)
    m;
  !h

let lock_stripe (t : t) st =
  if not (Mutex.try_lock st.lock) then begin
    Atomic.incr t.contended;
    Mutex.lock st.lock
  end

let visit (t : t) (c : State_class.t) =
  let marking = c.State_class.marking in
  let domain = c.State_class.domain in
  let h = marking_hash marking in
  let st = t.stripes.(h land t.mask) in
  let dhash = Dbm.hash domain in
  lock_stripe t st;
  let verdict =
    match Skeleton.find_opt st.buckets marking with
    | None ->
      Skeleton.replace st.buckets (Array.copy marking)
        (ref [ { dhash; domain } ]);
      Fresh
    | Some entries ->
      let dup =
        List.exists
          (fun e -> e.dhash = dhash && Dbm.equal e.domain domain)
          !entries
      in
      if dup then Duplicate
      else if
        t.subsume
        && List.exists (fun e -> Dbm.subset domain e.domain) !entries
      then Subsumed
      else begin
        entries := { dhash; domain } :: !entries;
        Fresh
      end
  in
  Mutex.unlock st.lock;
  (match verdict with
  | Fresh -> Atomic.incr t.total
  | Duplicate -> Atomic.incr t.duplicates
  | Subsumed -> Atomic.incr t.subsumed);
  verdict

let length (t : t) = Atomic.get t.total

let stats (t : t) =
  let skeletons = ref 0 in
  Array.iter
    (fun st ->
      lock_stripe t st;
      skeletons := !skeletons + Skeleton.length st.buckets;
      Mutex.unlock st.lock)
    t.stripes;
  {
    stripes = t.mask + 1;
    entries = Atomic.get t.total;
    skeletons = !skeletons;
    duplicates = Atomic.get t.duplicates;
    subsumed = Atomic.get t.subsumed;
    contended = Atomic.get t.contended;
  }
