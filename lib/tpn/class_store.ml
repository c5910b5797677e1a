(* Store of canonical (marking, domain) classes.

   One hashtable keyed by marking.  The payload is structured — per
   marking we keep the list of canonical domains already explored —
   because subsumption needs to scan the domains under one marking.

   A class's enabled-transition vector is a function of its marking
   (the enabled set, and so the domain's variables, are derived from
   the marking), so the marking alone is a sound skeleton key: equal
   markings imply equal enabled sets and equal DBM dimensions. *)

type entry = {
  dhash : int;  (* Dbm.hash of the stored domain, compared first *)
  domain : Dbm.t;
}

module Skeleton = Hashtbl.Make (struct
  type t = int array

  let rec equal_from (a : int array) b i =
    i >= Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

  let equal (a : int array) b =
    Array.length a = Array.length b && equal_from a b 0

  let hash (m : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length m - 1 do
      h := (!h lxor (m.(i) land 0xffff)) * 0x01000193 land max_int
    done;
    !h
end)

type t = {
  buckets : entry list ref Skeleton.t;
  subsume : bool;
  mutable entries : int;
  mutable duplicates : int;
  mutable subsumed : int;
}

type verdict = Fresh | Duplicate | Subsumed

type stats = {
  entries : int;
  skeletons : int;
  duplicates : int;
  subsumed : int;
}

let create ?(subsume = true) () =
  { buckets = Skeleton.create 4096; subsume; entries = 0; duplicates = 0;
    subsumed = 0 }

let subsume_enabled t = t.subsume

let visit (t : t) ~marking ~domain =
  let dhash = Dbm.hash domain in
  match Skeleton.find_opt t.buckets marking with
  | None ->
    Skeleton.replace t.buckets (Array.copy marking) (ref [ { dhash; domain } ]);
    t.entries <- t.entries + 1;
    Fresh
  | Some stored ->
    let same e = e.dhash = dhash && Dbm.equal e.domain domain in
    if List.exists same !stored then begin
      t.duplicates <- t.duplicates + 1;
      Duplicate
    end
    else if
      t.subsume && List.exists (fun e -> Dbm.subset domain e.domain) !stored
    then begin
      t.subsumed <- t.subsumed + 1;
      Subsumed
    end
    else begin
      stored := { dhash; domain } :: !stored;
      t.entries <- t.entries + 1;
      Fresh
    end

let length (t : t) = t.entries

let stats (t : t) =
  { entries = t.entries; skeletons = Skeleton.length t.buckets;
    duplicates = t.duplicates; subsumed = t.subsumed }
