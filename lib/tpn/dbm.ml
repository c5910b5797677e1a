type t = { size : int; m : int array array }
(* size = dim + 1; index 0 is the reference variable *)

let infinity = max_int / 4

let sat_add a b = if a >= infinity || b >= infinity then infinity else a + b

let create dim =
  let size = dim + 1 in
  let m = Array.make_matrix size size infinity in
  for i = 0 to size - 1 do
    m.(i).(i) <- 0
  done;
  { size; m }

let copy t = { size = t.size; m = Array.map Array.copy t.m }
let get t i j = t.m.(i).(j)

let constrain t i j b =
  if b < t.m.(i).(j) then t.m.(i).(j) <- b

let canonicalize t =
  let n = t.size in
  let m = t.m in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let mik = m.(i).(k) in
      if mik < infinity then
        for j = 0 to n - 1 do
          let through = sat_add mik m.(k).(j) in
          if through < m.(i).(j) then m.(i).(j) <- through
        done
    done
  done

let is_empty t =
  let rec go i = i < t.size && (t.m.(i).(i) < 0 || go (i + 1)) in
  go 0

let rec row_equal (ra : int array) rb j =
  j >= Array.length ra || (ra.(j) = rb.(j) && row_equal ra rb (j + 1))

let rec row_le (ra : int array) rb j =
  j >= Array.length ra || (ra.(j) <= rb.(j) && row_le ra rb (j + 1))

let rec rows_hold row_ok a b i =
  i >= a.size || (row_ok a.m.(i) b.m.(i) 0 && rows_hold row_ok a b (i + 1))

let equal a b = a.size = b.size && rows_hold row_equal a b 0
let subset a b = a.size = b.size && rows_hold row_le a b 0

let hash t =
  let h = ref 0x811c9dc5 in
  for i = 0 to t.size - 1 do
    let row = t.m.(i) in
    for j = 0 to t.size - 1 do
      h := (!h lxor (row.(j) land 0xffff)) * 0x01000193 land max_int
    done
  done;
  !h

(* The state-class successor in closed form (Berthomieu-Diaz).  The
   fires-first constraints x_f - x_j <= 0 all leave f, so on a canonical
   matrix a shortest path uses at most one new edge (any cycle through
   f via a new edge weighs 0 + m.(j).(f)), so

     f can fire first  iff  m.(j).(f) >= 0 for every variable j, and
     D'[p][q] = min (m.(p).(q), m.(p).(f) + min_j m.(j).(q)).

   j = f may be included in the minimum: m.(p).(f) + m.(f).(q) never
   beats m.(p).(q) on a canonical matrix. *)
let rec column_nonneg m f j =
  j >= Array.length m || (m.(j).(f) >= 0 && column_nonneg m f (j + 1))

let can_fire_first t f = column_nonneg t.m f 1

let column_mins t =
  let n = t.size in
  let mins = Array.make n infinity in
  for j = 1 to n - 1 do
    let row = t.m.(j) in
    for q = 0 to n - 1 do
      if row.(q) < mins.(q) then mins.(q) <- row.(q)
    done
  done;
  mins

(* A column minimum that stands for "no finite bound": any [via] above
   [-infinity] added to it stays at or above [infinity], so
   [min direct (via + unbounded_min)] is [direct] without a saturation
   test.  Twice [infinity] plus [infinity] still fits in an int. *)
let unbounded_min = 2 * infinity

(* Projection of the fires-first domain D' with change of origin to
   x_f: new index a > 0 stands for old index [src.(a)] = [vars.(a - 1)]
   minus x_f, and the new reference [src.(0)] = f is x_f itself, so
   entry (a, b) is D' between the two old indices.  A projection of a
   canonical matrix is canonical.  A fresh variable n ([src.(n)] = -1)
   with static interval [lo, hi] is linked to the rest only through the
   new reference, so its shortest paths all pass index 0:
   D[n][b] = hi + D[0][b] and D[a][n] = D[a][0] - lo, fresh a and b
   included.

   Each persistent row is one loop over every column: a fresh column
   reads old column 0 against [unbounded_min] and is overwritten by the
   fresh loop after it, and the diagonal is written between the two.
   Row 0 is persistent and comes first, so a fresh row reads it
   complete; each row's column 0 is persistent, so a fresh column
   reads it written. *)
let successor t f vars ~lo ~hi =
  let k = Array.length vars in
  let size = k + 1 in
  let src = Array.make size f in
  Array.blit vars 0 src 1 k;
  let old_mins = column_mins t in
  let col = Array.make size 0 and mins = Array.make size unbounded_min in
  let fresh = ref [] in
  for b = 0 to k do
    let ob = src.(b) in
    if ob < 0 then fresh := b :: !fresh
    else begin
      col.(b) <- ob;
      if old_mins.(ob) < infinity then mins.(b) <- old_mins.(ob)
    end
  done;
  let fresh = Array.of_list !fresh in
  let m = Array.make size [||] in
  for a = 0 to k do
    let row = Array.make size 0 in
    let oa = src.(a) in
    if oa >= 0 then begin
      let old_row = t.m.(oa) in
      let via = old_row.(f) in
      if via >= infinity then
        for b = 0 to k do
          row.(b) <- old_row.(col.(b))
        done
      else
        for b = 0 to k do
          let direct = old_row.(col.(b)) and through = via + mins.(b) in
          row.(b) <- (if through < direct then through else direct)
        done;
      row.(a) <- 0;
      let base = row.(0) in
      for i = 0 to Array.length fresh - 1 do
        let b = fresh.(i) in
        row.(b) <- sat_add base (-lo.(b - 1))
      done
    end
    else begin
      let h = hi.(a - 1) and ref_row = m.(0) in
      for b = 0 to k do
        row.(b) <- sat_add h ref_row.(b)
      done;
      row.(a) <- 0
    end;
    m.(a) <- row
  done;
  { size; m }

let bounds t i = (-t.m.(0).(i), t.m.(i).(0))
