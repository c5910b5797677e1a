type bound =
  | Finite of int
  | Infinity

type t = { eft : int; lft : bound }

let bound_le a b =
  match a, b with
  | _, Infinity -> true
  | Infinity, Finite _ -> false
  | Finite x, Finite y -> x <= y

let bound_min a b = if bound_le a b then a else b

let bound_add b q =
  match b with Finite x -> Finite (x + q) | Infinity -> Infinity

let bound_sub b q =
  match b with Finite x -> Finite (x - q) | Infinity -> Infinity

let make eft lft =
  if eft < 0 then invalid_arg "Time_interval.make: negative EFT";
  if lft < eft then invalid_arg "Time_interval.make: LFT < EFT";
  { eft; lft = Finite lft }

let make_unbounded eft =
  if eft < 0 then invalid_arg "Time_interval.make_unbounded: negative EFT";
  { eft; lft = Infinity }

let point q = make q q
let zero = point 0
let eft t = t.eft
let lft t = t.lft

let is_point t =
  match t.lft with Finite l -> l = t.eft | Infinity -> false

let contains t q = q >= t.eft && bound_le (Finite q) t.lft

let intersect a b =
  let eft = max a.eft b.eft in
  let lft = bound_min a.lft b.lft in
  if bound_le (Finite eft) lft then Some { eft; lft } else None

let shift t q =
  let eft = t.eft + q in
  if eft < 0 then invalid_arg "Time_interval.shift: negative EFT";
  { eft; lft = bound_add t.lft q }

let bound_to_string = function
  | Finite x -> string_of_int x
  | Infinity -> "inf"

let to_string t = Printf.sprintf "[%d, %s]" t.eft (bound_to_string t.lft)

let equal a b =
  a.eft = b.eft
  &&
  match a.lft, b.lft with
  | Finite x, Finite y -> x = y
  | Infinity, Infinity -> true
  | Finite _, Infinity | Infinity, Finite _ -> false
