type t = {
  marking : int array;
  clocks : int array;
}

(* Instrumentation: state-vector cell writes per firing engine, used by
   the benchmark harness to compare the copying rule against the
   incremental one.  Plain ints — approximate while several domains
   search at once (a portfolio race), exact in the single-domain
   benchmarks. *)
let copy_writes = ref 0
let incremental_writes = ref 0
let fires = ref 0

let reset_write_counters () =
  copy_writes := 0;
  incremental_writes := 0;
  fires := 0

let write_counters () = (!copy_writes, !incremental_writes, !fires)

let rec arcs_enable marking arcs i =
  i >= Array.length arcs
  ||
  let p, w = arcs.(i) in
  marking.(p) >= w && arcs_enable marking arcs (i + 1)

let marking_enables (net : Pnet.t) marking tid =
  arcs_enable marking net.pre.(tid) 0

let initial (net : Pnet.t) =
  let marking = Array.copy net.m0 in
  let clocks =
    Array.init (Pnet.transition_count net) (fun tid ->
        if marking_enables net marking tid then 0 else -1)
  in
  { marking; clocks }

let is_enabled s tid = s.clocks.(tid) >= 0

let enabled_ids s =
  let acc = ref [] in
  for tid = Array.length s.clocks - 1 downto 0 do
    if s.clocks.(tid) >= 0 then acc := tid :: !acc
  done;
  !acc

let tokens s p = s.marking.(p)

let check_enabled who s tid =
  if not (is_enabled s tid) then
    invalid_arg (Printf.sprintf "State.%s: transition %d is not enabled" who tid)

let dlb net s tid =
  check_enabled "dlb" s tid;
  max 0 (Time_interval.eft (Pnet.interval net tid) - s.clocks.(tid))

let dub net s tid =
  check_enabled "dub" s tid;
  Time_interval.bound_sub (Time_interval.lft (Pnet.interval net tid)) s.clocks.(tid)

(* min DUB over the enabled transitions: how far time may pass *)
let horizon net s =
  let best = ref Time_interval.Infinity in
  Array.iteri
    (fun tid clock ->
      if clock >= 0 then best := Time_interval.bound_min !best (dub net s tid))
    s.clocks;
  !best

let candidates net s =
  let limit = horizon net s in
  List.filter
    (fun tid -> Time_interval.bound_le (Time_interval.Finite (dlb net s tid)) limit)
    (enabled_ids s)

let fireable net s =
  match candidates net s with
  | [] -> []
  | cands ->
    let best =
      List.fold_left
        (fun acc tid -> min acc (Pnet.priority net tid))
        max_int cands
    in
    List.filter (fun tid -> Pnet.priority net tid = best) cands

let firing_domain net s tid =
  check_enabled "firing_domain" s tid;
  (dlb net s tid, horizon net s)

let fire (net : Pnet.t) s tid q =
  check_enabled "fire" s tid;
  let lo, hi = firing_domain net s tid in
  if q < lo || not (Time_interval.bound_le (Time_interval.Finite q) hi) then
    invalid_arg
      (Printf.sprintf "State.fire: time %d outside firing domain [%d, %s] of %s"
         q lo (Time_interval.bound_to_string hi) (Pnet.transition_name net tid));
  let marking = Array.copy s.marking in
  Array.iter (fun (p, w) -> marking.(p) <- marking.(p) - w) net.pre.(tid);
  Array.iter (fun (p, w) -> marking.(p) <- marking.(p) + w) net.post.(tid);
  let clocks =
    Array.init (Array.length s.clocks) (fun tk ->
        if not (marking_enables net marking tk) then -1
        else if tk = tid || s.clocks.(tk) < 0 then 0
        else s.clocks.(tk) + q)
  in
  incr fires;
  copy_writes :=
    !copy_writes + Array.length marking + Array.length clocks
    + Array.length net.pre.(tid) + Array.length net.post.(tid);
  { marking; clocks }

let equal a b =
  let arr_equal xs ys =
    Array.length xs = Array.length ys
    &&
    let rec go i = i >= Array.length xs || (xs.(i) = ys.(i) && go (i + 1)) in
    go 0
  in
  arr_equal a.marking b.marking && arr_equal a.clocks b.clocks

(* Zobrist hashing: the hash of a state is the XOR of one contribution
   per marking cell and one per *enabled* clock cell.  XOR makes the
   hash incrementally maintainable — firing a transition only touches
   the contributions of the cells it changes, and undo restores the
   saved word — which is what lets the incremental engine key a search
   node without re-hashing the whole state vector.  The contribution
   "table" is virtual: cell values are unbounded (clocks run to the
   hyper-period), so contributions are computed on demand by a
   splitmix-style finalizer instead of being precomputed.  Like the
   earlier full-word FNV, every bit of every cell perturbs the hash. *)
module Zobrist = struct
  (* SplitMix64-style finalizer truncated to OCaml's native word; the
     constants are 62-bit-safe.  [land max_int] keeps results
     non-negative so XOR-combinations stay non-negative too. *)
  let mix x =
    let x = x * 0x2545F4914F6CDD1D in
    let x = (x lxor (x lsr 30)) * 0x3C79AC492BA7B653 in
    let x = (x lxor (x lsr 27)) * 0x1C69B3F74AC4AE35 in
    (x lxor (x lsr 31)) land max_int

  (* Place and clock contributions draw from disjoint pre-images (the
     inner argument's parity) so a marking cell can never cancel a
     clock cell with the same index and value. *)
  let place p v = mix (mix ((v lsl 1) lor 0) + (p * 0x9E3779B97F4A7C))
  let clock t c = mix (mix ((c lsl 1) lor 1) + (t * 0x9E3779B97F4A7C))

  let of_cells ~n_places ~n_transitions ~tokens ~clocks =
    let h = ref 0 in
    for p = 0 to n_places - 1 do
      h := !h lxor place p (tokens p)
    done;
    for t = 0 to n_transitions - 1 do
      let c = clocks t in
      if c >= 0 then h := !h lxor clock t c
    done;
    !h
end

let hash s =
  Zobrist.of_cells
    ~n_places:(Array.length s.marking)
    ~n_transitions:(Array.length s.clocks)
    ~tokens:(fun p -> s.marking.(p))
    ~clocks:(fun t -> s.clocks.(t))

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Incremental firing engine.

   The copy-based [fire] above allocates a fresh clock vector and
   re-derives enabledness of every transition on every firing —
   O(|T|·|F|) per step.  The engine below maintains one mutable state
   in place and exploits two facts:

   - enabledness can only change for transitions adjacent (through
     [Pnet.consumers]) to a place whose marking the firing touched, so
     a firing inspects O(arcs of t) transitions instead of |T|;
   - clocks need not be advanced individually: the engine keeps a
     global elapsed time [now] and per-transition enabling stamps
     [enabled_at], with clock(t) = now - enabled_at(t), so letting q
     units pass writes one cell instead of |enabled|.

   Every mutation is recorded on an undo trail so a depth-first search
   backtracks by popping frames instead of keeping parent copies.  The
   candidate analysis (dlb/dub/min DUB/fireable) runs as one fused pass
   over the maintained enabled-set and is cached until the next
   fire/undo.

   The hot paths allocate next to nothing: [create] resolves every
   transition's EFT, LFT and priority into int arrays (an unbounded LFT
   is [max_int]), the candidate pass sorts into a reused int buffer
   with no [Time_interval.bound] boxes, and [fire] walks arcs and
   consumers with plain loops, no closures or captured refs.  Per node
   it allocates the fireable list, the horizon's bound and the undo
   trail's growth, if any. *)

module Incremental = struct
  type engine = {
    net : Pnet.t;
    eft : int array;
    lft : int array;  (* [unbounded] for an infinite LFT *)
    priority : int array;
    marking : int array;
    enabled_at : int array;  (* meaningful only while in the enabled set *)
    mutable now : int;
    (* dense enabled set with positional index *)
    enabled : int array;  (* first [n_enabled] cells are the enabled tids *)
    pos : int array;  (* pos.(t) = index into [enabled], or -1 *)
    mutable n_enabled : int;
    (* undo trail: a growable int stack of per-fire frames *)
    mutable trail : int array;
    mutable trail_len : int;
    mutable depth : int;
    (* incrementally maintained Zobrist hash of the current state;
       always equals [hash (snapshot e)] *)
    mutable zhash : int;
    (* fused candidate analysis, invalidated by fire/undo: the min DUB
       (as an int, [unbounded] when no LFT is finite, and as a bound),
       the candidates ascending in [cands.(0 .. n_cands - 1)], the
       fireable list and each enabled transition's DLB *)
    mutable cache_valid : bool;
    mutable horizon : int;
    mutable cached_horizon : Time_interval.bound;
    cands : int array;
    mutable n_cands : int;
    mutable cached_fireable : Pnet.transition_id list;
    scratch_dlb : int array;
  }

  let unbounded = max_int

  let push e x =
    if e.trail_len = Array.length e.trail then begin
      let bigger = Array.make (2 * Array.length e.trail) 0 in
      Array.blit e.trail 0 bigger 0 e.trail_len;
      e.trail <- bigger
    end;
    e.trail.(e.trail_len) <- x;
    e.trail_len <- e.trail_len + 1

  let pop e =
    e.trail_len <- e.trail_len - 1;
    e.trail.(e.trail_len)

  let create (net : Pnet.t) =
    let n_places = Pnet.place_count net in
    let n_trans = Pnet.transition_count net in
    let lft tid =
      match Time_interval.lft (Pnet.interval net tid) with
      | Time_interval.Finite l -> l
      | Time_interval.Infinity -> unbounded
    in
    let e =
      {
        net;
        eft = Array.init n_trans (fun tid -> Time_interval.eft (Pnet.interval net tid));
        lft = Array.init n_trans lft;
        priority = Array.init n_trans (Pnet.priority net);
        marking = Array.copy net.m0;
        enabled_at = Array.make n_trans 0;
        now = 0;
        enabled = Array.make (max 1 n_trans) 0;
        pos = Array.make n_trans (-1);
        n_enabled = 0;
        trail = Array.make (max 16 (4 * (n_places + n_trans))) 0;
        trail_len = 0;
        depth = 0;
        zhash = 0;
        cache_valid = false;
        horizon = unbounded;
        cached_horizon = Time_interval.Infinity;
        cands = Array.make (max 1 n_trans) 0;
        n_cands = 0;
        cached_fireable = [];
        scratch_dlb = Array.make n_trans 0;
      }
    in
    for tid = 0 to n_trans - 1 do
      if marking_enables net e.marking tid then begin
        e.pos.(tid) <- e.n_enabled;
        e.enabled.(e.n_enabled) <- tid;
        e.n_enabled <- e.n_enabled + 1
      end
    done;
    e.zhash <-
      Zobrist.of_cells ~n_places ~n_transitions:n_trans
        ~tokens:(fun p -> e.marking.(p))
        ~clocks:(fun t -> if e.pos.(t) >= 0 then 0 else -1);
    e

  let depth e = e.depth
  let now e = e.now
  let tokens e p = e.marking.(p)
  let is_enabled e tid = e.pos.(tid) >= 0
  let clock e tid = if e.pos.(tid) >= 0 then e.now - e.enabled_at.(tid) else -1
  let zhash e = e.zhash

  let check_enabled who e tid =
    if e.pos.(tid) < 0 then
      invalid_arg
        (Printf.sprintf "State.Incremental.%s: transition %d is not enabled"
           who tid)

  let dlb e tid =
    check_enabled "dlb" e tid;
    let d = e.eft.(tid) - (e.now - e.enabled_at.(tid)) in
    if d > 0 then d else 0

  let dub e tid =
    check_enabled "dub" e tid;
    let l = e.lft.(tid) in
    if l = unbounded then Time_interval.Infinity
    else Time_interval.Finite (l - (e.now - e.enabled_at.(tid)))

  (* Single fused pass: dynamic bounds, min DUB, candidate set and the
     priority-filtered fireable set, in ascending transition order so
     the search explores exactly the order of the copy-based oracle.
     The enabled set is unordered, so candidates are insertion-sorted
     into [cands]. *)
  let ensure_cache e =
    if not e.cache_valid then begin
      let horizon = ref unbounded in
      for i = 0 to e.n_enabled - 1 do
        let tid = e.enabled.(i) in
        let c = e.now - e.enabled_at.(tid) in
        let d = e.eft.(tid) - c in
        e.scratch_dlb.(tid) <- (if d > 0 then d else 0);
        let l = e.lft.(tid) in
        if l <> unbounded && l - c < !horizon then horizon := l - c
      done;
      let limit = !horizon in
      let n = ref 0 and best = ref max_int in
      for i = 0 to e.n_enabled - 1 do
        let tid = e.enabled.(i) in
        if e.scratch_dlb.(tid) <= limit then begin
          let j = ref !n in
          while !j > 0 && e.cands.(!j - 1) > tid do
            e.cands.(!j) <- e.cands.(!j - 1);
            decr j
          done;
          e.cands.(!j) <- tid;
          incr n;
          let pri = e.priority.(tid) in
          if pri < !best then best := pri
        end
      done;
      let fireable = ref [] in
      for i = !n - 1 downto 0 do
        let tid = e.cands.(i) in
        if e.priority.(tid) = !best then fireable := tid :: !fireable
      done;
      e.horizon <- limit;
      e.cached_horizon <-
        (if limit = unbounded then Time_interval.Infinity
         else Time_interval.Finite limit);
      e.n_cands <- !n;
      e.cached_fireable <- !fireable;
      e.cache_valid <- true
    end

  let candidates e =
    ensure_cache e;
    List.init e.n_cands (fun i -> e.cands.(i))

  let fireable e =
    ensure_cache e;
    e.cached_fireable

  let firing_domain e tid =
    check_enabled "firing_domain" e tid;
    ensure_cache e;
    (e.scratch_dlb.(tid), e.cached_horizon)

  let set_add e tid =
    e.pos.(tid) <- e.n_enabled;
    e.enabled.(e.n_enabled) <- tid;
    e.n_enabled <- e.n_enabled + 1

  let set_remove e tid =
    let i = e.pos.(tid) in
    let last = e.enabled.(e.n_enabled - 1) in
    e.enabled.(i) <- last;
    e.pos.(last) <- i;
    e.n_enabled <- e.n_enabled - 1;
    e.pos.(tid) <- -1

  (* Trail frame, pushed bottom-up:
       old_now, old_zhash
       (old_tokens, place) x k,        k
       (old_enabled_at | -1, tid) x m, m
     The -1 sentinel means the transition was disabled before the
     record.  Records replay in reverse on undo, so a cell touched
     twice lands back on its first pre-image; the saved hash word makes
     undo restore the Zobrist hash bit-for-bit without recomputing. *)

  (* Move tokens along [arcs] ([sign] -1 consumes, +1 produces),
     recording each touched place; returns the updated hash. *)
  let move_tokens e arcs sign h =
    let h = ref h in
    for a = 0 to Array.length arcs - 1 do
      let p, w = arcs.(a) in
      let old = e.marking.(p) in
      push e old;
      push e p;
      e.marking.(p) <- old + (sign * w);
      h := !h lxor Zobrist.place p old lxor Zobrist.place p e.marking.(p)
    done;
    !h

  (* Re-derive enabledness of the consumers of every place in [arcs],
     recording each change; returns the updated hash. *)
  let recheck_consumers e arcs h =
    let h = ref h in
    for a = 0 to Array.length arcs - 1 do
      let p, _ = arcs.(a) in
      let consumers = e.net.consumers.(p) in
      for k = 0 to Array.length consumers - 1 do
        let t = consumers.(k) in
        let enabled_now = marking_enables e.net e.marking t in
        let was = e.pos.(t) >= 0 in
        if enabled_now && not was then begin
          push e (-1);
          push e t;
          set_add e t;
          e.enabled_at.(t) <- e.now;
          h := !h lxor Zobrist.clock t 0
        end
        else if (not enabled_now) && was then begin
          push e e.enabled_at.(t);
          push e t;
          (* contribution already advanced to the post-q clock *)
          h := !h lxor Zobrist.clock t (e.now - e.enabled_at.(t));
          set_remove e t
        end
      done
    done;
    !h

  let fire e tid q =
    check_enabled "fire" e tid;
    ensure_cache e;
    let lo = e.scratch_dlb.(tid) in
    if q < lo || q > e.horizon then
      invalid_arg
        (Printf.sprintf
           "State.Incremental.fire: time %d outside firing domain [%d, %s] of %s"
           q lo
           (Time_interval.bound_to_string e.cached_horizon)
           (Pnet.transition_name e.net tid));
    let net = e.net in
    push e e.now;
    push e e.zhash;
    let h = ref e.zhash in
    (* Letting q time units pass advances the clock of *every* enabled
       transition, so their hash contributions shift from c to c + q.
       O(enabled) XORs — still far cheaper than rehashing the state,
       and free on the q = 0 firings that dominate eager chains. *)
    if q > 0 then
      for i = 0 to e.n_enabled - 1 do
        let t = e.enabled.(i) in
        let c = e.now - e.enabled_at.(t) in
        h := !h lxor Zobrist.clock t c lxor Zobrist.clock t (c + q)
      done;
    e.now <- e.now + q;
    let pre = net.pre.(tid) and post = net.post.(tid) in
    let h = move_tokens e pre (-1) !h in
    let h = move_tokens e post 1 h in
    let places_changed = Array.length pre + Array.length post in
    push e places_changed;
    (* enabledness can change only for consumers of touched places *)
    let frame = e.trail_len in
    let h = recheck_consumers e pre h in
    let h = recheck_consumers e post h in
    (* Def 3.1: the fired transition's clock restarts when it remains
       enabled (a newly re-enabled one already carries [now]) *)
    let h =
      if e.pos.(tid) >= 0 && e.enabled_at.(tid) <> e.now then begin
        push e e.enabled_at.(tid);
        push e tid;
        let h =
          h lxor Zobrist.clock tid (e.now - e.enabled_at.(tid))
          lxor Zobrist.clock tid 0
        in
        e.enabled_at.(tid) <- e.now;
        h
      end
      else h
    in
    let trans_changed = (e.trail_len - frame) / 2 in
    push e trans_changed;
    e.zhash <- h;
    e.depth <- e.depth + 1;
    e.cache_valid <- false;
    incr fires;
    incremental_writes :=
      !incremental_writes + 1 + places_changed + trans_changed

  let undo e =
    if e.depth = 0 then invalid_arg "State.Incremental.undo: at the root";
    let m = pop e in
    for _ = 1 to m do
      let tid = pop e in
      let old_at = pop e in
      if old_at < 0 then set_remove e tid
      else begin
        if e.pos.(tid) < 0 then set_add e tid;
        e.enabled_at.(tid) <- old_at
      end
    done;
    let k = pop e in
    for _ = 1 to k do
      let p = pop e in
      let old = pop e in
      e.marking.(p) <- old
    done;
    e.zhash <- pop e;
    e.now <- pop e;
    e.depth <- e.depth - 1;
    e.cache_valid <- false

  let undo_to e target =
    if target < 0 || target > e.depth then
      invalid_arg "State.Incremental.undo_to: bad target depth";
    while e.depth > target do
      undo e
    done

  let commit e =
    e.trail_len <- 0;
    e.depth <- 0

  (* Plain loops, not [Array.blit]: a blit into an [int array] that
     lives in the major heap (as the search's reused vector soon does)
     goes through the write barrier cell by cell.  The one length check
     bounds every unchecked access ([pos] and [enabled_at] both have
     |T| cells). *)
  let write_cells e cells =
    let marking = e.marking and pos = e.pos and enabled_at = e.enabled_at in
    let now = e.now and n_places = Array.length marking in
    if Array.length cells < n_places + Array.length pos then
      invalid_arg "State.Incremental.write_cells: vector too short";
    for p = 0 to n_places - 1 do
      Array.unsafe_set cells p (Array.unsafe_get marking p)
    done;
    for tid = 0 to Array.length pos - 1 do
      Array.unsafe_set cells (n_places + tid)
        (if Array.unsafe_get pos tid >= 0 then
           now - Array.unsafe_get enabled_at tid
         else -1)
    done

  let snapshot e =
    {
      marking = Array.copy e.marking;
      clocks = Array.init (Pnet.transition_count e.net) (fun tid -> clock e tid);
    }
end
