(* Two-tier re-validating result cache.

   Trust model: the cache is an accelerator, never an oracle.  Every
   hit is re-proven against the current spec before anything is
   returned — feasible entries by full certification (TPN replay +
   independent validator), infeasible entries by re-evaluating their
   analytic witness.  The disk tier therefore needs no integrity
   machinery beyond a terminator line: a flipped bit either breaks the
   decode, breaks the replay, or breaks the witness, and each of those
   is a counted miss. *)

module Spec = Ezrt_spec.Spec
module Schedulability = Ezrt_analysis.Schedulability
module Pnet = Ezrt_tpn.Pnet
module Translate = Ezrt_blocks.Translate
module Schedule = Ezrt_sched.Schedule
module Validator = Ezrt_sched.Validator
module Metrics = Ezrt_obs.Metrics
module Json = Ezrt_obs.Json

type verdict =
  | Feasible of (string * int) list
  | Infeasible of Schedulability.witness

type entry = {
  verdict : verdict;
  engine : string;
  elapsed_ms : float;
  stored_states : int;
}

type validated =
  | Hit_feasible of Ezrt_sched.Schedule.t * Ezrt_sched.Timeline.segment list
  | Hit_infeasible of Schedulability.witness

type counters = { hits : int; misses : int; evictions : int; invalid : int }

type t = {
  capacity : int;
  disk_dir : string option;
  mutex : Mutex.t;
  memory : (string, entry * int ref) Hashtbl.t;  (* digest -> entry, last use *)
  clock : int ref;  (* LRU tick, under [mutex] *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  invalid : int Atomic.t;
}

let metric which =
  Metrics.counter
    ~help:"Result-cache lookups and lifecycle events by kind"
    ("ezrt_cache_" ^ which ^ "_total")

let count t which =
  let cell =
    match which with
    | `Hit -> t.hits
    | `Miss -> t.misses
    | `Eviction -> t.evictions
    | `Invalid -> t.invalid
  in
  Atomic.incr cell;
  Metrics.incr
    (metric
       (match which with
       | `Hit -> "hits"
       | `Miss -> "misses"
       | `Eviction -> "evictions"
       | `Invalid -> "invalid"))

let create ?(capacity = 256) ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | Some _ | None -> ());
  {
    capacity = max 1 capacity;
    disk_dir = dir;
    mutex = Mutex.create ();
    memory = Hashtbl.create 64;
    clock = ref 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    invalid = Atomic.make 0;
  }

let dir t = t.disk_dir

let counters t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    invalid = Atomic.get t.invalid;
  }

(* --- wire format ------------------------------------------------------ *)

(* One JSON object per entry.  The tag changes whenever the entry's
   shape does, so an entry of another shape fails to decode. *)
let format_tag = "ezrt-cache/2"

let num i = Json.Num (float_of_int i)

let witness_to_json (w : Schedulability.witness) =
  let fields =
    match w with
    | Negative_laxity { task; instance; ready; wcet; deadline } ->
      [
        ("task", Json.Str task);
        ("instance", num instance);
        ("ready", num ready);
        ("wcet", num wcet);
        ("deadline", num deadline);
      ]
    | Demand_overload { t1; t2; demand; capacity } ->
      [
        ("t1", num t1);
        ("t2", num t2);
        ("demand", num demand);
        ("capacity", num capacity);
      ]
    | Chain_overrun { task; instance; chain; earliest_finish; deadline } ->
      [
        ("task", Json.Str task);
        ("instance", num instance);
        ("chain", Json.List (List.map (fun s -> Json.Str s) chain));
        ("earliest_finish", num earliest_finish);
        ("deadline", num deadline);
      ]
    | Exclusion_conflict
        {
          task_a;
          instance_a;
          task_b;
          instance_b;
          forward_finish;
          deadline_b;
          backward_finish;
          deadline_a;
        } ->
      [
        ("task_a", Json.Str task_a);
        ("instance_a", num instance_a);
        ("task_b", Json.Str task_b);
        ("instance_b", num instance_b);
        ("forward_finish", num forward_finish);
        ("deadline_b", num deadline_b);
        ("backward_finish", num backward_finish);
        ("deadline_a", num deadline_a);
      ]
    | Edf_overload { task; instance; time } ->
      [
        ("task", Json.Str task); ("instance", num instance); ("time", num time);
      ]
  in
  Json.Obj (("kind", Json.Str (Schedulability.witness_kind w)) :: fields)

let encode ~digest entry =
  let verdict =
    match entry.verdict with
    | Feasible actions ->
      ( "actions",
        Json.List
          (List.map
             (fun (name, delay) -> Json.List [ Json.Str name; num delay ])
             actions) )
    | Infeasible w -> ("witness", witness_to_json w)
  in
  Json.to_string
    (Json.Obj
       [
         ("format", Json.Str format_tag);
         ("digest", Json.Str digest);
         ("engine", Json.Str entry.engine);
         ("elapsed_ms", Json.Num entry.elapsed_ms);
         ("stored", num entry.stored_states);
         verdict;
       ])
  ^ "\n"

(* Field [key] of object [j], read by [conv]: a missing or mistyped
   field fails the decode. *)
let get conv key j =
  match Option.bind (Json.member key j) conv with
  | Some v -> v
  | None -> failwith ("missing or mistyped field " ^ key)

let get_str = get Json.to_str
let get_int = get Json.to_int
let get_float = get (function Json.Num f -> Some f | _ -> None)
let get_list = get (function Json.List l -> Some l | _ -> None)

let witness_of_json j : Schedulability.witness =
  match get_str "kind" j with
  | "negative-laxity" ->
    Negative_laxity
      {
        task = get_str "task" j;
        instance = get_int "instance" j;
        ready = get_int "ready" j;
        wcet = get_int "wcet" j;
        deadline = get_int "deadline" j;
      }
  | "demand-overload" ->
    Demand_overload
      {
        t1 = get_int "t1" j;
        t2 = get_int "t2" j;
        demand = get_int "demand" j;
        capacity = get_int "capacity" j;
      }
  | "chain-overrun" ->
    Chain_overrun
      {
        task = get_str "task" j;
        instance = get_int "instance" j;
        chain =
          List.map
            (function Json.Str s -> s | _ -> failwith "malformed chain")
            (get_list "chain" j);
        earliest_finish = get_int "earliest_finish" j;
        deadline = get_int "deadline" j;
      }
  | "exclusion-conflict" ->
    Exclusion_conflict
      {
        task_a = get_str "task_a" j;
        instance_a = get_int "instance_a" j;
        task_b = get_str "task_b" j;
        instance_b = get_int "instance_b" j;
        forward_finish = get_int "forward_finish" j;
        deadline_b = get_int "deadline_b" j;
        backward_finish = get_int "backward_finish" j;
        deadline_a = get_int "deadline_a" j;
      }
  | "edf-overload" ->
    Edf_overload
      {
        task = get_str "task" j;
        instance = get_int "instance" j;
        time = get_int "time" j;
      }
  | kind -> failwith ("unknown witness kind " ^ kind)

let action_of_json = function
  | Json.List [ Json.Str name; delay ] -> (
    match Json.to_int delay with
    | Some delay -> (name, delay)
    | None -> failwith "malformed action")
  | _ -> failwith "malformed action"

let decode text =
  match Json.of_string text with
  | Error msg -> Error msg
  | Ok j -> (
    try
      if get_str "format" j <> format_tag then failwith "format mismatch";
      let verdict =
        match (Json.member "actions" j, Json.member "witness" j) with
        | Some (Json.List actions), None ->
          Feasible (List.map action_of_json actions)
        | None, Some w -> Infeasible (witness_of_json w)
        | _ -> failwith "malformed verdict"
      in
      Ok
        ( get_str "digest" j,
          {
            verdict;
            engine = get_str "engine" j;
            elapsed_ms = get_float "elapsed_ms" j;
            stored_states = get_int "stored" j;
          } )
    with Failure msg -> Error msg)

(* --- disk tier -------------------------------------------------------- *)

let entry_path dir digest = Filename.concat dir (digest ^ ".entry")

let disk_write t ~digest entry =
  match t.disk_dir with
  | None -> ()
  | Some dir -> (
    (* tmp+rename in the same directory: readers only ever see a
       complete file, concurrent writers race benignly (same content
       address, last rename wins) *)
    try
      let tmp =
        Filename.concat dir
          (Printf.sprintf ".tmp-%s-%d-%d" digest (Unix.getpid ())
             (Domain.self () :> int))
      in
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc (encode ~digest entry));
      Unix.rename tmp (entry_path dir digest)
    with Sys_error _ | Unix.Unix_error _ -> ())

let disk_read t ~digest =
  match t.disk_dir with
  | None -> None
  | Some dir -> (
    let path = entry_path dir digest in
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Some (path, text)
    | exception Sys_error _ -> None)

let disk_remove t ~digest =
  match t.disk_dir with
  | None -> ()
  | Some dir -> ( try Sys.remove (entry_path dir digest) with Sys_error _ -> ())

(* --- memory tier ------------------------------------------------------ *)

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let memory_touch_find t digest =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.memory digest with
      | None -> None
      | Some (entry, last) ->
        incr t.clock;
        last := !(t.clock);
        Some entry)

let memory_remove t digest =
  with_lock t (fun () -> Hashtbl.remove t.memory digest)

let memory_insert t digest entry =
  let evicted =
    with_lock t (fun () ->
        incr t.clock;
        Hashtbl.replace t.memory digest (entry, ref !(t.clock));
        if Hashtbl.length t.memory <= t.capacity then 0
        else begin
          (* evict least-recently-used entries down to capacity; the
             scan is O(entries) but capacity is small and eviction is
             off every hot path *)
          let evicted = ref 0 in
          while Hashtbl.length t.memory > t.capacity do
            let victim = ref None in
            Hashtbl.iter
              (fun key (_, last) ->
                match !victim with
                | Some (_, best) when best <= !last -> ()
                | _ -> victim := Some (key, !last))
              t.memory;
            match !victim with
            | Some (key, _) ->
              Hashtbl.remove t.memory key;
              incr evicted
            | None -> ()
          done;
          !evicted
        end)
  in
  for _ = 1 to evicted do
    count t `Eviction
  done

(* --- validation ------------------------------------------------------- *)

(* Re-prove the entry against the current spec/model.  Nothing in the
   entry is trusted: feasible actions must name real transitions,
   replay legally through the TPN and pass the independent validator;
   an infeasible witness must re-evaluate to true. *)
let validate ~spec ~model entry =
  match entry.verdict with
  | Feasible actions -> (
    let net = model.Translate.net in
    match
      List.map
        (fun (name, delay) ->
          match Pnet.find_transition_opt net name with
          | Some tid -> (tid, delay)
          | None -> raise Exit)
        actions
    with
    | exception Exit -> None
    | resolved -> (
      let schedule = Schedule.of_actions resolved in
      match Validator.certify model schedule with
      | Ok segments -> Some (Hit_feasible (schedule, segments))
      | Error _ -> None))
  | Infeasible w ->
    if Schedulability.witness_holds spec w then Some (Hit_infeasible w)
    else None

let store t ~digest entry =
  memory_insert t digest entry;
  disk_write t ~digest entry

let find t ~digest ~spec ~model =
  let invalidate () =
    memory_remove t digest;
    disk_remove t ~digest;
    count t `Invalid;
    count t `Miss
  in
  match memory_touch_find t digest with
  | Some entry -> (
    match validate ~spec ~model entry with
    | Some hit ->
      count t `Hit;
      Some hit
    | None ->
      invalidate ();
      None)
  | None -> (
    match disk_read t ~digest with
    | None ->
      count t `Miss;
      None
    | Some (_path, text) -> (
      match decode text with
      | Error _ ->
        invalidate ();
        None
      | Ok (stored_digest, entry) ->
        if stored_digest <> digest then begin
          (* a renamed or mixed-up file addresses a different spec *)
          invalidate ();
          None
        end
        else
          (match validate ~spec ~model entry with
          | Some hit ->
            memory_insert t digest entry;
            count t `Hit;
            Some hit
          | None ->
            invalidate ();
            None)))
