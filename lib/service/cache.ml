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

let format_version = 1

(* Strings (task and transition names) are percent-escaped so every
   record stays one space-separated line regardless of content. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '%' | '\n' | '\r' | '\t' ->
        Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i < n then
      if s.[i] = '%' then
        if i + 2 < n then begin
          match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
          | Some code ->
            Buffer.add_char buf (Char.chr (code land 0xff));
            go (i + 3)
          | None -> failwith "bad escape"
        end
        else failwith "truncated escape"
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let witness_to_line (w : Schedulability.witness) =
  match w with
  | Schedulability.Negative_laxity { task; instance; ready; wcet; deadline } ->
    Printf.sprintf "witness negative-laxity %s %d %d %d %d" (escape task)
      instance ready wcet deadline
  | Schedulability.Demand_overload { t1; t2; demand; capacity } ->
    Printf.sprintf "witness demand-overload %d %d %d %d" t1 t2 demand capacity
  | Schedulability.Chain_overrun
      { task; instance; chain; earliest_finish; deadline } ->
    (* the chain words go last so decoding is unambiguous; an empty
       chain must not leave a trailing separator *)
    String.concat " "
      ("witness" :: "chain-overrun" :: escape task :: string_of_int instance
      :: string_of_int earliest_finish :: string_of_int deadline
      :: List.map escape chain)
  | Schedulability.Exclusion_conflict
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
    Printf.sprintf "witness exclusion-conflict %s %d %s %d %d %d %d %d"
      (escape task_a) instance_a (escape task_b) instance_b forward_finish
      deadline_b backward_finish deadline_a
  | Schedulability.Edf_overload { task; instance; time } ->
    Printf.sprintf "witness edf-overload %s %d %d" (escape task) instance time

let witness_of_words = function
  | [ "negative-laxity"; task; instance; ready; wcet; deadline ] ->
    Schedulability.Negative_laxity
      {
        task = unescape task;
        instance = int_of_string instance;
        ready = int_of_string ready;
        wcet = int_of_string wcet;
        deadline = int_of_string deadline;
      }
  | [ "demand-overload"; t1; t2; demand; capacity ] ->
    Schedulability.Demand_overload
      {
        t1 = int_of_string t1;
        t2 = int_of_string t2;
        demand = int_of_string demand;
        capacity = int_of_string capacity;
      }
  | "chain-overrun" :: task :: instance :: finish :: deadline :: chain ->
    Schedulability.Chain_overrun
      {
        task = unescape task;
        instance = int_of_string instance;
        earliest_finish = int_of_string finish;
        deadline = int_of_string deadline;
        chain = List.map unescape chain;
      }
  | [
      "exclusion-conflict"; task_a; ia; task_b; ib; ff; db; bf; da;
    ] ->
    Schedulability.Exclusion_conflict
      {
        task_a = unescape task_a;
        instance_a = int_of_string ia;
        task_b = unescape task_b;
        instance_b = int_of_string ib;
        forward_finish = int_of_string ff;
        deadline_b = int_of_string db;
        backward_finish = int_of_string bf;
        deadline_a = int_of_string da;
      }
  | [ "edf-overload"; task; instance; time ] ->
    Schedulability.Edf_overload
      {
        task = unescape task;
        instance = int_of_string instance;
        time = int_of_string time;
      }
  | _ -> failwith "unknown witness"

let encode ~digest entry =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "ezrt-cache %d\n" format_version;
  Printf.bprintf buf "digest %s\n" digest;
  Printf.bprintf buf "engine %s\n" (escape entry.engine);
  Printf.bprintf buf "elapsed_ms %.3f\n" entry.elapsed_ms;
  Printf.bprintf buf "stored %d\n" entry.stored_states;
  (match entry.verdict with
  | Feasible actions ->
    Printf.bprintf buf "verdict feasible %d\n" (List.length actions);
    List.iter
      (fun (name, delay) ->
        Printf.bprintf buf "a %s %d\n" (escape name) delay)
      actions
  | Infeasible w ->
    Buffer.add_string buf "verdict infeasible\n";
    Buffer.add_string buf (witness_to_line w);
    Buffer.add_char buf '\n');
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let decode text =
  try
    let lines = String.split_on_char '\n' text in
    (* [end] must terminate the payload: a truncated write is missing
       it, and bytes after it are garbage *)
    let rec split_payload acc = function
      | [ "end"; "" ] | [ "end" ] -> List.rev acc
      | "end" :: _ -> failwith "garbage after end marker"
      | [] -> failwith "missing end marker"
      | line :: rest -> split_payload (line :: acc) rest
    in
    match split_payload [] lines with
    | header :: rest -> (
      (match String.split_on_char ' ' header with
      | [ "ezrt-cache"; v ] when int_of_string v = format_version -> ()
      | [ "ezrt-cache"; _ ] -> failwith "format version mismatch"
      | _ -> failwith "bad header");
      let field name line =
        match String.split_on_char ' ' line with
        | key :: words when key = name -> words
        | _ -> failwith ("expected field " ^ name)
      in
      let one name line =
        match field name line with
        | [ v ] -> v
        | _ -> failwith ("malformed field " ^ name)
      in
      match rest with
      | dg :: eng :: el :: st :: verdict :: body ->
        let digest = one "digest" dg in
        let engine = unescape (one "engine" eng) in
        let elapsed_ms = float_of_string (one "elapsed_ms" el) in
        let stored_states = int_of_string (one "stored" st) in
        let verdict =
          match field "verdict" verdict with
          | [ "feasible"; n ] ->
            let n = int_of_string n in
            if List.length body <> n then failwith "action count mismatch";
            Feasible
              (List.map
                 (fun line ->
                   match field "a" line with
                   | [ name; delay ] -> (unescape name, int_of_string delay)
                   | _ -> failwith "malformed action")
                 body)
          | [ "infeasible" ] -> (
            match body with
            | [ w ] -> Infeasible (witness_of_words (field "witness" w))
            | _ -> failwith "malformed witness body")
          | _ -> failwith "malformed verdict"
        in
        Ok (digest, { verdict; engine; elapsed_ms; stored_states })
      | _ -> failwith "truncated header")
    | [] -> failwith "empty entry"
  with
  | Failure msg -> Error msg
  | _ -> Error "malformed entry"

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
