type arg =
  | Int of int
  | Str of string
  | Float of float

type phase =
  | Begin
  | End
  | Instant

type event = {
  name : string;
  cat : string;
  phase : phase;
  ts_us : int;
  tid : int;
  args : (string * arg) list;
}

type t = {
  clock : unit -> float;
  epoch : float;
  buf : event array;
  cap : int;
  mutable next : int;  (* total events ever written *)
  lock : Mutex.t;
}

let dummy_event =
  { name = ""; cat = ""; phase = Instant; ts_us = 0; tid = 0; args = [] }

let create ?(capacity = 65536) ?(clock = Unix.gettimeofday) () =
  let cap = max 2 capacity in
  {
    clock;
    epoch = clock ();
    buf = Array.make cap dummy_event;
    cap;
    next = 0;
    lock = Mutex.create ();
  }

(* The one process-wide sink.  Written from the main domain before
   workers spawn and read without synchronization: the ref itself is a
   data race only if install happens concurrently with recording,
   which the CLI/test discipline (install, run, uninstall) avoids. *)
let current : t option ref = ref None

let install t = current := Some t
let uninstall () = current := None
let enabled () = !current <> None

let record t name cat phase args =
  let ts_us =
    int_of_float ((t.clock () -. t.epoch) *. 1e6 +. 0.5)
  in
  let tid = (Domain.self () :> int) in
  let ev = { name; cat; phase; ts_us; tid; args } in
  Mutex.lock t.lock;
  t.buf.(t.next mod t.cap) <- ev;
  t.next <- t.next + 1;
  Mutex.unlock t.lock

let begin_span ?(args = []) ~cat name =
  match !current with
  | None -> ()
  | Some t -> record t name cat Begin args

let end_span ?(args = []) ~cat name =
  match !current with
  | None -> ()
  | Some t -> record t name cat End args

let instant ?(args = []) ~cat name =
  match !current with
  | None -> ()
  | Some t -> record t name cat Instant args

let with_span ?args ~cat f name =
  match !current with
  | None -> f ()
  | Some _ ->
    begin_span ?args ~cat name;
    Fun.protect ~finally:(fun () -> end_span ~cat name) f

let written t = t.next
let dropped t = max 0 (t.next - t.cap)
let capacity t = t.cap

let events t =
  Mutex.lock t.lock;
  let n = t.next in
  let live = min n t.cap in
  let first = n - live in
  let out =
    List.init live (fun i -> t.buf.((first + i) mod t.cap))
  in
  Mutex.unlock t.lock;
  out

(* --- Chrome trace-event JSON ---------------------------------------- *)

let to_chrome_json t =
  let num i = Json.Num (float_of_int i) in
  let event ev =
    let ph, scope =
      match ev.phase with
      | Begin -> ("B", [])
      | End -> ("E", [])
      (* instant events need a scope; "t" = this thread *)
      | Instant -> ("i", [ ("s", Json.Str "t") ])
    in
    let args =
      match ev.args with
      | [] -> []
      | args ->
        [
          ( "args",
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   ( k,
                     match v with
                     | Int i -> num i
                     | Str s -> Json.Str s
                     | Float f -> Json.Num f ))
                 args) );
        ]
    in
    Json.Obj
      ([
         ("name", Json.Str ev.name);
         ("cat", Json.Str ev.cat);
         ("ph", Json.Str ph);
       ]
      @ scope
      @ [ ("ts", num ev.ts_us); ("pid", num 1); ("tid", num ev.tid) ]
      @ args)
  in
  (* one event per line, so a trace diffs and greps line by line *)
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (Json.to_string (event ev)))
    (events t);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\",\"otherData\":";
  Buffer.add_string b
    (Json.to_string
       (Json.Obj
          [ ("producer", Json.Str "ezrt"); ("dropped", num (dropped t)) ]));
  Buffer.add_string b "}\n";
  Buffer.contents b

let save_file path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_chrome_json t))
