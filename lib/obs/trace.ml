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

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let arg_to_json = function
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Float f -> Printf.sprintf "%.6g" f

let event_to_json ev =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\""
       (json_escape ev.name) (json_escape ev.cat)
       (match ev.phase with Begin -> "B" | End -> "E" | Instant -> "i"));
  (* instant events need a scope; "t" = this thread *)
  if ev.phase = Instant then Buffer.add_string b ",\"s\":\"t\"";
  Buffer.add_string b
    (Printf.sprintf ",\"ts\":%d,\"pid\":1,\"tid\":%d" ev.ts_us ev.tid);
  (match ev.args with
  | [] -> ()
  | args ->
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "\"%s\":%s" (json_escape k) (arg_to_json v)))
      args;
    Buffer.add_char b '}');
  Buffer.add_char b '}';
  Buffer.contents b

let to_chrome_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (event_to_json ev))
    (events t);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\",";
  Buffer.add_string b
    (Printf.sprintf "\"otherData\":{\"producer\":\"ezrt\",\"dropped\":%d}}\n"
       (dropped t));
  Buffer.contents b

let save_file path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_chrome_json t))
