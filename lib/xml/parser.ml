type error = { position : int; message : string }

let error_to_string e =
  Printf.sprintf "XML parse error at byte %d: %s" e.position e.message

exception Parse_error of error

type cursor = { src : string; mutable pos : int }

let fail cur message = raise (Parse_error { position = cur.pos; message })
let at_end cur = cur.pos >= String.length cur.src

let peek cur =
  if at_end cur then fail cur "unexpected end of input" else cur.src.[cur.pos]

let advance cur = cur.pos <- cur.pos + 1

(* [s] occurs in [src] at byte [i]; compared in place *)
let occurs_at src i s =
  let n = String.length s in
  i + n <= String.length src
  &&
  let k = ref 0 in
  while !k < n && src.[i + !k] = s.[!k] do
    incr k
  done;
  !k = n

let looking_at cur prefix = occurs_at cur.src cur.pos prefix

let expect cur prefix =
  if looking_at cur prefix then cur.pos <- cur.pos + String.length prefix
  else fail cur (Printf.sprintf "expected %S" prefix)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_spaces cur =
  while (not (at_end cur)) && is_space cur.src.[cur.pos] do
    advance cur
  done

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' -> true
  | _ -> false

let read_name cur =
  let start = cur.pos in
  while (not (at_end cur)) && is_name_char cur.src.[cur.pos] do
    advance cur
  done;
  if cur.pos = start then fail cur "expected a name";
  String.sub cur.src start (cur.pos - start)

(* Decode one entity after the '&' has been consumed. *)
let read_entity cur =
  let semi =
    match String.index_from_opt cur.src cur.pos ';' with
    | Some i when i - cur.pos <= 12 -> i
    | Some _ | None -> fail cur "unterminated entity reference"
  in
  let body = String.sub cur.src cur.pos (semi - cur.pos) in
  cur.pos <- semi + 1;
  match body with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
    let code =
      if String.length body > 2 && body.[0] = '#' && (body.[1] = 'x' || body.[1] = 'X')
      then int_of_string_opt ("0x" ^ String.sub body 2 (String.length body - 2))
      else if String.length body > 1 && body.[0] = '#' then
        int_of_string_opt (String.sub body 1 (String.length body - 1))
      else None
    in
    (match code with
    | Some c when c >= 0 && c < 128 -> String.make 1 (Char.chr c)
    | Some c ->
      (* Minimal UTF-8 encoding for non-ASCII character references. *)
      let buf = Buffer.create 4 in
      if c < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
      end
      else if c < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (c lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
      end;
      Buffer.contents buf
    | None -> fail cur (Printf.sprintf "unknown entity &%s;" body))

let read_attr_value cur =
  let quote = peek cur in
  if quote <> '"' && quote <> '\'' then fail cur "expected attribute quote";
  advance cur;
  let buf = Buffer.create 16 in
  let rec go () =
    let c = peek cur in
    if c = quote then advance cur
    else if c = '&' then begin
      advance cur;
      Buffer.add_string buf (read_entity cur);
      go ()
    end
    else if c = '<' then fail cur "'<' in attribute value"
    else begin
      Buffer.add_char buf c;
      advance cur;
      go ()
    end
  in
  go ();
  Buffer.contents buf

(* Index of the first [close] at or after the cursor, which stays put
   so that an unterminated [what] is reported where its body starts. *)
let find_close cur close what =
  let rec find i =
    if i + String.length close > String.length cur.src then
      fail cur ("unterminated " ^ what)
    else if occurs_at cur.src i close then i
    else find (i + 1)
  in
  find cur.pos

let skip_comment cur =
  expect cur "<!--";
  cur.pos <- find_close cur "-->" "comment" + 3

let skip_pi cur =
  expect cur "<?";
  let i = find_close cur ">" "processing instruction" in
  if cur.src.[i - 1] <> '?' then fail cur "unterminated processing instruction";
  cur.pos <- i + 1

(* No internal-subset support: scan to the first '>'. *)
let skip_doctype cur =
  expect cur "<!DOCTYPE";
  cur.pos <- find_close cur ">" "DOCTYPE" + 1

let read_cdata cur =
  expect cur "<![CDATA[";
  let close = find_close cur "]]>" "CDATA" in
  let body = String.sub cur.src cur.pos (close - cur.pos) in
  cur.pos <- close + 3;
  body

let is_blank s = String.for_all is_space s

let rec read_element cur =
  expect cur "<";
  let tag = read_name cur in
  let rec read_attrs acc =
    skip_spaces cur;
    match peek cur with
    | '>' | '/' -> List.rev acc
    | _ ->
      let key = read_name cur in
      skip_spaces cur;
      expect cur "=";
      skip_spaces cur;
      let value = read_attr_value cur in
      read_attrs ((key, value) :: acc)
  in
  let attrs = read_attrs [] in
  if looking_at cur "/>" then begin
    expect cur "/>";
    Doc.Element { Doc.tag; attrs; children = [] }
  end
  else begin
    expect cur ">";
    let children = read_content cur [] in
    expect cur "</";
    let closing = read_name cur in
    if closing <> tag then
      fail cur (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing tag);
    skip_spaces cur;
    expect cur ">";
    Doc.Element { Doc.tag; attrs; children }
  end

and read_content cur acc =
  if looking_at cur "</" then List.rev acc
  else if looking_at cur "<!--" then begin
    skip_comment cur;
    read_content cur acc
  end
  else if looking_at cur "<![CDATA[" then begin
    let body = read_cdata cur in
    read_content cur (Doc.Text body :: acc)
  end
  else if looking_at cur "<?" then begin
    skip_pi cur;
    read_content cur acc
  end
  else if looking_at cur "<" then begin
    let child = read_element cur in
    read_content cur (child :: acc)
  end
  else begin
    let buf = Buffer.create 32 in
    let rec chars () =
      if at_end cur then fail cur "unexpected end of input in content"
      else
        match peek cur with
        | '<' -> ()
        | '&' ->
          advance cur;
          Buffer.add_string buf (read_entity cur);
          chars ()
        | c ->
          Buffer.add_char buf c;
          advance cur;
          chars ()
    in
    chars ();
    let s = Buffer.contents buf in
    let acc = if is_blank s then acc else Doc.Text s :: acc in
    read_content cur acc
  end

let skip_prolog cur =
  let rec go () =
    skip_spaces cur;
    if looking_at cur "<?" then begin
      skip_pi cur;
      go ()
    end
    else if looking_at cur "<!--" then begin
      skip_comment cur;
      go ()
    end
    else if looking_at cur "<!DOCTYPE" then begin
      skip_doctype cur;
      go ()
    end
  in
  go ()

let parse s =
  let cur = { src = s; pos = 0 } in
  match
    skip_prolog cur;
    let root = read_element cur in
    skip_spaces cur;
    (* Trailing comments are legal after the root element. *)
    let rec trailing () =
      if looking_at cur "<!--" then begin
        skip_comment cur;
        skip_spaces cur;
        trailing ()
      end
    in
    trailing ();
    if not (at_end cur) then fail cur "trailing content after root element";
    root
  with
  | root -> Ok root
  | exception Parse_error e -> Error e

