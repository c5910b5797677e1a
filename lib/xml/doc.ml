type node =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : node list;
}

let valid_tag s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' -> true
         | _ -> false)
       s

let elt ?(attrs = []) tag children =
  if not (valid_tag tag) then
    invalid_arg (Printf.sprintf "Ezrt_xml.Doc.elt: invalid tag %S" tag);
  Element { tag; attrs; children }

let text s = Text s
let leaf ?attrs tag s = elt ?attrs tag [ text s ]

let tag_of = function Element e -> Some e.tag | Text _ -> None

let attr n key =
  match n with
  | Element e -> List.assoc_opt key e.attrs
  | Text _ -> None

let attr_exn n key =
  match attr n key with Some v -> v | None -> raise Not_found

let children_of = function Element e -> e.children | Text _ -> []

let find_children n tag =
  let is_tagged = function
    | Element e -> e.tag = tag
    | Text _ -> false
  in
  List.filter is_tagged (children_of n)

let find_child n tag =
  match find_children n tag with [] -> None | child :: _ -> Some child

let rec text_content n =
  match n with
  | Text s -> s
  | Element e -> String.concat "" (List.map text_content e.children)

let child_text n tag = Option.map text_content (find_child n tag)

let rec equal a b =
  match a, b with
  | Text sa, Text sb -> String.equal sa sb
  | Element ea, Element eb ->
    String.equal ea.tag eb.tag
    && List.length ea.attrs = List.length eb.attrs
    && List.for_all2
         (fun (ka, va) (kb, vb) -> String.equal ka kb && String.equal va vb)
         ea.attrs eb.attrs
    && List.length ea.children = List.length eb.children
    && List.for_all2 equal ea.children eb.children
  | Text _, Element _ | Element _, Text _ -> false

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let xml_decl = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"

let add_attrs buf attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape v);
      Buffer.add_char buf '"')
    attrs

let to_string ?(decl = false) n =
  let buf = Buffer.create 256 in
  if decl then Buffer.add_string buf xml_decl;
  let rec go = function
    | Text s -> Buffer.add_string buf (escape s)
    | Element e ->
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      add_attrs buf e.attrs;
      (match e.children with
      | [] -> Buffer.add_string buf "/>"
      | children ->
        Buffer.add_char buf '>';
        List.iter go children;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_char buf '>')
  in
  go n;
  Buffer.contents buf

(* An element is printed inline when any child is text: indenting would
   inject whitespace into its text content. *)
let has_text_child e =
  List.exists (function Text _ -> true | Element _ -> false) e.children

let to_string_pretty ?(decl = false) n =
  let buf = Buffer.create 256 in
  if decl then Buffer.add_string buf xml_decl;
  let indent depth = Buffer.add_string buf (String.make (2 * depth) ' ') in
  let rec go depth = function
    | Text s -> Buffer.add_string buf (escape s)
    | Element e ->
      indent depth;
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      add_attrs buf e.attrs;
      (match e.children with
      | [] -> Buffer.add_string buf "/>\n"
      | children when has_text_child e ->
        Buffer.add_char buf '>';
        List.iter (go_inline) children;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_string buf ">\n"
      | children ->
        Buffer.add_string buf ">\n";
        List.iter (go (depth + 1)) children;
        indent depth;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_string buf ">\n")
  and go_inline = function
    | Text s -> Buffer.add_string buf (escape s)
    | Element e ->
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      add_attrs buf e.attrs;
      (match e.children with
      | [] -> Buffer.add_string buf "/>"
      | children ->
        Buffer.add_char buf '>';
        List.iter go_inline children;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_char buf '>')
  in
  go 0 n;
  Buffer.contents buf
