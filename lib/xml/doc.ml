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

let add_escaped buf s =
  for i = 0 to String.length s - 1 do
    match s.[i] with
    | '&' -> Buffer.add_string buf "&amp;"
    | '<' -> Buffer.add_string buf "&lt;"
    | '>' -> Buffer.add_string buf "&gt;"
    | '"' -> Buffer.add_string buf "&quot;"
    | '\'' -> Buffer.add_string buf "&apos;"
    | c -> Buffer.add_char buf c
  done

let escape s =
  let buf = Buffer.create (String.length s) in
  add_escaped buf s;
  Buffer.contents buf

let xml_decl = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"

let add_attrs buf attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      add_escaped buf v;
      Buffer.add_char buf '"')
    attrs

(* An element is printed inline when any child is text: indenting would
   inject whitespace into its text content. *)
let has_text_child e =
  List.exists (function Text _ -> true | Element _ -> false) e.children

(* The one element printer.  [depth >= 0] indents the element at that
   depth and ends it with a newline; [depth < 0] prints it inline, with
   no inserted whitespace, as compact mode does everywhere. *)
let print ~decl ~pretty n =
  let buf = Buffer.create 256 in
  if decl then Buffer.add_string buf xml_decl;
  let indent depth =
    for _ = 1 to 2 * depth do
      Buffer.add_char buf ' '
    done
  in
  let rec go depth = function
    | Text s -> add_escaped buf s
    | Element e ->
      indent depth;
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      add_attrs buf e.attrs;
      (match e.children with
      | [] -> Buffer.add_string buf "/>"
      | children ->
        let inner = if depth < 0 || has_text_child e then -1 else depth + 1 in
        Buffer.add_char buf '>';
        if inner >= 0 then Buffer.add_char buf '\n';
        go_list inner children;
        if inner >= 0 then indent depth;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_char buf '>');
      if depth >= 0 then Buffer.add_char buf '\n'
  and go_list depth = function
    | [] -> ()
    | n :: rest ->
      go depth n;
      go_list depth rest
  in
  go (if pretty then 0 else -1) n;
  Buffer.contents buf

let to_string ?(decl = false) n = print ~decl ~pretty:false n
let to_string_pretty ?(decl = false) n = print ~decl ~pretty:true n
