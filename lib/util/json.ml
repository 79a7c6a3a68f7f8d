type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Shortest representation that round-trips; JSON has no non-finite
   numbers, so those become null. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec emit buf ~indent ~level v =
  let pad n = String.make (n * indent) ' ' in
  let newline_sep = indent > 0 in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> Buffer.add_string buf (escape_string s)
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          if newline_sep then begin
            Buffer.add_char buf '\n';
            Buffer.add_string buf (pad (level + 1))
          end;
          emit buf ~indent ~level:(level + 1) item)
        items;
      if newline_sep then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad level)
      end;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          if newline_sep then begin
            Buffer.add_char buf '\n';
            Buffer.add_string buf (pad (level + 1))
          end;
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf (if newline_sep then ": " else ":");
          emit buf ~indent ~level:(level + 1) item)
        fields;
      if newline_sep then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad level)
      end;
      Buffer.add_char buf '}'

let to_string ?(indent = 2) v =
  let buf = Buffer.create 256 in
  emit buf ~indent ~level:0 v;
  Buffer.contents buf

let to_channel ?indent oc v =
  output_string oc (to_string ?indent v);
  output_char oc '\n'

let to_file path v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc v)
