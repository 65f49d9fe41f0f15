(* Minimal JSON: just enough for the [tensorlib serve] request/response
   protocol (one object per line) and for the gate scripts that parse the
   sweep reports back.  No external dependency; numbers are floats, as in
   JSON itself.  The parser is strict about structure but deliberately
   forgiving about whitespace; any syntax error is a [Error _], never an
   exception. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  let n = String.length c.src in
  while
    c.pos < n
    && (match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> bad "expected %C at offset %d, found %C" ch c.pos x
  | None -> bad "expected %C at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else bad "bad literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> bad "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
      c.pos <- c.pos + 1;
      (match peek c with
       | None -> bad "unterminated escape"
       | Some ch ->
         c.pos <- c.pos + 1;
         (match ch with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            if c.pos + 4 > String.length c.src then bad "bad \\u escape";
            let hex = String.sub c.src c.pos 4 in
            c.pos <- c.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> bad "bad \\u escape %S" hex
            in
            (* encode the BMP code point as UTF-8 (surrogates untreated:
               the protocol carries ASCII identifiers) *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf
                (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | _ -> bad "bad escape \\%C" ch));
      go ()
    | Some ch ->
      c.pos <- c.pos + 1;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let n = String.length c.src in
  let is_num ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < n && is_num c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> bad "bad number %S at offset %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> bad "empty input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          members ((key, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          List.rev ((key, v) :: acc)
        | _ -> bad "expected ',' or '}' at offset %d" c.pos
      in
      Obj (members [])
    end
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          elements (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List.rev (v :: acc)
        | _ -> bad "expected ',' or ']' at offset %d" c.pos
      in
      List (elements [])
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok v
  | exception Bad m -> Error m

(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Identifiers, digests and structure strings need no escaping: append
   them whole. *)
let add_escaped buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

(* The digits of [v <= 0], most significant first; counting on the
   non-positive side covers [min_int].  The writer of
   [Tl_hw.Verilog.add_int], which this library does not link. *)
let rec add_digits buf v =
  if v <= -10 then add_digits buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (v mod 10)))

(* The bytes of [string_of_int v], written without allocating. *)
let add_int buf v =
  if v < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf v
  end
  else add_digits buf (-v)

(* Integral values below 1e15 print as integers, exactly as "%.0f" would
   (including "-0"), without going through [Printf]. *)
let add_number buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then Buffer.add_string buf "-0"
    else add_int buf (int_of_float f)
  else
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string buf (if Float.is_finite f then s else "null")

(* member [i] of an object, up to its value *)
let add_key buf i k =
  if i > 0 then Buffer.add_string buf ", ";
  Buffer.add_char buf '"';
  add_escaped buf k;
  Buffer.add_string buf "\": "

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> add_number buf f
  | Str s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List (x :: xs) ->
    Buffer.add_char buf '[';
    render buf x;
    render_tail buf xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    render_members buf kvs;
    Buffer.add_char buf '}'

and render_members buf kvs =
  List.iteri
    (fun i (k, v) ->
      add_key buf i k;
      render buf v)
    kvs

(* the elements after a list's first, each behind its separator *)
and render_tail buf = function
  | [] -> ()
  | x :: xs ->
    Buffer.add_string buf ", ";
    render buf x;
    render_tail buf xs

let to_string v =
  let buf = Buffer.create 256 in
  render buf v;
  Buffer.contents buf

let output_with_text oc kvs (key, text) =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  render_members buf kvs;
  add_key buf (List.length kvs) key;
  Buffer.output_buffer oc buf;
  output_string oc text;
  output_char oc '}'

(* ------------------------------------------------------------------ *)
(* Accessors. *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let string_opt = function Str s -> Some s | _ -> None

let number_opt = function Num f -> Some f | _ -> None

let int_opt = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let mem_string j key = Option.bind (member key j) string_opt
let mem_number j key = Option.bind (member key j) number_opt
let mem_int j key = Option.bind (member key j) int_opt
