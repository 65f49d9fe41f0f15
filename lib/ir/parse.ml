exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* --- tiny scanner ------------------------------------------------- *)

type token =
  | Ident of string
  | Int of int
  | Lbracket
  | Rbracket
  | Comma
  | Plus_eq
  | Plus
  | Star

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let i = ref 0 in
  let peek () = if !i < n then Some src.[!i] else None in
  while !i < n do
    (match src.[!i] with
     | ' ' | '\t' | '\n' -> incr i
     | '[' ->
       tokens := Lbracket :: !tokens;
       incr i
     | ']' ->
       tokens := Rbracket :: !tokens;
       incr i
     | ',' ->
       tokens := Comma :: !tokens;
       incr i
     | '*' ->
       tokens := Star :: !tokens;
       incr i
     | '+' ->
       incr i;
       if peek () = Some '=' then begin
         tokens := Plus_eq :: !tokens;
         incr i
       end
       else tokens := Plus :: !tokens
     | '0' .. '9' ->
       let start = !i in
       while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
         incr i
       done;
       let digits = String.sub src start (!i - start) in
       (match int_of_string_opt digits with
        | Some c -> tokens := Int c :: !tokens
        | None -> fail "the coefficient %s does not fit in an int" digits)
     | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
       let start = !i in
       let is_ident c =
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_'
       in
       while !i < n && is_ident src.[!i] do
         incr i
       done;
       tokens := Ident (String.sub src start (!i - start)) :: !tokens
     | c -> fail "unexpected character '%c'" c)
  done;
  List.rev !tokens

(* --- recursive-descent parser ------------------------------------- *)

type term = { coeff : int; iter : string }

type access_ast = { tensor : string; dims : term list list }

let parse_formula tokens =
  let toks = ref tokens in
  let next () =
    match !toks with
    | [] -> None
    | t :: rest ->
      toks := rest;
      Some t
  in
  let expect what = function
    | Some t -> t
    | None -> fail "unexpected end of formula (wanted %s)" what
  in
  (* term := [int] ident   (2y means coefficient 2 on iterator y) *)
  let parse_term first =
    match first with
    | Int c -> (
      match next () with
      | Some (Ident it) -> { coeff = c; iter = it }
      | _ -> fail "coefficient %d must be followed by an iterator" c)
    | Ident it -> { coeff = 1; iter = it }
    | _ -> fail "expected an index term"
  in
  (* dim := term (+ term)* *)
  let rec parse_dim acc =
    match next () with
    | Some Comma -> (List.rev acc, `More)
    | Some Rbracket -> (List.rev acc, `Done)
    | Some Plus -> parse_dim acc
    | Some t -> parse_dim (parse_term t :: acc)
    | None -> fail "unterminated index expression"
  in
  let parse_access name =
    (match expect "'['" (next ()) with
     | Lbracket -> ()
     | _ -> fail "tensor %s must be followed by '['" name);
    let rec dims acc =
      match parse_dim [] with
      | [], _ -> fail "empty index expression in %s" name
      | d, `More -> dims (d :: acc)
      | d, `Done -> List.rev (d :: acc)
    in
    { tensor = name; dims = dims [] }
  in
  let output =
    match expect "output tensor" (next ()) with
    | Ident name -> parse_access name
    | _ -> fail "formula must start with the output tensor"
  in
  (match expect "'+='" (next ()) with
   | Plus_eq -> ()
   | _ -> fail "expected '+=' after the output access");
  let rec inputs acc =
    let a =
      match expect "input tensor" (next ()) with
      | Ident name -> parse_access name
      | _ -> fail "expected an input tensor"
    in
    match next () with
    | None -> List.rev (a :: acc)
    | Some Star -> inputs (a :: acc)
    | Some _ -> fail "expected '*' or end of formula after %s" a.tensor
  in
  (output, inputs [])

(* --- elaboration --------------------------------------------------- *)

let stmt ?name src ~extents =
  let output_ast, input_asts = parse_formula (tokenize src) in
  let iters =
    List.fold_left
      (fun acc (n, e) ->
        if n = "" then fail "empty iterator name in extents";
        if e <= 0 then fail "extent of %s must be positive; got %d" n e;
        if List.exists (fun (i : Iter.t) -> String.equal i.Iter.name n) acc
        then fail "iterator %s is declared twice in extents" n;
        Iter.v n e :: acc)
      [] extents
    |> List.rev
  in
  let pos name =
    match Iter.index_of iters name with
    | i -> i
    | exception Not_found ->
      fail "iterator %s is not declared in extents" name
  in
  let depth = List.length iters in
  let build (a : access_ast) =
    let matrix =
      Array.of_list
        (List.map
           (fun dim ->
             let row = Array.make depth 0 in
             List.iter
               (fun { coeff; iter } ->
                 if coeff <= 0 then fail "non-positive coefficient on %s" iter;
                 let j = pos iter in
                 if row.(j) > max_int - coeff then
                   fail "the coefficient of %s in %s does not fit in an int"
                     iter a.tensor;
                 row.(j) <- row.(j) + coeff)
               dim;
             row)
           a.dims)
    in
    Access.v a.tensor matrix
  in
  let name = match name with Some n -> n | None -> output_ast.tensor in
  (* every tensor's shape is an int: [Access.shape] raises rather than wrap *)
  let shaped s =
    List.iter (fun a -> ignore (Access.shape a iters)) (Stmt.tensors s);
    s
  in
  match
    shaped
      (Stmt.v name ~iters ~output:(build output_ast)
         ~inputs:(List.map build input_asts))
  with
  | s -> s
  | exception Invalid_argument m -> fail "%s" m

(* --- names and numbers at the input boundary ------------------------ *)

let decimal s =
  let n = String.length s in
  let rec digits i =
    i = n || (s.[i] >= '0' && s.[i] <= '9' && digits (i + 1))
  in
  let first = if n > 0 && s.[0] = '-' then 1 else 0 in
  (* digits only, so [int_of_string_opt] refuses a value past an int
     instead of wrapping it as it does a hex literal *)
  if first < n && digits first then int_of_string_opt s else None

let extents s =
  List.map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] -> (
        match decimal (String.trim v) with
        | Some n -> (String.trim k, n)
        | None -> fail "bad extent binding: %s" kv)
      | _ -> fail "bad extent binding: %s" kv)
    (String.split_on_char ',' s)

(* Levenshtein distance: the candidate sets are a few short words, so the
   textbook O(|a|·|b|) table is plenty *)
let distance a b =
  let la = String.length a and lb = String.length b in
  let row = Array.init (lb + 1) Fun.id in
  for i = 1 to la do
    let diag = ref row.(0) in
    row.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      let v = min (min (row.(j) + 1) (row.(j - 1) + 1)) (!diag + cost) in
      diag := row.(j);
      row.(j) <- v
    done
  done;
  row.(lb)

let suggest ~valid s =
  let s = String.lowercase_ascii (String.trim s) in
  if s = "" then ""
  else
    match
      List.sort compare
        (List.map (fun c -> (distance s (String.lowercase_ascii c), c)) valid)
    with
    | (d, c) :: _ when d <= 2 -> Printf.sprintf "; did you mean %S?" c
    | _ -> ""
