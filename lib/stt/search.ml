let rec pow3 k = if k = 0 then 1 else 3 * pow3 (k - 1)

(* Enumerate full-rank {-1,0,1} matrices once per dimension.  Sweeps run
   on [Tl_par] domains, so the first call may come from any of them. *)
let cache : (int, int list list list) Hashtbl.t = Hashtbl.create 4
let cache_lock = Mutex.create ()

(* Search order: light matrices first, then fewest negative entries, then
   lexicographically largest (puts identity-like matrices ahead).  One
   integer per matrix carries that order: the absolute-entry sum, then
   the negative count, then the negated entries (row-major, each shifted
   to 0..2) read as a base-3 number, which differs between any two
   matrices. *)
let candidate_matrices ~n =
  if n < 2 || n > 3 then
    invalid_arg
      (Printf.sprintf "Search.candidate_matrices: n must be 2 or 3; got %d" n);
  Mutex.protect cache_lock @@ fun () ->
  match Hashtbl.find_opt cache n with
  | Some ms -> ms
  | None ->
    let cells = n * n in
    let radix = pow3 cells in
    (* [e.(i)]: entry of cell [i] (row-major) of the matrix with base-3
       code [code], cell 0 most significant *)
    let e = Array.make cells 0 in
    let keyed = ref [] in
    for code = 0 to radix - 1 do
      let c = ref code in
      for i = cells - 1 downto 0 do
        e.(i) <- (!c mod 3) - 1;
        c := !c / 3
      done;
      let full_rank =
        if n = 2 then (e.(0) * e.(3)) - (e.(1) * e.(2)) <> 0
        else
          (e.(0) * ((e.(4) * e.(8)) - (e.(5) * e.(7))))
          - (e.(1) * ((e.(3) * e.(8)) - (e.(5) * e.(6))))
          + (e.(2) * ((e.(3) * e.(7)) - (e.(4) * e.(6))))
          <> 0
      in
      if full_rank then begin
        let abs_sum = Array.fold_left (fun a x -> a + abs x) 0 e in
        let negatives =
          Array.fold_left (fun a x -> if x < 0 then a + 1 else a) 0 e
        in
        (* negating an entry maps its digit [d] to [2 - d] *)
        let key =
          ((((abs_sum * (cells + 1)) + negatives) * radix) + radix - 1 - code)
        in
        keyed :=
          (key, List.init n (fun i -> List.init n (fun j -> e.((i * n) + j))))
          :: !keyed
      end
    done;
    let ms =
      List.map snd
        (List.sort (fun (a, _) (b, _) -> Int.compare a b) !keyed)
    in
    Hashtbl.add cache n ms;
    ms

let selections stmt ~n =
  let depth = Tl_ir.Stmt.depth stmt in
  let rec choose start k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun i ->
          List.map (fun rest -> i :: rest) (choose (i + 1) (k - 1)))
        (List.init (depth - start) (fun d -> start + d))
  in
  List.map Array.of_list (choose 0 n)

let selection_of_label stmt label =
  let iters = Array.of_list stmt.Tl_ir.Stmt.iters in
  let find_initial ch =
    let matches = ref [] in
    Array.iteri
      (fun i it ->
        if Char.uppercase_ascii it.Tl_ir.Iter.name.[0] = ch then
          matches := i :: !matches)
      iters;
    match !matches with
    | [ i ] -> i
    | [] -> raise Not_found
    | several -> (
      (* tiled nests contain both "m" and "mo": prefer the exact
         single-letter iterator *)
      let exact =
        List.filter
          (fun i ->
            String.lowercase_ascii iters.(i).Tl_ir.Iter.name
            = String.make 1 (Char.lowercase_ascii ch))
          several
      in
      match exact with
      | [ i ] -> i
      | [] | _ :: _ ->
        invalid_arg "Search.selection_of_label: ambiguous initial")
  in
  Array.init (String.length label) (fun k ->
      find_initial (Char.uppercase_ascii label.[k]))

(* A selection names two or three distinct iterators of the statement:
   its candidate matrices are 2×2 or 3×3. *)
let valid_selection stmt selected =
  let n = Array.length selected in
  let depth = Tl_ir.Stmt.depth stmt in
  (n = 2 || n = 3)
  && Array.for_all (fun i -> i >= 0 && i < depth) selected
  && List.length (List.sort_uniq Int.compare (Array.to_list selected)) = n

let check_selection stmt selected =
  if not (valid_selection stmt selected) then
    invalid_arg
      (Printf.sprintf
         "Search: selection [%s] must name 2 or 3 distinct iterators of %s"
         (String.concat ";" (Array.to_list (Array.map string_of_int selected)))
         stmt.Tl_ir.Stmt.name)

(* ------------------------------------------------------------------ *)
(* The classification sweep.

   [Reuse.classify_matrix] reads a matrix only through the images [T·v]
   of the tensor's null-basis vectors, and over the candidate matrices a
   tensor meets few distinct images.  So each tensor keeps a memo from
   packed images to classes and classifies a matrix only when its images
   are new.  A class is a dataflow and its number within the tensor:
   equal numbers, equal dataflows, and one shared value per dataflow.

   Row [i] of [T] gives coordinate [i] of every image, so the packed
   images are a sum of one term per row, tabulated per row value: a
   candidate costs a lookup and an add per row and tensor.  A row is
   named by its base-3 code, first entry most significant. *)

module Int_tbl = Hashtbl.Make (Int)

type tensor_classes = {
  prep : Reuse.prepared;
  terms : int array array option;
      (** [terms.(i).(code)]: the packed-image term of row [i] holding
          the row with that code; [None] when images may not pack *)
  by_image : (int * Dataflow.t) Int_tbl.t;
  by_flow : (Dataflow.t, int * Dataflow.t) Hashtbl.t;
}

(* Every coordinate of every image packs into 6 bits as [x + 31], image
   [v] coordinate [i] at bit [6 (v n + i)]: at most 3 × 3 coordinates,
   54 bits.  The packing is exact when no row can push a coordinate out
   of -31..31; otherwise (an image past [max_int] included) the tensor
   goes without a memo rather than risk a colliding key. *)
let row_terms prep rows ~n =
  (* the images of the matrix whose rows all equal [r] hold [r·v] in
     every coordinate *)
  match Array.map (fun r -> Reuse.images prep (Array.make n r)) rows with
  | exception Reuse.Overflow _ -> None
  | images when
      Array.exists (Array.exists (Array.exists (fun x -> abs x > 31))) images
    -> None
  | images ->
    Some
      (Array.init n (fun i ->
           Array.map
             (fun per_vector ->
               let term = ref 0 in
               Array.iteri
                 (fun v image ->
                   term := !term + ((image.(i) + 31) lsl (6 * ((v * n) + i))))
                 per_vector;
               !term)
             images))

let intern tc df =
  match Hashtbl.find_opt tc.by_flow df with
  | Some c -> c
  | None ->
    let c = (Hashtbl.length tc.by_flow, df) in
    Hashtbl.add tc.by_flow df c;
    c

let classify_rows tc rows codes =
  intern tc (Reuse.classify_matrix tc.prep (Array.map (fun c -> rows.(c)) codes))

let classify tc rows codes =
  match tc.terms with
  | None -> classify_rows tc rows codes
  | Some terms -> (
    let key = ref 0 in
    for i = 0 to Array.length codes - 1 do
      key := !key + terms.(i).(codes.(i))
    done;
    match Int_tbl.find tc.by_image !key with
    | c -> c
    | exception Not_found ->
      let c = classify_rows tc rows codes in
      Int_tbl.add tc.by_image !key c;
      c)

let sweep ~budget stmt ~selected f =
  check_selection stmt selected;
  let n = Array.length selected in
  let rows =
    Array.init (pow3 n) (fun code ->
        Array.init n (fun j -> (code / pow3 (n - 1 - j) mod 3) - 1))
  in
  let tensors =
    Array.of_list
      (List.map
         (fun access ->
           let prep = Reuse.prepare ~selected access in
           { prep;
             terms = row_terms prep rows ~n;
             by_image = Int_tbl.create 64;
             by_flow = Hashtbl.create 16 })
         (stmt.Tl_ir.Stmt.inputs @ [ stmt.Tl_ir.Stmt.output ]))
  in
  let codes = Array.make n 0 in
  let ids = Array.make (Array.length tensors) 0 in
  let dfs = Array.make (Array.length tensors) Dataflow.Unicast in
  List.iter
    (fun m ->
      Tl_resil.Budget.check budget;
      List.iteri
        (fun i row ->
          codes.(i) <- List.fold_left (fun c x -> (3 * c) + x + 1) 0 row)
        m;
      for t = 0 to Array.length tensors - 1 do
        let id, df = classify tensors.(t) rows codes in
        ids.(t) <- id;
        dfs.(t) <- df
      done;
      f m ids dfs)
    (candidate_matrices ~n)

let distinct_flows ~budget stmt ~selected =
  let seen = Hashtbl.create 256 in
  let firsts = ref [] in
  sweep ~budget stmt ~selected (fun m ids dfs ->
      if not (Hashtbl.mem seen ids) then begin
        Hashtbl.add seen (Array.copy ids) ();
        firsts := (m, Array.to_list dfs) :: !firsts
      end);
  List.rev !firsts

(* ------------------------------------------------------------------ *)
(* Dataflow names. *)

(* [Some (selection, letters)] for a well-formed name, [None] when an
   initial names no iterator (the name is then not realisable). *)
let parse_name stmt name =
  let fail why = invalid_arg (Printf.sprintf "dataflow name %S: %s" name why) in
  match String.index_opt name '-' with
  | None -> fail "expected <SELECTION>-<LETTERS>, e.g. MNK-SST"
  | Some i -> (
    let label = String.sub name 0 i in
    let letters = String.sub name (i + 1) (String.length name - i - 1) in
    match selection_of_label stmt label with
    | exception Not_found -> None
    | selected ->
      if not (valid_selection stmt selected) then
        fail
          (Printf.sprintf
             "the selection %S must name 2 or 3 distinct iterators" label);
      Some (selected, letters))

(* The paper sometimes labels a 2-D-reuse tensor with the letter of its
   dominant 1-D component (e.g. Conv2D "XYP-MST" where the weight's reuse is
   2-D systolic+multicast but written S).  Loose matching accepts those. *)
let letter_matches ~loose (df : Dataflow.t) target =
  Dataflow.letter df = target
  || (loose
      &&
      match df with
      | Dataflow.Reuse2d Dataflow.Broadcast -> target = 'M'
      | Dataflow.Reuse2d (Dataflow.Multicast_stationary _) ->
        target = 'M' || target = 'T'
      | Dataflow.Reuse2d (Dataflow.Systolic_multicast _) ->
        target = 'S' || target = 'M'
      | Dataflow.Unicast | Dataflow.Stationary _ | Dataflow.Systolic _
      | Dataflow.Multicast _ | Dataflow.Reuse_full -> false)

(* [dfs] and [letters] have equal lengths *)
let spells ~loose dfs letters =
  let rec go i =
    i = Array.length dfs
    || (letter_matches ~loose dfs.(i) letters.[i] && go (i + 1))
  in
  go 0

let matching_designs_uncached stmt name =
  match parse_name stmt name with
  | None -> []
  | Some (_, letters)
    when String.length letters <> List.length stmt.Tl_ir.Stmt.inputs + 1 ->
    []
  | Some (selected, letters) ->
    (* strict matches win; loose ones are kept only while none is found *)
    let strict = ref [] and loose = ref [] in
    sweep ~budget:Tl_resil.Budget.unlimited stmt ~selected (fun m _ dfs ->
        if spells ~loose:false dfs letters then
          strict := (m, Array.to_list dfs) :: !strict
        else if !strict = [] && spells ~loose:true dfs letters then
          loose := (m, Array.to_list dfs) :: !loose);
    List.rev_map
      (fun (m, dfs) ->
        Design.of_dataflows (Transform.v stmt ~selected ~matrix:m) dfs)
      (if !strict <> [] then !strict else !loose)

(* name resolution sweeps every candidate matrix; memoise per (statement,
   name) so repeated lookups — evaluate_name, the figure benches, ASIC
   evaluation — pay the sweep once.  Designs are immutable, sharing is
   safe. *)
let match_cache : Design.t list Tl_par.Cache.t =
  Tl_par.Cache.create ~name:"stt.matching_designs" ()

let matching_designs stmt name =
  let key = Signature.stmt_fingerprint stmt ^ "!" ^ name in
  Tl_par.Cache.find_or_add match_cache key (fun () ->
      matching_designs_uncached stmt name)

let find_design stmt name =
  match matching_designs stmt name with
  | [] -> None
  | d :: _ -> Some d

let find_design_exn stmt name =
  match find_design stmt name with
  | Some d -> d
  | None -> raise Not_found

(* A plan is what an [all_designs] sweep learns that depends only on the
   statement's structure: for each dataflow name, the first (selection,
   matrix) in search order that realises it and its per-tensor
   dataflows, sorted by name.  Names and dataflows read iterator initials
   and access matrices, never extents or tensor names, so one plan
   serves every extent binding of an einsum. *)
type plan = (string * int array * int list list * Dataflow.t list) list

let build_plan ~budget ~sels stmt =
  let table = Hashtbl.create 64 in
  List.iter
    (fun selected ->
      let label = Transform.label_of stmt selected ^ "-" in
      (* a name is a function of the dataflow list, so the first matrix
         of a name is the first of one of its lists *)
      List.iter
        (fun (m, dfs) ->
          let name =
            label ^ String.of_seq (Seq.map Dataflow.letter (List.to_seq dfs))
          in
          if not (Hashtbl.mem table name) then
            Hashtbl.add table name (selected, m, dfs))
        (distinct_flows ~budget stmt ~selected))
    sels;
  Hashtbl.fold (fun name (sel, m, dfs) acc -> (name, sel, m, dfs) :: acc) table []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

(* [find_or_add] stores a plan only once its build returns, so a build
   cut short by the budget leaves no entry behind.  Keys come from client
   text in [serve], so the table is bounded: a plan takes at most a few
   tens of KB (its matrices are shared with [candidate_matrices]). *)
let plan_capacity = 256

let plan_cache : plan Tl_par.Cache.t =
  Tl_par.Cache.create ~capacity:plan_capacity ~name:"stt.search_plan" ()

let all_designs ?(budget = Tl_resil.Budget.unlimited) ?selection stmt =
  let sels, sel_key =
    match selection with
    | Some s ->
      check_selection stmt s;
      ([ s ],
       String.concat "," (Array.to_list (Array.map string_of_int s)))
    | None -> (selections stmt ~n:3, "*")
  in
  let key = Signature.structure_fingerprint stmt ^ "#sel" ^ sel_key in
  let plan =
    Tl_par.Cache.find_or_add plan_cache key (fun () ->
        build_plan ~budget ~sels stmt)
  in
  (* realise against the caller's own statement, so its extents and
     tensors reach the designs; names and dataflows read neither and so
     match the plan's *)
  List.map
    (fun (name, selected, matrix, dfs) ->
      (name, Design.of_dataflows (Transform.v stmt ~selected ~matrix) dfs))
    plan
