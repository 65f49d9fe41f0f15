(* Enumerate full-rank {-1,0,1} matrices once per dimension. *)
let cache : (int, int list list list) Hashtbl.t = Hashtbl.create 4

(* Search order: light matrices first, then fewest negative entries, then
   lexicographically largest (puts identity-like matrices ahead). *)
let weight m =
  let sum f =
    List.fold_left
      (fun acc row -> List.fold_left (fun a x -> a + f x) acc row)
      0 m
  in
  (sum abs, sum (fun x -> if x < 0 then 1 else 0), List.map (List.map (fun x -> -x)) m)

let full_rank m =
  match m with
  | [ [ a; b ]; [ c; d ] ] -> (a * d) - (b * c) <> 0
  | [ [ a; b; c ]; [ d; e; f ]; [ g; h; i ] ] ->
    (a * ((e * i) - (f * h))) - (b * ((d * i) - (f * g)))
    + (c * ((d * h) - (e * g)))
    <> 0
  | _ ->
    let mat = Tl_linalg.Mat.of_int_rows m in
    not (Tl_linalg.Rat.is_zero (Tl_linalg.Mat.det mat))

let candidate_matrices ~n =
  match Hashtbl.find_opt cache n with
  | Some ms -> ms
  | None ->
    let cells = n * n in
    let all = ref [] in
    (* count in base 3 over the cells; entries are digit - 1 *)
    let digits = Array.make cells 0 in
    let total = int_of_float (3. ** float_of_int cells) in
    for code = 0 to total - 1 do
      let c = ref code in
      for i = 0 to cells - 1 do
        digits.(i) <- (!c mod 3) - 1;
        c := !c / 3
      done;
      let m =
        List.init n (fun i -> List.init n (fun j -> digits.((i * n) + j)))
      in
      if full_rank m then all := m :: !all
    done;
    let ms =
      List.stable_sort (fun a b -> compare (weight a) (weight b)) (List.rev !all)
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

let split_name name =
  match String.index_opt name '-' with
  | None -> invalid_arg "Search: dataflow name must be <SEL>-<LETTERS>"
  | Some i ->
    (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))

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

let design_matches ~loose d target_letters =
  let dfs =
    List.map (fun ti -> ti.Design.dataflow) d.Design.tensors
  in
  List.length dfs = String.length target_letters
  && List.for_all2
       (fun df ch -> letter_matches ~loose df ch)
       dfs
       (List.init (String.length target_letters) (String.get target_letters))

let matching_designs_uncached stmt name =
  let label, target_letters = split_name name in
  match selection_of_label stmt label with
  | exception Not_found -> []
  | selected ->
    let n = Array.length selected in
    let analyze = Design.analyzer stmt ~selected in
    let collect ~loose =
      List.filter_map
        (fun m ->
          let t = Transform.v stmt ~selected ~matrix:m in
          let d = analyze t in
          if design_matches ~loose d target_letters then Some d else None)
        (candidate_matrices ~n)
    in
    (match collect ~loose:false with
     | [] -> collect ~loose:true
     | strict -> strict)

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
   matrix) in search order that realises it, sorted by name.  Names read
   iterator initials and access matrices, never extents or tensor names,
   so one plan serves every extent binding of an einsum. *)
type plan = (string * int array * int list list) list

let build_plan ~budget ~sels stmt =
  let accesses = stmt.Tl_ir.Stmt.inputs @ [ stmt.Tl_ir.Stmt.output ] in
  let table = Hashtbl.create 64 in
  List.iter
    (fun selected ->
      let label = Transform.label_of stmt selected ^ "-" in
      let preps =
        Array.of_list (List.map (Reuse.prepare ~selected) accesses)
      in
      let n = Array.length selected in
      (* one scratch matrix refilled per candidate: classification reads
         it and keeps nothing, so the sweep allocates no matrices *)
      let im = Array.make_matrix n n 0 in
      List.iter
        (fun m ->
          Tl_resil.Budget.check budget;
          List.iteri
            (fun i row -> List.iteri (fun j x -> im.(i).(j) <- x) row)
            m;
          let name =
            label
            ^ String.init (Array.length preps) (fun i ->
                  Dataflow.letter (Reuse.classify_matrix preps.(i) im))
          in
          if not (Hashtbl.mem table name) then
            Hashtbl.add table name (selected, m))
        (candidate_matrices ~n))
    sels;
  Hashtbl.fold (fun name (sel, m) acc -> (name, sel, m) :: acc) table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

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
      ([ s ],
       String.concat "," (Array.to_list (Array.map string_of_int s)))
    | None -> (selections stmt ~n:3, "*")
  in
  let key = Signature.structure_fingerprint stmt ^ "#sel" ^ sel_key in
  let plan =
    Tl_par.Cache.find_or_add plan_cache key (fun () ->
        build_plan ~budget ~sels stmt)
  in
  (* realise against the caller's own statement, so its extents reach
     the transforms; names and dataflows read no extents and so match
     the plan's *)
  let analyzers = ref [] in
  let analyzer selected =
    match List.assoc_opt selected !analyzers with
    | Some a -> a
    | None ->
      let a = Design.analyzer stmt ~selected in
      analyzers := (selected, a) :: !analyzers;
      a
  in
  List.map
    (fun (name, selected, matrix) ->
      (name, analyzer selected (Transform.v stmt ~selected ~matrix)))
    plan
