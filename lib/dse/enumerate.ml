type point = {
  design : Tl_stt.Design.t;
  signature : string;
}

(* Two designs whose interconnects differ only by a rotation/reflection of
   the square array are the same hardware; canonicalisation under the
   dihedral group D4 lives in {!Tl_stt.Signature}. *)
let signature = Tl_stt.Signature.signature

let design_space ?(exclude_unicast = false) ?domains
    ?(budget = Tl_resil.Budget.unlimited) stmt =
  let selections = Tl_stt.Search.selections stmt ~n:3 in
  (* the exclusion reads the dataflow list alone, so it is decided once
     per distinct list *)
  let excluded dfs =
    List.exists
      (fun df ->
        df = Tl_stt.Dataflow.Reuse_full
        || (exclude_unicast && df = Tl_stt.Dataflow.Unicast))
      dfs
  in
  (* each selection's sweep is its own task; the dedup below stays
     sequential over the (selection-order, matrix-order) stream, so the
     kept representatives and their order do not depend on [domains] *)
  let per_selection selected =
    ( selected,
      List.filter
        (fun (_, dfs) -> not (excluded dfs))
        (Tl_stt.Search.distinct_flows ~budget stmt ~selected) )
  in
  (* Two points are one architecture iff some D4 symmetry maps one's
     (selection label, dataflow list) onto the other's, directions
     mapped raw, which is exactly when their canonical signatures agree.
     With labels and dataflows numbered, a kept point marks its eight
     images seen, and a later point is a repeat iff its own key is seen;
     only the kept points pay for a transform, a design and the
     canonical render. *)
  let numbers tbl x =
    match Hashtbl.find_opt tbl x with
    | Some i -> i
    | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl x i;
      i
  in
  let label_ids = Hashtbl.create 16 and flow_ids = Hashtbl.create 64 in
  (* a dataflow's number -> the numbers of its images, in [d4] order *)
  let flow_images : (int, int array) Hashtbl.t = Hashtbl.create 64 in
  let images_of df =
    let id = numbers flow_ids df in
    match Hashtbl.find_opt flow_images id with
    | Some images -> images
    | None ->
      let images =
        Array.of_list
          (List.map
             (fun sym ->
               numbers flow_ids (Tl_stt.Signature.map_dataflow sym df))
             Tl_stt.Signature.d4)
      in
      Hashtbl.add flow_images id images;
      images
  in
  let seen : (int array, unit) Hashtbl.t = Hashtbl.create 4096 in
  let key label images k =
    Array.of_list (label :: List.map (fun im -> im.(k)) images)
  in
  Tl_par.map ?domains ~label:"dse-enumerate" per_selection selections
  |> List.concat_map (fun (selected, kept) ->
      let label =
        numbers label_ids (Tl_stt.Transform.label_of stmt selected)
      in
      List.filter_map
        (fun (matrix, dfs) ->
          let images = List.map images_of dfs in
          (* [d4] starts with the identity *)
          if Hashtbl.mem seen (key label images 0) then None
          else begin
            List.iteri
              (fun k _ -> Hashtbl.replace seen (key label images k) ())
              Tl_stt.Signature.d4;
            let d =
              Tl_stt.Design.of_dataflows
                (Tl_stt.Transform.v stmt ~selected ~matrix)
                dfs
            in
            Some { design = d; signature = signature d }
          end)
        kept)

(* A point is dominated iff some point has both objectives <= with one
   strict: either a strictly smaller x with y' <= y, or an equal x with a
   strictly smaller y.  One sweep over the points sorted by (x, y) decides
   both cases — running min-y over strictly-smaller x, and the group's
   min-y for equal x — in O(n log n) instead of the all-pairs scan.
   Output keeps the input order; points with equal projections never
   dominate each other, so duplicates are all kept, exactly as the
   quadratic reference did. *)
let pareto_min project items =
  match items with
  | [] -> []
  | _ ->
    let proj = Array.of_list (List.map project items) in
    let n = Array.length proj in
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        let x1, y1 = proj.(i) and x2, y2 = proj.(j) in
        match compare x1 x2 with 0 -> compare y1 y2 | c -> c)
      order;
    let keep = Array.make n true in
    let min_y_before = ref infinity in
    let i = ref 0 in
    while !i < n do
      let x0 = fst proj.(order.(!i)) in
      let group_min_y = snd proj.(order.(!i)) in
      let j = ref !i in
      while !j < n && fst proj.(order.(!j)) = x0 do
        let y = snd proj.(order.(!j)) in
        if !min_y_before <= y || group_min_y < y then
          keep.(order.(!j)) <- false;
        incr j
      done;
      if group_min_y < !min_y_before then min_y_before := group_min_y;
      i := !j
    done;
    List.filteri (fun k _ -> keep.(k)) items
