(* Reference implementations the fast paths are checked against, by the
   test suite and by fuzz.exe.

   [design_space] is the per-candidate enumeration that
   [Enumerate.design_space] replaced: every candidate matrix becomes a
   [Transform.v] and is analysed, a selection (one [Tl_par] task each)
   keeps the first matrix of each dataflow list that passes the
   exclusions, and the survivors are deduplicated on the identity
   signature and then on the canonical (D4) signature.  [matching_designs] is the per-candidate name lookup
   that [Search.matching_designs] replaced. *)

open Tensorlib

let design_space ?max_unselected ?(exclude_unicast = false) ?max_bank_ports
    ?domains stmt =
  let depth = Stmt.depth stmt in
  let selections =
    List.filter
      (fun sel ->
        match max_unselected with
        | None -> true
        | Some k -> depth - Array.length sel <= k)
      (Search.selections stmt ~n:3)
  in
  let per_selection selected =
    let analyze = Design.analyzer stmt ~selected in
    let local : (Dataflow.t list, unit) Hashtbl.t = Hashtbl.create 512 in
    List.filter_map
      (fun m ->
        let d = analyze (Transform.v stmt ~selected ~matrix:m) in
        let dfs = List.map (fun ti -> ti.Design.dataflow) d.Design.tensors in
        let excluded =
          List.exists
            (fun df ->
              df = Dataflow.Reuse_full
              || (exclude_unicast && df = Dataflow.Unicast))
            dfs
          ||
          match max_bank_ports with
          | None -> false
          | Some limit -> (Inventory.of_design d).Inventory.bank_ports > limit
        in
        if excluded || Hashtbl.mem local dfs then None
        else begin
          Hashtbl.add local dfs ();
          Some (d, Signature.identity_signature d)
        end)
      (Search.candidate_matrices ~n:3)
  in
  let seen_id : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  Tl_par.map ?domains ~label:"dse-enumerate" per_selection selections
  |> List.concat
  |> List.filter_map (fun (d, id_sig) ->
      if Hashtbl.mem seen_id id_sig then None
      else begin
        Hashtbl.add seen_id id_sig ();
        let s = Signature.signature d in
        if Hashtbl.mem seen s then None
        else begin
          Hashtbl.add seen s ();
          Some { Enumerate.design = d; signature = s }
        end
      end)

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
      | _ -> false)

let matching_designs stmt name =
  match String.index_opt name '-' with
  | None -> invalid_arg "Oracle.matching_designs: no dash"
  | Some i -> (
    let label = String.sub name 0 i in
    let letters = String.sub name (i + 1) (String.length name - i - 1) in
    match Search.selection_of_label stmt label with
    | exception Not_found -> []
    | selected ->
      let analyze = Design.analyzer stmt ~selected in
      let collect ~loose =
        List.filter_map
          (fun m ->
            let d = analyze (Transform.v stmt ~selected ~matrix:m) in
            let dfs = List.map (fun ti -> ti.Design.dataflow) d.Design.tensors in
            if
              List.length dfs = String.length letters
              && List.for_all2
                   (fun df ch -> letter_matches ~loose df ch)
                   dfs
                   (List.init (String.length letters) (String.get letters))
            then Some d
            else None)
          (Search.candidate_matrices ~n:(Array.length selected))
      in
      match collect ~loose:false with [] -> collect ~loose:true | l -> l)

let best_supported_design stmt (baseline : Baselines.t) =
  let candidates =
    List.concat_map
      (fun selected ->
        List.filter_map
          (fun m ->
            let d = Design.analyze (Transform.v stmt ~selected ~matrix:m) in
            if baseline.Baselines.supports d then Some d else None)
          (Search.candidate_matrices ~n:3))
      (Search.selections stmt ~n:3)
  in
  let seen = Hashtbl.create 32 in
  List.filter
    (fun d ->
      let name = d.Design.name in
      if Hashtbl.mem seen name then false
      else begin
        Hashtbl.add seen name ();
        true
      end)
    candidates
  |> List.fold_left
       (fun best d ->
         let r = Perf.evaluate d in
         match best with
         | None -> Some (d, r)
         | Some (_, rb) -> if r.Perf.cycles < rb.Perf.cycles then Some (d, r) else best)
       None
