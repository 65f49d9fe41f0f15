module Schedule = Tl_templates.Schedule
module Geometry = Tl_templates.Geometry

type config = {
  rows : int;
  cols : int;
  freq_mhz : float;
  bandwidth_gbps : float;
  elem_bytes : int;
  scratchpad_kbytes : float;
}

let default_config =
  { rows = 16; cols = 16; freq_mhz = 320.; bandwidth_gbps = 32.;
    elem_bytes = 2; scratchpad_kbytes = 256. }

type result = {
  design_name : string;
  tile : int array;
  selected_passes : int;
  total_passes : int;
  span : int;
  tail : int;
  cycles : float;
  macs : int;
  utilization : float;
  normalized_perf : float;
  bw_stall_factor : float;
  words_per_cycle : float;
  runtime_us : float;
  gops : float;
  pipelined_cycles : float;
  pipelined_perf : float;
  traffic_words : (string * float) list;
      (* scratchpad<->array words over the whole run, per tensor *)
}

(* ---------------------------------------------------------------- *)
(* Tile statement: selected loops shrunk to the tile, unselected = 1 *)

let tile_stmt stmt selected tile =
  let iters =
    List.mapi
      (fun i (it : Tl_ir.Iter.t) ->
        let ext =
          match Array.to_list selected |> List.mapi (fun k s -> (k, s))
                |> List.find_opt (fun (_, s) -> s = i)
          with
          | Some (k, _) -> tile.(k)
          | None -> 1
        in
        Tl_ir.Iter.v it.Tl_ir.Iter.name ext)
      stmt.Tl_ir.Stmt.iters
  in
  Tl_ir.Stmt.v stmt.Tl_ir.Stmt.name ~iters ~output:stmt.Tl_ir.Stmt.output
    ~inputs:stmt.Tl_ir.Stmt.inputs

(* bounding-box feasibility and analytic span from the (integer) matrix
   rows; monotone nondecreasing in every tile dimension *)
let row_extent imatrix row tile =
  let n = Array.length tile in
  let acc = ref 1 in
  let r = imatrix.(row) in
  for j = 0 to n - 1 do
    acc := !acc + (abs r.(j) * (tile.(j) - 1))
  done;
  !acc

let candidate_sizes extent limit =
  let base =
    [ 1; 2; 3; 4; 5; 6; 7; 8; 10; 12; 14; 16; 24; 32; 48; 64; 96; 128;
      192; 256; 384; 512 ]
  in
  List.sort_uniq compare
    (List.filter (fun s -> s <= extent && s <= limit) (min extent limit :: base))

(* working-set estimate of a tile: sum of per-tensor bounding boxes;
   monotone nondecreasing in every tile dimension *)
let tile_working_set (design : Tl_stt.Design.t) selected tile =
  List.fold_left
    (fun acc (ti : Tl_stt.Design.tensor_info) ->
      let am = ti.Tl_stt.Design.access.Tl_ir.Access.matrix in
      let per_dim = ref 1 in
      for i = 0 to Array.length am - 1 do
        let e = ref 1 in
        let row = am.(i) in
        Array.iteri
          (fun k s -> e := !e + (abs row.(s) * (tile.(k) - 1)))
          selected;
        per_dim := !per_dim * !e
      done;
      acc + !per_dim)
    0 design.Tl_stt.Design.tensors

(* ---------------------------------------------------------------- *)
(* Exact per-tile statistics via the elaboration schedule.           *)

type tile_stats = {
  t_span : int;
  active_pes : int;
  active_pe_cycles : int;
  busiest_pe : int;  (* events at the most-loaded PE: steady-state bound *)
  demand : float array;  (* memory words demanded per schedule cycle *)
  per_tensor : (string * float) list;  (* words per pass, by tensor *)
}

(* dense integer keys keep the per-tile statistics fast: tensor indices,
   PE positions and cycles are packed into single ints.  Packing that
   cannot represent its input raises instead of silently colliding. *)
let index_code idx =
  if Array.length idx > 4 then
    invalid_arg "Perf_model.index_code: more than 4 index components";
  Array.fold_left
    (fun acc v ->
      let v1 = v + 1 in
      if v1 < 0 || v1 >= 16384 then
        invalid_arg "Perf_model.index_code: index component out of range";
      (acc * 16384) + v1)
    7 idx

let pos_cycle_code (r, c) cycle =
  if r < 0 || r >= 0x20_0000 || c < 0 || c >= 0x20_0000 then
    invalid_arg "Perf_model.pos_cycle_code: PE coordinate out of range";
  if cycle < 0 || cycle >= 0x10_0000 then
    invalid_arg "Perf_model.pos_cycle_code: cycle out of range";
  (((cycle * 0x20_0000) + r) * 0x20_0000) + c

let entry_count_per_cycle sched access ~dp ~dt span offset count_into ~group =
  (* count reuse-chain entries per cycle, optionally grouped into lines *)
  let module S = Schedule in
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let rows = sched.S.rows and cols = sched.S.cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      List.iter
        (fun ev ->
          Hashtbl.replace tbl
            (pos_cycle_code (r, c) ev.S.cycle)
            (index_code (Tl_ir.Access.index access ev.S.x)))
        sched.S.by_pe.(r).(c)
    done
  done;
  let groups : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      List.iter
        (fun ev ->
          let idx = index_code (Tl_ir.Access.index access ev.S.x) in
          let pr, pc = (r - dp.(0), c - dp.(1)) in
          (* a predecessor slot off the grid or before cycle 0 holds no
             event: the chain starts here *)
          let is_entry =
            pr < 0 || pr >= rows || pc < 0 || pc >= cols || ev.S.cycle < dt
            ||
            match Hashtbl.find_opt tbl (pos_cycle_code (pr, pc) (ev.S.cycle - dt)) with
            | Some idx' -> idx' <> idx
            | None -> true
          in
          if is_entry then begin
            let t = ev.S.cycle - offset in
            if t >= 0 && t < span then
              match group with
              | None -> count_into.(t) <- count_into.(t) +. 1.
              | Some dir ->
                let rr, rc = Geometry.line_rep ~rows ~cols ~dir (r, c) in
                let key = pos_cycle_code (rr, rc) t in
                if not (Hashtbl.mem groups key) then begin
                  Hashtbl.add groups key ();
                  count_into.(t) <- count_into.(t) +. 1.
                end
          end)
        sched.S.by_pe.(r).(c)
    done
  done

let tile_statistics (design : Tl_stt.Design.t) sched =
  let module S = Schedule in
  let rows = sched.S.rows and cols = sched.S.cols in
  let span = sched.S.span in
  let offset = sched.S.preload in
  let demand = Array.make span 0. in
  let active = Array.make span 0 in
  let active_pes = ref 0 in
  let active_pe_cycles = ref 0 in
  let busiest = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let evs = sched.S.by_pe.(r).(c) in
      if evs <> [] then incr active_pes;
      busiest := max !busiest (List.length evs);
      List.iter
        (fun ev ->
          let t = ev.S.cycle - offset in
          if t >= 0 && t < span then begin
            active.(t) <- active.(t) + 1;
            incr active_pe_cycles
          end)
        evs
    done
  done;
  let per_cycle_distinct access ~group =
    (* distinct elements (or line-groups) touched per cycle; two-int keys
       so a widened index code cannot overflow when mixed with the cycle *)
    let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
    let counts = Array.make span 0. in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        List.iter
          (fun ev ->
            let t = ev.S.cycle - offset in
            if t >= 0 && t < span then begin
              let key =
                match group with
                | None -> (index_code (Tl_ir.Access.index access ev.S.x), t)
                | Some dir ->
                  let rr, rc = Geometry.line_rep ~rows ~cols ~dir (r, c) in
                  (pos_cycle_code (rr, rc) t, -1)
              in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                counts.(t) <- counts.(t) +. 1.
              end
            end)
          sched.S.by_pe.(r).(c)
      done
    done;
    counts
  in
  let per_tensor = ref [] in
  let current_tensor = ref "" in
  let credit total =
    per_tensor := (!current_tensor, total) :: !per_tensor
  in
  let add arr =
    credit (Array.fold_left ( +. ) 0. arr);
    Array.iteri (fun i v -> demand.(i) <- demand.(i) +. v) arr
  in
  let add_amortized total =
    credit total;
    let per = total /. float_of_int span in
    Array.iteri (fun i v -> demand.(i) <- v +. per) demand
  in
  let line_count dir =
    let reps = Hashtbl.create 16 in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        if sched.S.by_pe.(r).(c) <> [] then
          Hashtbl.replace reps (Geometry.line_rep ~rows ~cols ~dir (r, c)) ()
      done
    done;
    Hashtbl.length reps
  in
  List.iter
    (fun (ti : Tl_stt.Design.tensor_info) ->
      let access = ti.Tl_stt.Design.access in
      current_tensor := access.Tl_ir.Access.tensor;
      match ti.Tl_stt.Design.dataflow with
      | Tl_stt.Dataflow.Unicast ->
        add (per_cycle_distinct access ~group:None)
      | Tl_stt.Dataflow.Stationary _ -> add_amortized (float_of_int !active_pes)
      | Tl_stt.Dataflow.Systolic { dp; dt } ->
        let counts = Array.make span 0. in
        entry_count_per_cycle sched access ~dp ~dt span offset counts
          ~group:None;
        add counts
      | Tl_stt.Dataflow.Multicast { dp } ->
        add (per_cycle_distinct access ~group:(Some dp))
      | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast ->
        add
          (Array.map (fun a -> if a > 0 then 1. else 0.) active)
      | Tl_stt.Dataflow.Reuse2d
          (Tl_stt.Dataflow.Multicast_stationary { multicast }) ->
        add_amortized (float_of_int (line_count multicast))
      | Tl_stt.Dataflow.Reuse2d
          (Tl_stt.Dataflow.Systolic_multicast { multicast; systolic }) ->
        let counts = Array.make span 0. in
        entry_count_per_cycle sched access ~dp:systolic.Tl_stt.Dataflow.dp
          ~dt:systolic.Tl_stt.Dataflow.dt span offset counts
          ~group:(Some multicast);
        add counts
      | Tl_stt.Dataflow.Reuse_full -> credit 1.)
    design.Tl_stt.Design.tensors;
  { t_span = span;
    active_pes = !active_pes;
    active_pe_cycles = !active_pe_cycles;
    busiest_pe = !busiest;
    demand;
    per_tensor = List.rev !per_tensor }

(* ---------------------------------------------------------------- *)
(* Streaming statistics: the same numbers as {!tile_statistics} with work
   proportional to the events — no event lists, no PE × cycle tables.  One
   {!Schedule.iter_events} sweep gives the occupancy; each systolic or
   multicast tensor then takes one pass over (part of) the selected box.

   Key facts that make this exact (checked differentially by the tests):
   - the [t = cycle - preload ∈ [0, span)] window of {!tile_statistics}
     selects exactly the pass-0 events, and a pass-0 event at selected
     point [x] has [t = row_t · x - t_min];
   - every pass maps the same selected box to the same PEs with the same
     per-PE multiplicity, so [busiest_pe = passes × busiest-in-pass-0] and
     the active PE set is the pass-0 PE set;
   - [T] is injective on the box, so the slot [(pe - dp, cycle - dt)] of
     a pass-0 event at [x] holds an event iff [x - u] lies in the box,
     where [u = T⁻¹(dp, dt)]: never when [u] is not integral, and no
     later pass is that early.  [u] lies in the access's null space, so
     that predecessor reads the same element: the systolic chain entries
     are the events outside the sub-box [box ∩ (box + u)];
   - two pass-0 events share a multicast (line, cycle) group iff they
     differ by an integer multiple of [w], the primitive integer vector
     parallel to [T⁻¹(dp, 0)]; a group is one chain of the box along [w],
     counted once at its head (outside [box ∩ (box + w)]), and a
     systolic-multicast group counts iff a member is a systolic entry;
   - a unicast access is injective on the selected iterators (its
     restricted null space is trivial), so the distinct elements touched
     per window cycle equal the active events of that cycle.

   Counts are exact integers, and demand accumulation replicates
   [add]/[add_amortized]/[credit] with the same float operations in the
   same order, so results are bit-identical to the materialised path. *)

let tile_statistics_streaming (design : Tl_stt.Design.t)
    (fr : Schedule.frame) =
  let module S = Schedule in
  let module D = Tl_stt.Dataflow in
  let rows = fr.S.f_rows and cols = fr.S.f_cols in
  let span = fr.S.f_span in
  let offset = fr.S.f_preload in
  let passes = fr.S.f_passes in
  let n_pes = rows * cols in
  let transform = design.Tl_stt.Design.transform in
  let ext = Tl_stt.Transform.selected_extents transform in
  let n = Array.length ext in
  let row_t = transform.Tl_stt.Transform.imatrix.(n - 1) in
  let inverse = lazy (Tl_stt.Transform.inverse transform) in
  (* [T⁻¹(dp, dt)]; [dp] is padded to 2-D on 1-D arrays *)
  let preimage dp dt =
    let st = if n = 2 then [| dp.(0); dt |] else [| dp.(0); dp.(1); dt |] in
    Tl_linalg.Mat.mul_vec (Lazy.force inverse)
      (Array.map Tl_linalg.Rat.of_int st)
  in
  let systolic_step (v : D.vector) =
    let u = preimage v.D.dp v.D.dt in
    if Array.for_all Tl_linalg.Rat.is_integer u then
      Some (Array.map Tl_linalg.Rat.to_int u)
    else None
  in
  let chain_step dir = Tl_linalg.Vec.to_integer (preimage dir 0) in
  (* visit the selected points of the sub-box [lo, hi) with their window
     cycle; [xs] holds the current point *)
  let xs = Array.make n 0 and ys = Array.make n 0 in
  let iter_box lo hi f =
    let rec go d t =
      if d = n then f t
      else
        for v = lo.(d) to hi.(d) - 1 do
          xs.(d) <- v;
          go (d + 1) (t + (row_t.(d) * v))
        done
    in
    go 0 (-fr.S.f_t_min)
  in
  let has_pred p s =
    (* [p - s] lies in the selected box *)
    let ok = ref true and d = ref 0 in
    while !ok && !d < n do
      let v = p.(!d) - s.(!d) in
      if v < 0 || v >= ext.(!d) then ok := false;
      incr d
    done;
    !ok
  in
  let chain_has_entry w u =
    (* walk the chain along [w] from its head [xs] *)
    Array.blit xs 0 ys 0 n;
    let rec walk () =
      (not (has_pred ys u))
      || begin
        (* step to the next member; false past the chain's tail *)
        let ok = ref true in
        for d = 0 to n - 1 do
          let v = ys.(d) + w.(d) in
          ys.(d) <- v;
          if v < 0 || v >= ext.(d) then ok := false
        done;
        !ok && walk ()
      end
    in
    walk ()
  in
  (* pass-0 occupancy *)
  let pe_count = Array.make n_pes 0 in
  let active = Array.make span 0 in
  S.iter_events fr (fun ~pass ~cycle ~r ~c _x ->
      if pass = 0 then begin
        active.(cycle - offset) <- active.(cycle - offset) + 1;
        let k = (r * cols) + c in
        pe_count.(k) <- pe_count.(k) + 1
      end);
  let active_pes = ref 0 and busiest0 = ref 0 in
  Array.iter
    (fun k ->
      if k > 0 then incr active_pes;
      if k > !busiest0 then busiest0 := k)
    pe_count;
  let active_pe_cycles = Array.fold_left ( + ) 0 active in
  (* words per window cycle: the events without a predecessor along [s],
     i.e. all of them but those in the sub-box [box ∩ (box + s)] *)
  let without_pred s =
    let counts = Array.copy active in
    iter_box
      (Array.init n (fun d -> max 0 s.(d)))
      (Array.init n (fun d -> min ext.(d) (ext.(d) + s.(d))))
      (fun t -> counts.(t) <- counts.(t) - 1);
    Array.map float_of_int counts
  in
  (* the chain heads along [w] whose chain holds a systolic entry *)
  let chains_with_entry w u =
    let counts = Array.make span 0 in
    iter_box (Array.make n 0) ext (fun t ->
        if (not (has_pred xs w)) && chain_has_entry w u then
          counts.(t) <- counts.(t) + 1);
    Array.map float_of_int counts
  in
  let line_count dir =
    let seen = Array.make n_pes false in
    let count = ref 0 in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        if pe_count.((r * cols) + c) > 0 then begin
          let rr, rc = Geometry.line_rep ~rows ~cols ~dir (r, c) in
          let k = (rr * cols) + rc in
          if not seen.(k) then begin
            seen.(k) <- true;
            incr count
          end
        end
      done
    done;
    !count
  in
  let demand = Array.make span 0. in
  let per_tensor = ref [] in
  let current_tensor = ref "" in
  let credit total = per_tensor := (!current_tensor, total) :: !per_tensor in
  let add arr =
    credit (Array.fold_left ( +. ) 0. arr);
    Array.iteri (fun i v -> demand.(i) <- demand.(i) +. v) arr
  in
  let add_amortized total =
    credit total;
    let per = total /. float_of_int span in
    Array.iteri (fun i v -> demand.(i) <- v +. per) demand
  in
  List.iter
    (fun (ti : Tl_stt.Design.tensor_info) ->
      current_tensor := ti.Tl_stt.Design.access.Tl_ir.Access.tensor;
      match ti.Tl_stt.Design.dataflow with
      | D.Unicast -> add (Array.map float_of_int active)
      | D.Stationary _ -> add_amortized (float_of_int !active_pes)
      | D.Systolic v -> (
        match systolic_step v with
        | Some u -> add (without_pred u)
        | None -> add (Array.map float_of_int active))
      | D.Multicast { dp } -> add (without_pred (chain_step dp))
      | D.Reuse2d D.Broadcast ->
        add (Array.map (fun a -> if a > 0 then 1. else 0.) active)
      | D.Reuse2d (D.Multicast_stationary { multicast }) ->
        add_amortized (float_of_int (line_count multicast))
      | D.Reuse2d (D.Systolic_multicast { multicast; systolic }) -> (
        let w = chain_step multicast in
        match systolic_step systolic with
        | Some u -> add (chains_with_entry w u)
        | None -> add (without_pred w))
      | D.Reuse_full -> credit 1.)
    design.Tl_stt.Design.tensors;
  { t_span = span;
    active_pes = !active_pes;
    active_pe_cycles;
    busiest_pe = passes * !busiest0;
    demand;
    per_tensor = List.rev !per_tensor }

(* ---------------------------------------------------------------- *)
(* Tile search instrumentation (cumulative, process-wide) *)

let c_tile_nodes = Atomic.make 0 (* partial tiles visited by the search *)
let c_tile_leaves = Atomic.make 0 (* feasible full tiles scored *)
let c_tile_pruned = Atomic.make 0 (* subtrees cut by the estimate bound *)
let c_tiles_evaluated = Atomic.make 0 (* tiles exactly evaluated *)

let counters () =
  [ ("tile_nodes", Atomic.get c_tile_nodes);
    ("tile_leaves", Atomic.get c_tile_leaves);
    ("tile_pruned", Atomic.get c_tile_pruned);
    ("tiles_evaluated", Atomic.get c_tiles_evaluated) ]

let reset_counters () =
  Atomic.set c_tile_nodes 0;
  Atomic.set c_tile_leaves 0;
  Atomic.set c_tile_pruned 0;
  Atomic.set c_tiles_evaluated 0

(* ---------------------------------------------------------------- *)

(* [reference] selects the differential oracle: exhaustive tile search
   over materialised statistics instead of branch-and-bound over
   streaming ones. *)
let evaluate_core ~config ~reference (design : Tl_stt.Design.t) =
  let transform = design.Tl_stt.Design.transform in
  if Tl_stt.Transform.space_dims transform <> 2 then
    invalid_arg "Perf_model.evaluate: only 2-D arrays";
  let stmt = transform.Tl_stt.Transform.stmt in
  let selected = transform.Tl_stt.Transform.selected in
  let im = transform.Tl_stt.Transform.imatrix in
  let sel_ext = Tl_stt.Transform.selected_extents transform in
  let n = Array.length selected in
  let unsel_product =
    List.fold_left ( * ) 1
      (List.map
         (fun (it : Tl_ir.Iter.t) -> it.Tl_ir.Iter.extent)
         (Tl_stt.Transform.unselected_iters transform))
  in
  (* candidate tiles: bbox + scratchpad feasibility, ranked by analytic
     cycle estimate *)
  let limit = 512 in
  let spad_words =
    int_of_float (config.scratchpad_kbytes *. 1024.)
    / config.elem_bytes
  in
  let cand = Array.init n (fun j -> candidate_sizes sel_ext.(j) limit) in
  (* Both searches return the best three feasible tiles as
     (est, tile, sel_passes, span), ordered by estimate ascending with
     ties broken towards the LATER enumeration index — the order the
     reference's reversed-prepend list assumes under a stable sort. *)
  let search_exhaustive () =
    let feasible = ref [] in
    let rec enum j tile =
      if j = n then begin
        let t = Array.of_list (List.rev tile) in
        if
          row_extent im 0 t <= config.rows
          && row_extent im 1 t <= config.cols
          && tile_working_set design selected t <= spad_words
        then begin
          let span = row_extent im 2 t in
          let sel_passes =
            Array.to_list
              (Array.mapi (fun j tj -> (sel_ext.(j) + tj - 1) / tj) t)
            |> List.fold_left ( * ) 1
          in
          let est = float_of_int (sel_passes * span) in
          feasible := (est, t, sel_passes, span) :: !feasible
        end
      end
      else List.iter (fun s -> enum (j + 1) (s :: tile)) cand.(j)
    in
    enum 0 [];
    let ranked =
      List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) !feasible
    in
    List.filteri (fun i _ -> i < 3) ranked
  in
  (* Branch-and-bound over the same lexicographic enumeration.  Feasibility
     (row extents, working set) is monotone in every tile dimension, so an
     infeasible size cuts the rest of its ascending candidate list; a
     partial tile is cut when a lower bound on every completion's estimate
     already exceeds the current third-best.  Pruned leaves are strictly
     worse than all final survivors, so ties are unaffected. *)
  let search_pruned () =
    let cand_a = Array.map Array.of_list cand in
    let tile = Array.make n 1 in
    (* fewest passes dims >= j can contribute (each at its largest size) *)
    let suffix_min = Array.make (n + 1) 1 in
    for j = n - 1 downto 0 do
      let cs = cand_a.(j) in
      let max_c = cs.(Array.length cs - 1) in
      suffix_min.(j) <- suffix_min.(j + 1) * ((sel_ext.(j) + max_c - 1) / max_c)
    done;
    let best3 = ref [] in
    let worst () =
      match !best3 with [ _; _; (e, _, _, _, _) ] -> e | _ -> infinity
    in
    let insert ((e1, i1, _, _, _) as entry) =
      let before (e2, i2, _, _, _) = e1 < e2 || (e1 = e2 && i1 > i2) in
      let rec ins = function
        | [] -> [ entry ]
        | x :: rest -> if before x then entry :: x :: rest else x :: ins rest
      in
      best3 :=
        (match ins !best3 with a :: b :: c :: _ -> [ a; b; c ] | l -> l)
    in
    let next_idx = ref 0 in
    let rec go j passes_so_far =
      if j = n then begin
        Atomic.incr c_tile_leaves;
        let span = row_extent im 2 tile in
        let est = float_of_int (passes_so_far * span) in
        let idx = !next_idx in
        incr next_idx;
        insert (est, idx, Array.copy tile, passes_so_far, span)
      end
      else begin
        let cs = cand_a.(j) in
        let len = Array.length cs in
        let i = ref 0 and fits = ref true in
        while !fits && !i < len do
          let s = cs.(!i) in
          tile.(j) <- s;
          Atomic.incr c_tile_nodes;
          if
            row_extent im 0 tile > config.rows
            || row_extent im 1 tile > config.cols
            || tile_working_set design selected tile > spad_words
          then fits := false
          else begin
            let passes = passes_so_far * ((sel_ext.(j) + s - 1) / s) in
            let lb =
              float_of_int (passes * suffix_min.(j + 1) * row_extent im 2 tile)
            in
            if List.length !best3 = 3 && lb > worst () then
              Atomic.incr c_tile_pruned
            else go (j + 1) passes
          end;
          incr i
        done;
        tile.(j) <- 1
      end
    in
    go 0 1;
    List.map (fun (e, _, t, p, s) -> (e, t, p, s)) !best3
  in
  let top = if reference then search_exhaustive () else search_pruned () in
  (match top with
   | [] -> invalid_arg "Perf_model.evaluate: no feasible tile (array too small)"
   | _ -> ());
  let capacity =
    config.bandwidth_gbps *. 1e9
    /. (config.freq_mhz *. 1e6)
    /. float_of_int config.elem_bytes
  in
  let int_rows = Array.to_list (Array.map Array.to_list im) in
  let evaluate_tile (_, tile, sel_passes, _) =
    Atomic.incr c_tiles_evaluated;
    let ts = tile_stmt stmt selected tile in
    let tt = Tl_stt.Transform.v ts ~selected ~matrix:int_rows in
    (* classification reads no extents: the tile keeps the design's
       dataflows *)
    let td = { design with Tl_stt.Design.transform = tt } in
    let stats =
      if reference then
        tile_statistics td
          (Schedule.build td ~rows:config.rows ~cols:config.cols)
      else
        tile_statistics_streaming td
          (Schedule.frame td ~rows:config.rows ~cols:config.cols)
    in
    let eff_span =
      Array.fold_left
        (fun acc d -> acc +. Stdlib.max 1. (d /. capacity))
        0. stats.demand
    in
    let total_passes = sel_passes * unsel_product in
    let tail = config.rows in
    let cycles = (float_of_int total_passes *. eff_span) +. float_of_int tail in
    (tile, sel_passes, total_passes, stats, eff_span, cycles)
  in
  let results = List.map evaluate_tile top in
  let best =
    List.fold_left
      (fun acc r ->
        match acc with
        | None -> Some r
        | Some (_, _, _, _, _, c) ->
          let _, _, _, _, _, c' = r in
          if c' < c then Some r else acc)
      None results
  in
  let tile, sel_passes, total_passes, stats, eff_span, cycles =
    match best with Some r -> r | None -> assert false
  in
  (* steady-state throughput when consecutive passes pipeline through the
     array: the per-pass skew is paid once, each pass then costs the
     busiest PE's occupancy (plus any bandwidth stall) *)
  let busy = float_of_int stats.busiest_pe in
  let busy_eff = busy +. Stdlib.max 0. (eff_span -. float_of_int stats.t_span) in
  let pipelined_cycles =
    (float_of_int total_passes *. busy_eff)
    +. (float_of_int stats.t_span -. busy)
    +. float_of_int config.rows
  in
  let macs = Tl_ir.Stmt.domain_size stmt in
  let array_size = float_of_int (config.rows * config.cols) in
  let utilization =
    float_of_int stats.active_pe_cycles
    /. (array_size *. float_of_int stats.t_span)
  in
  let normalized_perf = float_of_int macs /. (array_size *. cycles) in
  let bw_stall_factor = eff_span /. float_of_int stats.t_span in
  let words_per_cycle =
    Array.fold_left ( +. ) 0. stats.demand /. float_of_int stats.t_span
  in
  let runtime_us = cycles /. config.freq_mhz in
  let ops_per_mac =
    float_of_int (List.length stmt.Tl_ir.Stmt.inputs + 1)
  in
  let gops = ops_per_mac *. float_of_int macs /. runtime_us /. 1e3 in
  { design_name = design.Tl_stt.Design.name;
    tile;
    selected_passes = sel_passes;
    total_passes;
    span = stats.t_span;
    tail = config.rows;
    cycles;
    macs;
    utilization;
    normalized_perf;
    bw_stall_factor;
    words_per_cycle;
    runtime_us;
    gops;
    pipelined_cycles;
    pipelined_perf = float_of_int macs /. (array_size *. pipelined_cycles);
    traffic_words =
      List.map
        (fun (t, per_pass) -> (t, per_pass *. float_of_int total_passes))
        stats.per_tensor }

(* ---------------------------------------------------------------- *)
(* Evaluation cache: results are keyed by the config fingerprint and the
   D4-canonical evaluation signature, so symmetry-equivalent designs (which
   provably evaluate identically on a square array) share one entry.  Only
   the default fast path is cached — the reference combinations always
   recompute, so differential tests compare independent computations.

   The memo is bounded: [Network.sweep] files every point of every shape
   in it, and those points are canonically distinct, so they never hit —
   unbounded, it grows by about 1.7 MB per new shape in a long-running
   [serve].  1024
   entries (about 1.5 MB) still cover the repeats callers make: a whole
   GEMM design space (393 points), [explore]'s 64-design default and
   [evaluate_name]'s six candidates. *)

let cache_capacity = 1024

let eval_cache : (result, exn) Stdlib.result Tl_par.Cache.t =
  Tl_par.Cache.create ~capacity:cache_capacity ~name:"perf.evaluate" ()

let config_fingerprint c =
  Printf.sprintf "%d,%d,%h,%h,%d,%h" c.rows c.cols c.freq_mhz
    c.bandwidth_gbps c.elem_bytes c.scratchpad_kbytes

(* The full memo key: config fingerprint joined with the symmetry-canonical
   evaluation signature.  Stable across processes (pure text, hex floats),
   so the persistent design store can reuse it verbatim. *)
let cache_key ?(config = default_config) (design : Tl_stt.Design.t) =
  config_fingerprint config ^ "|"
  ^ Tl_stt.Signature.eval_key ~square:(config.rows = config.cols) design

let evaluate ?(config = default_config) ?(cache = true)
    (design : Tl_stt.Design.t) =
  let run () = evaluate_core ~config ~reference:false design in
  if cache then
    let key = cache_key ~config design in
    match
      Tl_par.Cache.find_or_add eval_cache key (fun () ->
          match run () with r -> Ok r | exception e -> Error e)
    with
    | Ok r -> r
    | Error e -> raise e
  else run ()

let evaluate_reference ?(config = default_config) design =
  evaluate_core ~config ~reference:true design

(* Several transformation matrices can realise the same dataflow name; the
   best choice (e.g. a [0,1,1] space row that packs y+p Conv2D loops into
   one array dimension) can differ from the simplest.  Rank the matches by
   a cheap analytic estimate, exactly evaluate the front-runners. *)
let quick_estimate config (design : Tl_stt.Design.t) =
  let transform = design.Tl_stt.Design.transform in
  let matrix = transform.Tl_stt.Transform.imatrix in
  let sel_ext = Tl_stt.Transform.selected_extents transform in
  let n = Array.length sel_ext in
  let tile = Array.make n 1 in
  (* greedy growth, two sweeps *)
  for _ = 1 to 2 do
    for j = 0 to n - 1 do
      List.iter
        (fun s ->
          let old = tile.(j) in
          tile.(j) <- s;
          if
            not
              (row_extent matrix 0 tile <= config.rows
               && row_extent matrix 1 tile <= config.cols)
          then tile.(j) <- old)
        (candidate_sizes sel_ext.(j) 512)
    done
  done;
  let span = row_extent matrix 2 tile in
  (* a one-to-one schedule always satisfies span >= macs / PEs, so the pass
     cost is bounded below by both quantities *)
  let per_pe =
    (Array.fold_left ( * ) 1 tile + (config.rows * config.cols) - 1)
    / (config.rows * config.cols)
  in
  let sel_passes = ref 1 in
  Array.iteri
    (fun j tj -> sel_passes := !sel_passes * ((sel_ext.(j) + tj - 1) / tj))
    tile;
  float_of_int (!sel_passes * max span per_pe)

let evaluate_name ?(config = default_config) stmt name =
  match Tl_stt.Search.matching_designs stmt name with
  | [] -> None
  | candidates ->
    (* compare estimates only: a polymorphic compare on the pair would
       tie-break on the opaque Design.t structure, making the candidate
       order depend on representation internals rather than search order *)
    let ranked =
      List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
        (List.map (fun d -> (quick_estimate config d, d)) candidates)
    in
    let top = List.filteri (fun i _ -> i < 6) ranked in
    let results = List.map (fun (_, d) -> evaluate ~config d) top in
    List.fold_left
      (fun acc r ->
        match acc with
        | None -> Some r
        | Some best -> if r.cycles < best.cycles then Some r else acc)
      None results

let pp_result ppf r =
  Format.fprintf ppf
    "@[%-12s tile=%s span=%d passes=%d cycles=%.0f util=%.2f bw=%.2fx \
     norm=%.3f@]"
    r.design_name
    (String.concat "x" (Array.to_list (Array.map string_of_int r.tile)))
    r.span r.total_passes r.cycles r.utilization r.bw_stall_factor
    r.normalized_perf

(* ---------------------------------------------------------------- *)
(* Exact textual codec for [result], used by the persistent design
   store.  Versioned, tab-separated; floats render as hex ([%h]), which
   [float_of_string] round-trips bit-exactly, so a decoded result is
   structurally equal to the original — warm-store sweeps reproduce
   cold-run frontiers to the last bit.  Names are percent-escaped so
   tabs/newlines/separators in user-chosen statement names can never
   break the framing. *)

let codec_magic = "tlperf/1"

let escape_name s =
  let plain c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' | ':' | '[' | ']'
      ->
      true
    | _ -> false
  in
  if String.for_all plain s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if plain c then Buffer.add_char buf c
        else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents buf
  end

let unescape_name s =
  if not (String.contains s '%') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '%' && !i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
        | Some code -> Buffer.add_char buf (Char.chr code)
        | None -> Buffer.add_char buf s.[!i]);
        i := !i + 3
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let result_to_string (r : result) =
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let traffic =
    String.concat ","
      (List.map
         (fun (name, w) -> Printf.sprintf "%s=%h" (escape_name name) w)
         r.traffic_words)
  in
  String.concat "\t"
    [ codec_magic;
      escape_name r.design_name;
      ints r.tile;
      string_of_int r.selected_passes;
      string_of_int r.total_passes;
      string_of_int r.span;
      string_of_int r.tail;
      Printf.sprintf "%h" r.cycles;
      string_of_int r.macs;
      Printf.sprintf "%h" r.utilization;
      Printf.sprintf "%h" r.normalized_perf;
      Printf.sprintf "%h" r.bw_stall_factor;
      Printf.sprintf "%h" r.words_per_cycle;
      Printf.sprintf "%h" r.runtime_us;
      Printf.sprintf "%h" r.gops;
      Printf.sprintf "%h" r.pipelined_cycles;
      Printf.sprintf "%h" r.pipelined_perf;
      traffic ]

let result_of_string s =
  match String.split_on_char '\t' s with
  | [ magic; name; tile; sel_passes; tot_passes; span; tail; cycles; macs;
      util; norm; bw; wpc; runtime; gops; pcycles; pperf; traffic ]
    when magic = codec_magic -> (
    let int_of = int_of_string_opt in
    let float_of = float_of_string_opt in
    let tile =
      if tile = "" then Some [||]
      else
        let parts = String.split_on_char ',' tile in
        let vals = List.filter_map int_of parts in
        if List.length vals = List.length parts then
          Some (Array.of_list vals)
        else None
    in
    let traffic =
      if traffic = "" then Some []
      else
        let parts = String.split_on_char ',' traffic in
        let decoded =
          List.filter_map
            (fun p ->
              match String.index_opt p '=' with
              | None -> None
              | Some eq ->
                let name = unescape_name (String.sub p 0 eq) in
                let v =
                  float_of
                    (String.sub p (eq + 1) (String.length p - eq - 1))
                in
                Option.map (fun v -> (name, v)) v)
            parts
        in
        if List.length decoded = List.length parts then Some decoded
        else None
    in
    match
      ( tile, int_of sel_passes, int_of tot_passes, int_of span, int_of tail,
        float_of cycles, int_of macs, float_of util, float_of norm,
        float_of bw, float_of wpc, float_of runtime, float_of gops,
        float_of pcycles, float_of pperf, traffic )
    with
    | ( Some tile, Some selected_passes, Some total_passes, Some span,
        Some tail, Some cycles, Some macs, Some utilization,
        Some normalized_perf, Some bw_stall_factor, Some words_per_cycle,
        Some runtime_us, Some gops, Some pipelined_cycles,
        Some pipelined_perf, Some traffic_words ) ->
      Some
        { design_name = unescape_name name;
          tile;
          selected_passes;
          total_passes;
          span;
          tail;
          cycles;
          macs;
          utilization;
          normalized_perf;
          bw_stall_factor;
          words_per_cycle;
          runtime_us;
          gops;
          pipelined_cycles;
          pipelined_perf;
          traffic_words }
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Program-aware estimates: when a compiled program (not a design) is
   what will run — the runtime-programmable netlist of Tl_compile — the
   exact cycle count and MAC tally are already in the program, so the
   estimate needs no tile search at all. *)

type program_estimate = {
  pe_name : string;
  pe_cycles : int;
  pe_macs : int;
  pe_utilization : float;
  pe_program_words : int;
  pe_runtime_us : float;
  pe_gops : float;
}

let estimate_program ?(config = default_config) ~rows ~cols
    (p : Tl_templates.Layout.program) =
  let pe_cycles = p.Tl_templates.Layout.p_total + 1 in
  let pe_macs = p.Tl_templates.Layout.p_events in
  let pe_program_words =
    List.fold_left
      (fun acc (_, (_, img)) -> acc + Array.length img)
      0 p.Tl_templates.Layout.p_images
  in
  let pe_utilization =
    float_of_int pe_macs /. float_of_int (rows * cols * pe_cycles)
  in
  let pe_runtime_us = float_of_int pe_cycles /. config.freq_mhz in
  let pe_gops =
    if pe_runtime_us = 0. then 0.
    else 2. *. float_of_int pe_macs /. (pe_runtime_us *. 1000.)
  in
  { pe_name = p.Tl_templates.Layout.p_name; pe_cycles; pe_macs;
    pe_utilization; pe_program_words; pe_runtime_us; pe_gops }

let pp_program_estimate fmt e =
  Format.fprintf fmt
    "@[<v>program %s:@;\
     <1 2>cycles      : %d@;\
     <1 2>macs        : %d@;\
     <1 2>utilization : %.3f@;\
     <1 2>prog words  : %d@;\
     <1 2>runtime     : %.2f us (%.1f GOPS)@]"
    e.pe_name e.pe_cycles e.pe_macs e.pe_utilization e.pe_program_words
    e.pe_runtime_us e.pe_gops
