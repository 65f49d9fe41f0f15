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

(* ---------------------------------------------------------------- *)
(* Exact per-tile statistics in closed form.                         *)

type tile_stats = {
  t_span : int;
  active_pes : int;
  active_pe_cycles : int;
  busiest_pe : int;  (* events at the most-loaded PE: steady-state bound *)
  demand : float array;  (* memory words demanded per schedule cycle *)
  per_tensor : (string * float) list;  (* words per pass, by tensor *)
}

(* The window [cycle - preload ∈ [0, span)] holds exactly the pass-0
   events, the points [x] of the selected box [0, e) at window cycle
   [t = τ·x - t_min] ([τ] the time row), and every pass maps the box to
   the same PEs with the same multiplicity.  So every figure is a count
   over the box, and no event is visited:
   - occupancy per cycle is the number of box points on [τ·x - t_min = t],
     a convolution of one comb per loop (step [|τ_d|], [e_d] teeth);
   - [T] is injective on the box, so the slot [(pe - dp, cycle - dt)] of
     the event at [x] holds an event iff [x - u] lies in the box, where
     [u = T⁻¹(dp, dt)]: never when [u] is not integral, and no later pass
     is that early.  [u] lies in the access's null space, so that
     predecessor reads the same element: the systolic chain entries are
     the occupancy minus the occupancy of the sub-box [box ∩ (box + u)];
   - two events share a multicast (line, cycle) group iff they differ by
     an integer multiple of [w], the primitive integer vector parallel to
     [T⁻¹(dp, 0)]; a group is one chain of the box along [w], counted at
     its head, so the heads are again box minus sub-box;
   - a PE's events are one chain of the box along [k], the primitive
     kernel vector of the space rows: the active PEs are the chain heads
     along [k], [|box| - |box ∩ (box + k)|], and the busiest PE holds the
     longest chain, [min over k_d ≠ 0 of ⌈e_d / |k_d|⌉];
   - a systolic-multicast group counts iff a member is a systolic entry.
     The box is convex, so the members inside [box + u] are contiguous,
     and the group counts iff one of its chain's two ends leaves
     [box + u].  This and the multicast-stationary line count walk the
     chain heads, never the events;
   - a unicast access is injective on the selected iterators (its
     restricted null space is trivial), so the distinct elements touched
     per cycle equal the events of that cycle.

   Counts are exact integers, and demand accumulates with the same float
   operations in the same order as the materialised statistics the tests
   keep as the oracle, so results are bit-identical. *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let tile_statistics (sched : Schedule.t) =
  let module S = Schedule in
  let module D = Tl_stt.Dataflow in
  let design = sched.S.design in
  let rows = sched.S.rows and cols = sched.S.cols in
  let span = sched.S.span in
  let t_min = sched.S.t_min in
  let transform = design.Tl_stt.Design.transform in
  let ext = sched.S.extents in
  let n = Array.length ext in
  let im = transform.Tl_stt.Transform.imatrix in
  let row_t = im.(n - 1) in
  let adj, det = Tl_stt.Transform.adjugate transform in
  (* [adj T · (dp, dt)]; [dp] is padded to 2-D on 1-D arrays *)
  let adj_apply dp dt =
    Array.init n (fun i ->
        let a = ref (adj.(i).(n - 1) * dt) in
        for j = 0 to n - 2 do
          a := !a + (adj.(i).(j) * dp.(j))
        done;
        !a)
  in
  let systolic_step (v : D.vector) =
    let a = adj_apply v.D.dp v.D.dt in
    if Array.for_all (fun x -> x mod det = 0) a then
      Some (Array.map (fun x -> x / det) a)
    else None
  in
  (* the primitive integer vector parallel to [a], first nonzero entry
     positive *)
  let primitive a =
    let g = Array.fold_left (fun g x -> gcd g (abs x)) 0 a in
    let g =
      match Array.find_opt (( <> ) 0) a with Some x when x < 0 -> -g | _ -> g
    in
    Array.map (fun x -> x / g) a
  in
  let chain_step dir = primitive (adj_apply dir 0) in
  let kernel = primitive (adj_apply [| 0; 0 |] 1) in
  let volume e = Array.fold_left ( * ) 1 e in
  let overlap s = Array.init n (fun d -> ext.(d) - abs s.(d)) in
  (* [occupancy e]: the points [y] of the box [0, e) at each value of
     [τ·y - min τ·y], one comb per loop convolved in by a strided prefix
     sum and a difference *)
  let occupancy e =
    let len = ref 1 in
    for d = 0 to n - 1 do
      len := !len + (abs row_t.(d) * (e.(d) - 1))
    done;
    let buf = Array.make !len 0 in
    buf.(0) <- 1;
    let cur = ref 1 in
    for d = 0 to n - 1 do
      let a = abs row_t.(d) and m = e.(d) in
      if a = 0 then
        for t = 0 to !cur - 1 do
          buf.(t) <- buf.(t) * m
        done
      else if m > 1 then begin
        let next = !cur + (a * (m - 1)) in
        for t = a to next - 1 do
          buf.(t) <- buf.(t) + buf.(t - a)
        done;
        for t = next - 1 downto a * m do
          buf.(t) <- buf.(t) - buf.(t - (a * m))
        done;
        cur := next
      end
    done;
    buf
  in
  let active = occupancy ext in
  (* the events without a predecessor along [s]: all but those of the
     sub-box [box ∩ (box + s)], whose corner is [max 0 s] *)
  let without_pred s =
    let counts = Array.copy active in
    let sub = overlap s in
    if Array.for_all (fun e -> e > 0) sub then begin
      let shift = ref (-t_min) in
      for d = 0 to n - 1 do
        shift :=
          !shift + (row_t.(d) * max 0 s.(d)) + min 0 (row_t.(d) * (sub.(d) - 1))
      done;
      Array.iteri
        (fun i v -> counts.(!shift + i) <- counts.(!shift + i) - v)
        (occupancy sub)
    end;
    counts
  in
  (* visit the sub-box [lo, hi) with its window cycles; [xs] holds the
     current point *)
  let xs = Array.make n 0 in
  let iter_box lo hi f =
    let rec go d t =
      if d = n then f t
      else
        for v = lo.(d) to hi.(d) - 1 do
          xs.(d) <- v;
          go (d + 1) (t + (row_t.(d) * v))
        done
    in
    go 0 (-t_min)
  in
  (* the chain heads along [s], [box \ (box + s)], as at most [n] disjoint
     boxes: [d] is the first coordinate where [x_d - s_d] leaves [0, e_d) *)
  let iter_heads s f =
    let lo = Array.make n 0 and hi = Array.copy ext in
    for d = 0 to n - 1 do
      if s.(d) > 0 then begin
        hi.(d) <- min s.(d) ext.(d);
        iter_box lo hi f
      end
      else if s.(d) < 0 then begin
        lo.(d) <- max 0 (ext.(d) + s.(d));
        iter_box lo hi f
      end;
      lo.(d) <- max 0 s.(d);
      hi.(d) <- min ext.(d) (ext.(d) + s.(d))
    done
  in
  (* the chain heads along [w] whose chain holds a systolic entry along
     [u]: the head or the tail leaves [box + u] *)
  let chains_with_entry w u =
    let counts = Array.make span 0 in
    let inside j =
      let ok = ref true in
      for d = 0 to n - 1 do
        let v = xs.(d) + (j * w.(d)) - u.(d) in
        if v < 0 || v >= ext.(d) then ok := false
      done;
      !ok
    in
    iter_heads w (fun t ->
        let last = ref max_int in
        for d = 0 to n - 1 do
          if w.(d) > 0 then last := min !last ((ext.(d) - 1 - xs.(d)) / w.(d))
          else if w.(d) < 0 then last := min !last (xs.(d) / -w.(d))
        done;
        if not (inside 0 && inside !last) then counts.(t) <- counts.(t) + 1);
    counts
  in
  (* distinct lines along [dir] through the active PEs, one PE per chain
     head along the kernel; 2-D reuse occurs on 2-D arrays only *)
  let line_count dir =
    let row_r = im.(0) and row_c = im.(1) in
    let seen = Array.make (rows * cols) false and count = ref 0 in
    iter_heads kernel (fun _ ->
        let r = ref sched.S.offset.(0) and c = ref sched.S.offset.(1) in
        for d = 0 to n - 1 do
          r := !r + (row_r.(d) * xs.(d));
          c := !c + (row_c.(d) * xs.(d))
        done;
        let rr, rc = Geometry.line_rep ~rows ~cols ~dir (!r, !c) in
        let k = (rr * cols) + rc in
        if not seen.(k) then begin
          seen.(k) <- true;
          incr count
        end);
    !count
  in
  let active_pes = volume ext - volume (Array.map (max 0) (overlap kernel)) in
  let longest = ref max_int in
  Array.iteri
    (fun d k ->
      if k <> 0 then longest := min !longest ((ext.(d) + abs k - 1) / abs k))
    kernel;
  let demand = Array.make span 0. in
  let per_tensor = ref [] in
  let current_tensor = ref "" in
  let credit total = per_tensor := (!current_tensor, total) :: !per_tensor in
  let add counts =
    let total = ref 0. in
    Array.iter (fun v -> total := !total +. float_of_int v) counts;
    credit !total;
    Array.iteri (fun i v -> demand.(i) <- demand.(i) +. float_of_int v) counts
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
      | D.Unicast -> add active
      | D.Stationary _ -> add_amortized (float_of_int active_pes)
      | D.Systolic v -> (
        match systolic_step v with
        | Some u -> add (without_pred u)
        | None -> add active)
      | D.Multicast { dp } -> add (without_pred (chain_step dp))
      | D.Reuse2d D.Broadcast ->
        add (Array.map (fun a -> if a > 0 then 1 else 0) active)
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
    active_pes;
    active_pe_cycles = volume ext;
    busiest_pe = sched.S.passes * !longest;
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

let evaluate ?(config = default_config) (design : Tl_stt.Design.t) =
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
  let cand =
    Array.init n (fun j -> Array.of_list (candidate_sizes sel_ext.(j) limit))
  in
  (* Branch-and-bound over the lexicographic enumeration of candidate
     sizes.  A tile's bounding box along a row [a] of [|T|] or of a
     tensor's [|access|] is [1 + Σ_j a_j (tile_j - 1)]; the three rows
     of [|T|] bound the array footprint and the span, and each tensor's
     product of access extents sums to the working set.  Feasibility is
     monotone in every tile dimension, so an infeasible size cuts the rest
     of its ascending candidate list, and a binary search finds the first
     one; a partial tile is cut when a lower bound on every completion's
     estimate already exceeds the current third-best.  Pruned leaves are
     strictly worse than all final survivors, so ties are unaffected.
     [ext.(j).(r)] holds the extent of row [r] with the loops from [j] on
     at 1, so a node costs a few integer operations (and a pass over the
     rows when it recurses), a binary search step one pass over the rows,
     and neither allocates. *)
  let rows =
    let access =
      List.concat_map
        (fun (ti : Tl_stt.Design.tensor_info) ->
          Array.to_list ti.Tl_stt.Design.access.Tl_ir.Access.matrix)
        design.Tl_stt.Design.tensors
    in
    Array.of_list
      (List.map (Array.map abs) (Array.to_list im)
      @ List.map (fun row -> Array.map (fun s -> abs row.(s)) selected) access)
  in
  let n_rows = Array.length rows in
  (* [coef.(j).(r)]: the coefficient of loop [j] in row [r] *)
  let coef = Array.init n (fun j -> Array.map (fun row -> row.(j)) rows) in
  (* the access rows of tensor [t] end before row [stop.(t)]; the first
     tensor's start after the three rows of [|T|] *)
  let stop =
    let next = ref 3 in
    Array.of_list
      (List.map
         (fun (ti : Tl_stt.Design.tensor_info) ->
           let am = ti.Tl_stt.Design.access.Tl_ir.Access.matrix in
           next := !next + Array.length am;
           !next)
         design.Tl_stt.Design.tensors)
  in
  let ext = Array.make_matrix n n_rows 1 in
  let infeasible j s =
    let here = ext.(j) and cj = coef.(j) and g = s - 1 in
    here.(0) + (cj.(0) * g) > config.rows
    || here.(1) + (cj.(1) * g) > config.cols
    ||
    let working_set = ref 0 and r = ref 3 in
    for t = 0 to Array.length stop - 1 do
      let words = ref 1 in
      while !r < stop.(t) do
        words := !words * (here.(!r) + (cj.(!r) * g));
        incr r
      done;
      working_set := !working_set + !words
    done;
    !working_set > spad_words
  in
  let tile = Array.make n 1 in
  (* fewest passes dims >= j can contribute (each at its largest size) *)
  let suffix_min = Array.make (n + 1) 1 in
  for j = n - 1 downto 0 do
    let cs = cand.(j) in
    let max_c = cs.(Array.length cs - 1) in
    suffix_min.(j) <- suffix_min.(j + 1) * (((sel_ext.(j) - 1) / max_c) + 1)
  done;
  (* the best three leaves by estimate, a later leaf before an equal one *)
  let kept = ref 0 in
  let best_est = Array.make 3 0. and best_tile = Array.make 3 [||] in
  let best_passes = Array.make 3 0 in
  let keep passes span =
    let est = float_of_int passes *. float_of_int span in
    let p = ref 0 in
    while !p < !kept && est > best_est.(!p) do
      incr p
    done;
    if !p < 3 then begin
      for q = min !kept 2 downto !p + 1 do
        best_est.(q) <- best_est.(q - 1);
        best_tile.(q) <- best_tile.(q - 1);
        best_passes.(q) <- best_passes.(q - 1)
      done;
      best_est.(!p) <- est;
      best_tile.(!p) <- Array.copy tile;
      best_passes.(!p) <- passes;
      kept := min 3 (!kept + 1)
    end
  in
  let nodes = ref 0 and leaves = ref 0 and pruned = ref 0 in
  let rec go j passes_so_far =
    let cs = cand.(j) in
    let len = Array.length cs in
    (* [fit]: the first infeasible size, [len] if none *)
    let lo = ref 0 and fit = ref len in
    while !lo < !fit do
      let mid = (!lo + !fit) / 2 in
      if infeasible j cs.(mid) then fit := mid else lo := mid + 1
    done;
    nodes := !nodes + min (!fit + 1) len;
    let here = ext.(j) and cj = coef.(j) in
    for i = 0 to !fit - 1 do
      let s = cs.(i) in
      let span = here.(2) + (cj.(2) * (s - 1)) in
      let passes = passes_so_far * (((sel_ext.(j) - 1) / s) + 1) in
      let lb =
        float_of_int passes *. float_of_int suffix_min.(j + 1)
        *. float_of_int span
      in
      tile.(j) <- s;
      if !kept = 3 && lb > best_est.(2) then incr pruned
      else if j = n - 1 then begin
        incr leaves;
        keep passes span
      end
      else begin
        let next = ext.(j + 1) in
        for r = 0 to n_rows - 1 do
          next.(r) <- here.(r) + (cj.(r) * (s - 1))
        done;
        go (j + 1) passes
      end
    done;
    tile.(j) <- 1
  in
  go 0 1;
  ignore (Atomic.fetch_and_add c_tile_nodes !nodes);
  ignore (Atomic.fetch_and_add c_tile_leaves !leaves);
  ignore (Atomic.fetch_and_add c_tile_pruned !pruned);
  if !kept = 0 then
    invalid_arg "Perf_model.evaluate: no feasible tile (array too small)";
  let top = List.init !kept (fun p -> (best_tile.(p), best_passes.(p))) in
  let capacity =
    config.bandwidth_gbps *. 1e9
    /. (config.freq_mhz *. 1e6)
    /. float_of_int config.elem_bytes
  in
  let evaluate_tile (tile, sel_passes) =
    Atomic.incr c_tiles_evaluated;
    (* one pass of the design's STT over the tile's box.  Classification
       reads no extents, so the tile keeps the design's dataflows *)
    let stats =
      tile_statistics
        (Schedule.tile design ~rows:config.rows ~cols:config.cols tile)
    in
    let effective_span =
      Array.fold_left
        (fun acc d -> acc +. Stdlib.max 1. (d /. capacity))
        0. stats.demand
    in
    let total_passes = sel_passes * unsel_product in
    let tail = config.rows in
    let cycles =
      (float_of_int total_passes *. effective_span) +. float_of_int tail
    in
    (tile, sel_passes, total_passes, stats, effective_span, cycles)
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
  let tile, sel_passes, total_passes, stats, effective_span, cycles =
    match best with Some r -> r | None -> assert false
  in
  (* steady-state throughput when consecutive passes pipeline through the
     array: the per-pass skew is paid once, each pass then costs the
     busiest PE's occupancy (plus any bandwidth stall) *)
  let busy = float_of_int stats.busiest_pe in
  let busy_eff =
    busy +. Stdlib.max 0. (effective_span -. float_of_int stats.t_span)
  in
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
  let bw_stall_factor = effective_span /. float_of_int stats.t_span in
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

let config_fingerprint c =
  Printf.sprintf "%d,%d,%h,%h,%d,%h" c.rows c.cols c.freq_mhz
    c.bandwidth_gbps c.elem_bytes c.scratchpad_kbytes

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
    (fun j tj -> sel_passes := !sel_passes * (((sel_ext.(j) - 1) / tj) + 1))
    tile;
  float_of_int !sel_passes *. float_of_int (max span per_pe)

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

(* The decoder reads its fields in place, left to right, from a cursor:
   each number where it stands and each text field as one substring.  A
   record ends at a newline or at the end of the text.  A number's
   extent is what [String.split_on_char] would give it: up to the first
   tab, comma, newline or the end.  The encoder's spellings (plain
   decimal digits for an int, [%h] for a float) are read from the bytes;
   any other goes to [int_of_string_opt] or [float_of_string_opt] on the
   substring.  A field that does not read raises [Malformed]. *)

exception Malformed

type cursor = { text : string; mutable pos : int }

let ends c q =
  q = String.length c.text
  ||
  let ch = c.text.[q] in
  ch = '\t' || ch = ',' || ch = '\n'

(* the end of the number at [i] *)
let rec number_end c i = if ends c i then i else number_end c (i + 1)

(* the spelling at [i] to its end, read by [of_string] *)
let spelled c i of_string =
  let e = number_end c i in
  c.pos <- e;
  match of_string (String.sub c.text i (e - i)) with
  | Some v -> v
  | None -> raise Malformed

(* decimal digits from [p] read onto [n] while they last; [c.pos] is
   left after them *)
let rec digits c p n =
  let s = c.text in
  match if p = String.length s then ' ' else s.[p] with
  | '0' .. '9' as ch -> digits c (p + 1) ((n * 10) + Char.code ch - 48)
  | _ ->
    c.pos <- p;
    n

(* at most 18 digits, so the value cannot pass [max_int] *)
let int_at c =
  let i = c.pos in
  let k = if i < String.length c.text && c.text.[i] = '-' then i + 1 else i in
  let n = digits c k 0 in
  let count = c.pos - k in
  if count >= 1 && count <= 18 && ends c c.pos then if k > i then -n else n
  else spelled c i int_of_string_opt

(* a lowercase hex digit's value, or 16 *)
let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - 48
  | 'a' .. 'f' as ch -> Char.code ch - 87
  | _ -> 16

(* hex digits from [p] read onto [m]: [m * 16 + n] after [n] of them,
   -1 past 13 *)
let rec fraction s p m n =
  let d = if p = String.length s then 16 else hex_digit s.[p] in
  if d = 16 then (m lsl 4) lor n
  else if n = 13 then -1
  else fraction s (p + 1) ((m lsl 4) lor d) (n + 1)

(* [%h] writes [-]0x(0|1)[.h{1,13}]p(+|-)d{1,4}: a mantissa of at most 53
   bits, which [Float.ldexp] scales exactly, as [float_of_string] does.
   [packed] holds the mantissa and its digit count after the point as
   [m * 16 + n], or -1 for another spelling. *)
let float_at c =
  let s = c.text and i = c.pos in
  let len = String.length s in
  let k = if i < len && s.[i] = '-' then i + 1 else i in
  let packed =
    if len - k < 6 || s.[k] <> '0' || s.[k + 1] <> 'x' then -1
    else
      match s.[k + 2] with
      | ('0' | '1') as ch ->
        let lead = Char.code ch - 48 in
        if s.[k + 3] <> '.' then lead lsl 4
        else
          let f = fraction s (k + 4) lead 0 in
          if f land 15 = 0 then -1 else f
      | _ -> -1
  in
  let frac = packed land 15 in
  let p = if frac = 0 then k + 3 else k + 4 + frac in
  let sign =
    if packed < 0 || p + 2 >= len || s.[p] <> 'p' then 0
    else match s.[p + 1] with '+' -> 1 | '-' -> -1 | _ -> 0
  in
  let e = if sign <> 0 then digits c (p + 2) 0 else 0 in
  let count = c.pos - (p + 2) in
  if sign <> 0 && count >= 1 && count <= 4 && ends c c.pos then
    let v = Float.ldexp (float_of_int (packed lsr 4)) ((sign * e) - (4 * frac)) in
    if k > i then -.v else v
  else spelled c i float_of_string_opt

(* step over the tab that ends a field *)
let tab c =
  if c.pos < String.length c.text && c.text.[c.pos] = '\t' then
    c.pos <- c.pos + 1
  else raise Malformed

let int_field c =
  let n = int_at c in
  tab c;
  n

let float_field c =
  let v = float_at c in
  tab c;
  v

(* a text field: up to the first tab or newline *)
let text_field c =
  let s = c.text and i = c.pos in
  let rec stop j =
    if j = String.length s || s.[j] = '\t' || s.[j] = '\n' then j
    else stop (j + 1)
  in
  let j = stop i in
  c.pos <- j;
  tab c;
  String.sub s i (j - i)

(* comma-separated ints; an empty field is none *)
let tile_field c =
  let s = c.text in
  let comma () = c.pos < String.length s && s.[c.pos] = ',' in
  let rec ints acc =
    let acc = int_at c :: acc in
    if comma () then begin
      c.pos <- c.pos + 1;
      ints acc
    end
    else Array.of_list (List.rev acc)
  in
  let a =
    if c.pos < String.length s && s.[c.pos] = '\t' then [||] else ints []
  in
  tab c;
  a

(* [name=w] entries between commas, to the record's end; a name runs to
   its entry's first [=] *)
let traffic c =
  let s = c.text and len = String.length c.text in
  let at_end () = c.pos = len || s.[c.pos] = '\n' in
  let rec name_end j =
    if j = len then raise Malformed
    else
      match s.[j] with
      | '=' -> j
      | '\t' | ',' | '\n' -> raise Malformed
      | _ -> name_end (j + 1)
  in
  let rec entries acc =
    let i = c.pos in
    let eq = name_end i in
    let name = unescape_name (String.sub s i (eq - i)) in
    c.pos <- eq + 1;
    let acc = (name, float_at c) :: acc in
    if c.pos < len && s.[c.pos] = ',' then begin
      c.pos <- c.pos + 1;
      entries acc
    end
    else if at_end () then List.rev acc
    else raise Malformed
  in
  if at_end () then [] else entries []

(* the result at [c.pos], to the end of its record *)
let read_result c =
  if text_field c <> codec_magic then raise Malformed;
  let design_name = unescape_name (text_field c) in
  let tile = tile_field c in
  let selected_passes = int_field c in
  let total_passes = int_field c in
  let span = int_field c in
  let tail = int_field c in
  let cycles = float_field c in
  let macs = int_field c in
  let utilization = float_field c in
  let normalized_perf = float_field c in
  let bw_stall_factor = float_field c in
  let words_per_cycle = float_field c in
  let runtime_us = float_field c in
  let gops = float_field c in
  let pipelined_cycles = float_field c in
  let pipelined_perf = float_field c in
  let traffic_words = traffic c in
  { design_name;
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

let result_of_string s =
  let c = { text = s; pos = 0 } in
  match read_result c with
  | r when c.pos = String.length s -> Some r
  | _ -> None
  | exception Malformed -> None

let read_records s ~pos =
  let c = { text = s; pos } in
  let len = String.length s in
  let rec records acc =
    if c.pos >= len then List.rev acc
    else if s.[c.pos] = '\n' then begin
      c.pos <- c.pos + 1;
      records acc
    end
    else
      let area = float_field c in
      let power = float_field c in
      let r = read_result c in
      (* past the newline that ends the record, or the end *)
      c.pos <- c.pos + 1;
      records ((area, power, r) :: acc)
  in
  match records [] with
  | rs -> Some rs
  | exception Malformed -> None

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
