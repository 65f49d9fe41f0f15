exception Unsupported of string

type event = {
  cycle : int;
  pass : int;
  pe : Geometry.pos;
  x : int array;
}

type t = {
  design : Tl_stt.Design.t;
  rows : int;
  cols : int;
  offset : int array;
  t_min : int;
  span : int;
  passes : int;
  preload : int;
  compute_end : int;
  by_pe : event list array array;
  event_count : int;
}

(* Shared elaboration geometry for {!build} and {!frame}.  The space/time
   maps are linear, so their extrema over the box domain are attained
   coordinate-wise — no domain sweep is needed to find the footprint. *)
type geom = {
  g_design : Tl_stt.Design.t;
  g_rows : int;
  g_cols : int;
  g_depth : int;
  g_selected : int array;
  g_sel_ext : int array;
  g_unsel : int array;
  g_unsel_ext : int array;
  g_row_r : int array;  (* space-row coefficients over selected iters *)
  g_row_c : int array;  (* all-zero for 1-D arrays *)
  g_row_t : int array;
  g_offset : int array;
  g_t_min : int;
  g_span : int;
  g_passes : int;
  g_preload : int;
}

let geometry design ~rows ~cols =
  let transform = design.Tl_stt.Design.transform in
  let sd = Tl_stt.Transform.space_dims transform in
  if sd <> 1 && sd <> 2 then
    raise (Unsupported "Schedule.build: only 1-D and 2-D PE arrays");
  if sd = 1 && cols <> 1 then
    raise (Unsupported "Schedule.build: 1-D arrays use cols = 1");
  let stmt = transform.Tl_stt.Transform.stmt in
  let depth = Tl_ir.Stmt.depth stmt in
  let selected = transform.Tl_stt.Transform.selected in
  let sel_ext = Tl_stt.Transform.selected_extents transform in
  let unselected =
    List.filter (fun i -> not (Array.mem i selected)) (List.init depth Fun.id)
  in
  let unsel_ext =
    let all = Tl_ir.Stmt.extents stmt in
    List.map (fun i -> all.(i)) unselected
  in
  let passes = List.fold_left ( * ) 1 unsel_ext in
  (* a row whose span passes [max_int] fits no array *)
  let row_bounds i =
    try Tl_stt.Transform.row_bounds transform i
    with Tl_stt.Transform.Overflow msg ->
      raise (Unsupported ("Schedule.build: " ^ msg))
  in
  let t_min, t_max = row_bounds sd in
  let span = t_max - t_min + 1 in
  let preload = 1 in
  let tm = transform.Tl_stt.Transform.imatrix in
  let n_sel = Array.length selected in
  let row_r = tm.(0) in
  let row_c = if sd = 1 then Array.make n_sel 0 else tm.(1) in
  let row_t = if sd = 1 then tm.(1) else tm.(2) in
  let min_r, max_r = row_bounds 0 in
  let min_c, max_c = if sd = 1 then (0, 0) else row_bounds 1 in
  if max_r - min_r + 1 > rows || max_c - min_c + 1 > cols then
    raise
      (Unsupported
         (Printf.sprintf
            "Schedule.build: footprint %dx%d exceeds %dx%d array"
            (max_r - min_r + 1) (max_c - min_c + 1) rows cols));
  { g_design = design; g_rows = rows; g_cols = cols; g_depth = depth;
    g_selected = selected; g_sel_ext = sel_ext;
    g_unsel = Array.of_list unselected;
    g_unsel_ext = Array.of_list unsel_ext;
    g_row_r = row_r; g_row_c = row_c; g_row_t = row_t;
    g_offset = [| -min_r; -min_c |];
    g_t_min = t_min; g_span = span; g_passes = passes; g_preload = preload }

(* Drive [k] over every event in build order (passes lexicographic over
   unselected iterators, then the selected box lexicographically), keeping
   the space-time coordinates incrementally: advancing selected dimension
   [d] adds column [d] of the STT to [(r, c, t)].  The iteration vector
   passed to [k] is reused between calls. *)
let iter_geom g k =
  let x = Array.make g.g_depth 0 in
  let n_sel = Array.length g.g_selected in
  let n_unsel = Array.length g.g_unsel in
  let off_r = g.g_offset.(0) and off_c = g.g_offset.(1) in
  let rec sel_loop d r c tt pass base =
    if d = n_sel then k ~pass ~cycle:(base + tt) ~r ~c x
    else begin
      let si = g.g_selected.(d) in
      let dr = g.g_row_r.(d) and dc = g.g_row_c.(d) and dt = g.g_row_t.(d) in
      let r = ref r and c = ref c and tt = ref tt in
      for v = 0 to g.g_sel_ext.(d) - 1 do
        x.(si) <- v;
        sel_loop (d + 1) !r !c !tt pass base;
        r := !r + dr;
        c := !c + dc;
        tt := !tt + dt
      done
    end
  in
  let rec passes_loop d pass =
    if d = n_unsel then begin
      let base = g.g_preload + (pass * g.g_span) - g.g_t_min in
      sel_loop 0 off_r off_c 0 pass base;
      pass + 1
    end
    else begin
      let pass = ref pass in
      for v = 0 to g.g_unsel_ext.(d) - 1 do
        x.(g.g_unsel.(d)) <- v;
        pass := passes_loop (d + 1) !pass
      done;
      !pass
    end
  in
  ignore (passes_loop 0 0)

let build design ~rows ~cols =
  let g = geometry design ~rows ~cols in
  let by_pe = Array.init rows (fun _ -> Array.make cols []) in
  let count = ref 0 in
  let span = g.g_span and t_min = g.g_t_min and preload = g.g_preload in
  iter_geom g (fun ~pass ~cycle ~r ~c x ->
      let ev = { cycle; pass; pe = (r, c); x = Array.copy x } in
      by_pe.(r).(c) <- ev :: by_pe.(r).(c);
      incr count);
  Array.iter
    (fun row ->
      Array.iteri
        (fun c evs ->
          row.(c) <-
            List.sort (fun a b -> compare a.cycle b.cycle) (List.rev evs))
        row)
    by_pe;
  { design; rows; cols; offset = g.g_offset; t_min; span;
    passes = g.g_passes; preload;
    compute_end = preload + (g.g_passes * span); by_pe; event_count = !count }

(* ------------------------------------------------------------------ *)
(* The same geometry as {!build}, without the events. *)

type frame = {
  f_design : Tl_stt.Design.t;
  f_rows : int;
  f_cols : int;
  f_offset : int array;
  f_t_min : int;
  f_span : int;
  f_passes : int;
  f_preload : int;
  f_compute_end : int;
  f_event_count : int;
}

let frame design ~rows ~cols =
  let g = geometry design ~rows ~cols in
  let sel_volume = Array.fold_left ( * ) 1 g.g_sel_ext in
  { f_design = design; f_rows = rows; f_cols = cols; f_offset = g.g_offset;
    f_t_min = g.g_t_min; f_span = g.g_span; f_passes = g.g_passes;
    f_preload = g.g_preload;
    f_compute_end = g.g_preload + (g.g_passes * g.g_span);
    f_event_count = g.g_passes * sel_volume }

let events t =
  let all = ref [] in
  for r = t.rows - 1 downto 0 do
    for c = t.cols - 1 downto 0 do
      all := List.rev_append (List.rev t.by_pe.(r).(c)) !all
    done
  done;
  List.stable_sort (fun a b -> compare (a.cycle, a.pe) (b.cycle, b.pe)) !all

let pe_active t (r, c) = t.by_pe.(r).(c) <> []
