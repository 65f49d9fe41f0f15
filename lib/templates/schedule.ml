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
  extents : int array;
  offset : int array;
  t_min : int;
  span : int;
  passes : int;
  preload : int;
  compute_end : int;
  event_count : int;
}

(* The space/time maps are linear, so their extrema over the box are
   attained coordinate-wise: no domain sweep is needed to find the
   footprint or the span. *)
let make design ~rows ~cols ~extents ~passes =
  let transform = design.Tl_stt.Design.transform in
  let sd = Tl_stt.Transform.space_dims transform in
  if sd <> 1 && sd <> 2 then
    raise (Unsupported "Schedule.build: only 1-D and 2-D PE arrays");
  if sd = 1 && cols <> 1 then
    raise (Unsupported "Schedule.build: 1-D arrays use cols = 1");
  (* a row whose span passes [max_int] fits no array *)
  let row_bounds i =
    try Tl_stt.Transform.row_bounds transform extents i
    with Tl_stt.Transform.Overflow msg ->
      raise (Unsupported ("Schedule.build: " ^ msg))
  in
  let t_min, t_max = row_bounds sd in
  let span = t_max - t_min + 1 in
  let preload = 1 in
  let min_r, max_r = row_bounds 0 in
  let min_c, max_c = if sd = 1 then (0, 0) else row_bounds 1 in
  if max_r - min_r + 1 > rows || max_c - min_c + 1 > cols then
    raise
      (Unsupported
         (Printf.sprintf
            "Schedule.build: footprint %dx%d exceeds %dx%d array"
            (max_r - min_r + 1) (max_c - min_c + 1) rows cols));
  { design; rows; cols; extents; offset = [| -min_r; -min_c |]; t_min; span;
    passes; preload; compute_end = preload + (passes * span);
    event_count = passes * Array.fold_left ( * ) 1 extents }

let v design ~rows ~cols =
  let transform = design.Tl_stt.Design.transform in
  let passes =
    List.fold_left
      (fun acc (it : Tl_ir.Iter.t) -> acc * it.Tl_ir.Iter.extent)
      1
      (Tl_stt.Transform.unselected_iters transform)
  in
  make design ~rows ~cols
    ~extents:(Tl_stt.Transform.selected_extents transform) ~passes

let tile design ~rows ~cols extents =
  let selected = design.Tl_stt.Design.transform.Tl_stt.Transform.selected in
  if Array.length extents <> Array.length selected then
    invalid_arg "Schedule.tile: one extent per selected loop";
  make design ~rows ~cols ~extents:(Array.copy extents) ~passes:1

(* Walk every event in order (passes lexicographic over the unselected
   loops, the box lexicographically within a pass), keeping the
   space-time coordinates incrementally: advancing selected dimension [d]
   adds column [d] of the STT to [(r, c, t)].  Pass [p]'s unselected
   coordinates are [p] in the mixed radix of the unselected extents, the
   last loop fastest, so a tile's single pass has them all at 0. *)
let by_pe t =
  let transform = t.design.Tl_stt.Design.transform in
  let stmt = transform.Tl_stt.Transform.stmt in
  let selected = transform.Tl_stt.Transform.selected in
  let sd = Tl_stt.Transform.space_dims transform in
  let tm = transform.Tl_stt.Transform.imatrix in
  let n_sel = Array.length selected in
  let row_r = tm.(0) in
  let row_c = if sd = 1 then Array.make n_sel 0 else tm.(1) in
  let row_t = tm.(sd) in
  let all = Tl_ir.Stmt.extents stmt in
  let unsel =
    List.filter
      (fun i -> not (Array.mem i selected))
      (List.init (Tl_ir.Stmt.depth stmt) Fun.id)
    |> Array.of_list
  in
  let x = Array.make (Tl_ir.Stmt.depth stmt) 0 in
  let by_pe = Array.init t.rows (fun _ -> Array.make t.cols []) in
  let rec sel_loop d r c tt pass base =
    if d = n_sel then
      by_pe.(r).(c) <-
        { cycle = base + tt; pass; pe = (r, c); x = Array.copy x }
        :: by_pe.(r).(c)
    else begin
      let si = selected.(d) in
      let dr = row_r.(d) and dc = row_c.(d) and dt = row_t.(d) in
      let r = ref r and c = ref c and tt = ref tt in
      for v = 0 to t.extents.(d) - 1 do
        x.(si) <- v;
        sel_loop (d + 1) !r !c !tt pass base;
        r := !r + dr;
        c := !c + dc;
        tt := !tt + dt
      done
    end
  in
  for pass = 0 to t.passes - 1 do
    let p = ref pass in
    for d = Array.length unsel - 1 downto 0 do
      let e = all.(unsel.(d)) in
      x.(unsel.(d)) <- !p mod e;
      p := !p / e
    done;
    let base = t.preload + (pass * t.span) - t.t_min in
    sel_loop 0 t.offset.(0) t.offset.(1) 0 pass base
  done;
  Array.iter
    (fun row ->
      Array.iteri
        (fun c evs ->
          row.(c) <-
            List.sort (fun a b -> compare a.cycle b.cycle) (List.rev evs))
        row)
    by_pe;
  by_pe
