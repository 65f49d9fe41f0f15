(* The schedule model: every schedule-table image, the data-memory
   layout, collector cell allocation, the output-bank map, the
   counter-increment tallies and the schedule-dependent wiring choices of
   an accelerator, computed without elaborating hardware.
   [Accel.generate] wires a netlist from one [build] (ROMs, or
   envelope-sized descriptor rams, take their images from here);
   [Tl_compile] re-runs [build] for a new einsum against an
   already-generated netlist to obtain a program.

   Names, cell allocation and the order of every wiring list are the
   netlist's: [Accel] creates memories in the order the wiring data lists
   them, and that order fixes the emitted Verilog.  Where a list follows a
   Hashtbl's iteration order, the table's initial size and insertion
   sequence are part of that order. *)

exception Unsupported of string

type domain = Cycle | Pass

type envelope = {
  env_cycles : int;  (** max schedule length (cycle-indexed table size) *)
  env_passes : int;  (** max pass count (pass tables hold env_passes+1) *)
  env_elems : int;   (** max elements per input data memory *)
  env_bank : int;    (** max cells per collector bank *)
}

type mem = {
  m_name : string;
  m_domain : domain;
  m_image : int array;  (** natural length: total (Cycle) / passes+1 (Pass) *)
}

type input = {
  in_tensor : string;  (** request-side tensor name (environment key) *)
  in_mem : string;     (** target-side data-memory key ([Accel.input_rams]) *)
  in_elems : int;
  in_shape : int array;
}

type pos = Geometry.pos

type bank = { b_name : string; b_cells : int; b_we : mem; b_addr : mem }

type feed =
  | Bus of { table : mem; pes : pos list }
  | Held of { table : mem; at : pos; pes : pos list }

type source = Own of mem | Line of pos

type link = { pe : pos; inject : (mem * source) option }

type wiring =
  | Feeds of feed list
  | Chains of { dp : int array; dt : int; links : link list;
                line_feeds : (pos * mem) list }

type psum = Fresh | Chain | Mux of mem

type collect =
  | Drain of { fp_rows : int; columns : (int * bank) list }
  | Sys_out of { dp : int array; dt : int; psums : (pos * psum) list;
                 exits : (pos * bank) list }
  | Trees of { stage_acc : bool; lines : (pos * pos list * bank) list }

type t = {
  l_design : Tl_stt.Design.t;
  l_rows : int;
  l_cols : int;
  l_sched : Schedule.t;
  l_total : int;
  l_passes : int;
  l_events : int;
  l_structure : string;
  l_mems : mem list;
  l_inputs : input list;
  l_banks : (string * int * int) list;  (** name, declared capacity, used *)
  l_out : (int list * (string * int)) list;
      (** output element index → (bank name, bank address) *)
  l_out_shape : int array;
  l_done : mem;
  l_tick : mem;
  l_feeds : (string * wiring) list;
  l_valid : (pos * mem) list;
  l_collect : collect;
  l_read_ctrs : (string * mem) list;
  l_link_ctrs : (string * mem) list;
}

(* A compiled program: the loadable subset of a layout, stripped of the
   design so it serialises cleanly and can outlive the request that
   produced it. *)
type program = {
  p_name : string;
  p_structure : string;
  p_total : int;
  p_passes : int;
  p_events : int;
  p_images : (string * (domain * int array)) list;
  p_inputs : input list;
  p_out : (int list * (string * int)) list;
  p_out_shape : int array;
}

let domain_string = function Cycle -> "cycle" | Pass -> "pass"

(* ------------------------------------------------------------------ *)
(* The controller's schedule geometry.                                  *)

let max_dt (design : Tl_stt.Design.t) =
  List.fold_left
    (fun acc (ti : Tl_stt.Design.tensor_info) ->
      match ti.Tl_stt.Design.dataflow with
      | Tl_stt.Dataflow.Systolic { dt; _ } -> max acc dt
      | Tl_stt.Dataflow.Reuse2d
          (Tl_stt.Dataflow.Systolic_multicast { systolic; _ }) ->
        max acc systolic.Tl_stt.Dataflow.dt
      | Tl_stt.Dataflow.Unicast | Tl_stt.Dataflow.Stationary _
      | Tl_stt.Dataflow.Multicast _
      | Tl_stt.Dataflow.Reuse2d
          (Tl_stt.Dataflow.Broadcast | Tl_stt.Dataflow.Multicast_stationary _)
      | Tl_stt.Dataflow.Reuse_full -> acc)
    1 design.Tl_stt.Design.tensors

let total_of ~compute_end ~rows design = compute_end + rows + max_dt design + 4

(* The total is [f_preload + passes * span + rows + max_dt + 4].  The
   domain fitting an int does not make it fit: with m = n = 1 and k near
   [max_int] the sum wraps negative, and a negative need passes every
   capacity check.  [Schedule.frame] refuses a span past [max_int], so
   [span >= 1] here. *)
let schedule_size design ~rows ~cols =
  let fr =
    try Schedule.frame design ~rows ~cols
    with Schedule.Unsupported msg -> raise (Unsupported msg)
  in
  let passes = fr.Schedule.f_passes and span = fr.Schedule.f_span in
  let fixed = fr.Schedule.f_preload + rows + max_dt design + 4 in
  if span > (max_int - fixed) / passes then
    raise (Unsupported "Layout: the schedule length does not fit in an int");
  (total_of ~compute_end:fr.Schedule.f_compute_end ~rows design, passes)

(* last cycle of pass [p] *)
let tick_cycle (sched : Schedule.t) p =
  sched.Schedule.preload + ((p + 1) * sched.Schedule.span) - 1

let grid_iter rows cols f =
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      f (r, c)
    done
  done

(* PEs with at least one event, row-major *)
let active_pes (sched : Schedule.t) =
  let acc = ref [] in
  grid_iter sched.Schedule.rows sched.Schedule.cols (fun p ->
      if Schedule.pe_active sched p then acc := p :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Build context.                                                       *)

type ctx = {
  sched : Schedule.t;
  total : int;
  pes : pos list;  (* active PEs, row-major *)
  rename : string -> string;  (* request tensor name → target tensor name *)
  shapes : (string * int array) list;  (* request tensor name → shape *)
  iters : Tl_ir.Iter.t list;  (* the iteration box, nest order *)
  mutable mems : mem list;  (* reverse insertion order *)
  mutable inputs : input list;  (* reverse insertion order *)
  seen_inputs : (string, unit) Hashtbl.t;
  out_locs : (int list, string * int) Hashtbl.t;
  mutable banks : (string * int * int) list;  (* reverse insertion order *)
  (* observability tallies, per cycle: useful reads of each input memory
     and values crossing systolic hops / multicast buses; [Accel] compiles
     them into increment tables when counters are on *)
  tally_reads : (string, int array) Hashtbl.t;
  tally_sys_link : int array;
  tally_mc_link : int array;
  mutable struct_lines : string list;  (* reverse order *)
}

let structural ctx line = ctx.struct_lines <- line :: ctx.struct_lines

let add_mem ctx ~domain name image =
  let m = { m_name = name; m_domain = domain; m_image = image } in
  ctx.mems <- m :: ctx.mems;
  m

let events_of ctx (r, c) = ctx.sched.Schedule.by_pe.(r).(c)

let shape_of ctx tensor =
  try List.assoc tensor ctx.shapes
  with Not_found -> raise (Unsupported ("Layout: unknown tensor " ^ tensor))

(* the data memory backing one tensor: record it once, renamed *)
let data_mem ctx (access : Tl_ir.Access.t) =
  let tensor = access.Tl_ir.Access.tensor in
  if not (Hashtbl.mem ctx.seen_inputs tensor) then begin
    Hashtbl.add ctx.seen_inputs tensor ();
    let shape = shape_of ctx tensor in
    ctx.inputs <-
      { in_tensor = tensor; in_mem = ctx.rename tensor;
        in_elems = Array.fold_left ( * ) 1 shape; in_shape = shape }
      :: ctx.inputs
  end

(* One access's addressing.  Every access is affine, so the row-major
   offset of an event's element in its tensor's data memory is one dot
   product of a linear form with the iteration vector.  Every point of
   the iteration box is an event, so one comparison of the access's own
   reach with the tensor's shape bounds-checks every event.  A tensor's
   shape is the reach of its first access and the output comes first,
   so only an input read with a second shape can fail the check. *)
type addr = { access : Tl_ir.Access.t; form : int array }

let addressing ctx (access : Tl_ir.Access.t) =
  let shape = shape_of ctx access.Tl_ir.Access.tensor in
  let reach = Tl_ir.Access.shape access ctx.iters in
  if Array.length reach <> Array.length shape then
    raise (Unsupported "Layout: index rank mismatch");
  if not (Array.for_all2 ( <= ) reach shape) then
    raise (Unsupported "Layout: index out of bounds");
  let form = Array.make (Tl_ir.Access.depth access) 0 in
  let stride = ref 1 in
  for d = Array.length shape - 1 downto 0 do
    Array.iteri
      (fun j c -> form.(j) <- form.(j) + (!stride * c))
      access.Tl_ir.Access.matrix.(d);
    stride := !stride * shape.(d)
  done;
  { access; form }

(* the element an event touches, as its data-memory address: [form · x] *)
let element a (ev : Schedule.event) =
  let x = ev.Schedule.x and form = a.form in
  let k = ref 0 in
  for j = 0 to Array.length form - 1 do
    k := !k + (form.(j) * x.(j))
  done;
  !k

let pos_name prefix (r, c) = Printf.sprintf "%s_%d_%d" prefix r c

(* ------------------------------------------------------------------ *)
(* Observability tallies.  The counting rules mirror Perf_model's
   per-tensor traffic accounting so the compiled counters can be
   cross-checked against the analytical model:
   - unicast: one read per PE event;
   - multicast / broadcast: one read per distinct bus cycle, one link
     delivery per member event;
   - stationary (and multicast-stationary): one read per port per useful
     stage load — the preload tick plus every pass tick except the last,
     whose load fetches the trailing dummy entry and is not counted;
   - systolic: one read per chain-entry injection, one link transfer per
     event served by a neighbour hop. *)

let tally arr cycle = arr.(cycle) <- arr.(cycle) + 1

(* the useful-read tally of a tensor, made at its first read *)
let reads_of ctx tensor =
  match Hashtbl.find_opt ctx.tally_reads tensor with
  | Some a -> a
  | None ->
    let a = Array.make ctx.total 0 in
    Hashtbl.add ctx.tally_reads tensor a;
    a

(* useful stage loads of one stationary port: preload tick + the pass
   ticks of passes 0..passes-2 (the final tick loads the dummy entry) *)
let stage_load_cycles ctx =
  0
  :: List.init (max 0 (ctx.sched.Schedule.passes - 1)) (tick_cycle ctx.sched)

let tally_stage_loads ctx tensor =
  List.iter (tally (reads_of ctx tensor)) (stage_load_cycles ctx)

(* ------------------------------------------------------------------ *)
(* Images.  [runs] are event lists written in order, so a later event
   wins a shared slot. *)

(* feed port image: cycle → data-memory address.  A port reads once per
   event, a [shared] one (a line or the broadcast bus) once per distinct
   cycle.  Every run comes from an active PE or a chain entry, so the
   port reads at least once. *)
let value_mem ctx a ~shared name runs =
  data_mem ctx a.access;
  let reads = reads_of ctx a.access.Tl_ir.Access.tensor in
  let data = Array.make ctx.total 0 in
  let seen = Bytes.make (if shared then ctx.total else 0) '\000' in
  List.iter
    (List.iter (fun ev ->
         let cycle = ev.Schedule.cycle in
         data.(cycle) <- element a ev;
         if not shared then tally reads cycle
         else if Bytes.get seen cycle = '\000' then begin
           Bytes.set seen cycle '\001';
           tally reads cycle
         end))
    runs;
  add_mem ctx ~domain:Cycle (name ^ "_addr") data

(* stationary feed image: pass → address (+ trailing zero entry) *)
let stage_mem ctx a name runs =
  data_mem ctx a.access;
  let data = Array.make (ctx.sched.Schedule.passes + 1) 0 in
  List.iter
    (List.iter (fun ev ->
         data.(ev.Schedule.pass) <- element a ev))
    runs;
  add_mem ctx ~domain:Pass (name ^ "_saddr") data

let bitmap_mem ctx name cycles =
  let data = Array.make ctx.total 0 in
  List.iter (fun cycle -> data.(cycle) <- 1) cycles;
  add_mem ctx ~domain:Cycle name data

(* ------------------------------------------------------------------ *)
(* Collector banks: accumulate-in-place output memories.  [writes] lists
   (cycle, output element); cells are allocated on first touch in that
   order. *)

let collector ctx ~name ~capacity writes =
  let cells : (int list, int) Hashtbl.t = Hashtbl.create 16 in
  let alloc idx =
    match Hashtbl.find_opt cells idx with
    | Some a -> a
    | None ->
      let a = Hashtbl.length cells in
      if a >= max 1 capacity then
        raise (Unsupported ("collector bank overflow: " ^ name));
      Hashtbl.add cells idx a;
      Hashtbl.replace ctx.out_locs idx (name, a);
      a
  in
  let we = Array.make ctx.total 0 in
  let addr = Array.make ctx.total 0 in
  List.iter
    (fun (cycle, idx) ->
      if we.(cycle) <> 0 then
        raise (Unsupported ("collector write conflict: " ^ name));
      we.(cycle) <- 1;
      addr.(cycle) <- alloc idx)
    writes;
  let b_we = add_mem ctx ~domain:Cycle (name ^ "_we") we in
  let b_addr = add_mem ctx ~domain:Cycle (name ^ "_addr") addr in
  ctx.banks <- (name, capacity, Hashtbl.length cells) :: ctx.banks;
  { b_name = name; b_cells = max 1 capacity; b_we; b_addr }

(* ------------------------------------------------------------------ *)
(* Input tensors.                                                       *)

(* the events of a cycle-sorted list from [cycle] on *)
let rec from_cycle cycle = function
  | ev :: rest when ev.Schedule.cycle < cycle -> from_cycle cycle rest
  | evs -> evs

(* events of [p] whose element the PE at [p + dp·k] does not hold at
   [cycle + dt·k]: chain entries (k = -1) or chain exits (k = 1).  Both
   PEs' events ascend in cycle, so one merge walk pairs them. *)
let unpaired ctx a (r, c) ~dp ~dt k =
  let qr = r + (k * dp.(0)) and qc = c + (k * dp.(1)) in
  let sched = ctx.sched in
  let theirs =
    ref
      (if qr >= 0 && qr < sched.Schedule.rows && qc >= 0
          && qc < sched.Schedule.cols
       then events_of ctx (qr, qc)
       else [])
  in
  List.filter
    (fun ev ->
      let cycle = ev.Schedule.cycle + (k * dt) in
      theirs := from_cycle cycle !theirs;
      match !theirs with
      | q :: _ when q.Schedule.cycle = cycle -> element a q <> element a ev
      | _ -> true)
    (events_of ctx (r, c))

(* renamed base name for a tensor's table family *)
let tname ctx a suffix = ctx.rename a.access.Tl_ir.Access.tensor ^ suffix

let group_by_line ctx ~dir =
  let rows = ctx.sched.Schedule.rows and cols = ctx.sched.Schedule.cols in
  let groups : (pos, pos list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let rep = Geometry.line_rep ~rows ~cols ~dir p in
      match Hashtbl.find_opt groups rep with
      | Some l -> l := p :: !l
      | None -> Hashtbl.add groups rep (ref [ p ]))
    ctx.pes;
  Hashtbl.fold (fun rep l acc -> (rep, List.rev !l) :: acc) groups []
  |> List.sort compare

(* data[table[cycle]] on a bus to [members]: a unicast port reads once
   per event; a shared bus (a multicast line or the broadcast) reads once
   per distinct cycle and delivers every member event over a link *)
let bus ctx a ~shared name members =
  let runs = List.map (events_of ctx) members in
  if shared then
    List.iter
      (List.iter (fun ev -> tally ctx.tally_mc_link ev.Schedule.cycle))
      runs;
  Bus { table = value_mem ctx a ~shared name runs; pes = members }

(* data[table[pass]] held in one stage register for [members]; a shared
   register (a multicast-stationary line) takes each useful stage load
   over the line bus once *)
let held ctx a ~shared suffix (at, members) =
  tally_stage_loads ctx a.access.Tl_ir.Access.tensor;
  if shared then
    List.iter (tally ctx.tally_mc_link) (stage_load_cycles ctx);
  let table =
    stage_mem ctx a
      (pos_name (tname ctx a suffix) at)
      (List.map (events_of ctx) members)
  in
  Held { table; at; pes = members }

(* Systolic chains: an event is an entry unless the PE behind holds its
   element [dt] cycles earlier; [entry p entries] supplies the injected
   values.  Every event not served by an injection rides a neighbour
   hop. *)
let chains ctx a ~dp ~dt ~entry =
  List.map
    (fun p ->
      let events = events_of ctx p in
      match unpaired ctx a p ~dp ~dt (-1) with
      | [] ->
        List.iter (fun ev -> tally ctx.tally_sys_link ev.Schedule.cycle) events;
        { pe = p; inject = None }
      | entries ->
        let bitmap =
          bitmap_mem ctx
            (pos_name (tname ctx a "_inj") p)
            (List.map (fun ev -> ev.Schedule.cycle) entries)
        in
        List.iter
          (fun ev ->
            if bitmap.m_image.(ev.Schedule.cycle) = 0 then
              tally ctx.tally_sys_link ev.Schedule.cycle)
          events;
        { pe = p; inject = Some (bitmap, entry p entries) })
    ctx.pes

let systolic_input ctx a ~dp ~dt =
  let entry p entries =
    Own
      (value_mem ctx a ~shared:false
         (pos_name (tname ctx a "_feed") p)
         [ entries ])
  in
  Chains { dp; dt; links = chains ctx a ~dp ~dt ~entry; line_feeds = [] }

(* 2-D systolic+multicast: entries on the same line (along the multicast
   direction) share one feed per line *)
let systolic_multicast_input ctx a ~multicast ~dp ~dt =
  let rows = ctx.sched.Schedule.rows and cols = ctx.sched.Schedule.cols in
  (* line feeds are recorded in this table's iteration order; a line
     holds its PEs' entries, the latest PE's first *)
  let line_runs : (pos, Schedule.event list list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let entry p entries =
    let rep = Geometry.line_rep ~rows ~cols ~dir:multicast p in
    (* each injected entry is a delivery over the shared line feed bus *)
    List.iter (fun ev -> tally ctx.tally_mc_link ev.Schedule.cycle) entries;
    (match Hashtbl.find_opt line_runs rep with
     | Some runs -> runs := entries :: !runs
     | None -> Hashtbl.add line_runs rep (ref [ entries ]));
    Line rep
  in
  let links = chains ctx a ~dp ~dt ~entry in
  let line_feeds = ref [] in
  Hashtbl.iter
    (fun rep runs ->
      let name = pos_name (tname ctx a "_lfeed") rep in
      line_feeds :=
        (rep, value_mem ctx a ~shared:true name !runs) :: !line_feeds)
    line_runs;
  Chains { dp; dt; links; line_feeds = List.rev !line_feeds }

(* the dataflow picks the wiring before the access's bounds are checked,
   so a full-reuse input reports that first *)
let build_input ctx (ti : Tl_stt.Design.tensor_info) =
  let wire =
    match ti.Tl_stt.Design.dataflow with
    | Tl_stt.Dataflow.Unicast ->
      fun a ->
        Feeds
          (List.map
             (fun p ->
               bus ctx a ~shared:false (pos_name (tname ctx a "_uni") p) [ p ])
             ctx.pes)
    | Tl_stt.Dataflow.Stationary _ ->
      fun a ->
        Feeds
          (List.map (fun p -> held ctx a ~shared:false "_st" (p, [ p ]))
             ctx.pes)
    | Tl_stt.Dataflow.Systolic { dp; dt } ->
      fun a -> systolic_input ctx a ~dp ~dt
    | Tl_stt.Dataflow.Multicast { dp } ->
      fun a ->
        Feeds
          (List.map
             (fun (rep, members) ->
               bus ctx a ~shared:true (pos_name (tname ctx a "_mc") rep)
                 members)
             (group_by_line ctx ~dir:dp))
    | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast ->
      fun a -> Feeds [ bus ctx a ~shared:true (tname ctx a "_bc") ctx.pes ]
    | Tl_stt.Dataflow.Reuse2d
        (Tl_stt.Dataflow.Multicast_stationary { multicast }) ->
      fun a ->
        Feeds
          (List.map (held ctx a ~shared:true "_mcst")
             (group_by_line ctx ~dir:multicast))
    | Tl_stt.Dataflow.Reuse2d
        (Tl_stt.Dataflow.Systolic_multicast { multicast; systolic }) ->
      fun a ->
        systolic_multicast_input ctx a ~multicast
          ~dp:systolic.Tl_stt.Dataflow.dp ~dt:systolic.Tl_stt.Dataflow.dt
    | Tl_stt.Dataflow.Reuse_full ->
      raise (Unsupported "full-reuse input tensors are not implemented")
  in
  wire (addressing ctx ti.Tl_stt.Design.access)

(* ------------------------------------------------------------------ *)
(* Output tensor.                                                       *)

let out_elem a ev = Array.to_list (Tl_ir.Access.index a.access ev.Schedule.x)

let stationary_output ctx a =
  let sched = ctx.sched in
  (* the drain chain only spans the active footprint rows *)
  let fp_rows = 1 + List.fold_left (fun acc (r, _) -> max acc r) 0 ctx.pes in
  if sched.Schedule.span < fp_rows then
    raise
      (Unsupported
         (Printf.sprintf
            "stationary output: stage span %d shorter than drain chain %d"
            sched.Schedule.span fp_rows));
  structural ctx (Printf.sprintf "fp_rows %d" fp_rows);
  let column c =
    let writes = ref [] in
    for r = 0 to fp_rows - 1 do
      (* passes ascend with cycles: the PE's first event of each pass *)
      let pass = ref (-1) in
      List.iter
        (fun ev ->
          if ev.Schedule.pass <> !pass then begin
            pass := ev.Schedule.pass;
            let write_cycle =
              tick_cycle sched ev.Schedule.pass + (fp_rows - r)
            in
            writes := (write_cycle, out_elem a ev) :: !writes
          end)
        (events_of ctx (r, c))
    done;
    ( c,
      collector ctx
        ~name:(Printf.sprintf "obank_col%d" c)
        ~capacity:(fp_rows * (sched.Schedule.passes + 1))
        !writes )
  in
  Drain
    { fp_rows;
      columns =
        List.map column (List.sort_uniq compare (List.map snd ctx.pes)) }

let systolic_output ctx a ~dp ~dt =
  let exits =
    List.filter_map
      (fun p ->
        match unpaired ctx a p ~dp ~dt 1 with
        | [] -> None
        | exits -> Some (p, exits))
      ctx.pes
  in
  (* the three psum-input cases are structural: all-fresh (constant
     zero), pure chain (neighbour), or injection-muxed (oinj bitmap) *)
  let psum p =
    let entries = unpaired ctx a p ~dp ~dt (-1) in
    let kind, psum =
      if List.length entries = List.length (events_of ctx p) then
        ("fresh", Fresh)
      else if entries = [] then ("chain", Chain)
      else
        ( "mux",
          Mux
            (bitmap_mem ctx
               (pos_name (tname ctx a "_oinj") p)
               (List.map (fun ev -> ev.Schedule.cycle) entries)) )
    in
    structural ctx (Printf.sprintf "opsum %s %s" (pos_name "" p) kind);
    (p, psum)
  in
  let psums = List.map psum ctx.pes in
  let exits =
    List.map
      (fun (p, exit_events) ->
        ( p,
          collector ctx
            ~name:(pos_name (tname ctx a "_obank") p)
            ~capacity:(List.length exit_events)
            (List.rev_map
               (fun ev -> (ev.Schedule.cycle + dt, out_elem a ev))
               exit_events) ))
      exits
  in
  Sys_out { dp; dt; psums; exits }

(* one collector per group, written once per cycle (a multicast tree) or
   once per pass at its tick (a stage accumulator); the last event per
   cycle or pass names the element.  Cells are allocated in the table's
   iteration order, which its initial size fixes. *)
let trees ctx a suffix groups ~stage_acc =
  let group (rep, members) =
    let last = Hashtbl.create (if stage_acc then 8 else 64) in
    List.iter
      (fun p ->
        List.iter
          (fun ev ->
            let key =
              if stage_acc then ev.Schedule.pass else ev.Schedule.cycle
            in
            Hashtbl.replace last key ev)
          (events_of ctx p))
      members;
    let cycle key = if stage_acc then tick_cycle ctx.sched key else key in
    let bank =
      collector ctx
        ~name:(pos_name (tname ctx a suffix) rep)
        ~capacity:(Hashtbl.length last)
        (Hashtbl.fold
           (fun key ev acc -> (cycle key, out_elem a ev) :: acc)
           last [])
    in
    (rep, members, bank)
  in
  Trees { stage_acc; lines = List.map group groups }

let unicast_output ctx a =
  let per_pe p =
    let events = events_of ctx p in
    let bank =
      collector ctx
        ~name:(pos_name (tname ctx a "_ubank") p)
        ~capacity:(List.length events)
        (List.rev_map (fun ev -> (ev.Schedule.cycle, out_elem a ev)) events)
    in
    (p, [ p ], bank)
  in
  Trees { stage_acc = false; lines = List.map per_pe ctx.pes }

let build_output ctx (ti : Tl_stt.Design.tensor_info) =
  let a = addressing ctx ti.Tl_stt.Design.access in
  match ti.Tl_stt.Design.dataflow with
  | Tl_stt.Dataflow.Unicast -> unicast_output ctx a
  | Tl_stt.Dataflow.Stationary _ -> stationary_output ctx a
  | Tl_stt.Dataflow.Systolic { dp; dt } -> systolic_output ctx a ~dp ~dt
  | Tl_stt.Dataflow.Multicast { dp } ->
    trees ctx a "_tbank" (group_by_line ctx ~dir:dp) ~stage_acc:false
  | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Multicast_stationary { multicast })
    ->
    trees ctx a "_tsbank" (group_by_line ctx ~dir:multicast) ~stage_acc:true
  | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast
  | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Systolic_multicast _)
  | Tl_stt.Dataflow.Reuse_full ->
    raise
      (Unsupported
         (Printf.sprintf "output dataflow %s has no netlist template"
            (Tl_stt.Dataflow.to_string ti.Tl_stt.Design.dataflow)))

(* ------------------------------------------------------------------ *)

let build ?(rename = Fun.id) (design : Tl_stt.Design.t) ~rows ~cols =
  let sched =
    try Schedule.build design ~rows ~cols
    with Schedule.Unsupported msg -> raise (Unsupported msg)
  in
  let total = total_of ~compute_end:sched.Schedule.compute_end ~rows design in
  let stmt = design.Tl_stt.Design.transform.Tl_stt.Transform.stmt in
  let shapes =
    List.map
      (fun (a : Tl_ir.Access.t) ->
        (a.Tl_ir.Access.tensor,
         Tl_ir.Access.shape a stmt.Tl_ir.Stmt.iters))
      (Tl_ir.Stmt.tensors stmt)
  in
  let ctx =
    { sched; total; pes = active_pes sched; rename; shapes;
      iters = stmt.Tl_ir.Stmt.iters; mems = [];
      inputs = []; seen_inputs = Hashtbl.create 8;
      out_locs = Hashtbl.create 64; banks = []; tally_reads = Hashtbl.create 4;
      tally_sys_link = Array.make total 0;
      tally_mc_link = Array.make total 0; struct_lines = [] }
  in
  (* structural preamble: grid, tensors, dataflows — everything that fixes
     the netlist shape beyond the table contents *)
  structural ctx
    (Printf.sprintf "grid %dx%d" sched.Schedule.rows sched.Schedule.cols);
  List.iteri
    (fun i (ti : Tl_stt.Design.tensor_info) ->
      structural ctx
        (Printf.sprintf "tensor %d %s %s %s" i
           (rename ti.Tl_stt.Design.access.Tl_ir.Access.tensor)
           (match ti.Tl_stt.Design.role with
            | Tl_stt.Design.Input -> "in"
            | Tl_stt.Design.Output -> "out")
           (Tl_stt.Dataflow.to_string ti.Tl_stt.Design.dataflow)))
    design.Tl_stt.Design.tensors;
  structural ctx
    (String.concat " "
       ("pes" :: List.map (fun (r, c) -> Printf.sprintf "%d,%d" r c) ctx.pes));
  (* controller streams: done saturates the cycle counter at total-1 (so
     zero padding past the natural length is harmless), tick marks the
     last cycle of each pass *)
  let l_done = bitmap_mem ctx "ctrl_done" [ total - 1 ] in
  let l_tick =
    bitmap_mem ctx "ctrl_tick"
      (List.init sched.Schedule.passes (tick_cycle sched))
  in
  (* input tensors, then per-PE valid bitmaps, then the output: the
     netlist's elaboration order *)
  let l_feeds =
    List.map
      (fun (ti : Tl_stt.Design.tensor_info) ->
        let w = build_input ctx ti in
        (ti.Tl_stt.Design.access.Tl_ir.Access.tensor, w))
      (Tl_stt.Design.input_infos design)
  in
  let l_valid =
    List.map
      (fun p ->
        let cycles = List.map (fun ev -> ev.Schedule.cycle) (events_of ctx p) in
        (p, bitmap_mem ctx (pos_name "valid" p) cycles))
      ctx.pes
  in
  let l_collect = build_output ctx (Tl_stt.Design.output_info design) in
  (* counter-increment images: per-tensor reads (sorted), then the two
     link tallies.  Emitted unconditionally — a netlist without counters
     ignores them. *)
  let counter (name, a) = (name, add_mem ctx ~domain:Cycle (name ^ "_inc") a) in
  let l_read_ctrs =
    Hashtbl.fold (fun t a acc -> (t, a) :: acc) ctx.tally_reads []
    |> List.sort compare
    |> List.map (fun (t, a) -> counter ("ctr_rd_" ^ rename t, a))
  in
  let l_link_ctrs =
    List.map counter
      [ ("ctr_link_systolic", ctx.tally_sys_link);
        ("ctr_link_multicast", ctx.tally_mc_link) ]
  in
  let mems = List.rev ctx.mems in
  (* the structure signature appends the (sorted) schedule-memory name and
     domain set — counters excluded so a program compiled for a plain
     target also describes the counters-on netlist of the same core *)
  let mem_lines =
    List.filter_map
      (fun m ->
        if String.starts_with ~prefix:"ctr_" m.m_name then None
        else
          Some
            (Printf.sprintf "mem %s %s" m.m_name (domain_string m.m_domain)))
      mems
    |> List.sort compare
  in
  let bank_lines =
    List.rev_map (fun (name, _, _) -> "bank " ^ name) ctx.banks
    |> List.sort compare
  in
  let structure =
    String.concat "\n" (List.rev ctx.struct_lines @ mem_lines @ bank_lines)
  in
  let out_access = (Tl_stt.Design.output_info design).Tl_stt.Design.access in
  { l_design = design; l_rows = rows; l_cols = cols; l_sched = sched;
    l_total = total; l_passes = sched.Schedule.passes;
    l_events = sched.Schedule.event_count; l_structure = structure;
    l_mems = mems; l_inputs = List.rev ctx.inputs;
    l_banks = List.rev ctx.banks;
    l_out =
      Hashtbl.fold (fun idx loc acc -> (idx, loc) :: acc) ctx.out_locs []
      |> List.sort compare;
    l_out_shape = shape_of ctx out_access.Tl_ir.Access.tensor;
    l_done; l_tick; l_feeds; l_valid; l_collect; l_read_ctrs; l_link_ctrs }

(* ------------------------------------------------------------------ *)
(* Capacity envelopes.                                                  *)

let envelope ~headroom l =
  { env_cycles = headroom * l.l_total;
    env_passes = headroom * l.l_passes;
    env_elems =
      headroom
      * List.fold_left (fun a (i : input) -> max a i.in_elems) 1 l.l_inputs;
    env_bank =
      headroom * List.fold_left (fun a (_, cap, _) -> max a cap) 1 l.l_banks }

type overflow = { what : string; need : int; capacity : int }

let exceeds env ~total ~passes ~elems ~banks =
  let over what need capacity =
    if need > capacity then Some { what; need; capacity } else None
  in
  let first = List.find_map Fun.id in
  first
    [ over "schedule cycles" total env.env_cycles;
      over "schedule passes" passes env.env_passes;
      first
        (List.map
           (fun (t, n) ->
             over (Printf.sprintf "tensor %s elements" t) n env.env_elems)
           elems);
      first
        (List.map
           (fun (b, cap) ->
             (* a bank holds at least one cell, however small either side *)
             if max 1 cap > max 1 env.env_bank then
               Some
                 { what = Printf.sprintf "bank %s cells" b; need = max 1 cap;
                   capacity = env.env_bank }
             else None)
           banks) ]

let overflow env l =
  exceeds env ~total:l.l_total ~passes:l.l_passes
    ~elems:(List.map (fun i -> (i.in_tensor, i.in_elems)) l.l_inputs)
    ~banks:(List.map (fun (b, cap, _) -> (b, cap)) l.l_banks)

let overflow_to_string { what; need; capacity } =
  Printf.sprintf "%s exceed the envelope: need %d, capacity %d" what need
    capacity

let structure_digest structure = Tl_stt.Signature.key_digest structure

let out_defect p =
  let shape = p.p_out_shape in
  let dims l = String.concat ", " (List.map string_of_int l) in
  if Array.length shape = 0 || Array.exists (fun e -> e < 1) shape then
    Some
      (Printf.sprintf "out_shape [%s] must list extents of at least 1"
         (dims (Array.to_list shape)))
  else if not (Tl_ir.Dense.fits shape) then
    Some
      (Printf.sprintf "out_shape [%s] has more elements than a tensor may \
                       hold (%d)"
         (dims (Array.to_list shape)) Tl_ir.Dense.max_elements)
  else
    List.find_map
      (fun (idx, _) ->
        if List.length idx <> Array.length shape then
          Some
            (Printf.sprintf "out index [%s] has rank %d, out_shape %d"
               (dims idx) (List.length idx) (Array.length shape))
        else if List.exists2 (fun i e -> i < 0 || i >= e) idx
                  (Array.to_list shape)
        then
          Some
            (Printf.sprintf "out index [%s] lies outside out_shape [%s]"
               (dims idx) (dims (Array.to_list shape)))
        else None)
      p.p_out

let to_program ?name l =
  let name =
    match name with
    | Some n -> n
    | None -> l.l_design.Tl_stt.Design.name
  in
  { p_name = name; p_structure = l.l_structure; p_total = l.l_total;
    p_passes = l.l_passes; p_events = l.l_events;
    p_images =
      List.map (fun m -> (m.m_name, (m.m_domain, m.m_image))) l.l_mems;
    p_inputs = l.l_inputs; p_out = l.l_out; p_out_shape = l.l_out_shape }
