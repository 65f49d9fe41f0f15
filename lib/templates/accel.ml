open Tl_hw

exception Unsupported = Layout.Unsupported

exception Simulation_timeout of { design : string; cycles : int }

exception Bad_program of string

type prog_info = {
  pi_envelope : Layout.envelope;
  pi_structure : string;
      (** canonical netlist-shape string ({!Layout.field-l_structure}) of the
          generating design; a program loads iff its structure matches *)
  pi_mems : (string * Signal.ram) list;
      (** writable descriptor memories by name, in elaboration order *)
}

type t = {
  design : Tl_stt.Design.t;
  rows : int;
  cols : int;
  data_width : int;
  acc_width : int;
  schedule : Schedule.t;
  circuit : Circuit.t;
  total_cycles : int;
  out_locs : (int list, Signal.ram * int) Hashtbl.t;
  banks : (string * Signal.ram) list;
  input_rams : (string * Signal.ram) list;
      (** per-tensor linear data memories; rewrite them to re-run the same
          accelerator on fresh data *)
  hardening : Harden.applied;
  counter_ports : string list;
      (** output-port names of the performance counters elaborated by
          [~counters]; empty when counters are off *)
  prog : prog_info option;
      (** [Some _] iff generated with [~programmable]: the schedule tables
          are envelope-sized writable descriptor memories and the
          accelerator accepts {!load_program} / {!execute_program} *)
}

let bits_for n =
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  max 1 (go 1)

(* ------------------------------------------------------------------ *)
(* Elaboration context.  Everything schedule-dependent comes from one
   [Layout.t]; this side only creates and wires hardware.               *)

(* ROM mode bakes each schedule table into an elaborated rom of natural
   size; programmable mode sizes the same table to the capacity envelope
   and records it so [load_program] can rewrite it at runtime.  The
   envelope makes every table size — and therefore every derived address
   width — independent of the generating shape, which is exactly what lets
   one netlist serve any schedule that fits the envelope. *)
type table_mode = [ `Rom | `Prog of Layout.envelope ]

type ctx = {
  mode : table_mode;
  tables : (string * Signal.ram) list ref;  (* descriptor rams, reverse order *)
  dw : int;
  aw : int;
  cycle : Signal.t;
  tick : Signal.t;        (* last cycle of each pass *)
  stage_start : Signal.t; (* first cycle of passes 1.. *)
  stage_load : Signal.t;  (* preload tick or pass tick: stationary load *)
  stage_load_addr : Signal.t;
  drain_shift : Signal.t;
  env : Tl_ir.Exec.env;
  data_rams : (string, Signal.ram) Hashtbl.t;
  mutable bank_list : (string * Signal.ram) list;
  mutable probe_outputs : (string * Signal.t) list;
  probe_addr : Signal.t;
  harden : Harden.config;
  parity_of_ram : (int, Signal.ram) Hashtbl.t;  (* ram id → parity ram *)
  mutable parity_pairs : (Signal.ram * Signal.ram) list;
  mutable parity_errs : Signal.t list;  (* comb parity-mismatch strobes *)
  mutable write_strobes : (string * Signal.t) list;  (* bank name → we *)
}

(* Parity companion of a ram: created on demand when parity hardening is
   on.  Read-only rams get a read-only companion initialised to the
   parity of their image; writable banks get a writable companion whose
   write port the caller hooks up alongside the data write. *)
let parity_ram ctx (r : Signal.ram) =
  match Hashtbl.find_opt ctx.parity_of_ram r.Signal.ram_id with
  | Some p -> p
  | None ->
    let name = r.Signal.ram_name ^ "_parity" in
    let p =
      Signal.ram ~name ~read_only:r.Signal.read_only ~size:r.Signal.size
        ~width:1
        ~init:(Array.map Harden.parity_bit r.Signal.init_data)
        ()
    in
    Hashtbl.add ctx.parity_of_ram r.Signal.ram_id p;
    ctx.parity_pairs <- (r, p) :: ctx.parity_pairs;
    p

(* Re-check a scheduled read: data parity vs stored parity bit. *)
let parity_check ctx ram ~addr ~data =
  if ctx.harden.Harden.parity_banks then begin
    let p = parity_ram ctx ram in
    let err = Signal.(Harden.parity_of data ^: Signal.ram_read p addr) in
    ctx.parity_errs <- err :: ctx.parity_errs
  end

(* Every schedule table goes through this chokepoint.  [`Rom]: a rom of
   natural size holding the layout's image.  [`Prog]: a read-only
   (config-plane-written) ram sized by the envelope and zero-padded past
   the image — safe because the controller's saturating done flag keeps
   the cycle counter off the padding.  [generate] has checked that every
   image fits. *)
let table_ram ~mode ~tables ~width (m : Layout.mem) =
  let name = m.Layout.m_name and image = m.Layout.m_image in
  match (mode : table_mode) with
  | `Rom -> Signal.rom ~name ~width image
  | `Prog e ->
    let size =
      match m.Layout.m_domain with
      | Layout.Cycle -> e.Layout.env_cycles
      | Layout.Pass -> e.Layout.env_passes + 1
    in
    let init = Array.make size 0 in
    Array.blit image 0 init 0 (Array.length image);
    let r = Signal.ram ~name ~read_only:true ~size ~width ~init () in
    tables := (name, r) :: !tables;
    r

(* a table read at its domain's index: the cycle, or the stage to load *)
let read_table ctx ~width (m : Layout.mem) =
  let index =
    match m.Layout.m_domain with
    | Layout.Cycle -> ctx.cycle
    | Layout.Pass -> ctx.stage_load_addr
  in
  Signal.ram_read (table_ram ~mode:ctx.mode ~tables:ctx.tables ~width m) index

(* Input data lives in one linear (row-major) memory per tensor, as a DMA
   engine would deposit it; feeders address it through schedule tables
   (cycle -> address).  This factors data from schedule: the same generated
   accelerator re-runs on fresh data by rewriting the data memories only
   (see [execute_with]). *)
let data_ram ctx tensor =
  match Hashtbl.find_opt ctx.data_rams tensor with
  | Some r -> r
  | None ->
    let dense = List.assoc tensor ctx.env in
    let natural = Tl_ir.Dense.size dense in
    let size =
      match ctx.mode with `Rom -> natural | `Prog e -> e.Layout.env_elems
    in
    let init =
      Array.init size (fun i ->
          if i < natural then Tl_ir.Dense.flat_get dense i else 0)
    in
    let r =
      (* pre-loaded data memory: the netlist never writes it (a DMA engine
         or [Sim.load_ram] fills it), so it is a rom to the lint *)
      Signal.ram ~name:(tensor ^ "_mem") ~read_only:true ~size ~width:ctx.dw
        ~init ()
    in
    Hashtbl.add ctx.data_rams tensor r;
    r

(* feed port: data_mem[table[index]] *)
let read_data ctx tensor table =
  let mem = data_ram ctx tensor in
  let addr = read_table ctx ~width:(bits_for mem.Signal.size) table in
  let value = Signal.ram_read mem addr in
  parity_check ctx mem ~addr ~data:value;
  value

(* ------------------------------------------------------------------ *)
(* Collector banks: accumulate-in-place output memories.               *)

(* the bank plus its table-scheduled read-modify-write accumulation *)
let collector ctx (b : Layout.bank) value =
  let open Signal in
  let name = b.Layout.b_name in
  let size =
    match ctx.mode with
    | `Rom -> b.Layout.b_cells
    | `Prog e -> max 1 e.Layout.env_bank
  in
  let bank =
    Signal.ram ~name ~size ~width:ctx.aw ~init:(Array.make size 0) ()
  in
  ctx.bank_list <- (name, bank) :: ctx.bank_list;
  let aw_bits = bits_for size in
  let we = read_table ctx ~width:1 b.Layout.b_we in
  let addr = read_table ctx ~width:aw_bits b.Layout.b_addr in
  let old = ram_read bank addr in
  ctx.write_strobes <- (name, we) :: ctx.write_strobes;
  Signal.ram_write bank ~we ~addr ~data:(old +: value);
  if ctx.harden.Harden.parity_banks then begin
    (* parity companion follows every accumulate; the read-modify-write
       path re-checks the parity of the accumulator value it consumes *)
    let p = parity_ram ctx bank in
    Signal.ram_write p ~we ~addr ~data:(Harden.parity_of (old +: value));
    let err = we &: (Harden.parity_of old ^: ram_read p addr) in
    ctx.parity_errs <- err :: ctx.parity_errs
  end;
  (* probe port so the bank is observable (and reachable) *)
  let pbits = min (width ctx.probe_addr) aw_bits in
  let paddr = uresize (select ctx.probe_addr ~hi:(pbits - 1) ~lo:0) aw_bits in
  ctx.probe_outputs <-
    (name ^ "_probe", ram_read bank paddr) :: ctx.probe_outputs

(* ------------------------------------------------------------------ *)
(* Input-tensor hardware: sets the per-PE operand ("use") signals.     *)

let wire_input ctx tensor (wiring : Layout.wiring) uses =
  let set (r, c) s = uses.(r).(c) <- Some s in
  match wiring with
  | Layout.Feeds feeds ->
    List.iter
      (function
        | Layout.Bus { table; pes } ->
          let bus = read_data ctx tensor table in
          List.iter (fun p -> set p (Pe_modules.direct_input ~bus)) pes
        | Layout.Held { table; at; pes } ->
          let next = read_data ctx tensor table in
          let held =
            Signal.(
              Pe_modules.stationary_input ~load:ctx.stage_load ~next
              -- Layout.pos_name (tensor ^ "_stin") at)
          in
          List.iter (fun p -> set p held) pes)
      feeds
  | Layout.Chains { dp; dt; links; line_feeds } ->
    (* systolic chains, optionally fed from per-line entry buses (2-D
       reuse); a PE without an active neighbour behind it reads zero *)
    let line_bus =
      List.map (fun (rep, _) -> (rep, Signal.wire ctx.dw)) line_feeds
    in
    let wires = Hashtbl.create 16 in
    List.iter
      (fun (k : Layout.link) ->
        Hashtbl.replace wires k.Layout.pe (Signal.wire ctx.dw))
      links;
    List.iter
      (fun { Layout.pe; inject } ->
        let neighbor =
          match Hashtbl.find_opt wires (Geometry.back pe dp) with
          | Some w -> w
          | None -> Signal.const ~width:ctx.dw 0
        in
        let din =
          match inject with
          | None -> neighbor
          | Some (bitmap, source) ->
            let inject = read_table ctx ~width:1 bitmap in
            let feed =
              match source with
              | Layout.Own table -> read_data ctx tensor table
              | Layout.Line rep -> List.assoc rep line_bus
            in
            Signal.mux2 inject feed neighbor
        in
        let use, dout = Pe_modules.systolic_input ~dt ~din in
        if dt > 0 then
          (* the chain register carrying data to the neighbour: interconnect *)
          ignore Signal.(dout -- Layout.pos_name (tensor ^ "_sysin") pe);
        Signal.assign (Hashtbl.find wires pe) dout;
        set pe use)
      links;
    List.iter
      (fun (rep, table) ->
        Signal.assign (List.assoc rep line_bus) (read_data ctx tensor table))
      line_feeds

(* ------------------------------------------------------------------ *)
(* Output-tensor hardware.                                             *)

let wire_output ctx tensor (collect : Layout.collect) ~prods ~valids =
  let prod (r, c) =
    match prods.(r).(c) with
    | Some s -> s
    | None -> Signal.const ~width:ctx.aw 0
  in
  let valid (r, c) =
    match valids.(r).(c) with Some v -> v | None -> Signal.gnd
  in
  let gated p =
    let contribution = prod p in
    Pe_modules.tree_contribution ~valid:(valid p) ~contribution
  in
  match collect with
  | Layout.Drain { fp_rows; columns } ->
    List.iter
      (fun (c, bank) ->
        let shadow_above = ref (Signal.const ~width:ctx.aw 0) in
        for r = 0 to fp_rows - 1 do
          let contribution = prod (r, c) in
          let m =
            Pe_modules.stationary_output ~valid:(valid (r, c))
              ~stage_start:ctx.stage_start ~capture:ctx.tick
              ~drain_shift:ctx.drain_shift ~contribution
              ~shadow_in:!shadow_above
          in
          ignore Signal.(m.Pe_modules.acc -- Layout.pos_name "acc" (r, c));
          ignore
            Signal.(m.Pe_modules.shadow -- Layout.pos_name "shadow" (r, c));
          shadow_above := m.Pe_modules.shadow
        done;
        collector ctx bank !shadow_above)
      columns
  | Layout.Sys_out { dp; dt; psums; exits } ->
    let wires = Hashtbl.create 16 in
    List.iter
      (fun (p, _) -> Hashtbl.replace wires p (Signal.wire ctx.aw))
      psums;
    List.iter
      (fun (p, psum) ->
        let neighbor =
          match Hashtbl.find_opt wires (Geometry.back p dp) with
          | Some w -> w
          | None -> Signal.const ~width:ctx.aw 0
        in
        let psum_in =
          match (psum : Layout.psum) with
          | Layout.Fresh -> Signal.const ~width:ctx.aw 0
          | Layout.Chain -> neighbor
          | Layout.Mux bitmap ->
            let inject = read_table ctx ~width:1 bitmap in
            Signal.mux2 inject (Signal.const ~width:ctx.aw 0) neighbor
        in
        let out =
          Pe_modules.systolic_output ~dt ~psum_in ~contribution:(gated p)
        in
        if dt > 0 then
          ignore Signal.(out -- Layout.pos_name (tensor ^ "_sysout") p);
        Signal.assign (Hashtbl.find wires p) out)
      psums;
    List.iter (fun (p, bank) -> collector ctx bank (Hashtbl.find wires p)) exits
  | Layout.Trees { stage_acc; lines } ->
    List.iter
      (fun (rep, members, bank) ->
        let tree = Reduce_tree.build (List.map gated members) in
        if not stage_acc then collector ctx bank tree
        else begin
          let open Signal in
          let accw = wire ctx.aw in
          let acc_d = mux2 ctx.stage_start tree (accw +: tree) in
          assign accw (reg acc_d -- Layout.pos_name "acc" rep);
          (* at the tick the full stage total is acc + tree (the reg input) *)
          collector ctx bank acc_d
        end)
      lines

(* ------------------------------------------------------------------ *)

(* The env must hold every tensor the layout reads, at the layout's
   shape: data-memory addresses are row-major over that shape. *)
let check_env (l : Layout.t) env =
  List.iter
    (fun (i : Layout.input) ->
      let name = i.Layout.in_tensor in
      match List.assoc_opt name env with
      | None -> invalid_arg ("Accel.generate: missing tensor " ^ name)
      | Some d ->
        if Tl_ir.Dense.shape d <> i.Layout.in_shape then
          invalid_arg ("Accel.generate: shape mismatch for " ^ name))
    l.Layout.l_inputs

let generate ?(rows = 4) ?(cols = 4) ?(data_width = 16) ?(acc_width = 32)
    ?(harden = Harden.none) ?(counters = false) ?programmable design env =
  let l = Layout.build design ~rows ~cols in
  check_env l env;
  let sched = l.Layout.l_sched and total = l.Layout.l_total in
  let mode : table_mode =
    match programmable with None -> `Rom | Some e -> `Prog e
  in
  (match mode with
   | `Rom -> ()
   | `Prog e ->
     Option.iter
       (fun o ->
         raise
           (Unsupported
              ("programmable envelope too small: "
              ^ Layout.overflow_to_string o)))
       (Layout.overflow e l));
  let cw =
    match mode with
    | `Rom -> bits_for total
    | `Prog e -> bits_for e.Layout.env_cycles
  in
  let tables = ref [] in
  let open Signal in
  (* controller: [creg] builds each state register, triplicated with a
     majority vote when TMR hardening is on — all copies latch the same
     next state computed from the voted feedback, so a single upset copy
     self-heals at the next edge *)
  let tmr_names = ref [] in
  let creg name ?enable d =
    if harden.Harden.tmr_controller then begin
      tmr_names := name :: !tmr_names;
      Harden.tmr_reg ~name ?enable d -- name
    end
    else reg ?enable d -- name
  in
  let cycle_w = wire cw in
  (* ROM mode derives [done]/[tick] from comparators against elaborated
     constants; programmable mode reads them from two 1-bit cycle-indexed
     descriptor streams, so reprogramming the streams retargets the
     controller without touching the netlist.  [done] saturates the cycle
     counter at its own assertion cycle, which keeps the counter off the
     zero padding past a program's natural length. *)
  let done_ =
    match mode with
    | `Rom -> eq cycle_w (const ~width:cw (total - 1)) -- "done"
    | `Prog _ ->
      let m = table_ram ~mode ~tables ~width:1 l.Layout.l_done in
      ram_read m cycle_w -- "done"
  in
  let cycle =
    creg "cycle_ctr" (mux2 done_ cycle_w (cycle_w +: const ~width:cw 1))
  in
  assign cycle_w cycle;
  let tick =
    match mode with
    | `Rom ->
      let preload_c = const ~width:cw sched.Schedule.preload in
      let compute_end_c = const ~width:cw sched.Schedule.compute_end in
      let compute_active =
        (ule preload_c cycle &: ult cycle compute_end_c) -- "compute_active"
      in
      let span = sched.Schedule.span in
      let ipw = bits_for span in
      let in_pass_w = wire ipw in
      let tick =
        (compute_active &: eq in_pass_w (const ~width:ipw (span - 1)))
        -- "tick"
      in
      let in_pass =
        creg "in_pass" ~enable:compute_active
          (mux2 tick (const ~width:ipw 0) (in_pass_w +: const ~width:ipw 1))
      in
      assign in_pass_w in_pass;
      tick
    | `Prog _ ->
      let m = table_ram ~mode ~tables ~width:1 l.Layout.l_tick in
      ram_read m cycle -- "tick"
  in
  let pw =
    match mode with
    | `Rom -> bits_for (sched.Schedule.passes + 1)
    | `Prog e -> bits_for (e.Layout.env_passes + 1)
  in
  let pass_w = wire pw in
  let pass_sig =
    creg "pass_ctr" ~enable:tick (pass_w +: const ~width:pw 1)
  in
  assign pass_w pass_sig;
  let stage_start = creg "stage_start" tick in
  let preload_tick = eq cycle (const ~width:cw 0) -- "preload_tick" in
  let stage_load = (preload_tick |: tick) -- "stage_load" in
  let stage_load_addr =
    mux2 preload_tick (const ~width:pw 0) (pass_w +: const ~width:pw 1)
    -- "stage_load_addr"
  in
  let dcw = bits_for (rows + 1) in
  let dc_w = wire dcw in
  let dc_nonzero = ne dc_w (const ~width:dcw 0) in
  let dc =
    creg "drain_ctr"
      (mux2 tick (const ~width:dcw rows)
         (mux2 dc_nonzero (dc_w -: const ~width:dcw 1) (const ~width:dcw 0)))
  in
  assign dc_w dc;
  let drain_shift = dc_nonzero -- "drain_shift" in
  let probe_addr = input "probe_addr" 16 in
  let ctx =
    { mode; tables; dw = data_width; aw = acc_width; cycle; tick;
      stage_start; stage_load; stage_load_addr; drain_shift;
      env; data_rams = Hashtbl.create 8; bank_list = []; probe_outputs = [];
      probe_addr; harden; parity_of_ram = Hashtbl.create 8;
      parity_pairs = []; parity_errs = []; write_strobes = [] }
  in
  (* input tensors *)
  let uses_per_tensor =
    List.map
      (fun (tensor, wiring) ->
        let uses = Array.make_matrix rows cols None in
        wire_input ctx tensor wiring uses;
        uses)
      l.Layout.l_feeds
  in
  (* validity + computation cell per active PE *)
  let prods = Array.make_matrix rows cols None in
  let valids = Array.make_matrix rows cols None in
  List.iter
    (fun (((r, c) as p), bitmap) ->
      let valid = read_table ctx ~width:1 bitmap in
      let operand_signals =
        List.map
          (fun uses ->
            match uses.(r).(c) with
            | Some s -> s
            | None -> assert false (* every feed covers the active PEs *))
          uses_per_tensor
      in
      let prod =
        match operand_signals with
        | [] -> assert false
        | first :: rest ->
          List.fold_left
            (fun acc s -> acc *: sresize s acc_width)
            (sresize first acc_width)
            rest
      in
      prods.(r).(c) <- Some (prod -- Layout.pos_name "prod" p);
      valids.(r).(c) <- Some valid)
    l.Layout.l_valid;
  (* output tensor *)
  let out_tensor =
    (Tl_stt.Design.output_info design).Tl_stt.Design.access.Tl_ir.Access.tensor
  in
  wire_output ctx out_tensor l.Layout.l_collect ~prods ~valids;
  (* parity hardening: fold all comb parity-mismatch strobes into one
     sticky flag exported as [error_detected] *)
  let error_outputs =
    if not harden.Harden.parity_banks then []
    else begin
      let comb =
        match ctx.parity_errs with
        | [] -> gnd
        | e :: rest -> List.fold_left ( |: ) e rest
      in
      let sw = wire 1 in
      let sticky = reg (sw |: comb) -- "parity_sticky" in
      assign sw sticky;
      [ ("error_detected", (sticky |: comb) -- "error_detected") ]
    end
  in
  (* performance counters: synthesizable read-out ports, elaborated only
     on request so the default netlist stays bit-identical (the [~harden]
     discipline).  Every accumulator is enabled by [ctr_live] — a sticky
     not-finished flag — so each of the [total] live cycles is counted
     exactly once even though the bounded run settles the saturated
     terminal cycle twice. *)
  let counter_outputs =
    if not counters then []
    else begin
      let fw = wire 1 in
      let fin = reg (fw |: done_) -- "ctr_finished" in
      assign fw fin;
      let live = not_ fin -- "ctr_live" in
      let acc32 name inc =
        let w = wire 32 in
        let a = reg ~enable:live (w +: uresize inc 32) -- name in
        assign w a;
        (name, a)
      in
      (* an increment table per counter, read every cycle *)
      let table_counter (name, (inc : Layout.mem)) =
        let m = Array.fold_left max 1 inc.Layout.m_image in
        (* programmable variants fix the increment width at the whole-array
           bound (no per-cycle tally can exceed one count per PE), keeping
           it independent of the generating shape *)
        let w =
          match mode with
          | `Rom -> bits_for m
          | `Prog _ -> bits_for (max (rows * cols) m)
        in
        acc32 name (read_table ctx ~width:w inc)
      in
      (* MAC-enable popcount: the same per-PE valid bitmaps that gate the
         datapath feed a balanced adder tree *)
      let vs =
        List.filter_map (fun ((r, c), _) -> valids.(r).(c)) l.Layout.l_valid
      in
      let pcw = bits_for (List.length vs + 1) in
      let popcount =
        match vs with
        | [] -> const ~width:pcw 0
        | _ -> Reduce_tree.build (List.map (fun v -> uresize v pcw) vs)
      in
      let reads = List.map table_counter l.Layout.l_read_ctrs in
      let writes =
        List.rev ctx.write_strobes
        |> List.map (fun (n, we) -> acc32 ("ctr_wr_" ^ n) we)
      in
      (* the link counters' tables are created last to first; memory
         creation order fixes their place in the emitted Verilog *)
      let links =
        List.rev (List.map table_counter (List.rev l.Layout.l_link_ctrs))
      in
      (acc32 "ctr_cycles" vdd :: acc32 "ctr_active_pe_cycles" popcount
       :: reads)
      @ writes @ links
    end
  in
  let outputs =
    ("done", done_) :: ("cycle", cycle)
    :: ("pass", pass_sig)
    :: (error_outputs @ counter_outputs @ List.rev ctx.probe_outputs)
  in
  let circuit =
    Circuit.create ~name:("tensorlib_" ^ design.Tl_stt.Design.name) ~outputs
  in
  let banks = List.rev ctx.bank_list in
  let bank_ram = Hashtbl.create 16 in
  List.iter (fun (name, r) -> Hashtbl.replace bank_ram name r) banks;
  let out_locs = Hashtbl.create 64 in
  List.iter
    (fun (idx, (bank, addr)) ->
      Hashtbl.replace out_locs idx (Hashtbl.find bank_ram bank, addr))
    l.Layout.l_out;
  let prog =
    match mode with
    | `Rom -> None
    | `Prog e ->
      Some
        { pi_envelope = e; pi_structure = l.Layout.l_structure;
          pi_mems = List.rev !tables }
  in
  { design; rows; cols; data_width; acc_width; schedule = sched;
    circuit; total_cycles = total; out_locs; prog;
    counter_ports = List.map fst counter_outputs;
    banks;
    input_rams =
      Hashtbl.fold (fun name r acc -> (name, r) :: acc) ctx.data_rams []
      |> List.sort compare;
    hardening =
      { Harden.config = harden;
        tmr_regs = List.rev !tmr_names;
        parity_pairs = List.rev ctx.parity_pairs } }

let planned_cycles t = t.total_cycles + 1

let read_counters t sim =
  List.map (fun name -> (name, Sim.output sim name)) t.counter_ports

let read_output_lane t sim lane =
  let stmt = t.design.Tl_stt.Design.transform.Tl_stt.Transform.stmt in
  let out = Tl_ir.Exec.alloc_output stmt in
  let contents = Hashtbl.create 8 in
  List.iter
    (fun (_, bank) ->
      Hashtbl.replace contents bank.Signal.ram_id
        (Sim.ram_contents_lane sim lane bank))
    t.banks;
  Hashtbl.iter
    (fun idx ((bank : Signal.ram), addr) ->
      let data = Hashtbl.find contents bank.Signal.ram_id in
      Tl_ir.Dense.set out (Array.of_list idx)
        (Signal.to_signed t.acc_width data.(addr)))
    t.out_locs;
  out

let read_output t sim = read_output_lane t sim 0

(* Flatten the golden output into raw (bank, addr, expected) triples so a
   fault campaign can test "lane output = golden" with single-cell reads —
   no ram copies, no Dense allocation per lane.  The expected value is the
   signed view, mirroring [read_output_lane] exactly. *)
let golden_cells (t : t) golden =
  Hashtbl.fold
    (fun idx ((bank : Signal.ram), addr) acc ->
      (bank, addr, Tl_ir.Dense.get golden (Array.of_list idx)) :: acc)
    t.out_locs []

(* "Lane output = golden" over those triples, bound to one simulator:
   bank slots are looked up once, so the per-lane check is just array
   reads and compares. *)
let output_checker (t : t) sim cells =
  let prepared =
    List.map
      (fun ((bank : Signal.ram), addr, expect) ->
        (Sim.ram_reader sim bank, addr, expect))
      cells
  in
  let width = t.acc_width in
  fun lane ->
    List.for_all
      (fun (read, addr, expect) ->
        Signal.to_signed width (read lane addr) = expect)
      prepared

(* Watchdog: the schedule is finite, so the run is bounded by
   construction — but a corrupted (or malformed) controller can fail to
   reach the terminal count, in which case the outputs are meaningless.
   The [done] flag is asserted iff the cycle counter reached its
   terminal value, so checking it after the bounded run classifies a
   wedged controller as a timeout instead of returning garbage. *)
let check_done t sim =
  (* every lane's controller must have reached the terminal count — on a
     batch simulator one wedged trial fails the whole call, matching the
     per-trial semantics a scalar loop over the same trials would have *)
  let all_done =
    match Sim.backend sim with
    | `Tape -> Sim.output sim "done" = 1
    | `Batch ->
      let l = Sim.lanes sim in
      let full = if l >= Sim.max_lanes then max_int else (1 lsl l) - 1 in
      Sim.output_packed sim "done" = full
  in
  if not all_done then
    raise
      (Simulation_timeout
         { design = t.design.Tl_stt.Design.name;
           cycles = Sim.cycle_count sim })

let bounded_cycles ?max_cycles t =
  match max_cycles with
  | None -> planned_cycles t
  | Some m ->
    if m < 1 then invalid_arg "Accel: max_cycles must be >= 1";
    min m (planned_cycles t)

let run_sim ?max_cycles t sim =
  Sim.cycles sim (bounded_cycles ?max_cycles t);
  check_done t sim;
  read_output t sim

let execute ?backend ?max_cycles t =
  run_sim ?max_cycles t (Sim.create ?backend t.circuit)

(* Programmable netlists size their data memories to the capacity
   envelope, so the generating workload's tensors occupy a prefix; the
   tail stays zero (exactly what [generate] baked into the init image).
   ROM netlists keep the historical exact-size contract. *)
let env_image t name (ram : Signal.ram) dense =
  let n = Tl_ir.Dense.size dense in
  let ok = n = ram.Signal.size || (t.prog <> None && n < ram.Signal.size) in
  if not ok then invalid_arg ("Accel.load_env: shape mismatch for " ^ name);
  Array.init n (Tl_ir.Dense.flat_get dense)

let load_env_lane t sim lane env =
  List.iter
    (fun (name, ram) ->
      match List.assoc_opt name env with
      | None -> invalid_arg ("Accel.load_env: missing tensor " ^ name)
      | Some dense ->
        Sim.load_ram_prefix_lane sim lane ram (env_image t name ram dense))
    t.input_rams

let load_env t sim env =
  List.iter
    (fun (name, ram) ->
      match List.assoc_opt name env with
      | None -> invalid_arg ("Accel.load_env: missing tensor " ^ name)
      | Some dense ->
        Sim.load_ram_prefix sim ram (env_image t name ram dense))
    t.input_rams

let execute_with t env =
  let sim = Sim.create t.circuit in
  load_env t sim env;
  run_sim t sim

(* One bit-sliced pass over up to [Sim.max_lanes] independent input
   environments: results arrive in input order, each bit-identical to a
   scalar [execute_with] on that environment. *)
let execute_batch t envs =
  let n = List.length envs in
  if n < 1 then invalid_arg "Accel.execute_batch: no environments";
  if n > Sim.max_lanes then
    invalid_arg
      (Printf.sprintf "Accel.execute_batch: %d environments > %d lanes" n
         Sim.max_lanes);
  let sim = Sim.create ~backend:`Batch ~lanes:n t.circuit in
  List.iteri (fun lane env -> load_env_lane t sim lane env) envs;
  Sim.cycles sim (planned_cycles t);
  check_done t sim;
  List.mapi (fun lane _ -> read_output_lane t sim lane) envs

(* ------------------------------------------------------------------ *)
(* Runtime programming: load a compiled program (descriptor images +
   data layout, see Tl_compile) into a live simulator of a programmable
   netlist.  Validation is strict — a program that names an unknown
   memory, overflows a capacity, carries a value wider than the generated
   port, or maps an output element outside the output shape or the
   target's banks raises [Bad_program] before anything is written, and so
   does an env that lacks a tensor or holds one of the wrong size
   ([Invalid_argument]). *)

let prog_info t =
  match t.prog with
  | Some pi -> pi
  | None -> raise (Bad_program "target accelerator is not programmable")

let parity_companion t (ram : Signal.ram) =
  List.find_opt
    (fun ((r : Signal.ram), _) -> r.Signal.ram_id = ram.Signal.ram_id)
    t.hardening.Harden.parity_pairs
  |> Option.map snd

let load_program t sim (p : Layout.program) env =
  let pi = prog_info t in
  if p.Layout.p_structure <> pi.pi_structure then
    raise (Bad_program "program structure does not match the target netlist");
  (* check everything before writing anything, so a rejected program
     leaves the simulator as it was.  Every descriptor memory of the
     target must receive an image; images for memories the target did not
     elaborate (e.g. counter increments on a counters-off netlist) are
     simply unused. *)
  let images =
    List.map
      (fun (name, (ram : Signal.ram)) ->
        match List.assoc_opt name p.Layout.p_images with
        | None -> raise (Bad_program ("program missing image for " ^ name))
        | Some (_, img) ->
          let n = Array.length img in
          if n > ram.Signal.size then
            raise
              (Bad_program
                 (Printf.sprintf
                    "image %s: %d entries exceed memory capacity %d" name n
                    ram.Signal.size));
          let lim =
            if ram.Signal.ram_width >= Sys.int_size - 1 then max_int
            else 1 lsl ram.Signal.ram_width
          in
          Array.iter
            (fun v ->
              if v < 0 || v >= lim then
                raise
                  (Bad_program
                     (Printf.sprintf
                        "image %s: value %d overflows the %d-bit port" name v
                        ram.Signal.ram_width)))
            img;
          (ram, img))
      pi.pi_mems
  in
  (* input tensors: prefix-loaded at the program's layout, zero tail *)
  let inputs =
    List.map
      (fun (inp : Layout.input) ->
        let ram =
          match List.assoc_opt inp.Layout.in_mem t.input_rams with
          | Some r -> r
          | None ->
            raise
              (Bad_program
                 ("program names unknown data memory " ^ inp.Layout.in_mem))
        in
        let dense =
          match List.assoc_opt inp.Layout.in_tensor env with
          | Some d -> d
          | None ->
            invalid_arg
              ("Accel.load_program: missing tensor " ^ inp.Layout.in_tensor)
        in
        if Tl_ir.Dense.size dense <> inp.Layout.in_elems then
          invalid_arg
            ("Accel.load_program: shape mismatch for " ^ inp.Layout.in_tensor);
        if inp.Layout.in_elems > ram.Signal.size then
          raise
            (Bad_program
               (Printf.sprintf "tensor %s: %d elements exceed data memory %d"
                  inp.Layout.in_tensor inp.Layout.in_elems ram.Signal.size));
        (ram, Array.init inp.Layout.in_elems (Tl_ir.Dense.flat_get dense)))
      p.Layout.p_inputs
  in
  (* the output map: it must fit the output shape and name banks and
     addresses of the target *)
  Option.iter (fun msg -> raise (Bad_program msg)) (Layout.out_defect p);
  List.iter
    (fun (_, (bname, addr)) ->
      match List.assoc_opt bname t.banks with
      | None -> raise (Bad_program ("program references unknown bank " ^ bname))
      | Some (bank : Signal.ram) ->
        if addr < 0 || addr >= bank.Signal.size then
          raise
            (Bad_program
               (Printf.sprintf "program bank address %d out of range for %s"
                  addr bname)))
    p.Layout.p_out;
  (* reset before the loads: it restores every ram's init image (banks to
     zero, descriptors to the generating shape), which the loads below then
     overwrite — the reverse order would wipe the program *)
  Sim.reset sim;
  List.iter (fun (ram, img) -> Sim.load_ram_prefix sim ram img) images;
  List.iter
    (fun (ram, data) ->
      Sim.load_ram_prefix sim ram data;
      (* keep the parity companion coherent on hardened variants, or the
         first read would trip error_detected; the zero tail has parity 0,
         which a prefix load leaves in place *)
      match parity_companion t ram with
      | None -> ()
      | Some pram ->
        Sim.load_ram_prefix sim pram
          (Array.map (fun v -> Harden.parity_bit (v land ((1 lsl t.data_width) - 1))) data))
    inputs

let read_program_output t sim (p : Layout.program) =
  let out = Tl_ir.Dense.create p.Layout.p_out_shape in
  let contents = Hashtbl.create 8 in
  List.iter
    (fun (name, bank) ->
      Hashtbl.replace contents name (Sim.ram_contents_lane sim 0 bank))
    t.banks;
  List.iter
    (fun (idx, (bname, addr)) ->
      Tl_ir.Dense.set out (Array.of_list idx)
        (Signal.to_signed t.acc_width (Hashtbl.find contents bname).(addr)))
    p.Layout.p_out;
  out

let execute_program ?sim t (p : Layout.program) env =
  let sim = match sim with Some s -> s | None -> Sim.create t.circuit in
  load_program t sim p env;
  Sim.cycles sim (p.Layout.p_total + 1);
  check_done t sim;
  read_program_output t sim p

let verilog t = Verilog.to_string t.circuit

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let verilog_testbench t ~expected =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let module_name = sanitize (Circuit.name t.circuit) in
  add "`timescale 1ns/1ps\n";
  add "module %s_tb;\n" module_name;
  add "  reg clock = 0;\n";
  add "  reg [15:0] probe_addr = 0;\n";
  List.iter
    (fun (name, (s : Signal.t)) ->
      if s.Signal.width = 1 then add "  wire %s;\n" (sanitize name)
      else add "  wire [%d:0] %s;\n" (s.Signal.width - 1) (sanitize name))
    (Circuit.outputs t.circuit);
  add "  %s dut(.clock(clock), .probe_addr(probe_addr)" module_name;
  List.iter
    (fun (name, _) ->
      let n = sanitize name in
      add ", .%s(%s)" n n)
    (Circuit.outputs t.circuit);
  add ");\n";
  add "  always #5 clock = ~clock;\n";
  add "  integer errors = 0;\n";
  add "  initial begin\n";
  add "    repeat (%d) @(posedge clock);\n" (t.total_cycles + 2);
  (* bank name lookup by ram id *)
  let name_of_bank =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (name, (r : Signal.ram)) ->
        Hashtbl.replace tbl r.Signal.ram_id name)
      t.banks;
    fun (r : Signal.ram) -> Hashtbl.find tbl r.Signal.ram_id
  in
  let checks =
    Hashtbl.fold (fun idx (bank, addr) acc -> (idx, bank, addr) :: acc)
      t.out_locs []
    |> List.sort compare
  in
  List.iter
    (fun (idx, bank, addr) ->
      let probe = sanitize (name_of_bank bank ^ "_probe") in
      let value = Tl_ir.Dense.get expected (Array.of_list idx) in
      add "    probe_addr = %d; #1;\n" addr;
      add
        "    if ($signed(%s) !== %d) begin errors = errors + 1;          $display(\"MISMATCH %s[%d]: got %%0d, want %d\", $signed(%s));          end\n"
        probe value probe addr value probe)
    checks;
  add "    if (errors == 0) $display(\"PASS: %d output elements match\");\n"
    (List.length checks);
  add "    else $display(\"FAIL: %%0d mismatches\", errors);\n";
  add "    $finish;\n";
  add "  end\n";
  add "endmodule\n";
  Buffer.contents b
