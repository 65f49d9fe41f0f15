open Tl_hw
module Accel = Tl_templates.Accel
module Harden = Tl_templates.Harden
module Dense = Tl_ir.Dense

type outcome = Masked | Sdc | Detected | Hang

let outcome_label = function
  | Masked -> "masked"
  | Sdc -> "sdc"
  | Detected -> "detected"
  | Hang -> "hang"

type config = {
  trials : int;
  seed : int;
  kinds : Fault.kind list;
  classes : Fault.module_class list option;
  backend : Sim.backend;
  abft : bool;
  domains : int option;
}

let default_config =
  { trials = 1000;
    seed = 42;
    kinds = [ Fault.Transient; Fault.Stuck_at ];
    classes = None;
    backend = `Tape;
    abft = false;
    domains = None }

type trial = {
  fault : Fault.fault;
  outcome : outcome;
  detected_by : string option;
}

type class_stats = {
  cls : Fault.module_class;
  total : int;
  masked : int;
  sdc : int;
  detected : int;
  hang : int;
}

type report = {
  design : string;
  hardening : string;
  backend : string;
  trials : int;
  seed : int;
  masked : int;
  sdc : int;
  detected : int;
  hang : int;
  pruned : int;
  sdc_rate : float;
  per_class : class_stats list;
  results : trial list;
}

(* End-of-run sweep over the hardened (data ram, parity ram) pairs:
   catches corrupted cells whose parity mismatch never crossed a
   scheduled read (e.g. a bank cell flipped after its last accumulate). *)
let parity_sweep_ok_lane sim lane (acc : Accel.t) =
  List.for_all
    (fun (r, p) ->
      let data = Sim.ram_contents_lane sim lane r in
      let par = Sim.ram_contents_lane sim lane p in
      let ok = ref true in
      Array.iteri
        (fun i v -> if Harden.parity_bit v <> par.(i) then ok := false)
        data;
      !ok)
    acc.Accel.hardening.Harden.parity_pairs

(* Classify one finished trial (lane [l] of [sim]) against the golden
   output — the shared decision tree for the scalar and batch paths.
   [check] is an {!Accel.output_checker} bound to [sim]: the dominant
   outcome is Masked, and proving it needs only one pre-resolved cell
   read per output element, so the allocating tensor rebuild is reserved
   for the rare lanes that actually differ. *)
let classify_lane (acc : Accel.t) sim config golden check l fault =
  let outcome, detected_by =
    if Sim.output_lane sim l "done" <> 1 then (Hang, Some "watchdog")
    else if check l then (Masked, None)
    else begin
      let out = Accel.read_output_lane acc sim l in
      if Dense.equal out golden then (Masked, None)
      else begin
        let parity_flag =
          try Sim.output_lane sim l "error_detected" <> 0
          with Not_found -> false
        in
        if parity_flag then (Detected, Some "parity")
        else if
          acc.Accel.hardening.Harden.parity_pairs <> []
          && not (parity_sweep_ok_lane sim l acc)
        then (Detected, Some "parity-sweep")
        else if
          config.abft && not (Abft.check ~acc_width:acc.Accel.acc_width out)
        then (Detected, Some "abft")
        else (Sdc, None)
      end
    end
  in
  { fault; outcome; detected_by }

let run_one (acc : Accel.t) sim config golden check fault =
  Sim.reset sim;
  Fault.install sim fault;
  let planned = Accel.planned_cycles acc in
  (match Fault.trigger_cycle fault with
  | None -> Sim.cycles sim planned
  | Some tc ->
    for c = 0 to planned - 1 do
      if c = tc then Fault.trigger sim fault;
      Sim.cycle sim
    done);
  classify_lane acc sim config golden check 0 fault

(* One bit-sliced pass: up to [Sim.lanes sim] faults, one per lane.
   [reset] drops the previous group's per-lane forces and re-broadcasts
   the power-on image, so groups are independent. *)
let run_group (acc : Accel.t) sim config golden check faults =
  Sim.reset sim;
  let faults = Array.of_list faults in
  Array.iteri (fun l f -> Fault.install_lane sim l f) faults;
  let planned = Accel.planned_cycles acc in
  let triggers = Array.make (max 1 planned) [] in
  Array.iteri
    (fun l f ->
      match Fault.trigger_cycle f with
      | Some tc when tc < planned -> triggers.(tc) <- (l, f) :: triggers.(tc)
      | Some _ | None -> ())
    faults;
  for c = 0 to planned - 1 do
    List.iter (fun (l, f) -> Fault.trigger_lane sim l f) triggers.(c);
    Sim.cycle sim
  done;
  Array.to_list
    (Array.mapi
       (fun l f -> classify_lane acc sim config golden check l f)
       faults)

(* Contiguous chunks preserving order; one simulator per chunk. *)
let chunk n lst =
  let len = List.length lst in
  let n = max 1 (min n len) in
  let per = (len + n - 1) / n in
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = per then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  if len = 0 then [] else go [] [] 0 lst

let summarize (acc : Accel.t) (config : config) ~pruned results =
  let count p = List.length (List.filter p results) in
  let of_outcome o = count (fun t -> t.outcome = o) in
  let masked = of_outcome Masked
  and sdc = of_outcome Sdc
  and detected = of_outcome Detected
  and hang = of_outcome Hang in
  let trials = List.length results in
  let per_class =
    List.filter_map
      (fun cls ->
        let hits = List.filter (fun t -> Fault.fault_class t.fault = cls) results in
        if hits = [] then None
        else
          let n o = List.length (List.filter (fun t -> t.outcome = o) hits) in
          Some
            { cls;
              total = List.length hits;
              masked = n Masked;
              sdc = n Sdc;
              detected = n Detected;
              hang = n Hang })
      Fault.all_classes
  in
  { design = acc.Accel.design.Tl_stt.Design.name;
    hardening = Harden.label acc.Accel.hardening.Harden.config;
    backend = (match config.backend with `Tape -> "tape" | `Batch -> "batch");
    trials;
    seed = config.seed;
    masked;
    sdc;
    detected;
    hang;
    pruned;
    sdc_rate = (if trials = 0 then 0.0 else float_of_int sdc /. float_of_int trials);
    per_class;
    results }

(* Split [lst] into consecutive groups of at most [n]. *)
let groups_of n lst =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 lst

(* The fault-free run, once on the tape, recording for every ram cell the
   last cycle at which a read port addresses it (-1: never).  Read ports
   are found as [Activity.create] finds them; a ram with a port whose
   address slot does not resolve has no table, so none of its flips is
   pruned.  Returns the golden output (this run's when [golden] is
   omitted, raising [Accel.Simulation_timeout] as [Accel.execute] does)
   and the pruning decision.

   A flip of cell [a] at cycle [c] is dead when no read port addresses
   [a] at cycle [c] or later in the fault-free run and [a] is not an
   output cell: the flip lands before cycle [c]'s settle, a cell reaches
   other state only through a read port, and a write replaces the whole
   word, so every other piece of state, the output cells and [done]
   included, follows the fault-free run to the end.  That run must
   therefore end with [done] = 1 and the golden output, or nothing is
   pruned. *)
let fault_free ?golden (acc : Accel.t) =
  let circuit = acc.Accel.circuit in
  let sim = Sim.create circuit in
  let last = Hashtbl.create 64 in
  List.iter
    (fun (r : Signal.ram) ->
      Hashtbl.replace last r.Signal.ram_id (Array.make r.Signal.size (-1)))
    (Circuit.rams circuit);
  let reads =
    Array.to_list (Circuit.nodes circuit)
    |> List.filter_map (fun (s : Signal.t) ->
        match s.Signal.node with
        | Signal.Ram_read (r, addr) -> Some (r.Signal.ram_id, Sim.slot sim addr)
        | _ -> None)
  in
  List.iter (fun (id, slot) -> if slot = None then Hashtbl.remove last id) reads;
  let ports =
    List.filter_map
      (fun (id, slot) ->
        match (slot, Hashtbl.find_opt last id) with
        | Some slot, Some cells -> Some (slot, cells)
        | _ -> None)
      reads
    |> Array.of_list
  in
  for c = 0 to Accel.planned_cycles acc - 1 do
    Sim.settle sim;
    Array.iter
      (fun (slot, cells) ->
        let a = Sim.read_slot sim slot in
        if a < Array.length cells then cells.(a) <- c)
      ports;
    Sim.latch sim
  done;
  let golden, trusted =
    match golden with
    | Some g ->
      (g, Sim.output sim "done" = 1 && Dense.equal (Accel.read_output acc sim) g)
    | None ->
      Accel.check_done acc sim;
      (Accel.read_output acc sim, true)
  in
  let outputs = Hashtbl.create 64 in
  List.iter
    (fun ((r : Signal.ram), addr, _) ->
      Hashtbl.replace outputs (r.Signal.ram_id, addr) ())
    (Accel.golden_cells acc golden);
  let dead = function
    | Fault.Flip_mem { ram; addr; cycle; _ } when trusted -> (
      match Hashtbl.find_opt last ram.Signal.ram_id with
      | Some cells ->
        addr >= 0 && addr < Array.length cells
        && cells.(addr) < cycle
        && not (Hashtbl.mem outputs (ram.Signal.ram_id, addr))
      | None -> false)
    | Fault.Flip_mem _ | Fault.Flip_reg _ | Fault.Stuck_reg _ -> false
  in
  (golden, dead)

let prunable ?golden acc = snd (fault_free ?golden acc)

let run_faults ?(config = default_config) ?golden (acc : Accel.t) faults =
  (* the golden run is a single fault-free trial: no batching to exploit,
     so it runs on the scalar tape, and it also decides which flips need
     no simulation *)
  let golden, dead = fault_free ?golden acc in
  let gcells = Accel.golden_cells acc golden in
  let domains =
    match config.domains with Some d -> max 1 d | None -> Tl_par.n_domains ()
  in
  let pruned, live =
    List.partition (fun (_, f) -> dead f) (List.mapi (fun i f -> (i, f)) faults)
  in
  let simulated =
    match config.backend with
    | `Tape ->
      let chunks = chunk domains live in
      Tl_par.map ~domains ~label:"fault-campaign"
        (fun chunk ->
          let sim = Sim.create acc.Accel.circuit in
          let check = Accel.output_checker acc sim gcells in
          List.map
            (fun (i, f) -> (i, run_one acc sim config golden check f))
            chunk)
        chunks
      |> List.concat
    | `Batch ->
      (* ⌈trials/max_lanes⌉ bit-sliced passes instead of [trials] scalar
         runs.  Lanes are packed from a site-sorted plan: faults in one
         pass hit the same or neighbouring state elements, so their
         fan-out cones overlap and most word slots stay lane-uniform —
         scattered packing would diverge the whole circuit and forfeit
         the batch speedup. *)
      let sorted =
        List.stable_sort
          (fun (_, a) (_, b) ->
            compare (Fault.site_ord a) (Fault.site_ord b))
          live
      in
      let groups = groups_of Sim.max_lanes sorted in
      let chunks = chunk domains groups in
      Tl_par.map ~domains ~label:"fault-campaign"
        (fun chunk ->
          let sim =
            Sim.create ~backend:`Batch ~lanes:Sim.max_lanes acc.Accel.circuit
          in
          let check = Accel.output_checker acc sim gcells in
          List.concat_map
            (fun group ->
              let res =
                run_group acc sim config golden check (List.map snd group)
              in
              List.map2 (fun (i, _) r -> (i, r)) group res)
            chunk)
        chunks
      |> List.concat
      |> List.sort (fun (i, _) (j, _) -> compare i j)
  in
  (* plan order, so reports match trial for trial whatever was pruned *)
  List.merge
    (fun (i, _) (j, _) -> compare i j)
    (List.map
       (fun (i, fault) -> (i, { fault; outcome = Masked; detected_by = None }))
       pruned)
    simulated
  |> List.map snd
  |> summarize acc config ~pruned:(List.length pruned)

let run ?(config = default_config) ?golden (acc : Accel.t) =
  let table = Fault.table ?classes:config.classes acc.Accel.circuit in
  let faults =
    Fault.plan ~seed:config.seed ~trials:config.trials ~kinds:config.kinds
      ~cycles:(Accel.planned_cycles acc) table
  in
  run_faults ~config ?golden acc faults

let pp ppf r =
  Format.fprintf ppf
    "fault campaign: %s (hardening=%s, backend=%s)@\n\
     trials=%d seed=%d pruned=%d@\n\
     masked=%d detected=%d hang=%d sdc=%d  (SDC rate %.4f)@\n"
    r.design r.hardening r.backend r.trials r.seed r.pruned r.masked
    r.detected r.hang r.sdc r.sdc_rate;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-12s total=%-5d masked=%-5d detected=%-5d hang=%-4d sdc=%d@\n"
        (Fault.class_label c.cls) c.total c.masked c.detected c.hang c.sdc)
    r.per_class

let to_json ?(extra = []) r =
  let open Tl_store.Json in
  let int n = Num (float_of_int n) in
  Obj
    ([ ("design", Str r.design);
       ("hardening", Str r.hardening);
       ("backend", Str r.backend);
       ("trials", int r.trials);
       ("seed", int r.seed);
       ("pruned", int r.pruned);
       ("outcomes",
        Obj
          [ ("masked", int r.masked); ("sdc", int r.sdc);
            ("detected", int r.detected); ("hang", int r.hang) ]);
       ("sdc_rate", Num r.sdc_rate);
       ("per_class",
        List
          (List.map
             (fun c ->
               Obj
                 [ ("class", Str (Fault.class_label c.cls));
                   ("total", int c.total); ("masked", int c.masked);
                   ("sdc", int c.sdc); ("detected", int c.detected);
                   ("hang", int c.hang) ])
             r.per_class)) ]
    @ extra)
