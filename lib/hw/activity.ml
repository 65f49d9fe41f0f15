(* Switching-activity probe over a running simulation.

   Registers are observed at their dense storage slots — register slots are
   never aliased or CSE-merged by the tape compiler (same invariant the
   fault-injection hooks rely on), so a register's slot holds exactly its
   value.  Toggles are counted across the latch edge: popcount of
   (old lxor new) per register per cycle.  Ram read ports count an access
   on every settled address change (plus the first cycle); write ports
   count cycles where the enable is high and the address in range, which
   is exactly when the simulator commits a write. *)

type rreg = { r_slot : int; r_label : string option; mutable r_prev : int;
              mutable r_toggles : int }

type rport = { p_slot : int; mutable p_prev : int option }

type wport = { w_we : int; w_waddr : int; w_size : int }

type t = {
  sim : Sim.t;
  regs : rreg array;
  reads : rport array;
  writes : wport array;
  mutable cycles : int;
  mutable ram_reads : int;
  mutable ram_writes : int;
  reg_bits : int;
}

type report = {
  cycles : int;
  reg_count : int;
  reg_bits : int;
  reg_toggles : int;
  read_ports : int;
  write_ports : int;
  ram_reads : int;
  ram_writes : int;
  per_reg : (string * int) list;
}

let popcount v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
  go v 0

let create sim circuit =
  (* a bit-sliced simulator interleaves up to 62 independent trials, so a
     single toggle count is meaningless — refuse rather than silently
     report lane 0 *)
  if Sim.backend sim = `Batch then
    invalid_arg "Activity.create: batch simulators are not supported";
  let nodes = Circuit.nodes circuit in
  let regs = ref [] and reads = ref [] and bits = ref 0 in
  Array.iter
    (fun (s : Signal.t) ->
      match s.Signal.node with
      | Signal.Reg _ -> (
        match Sim.slot sim s with
        | Some slot ->
          bits := !bits + s.Signal.width;
          regs :=
            { r_slot = slot; r_label = s.Signal.name;
              r_prev = Sim.read_slot sim slot; r_toggles = 0 }
            :: !regs
        | None -> ())
      | Signal.Ram_read (_, addr) -> (
        match Sim.slot sim addr with
        | Some slot -> reads := { p_slot = slot; p_prev = None } :: !reads
        | None -> ())
      | _ -> ())
    nodes;
  let writes =
    List.filter_map
      (fun (r : Signal.ram) ->
        match r.Signal.write_port with
        | None -> None
        | Some wp -> (
          match (Sim.slot sim wp.Signal.we, Sim.slot sim wp.Signal.waddr) with
          | Some we, Some waddr ->
            Some { w_we = we; w_waddr = waddr; w_size = r.Signal.size }
          | _ -> None))
      (Circuit.rams circuit)
  in
  { sim;
    regs = Array.of_list (List.rev !regs);
    reads = Array.of_list (List.rev !reads);
    writes = Array.of_list writes;
    cycles = 0; ram_reads = 0; ram_writes = 0; reg_bits = !bits }

let cycle t =
  Sim.settle t.sim;
  Array.iter
    (fun p ->
      let a = Sim.read_slot t.sim p.p_slot in
      (match p.p_prev with
      | Some old when old = a -> ()
      | _ -> t.ram_reads <- t.ram_reads + 1);
      p.p_prev <- Some a)
    t.reads;
  Array.iter
    (fun w ->
      if
        Sim.read_slot t.sim w.w_we <> 0
        && Sim.read_slot t.sim w.w_waddr < w.w_size
      then t.ram_writes <- t.ram_writes + 1)
    t.writes;
  Sim.latch t.sim;
  Array.iter
    (fun r ->
      let v = Sim.read_slot t.sim r.r_slot in
      r.r_toggles <- r.r_toggles + popcount (v lxor r.r_prev);
      r.r_prev <- v)
    t.regs;
  t.cycles <- t.cycles + 1

let cycles t n =
  for _ = 1 to n do
    cycle t
  done

let report t =
  let reg_toggles =
    Array.fold_left (fun acc r -> acc + r.r_toggles) 0 t.regs
  in
  let per_reg =
    Array.to_list t.regs
    |> List.filter_map (fun r ->
        match r.r_label with
        | Some l -> Some (l, r.r_toggles)
        | None -> None)
  in
  { cycles = t.cycles;
    reg_count = Array.length t.regs;
    reg_bits = t.reg_bits;
    reg_toggles;
    read_ports = Array.length t.reads;
    write_ports = Array.length t.writes;
    ram_reads = t.ram_reads;
    ram_writes = t.ram_writes;
    per_reg }

let alpha_reg r =
  if r.cycles = 0 || r.reg_bits = 0 then 0.
  else float_of_int r.reg_toggles /. (float_of_int r.reg_bits *. float_of_int r.cycles)

let alpha_mem r =
  let ports = r.read_ports + r.write_ports in
  if r.cycles = 0 || ports = 0 then 0.
  else
    float_of_int (r.ram_reads + r.ram_writes)
    /. (float_of_int ports *. float_of_int r.cycles)
