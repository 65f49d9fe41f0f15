(* Reference interpreter over [Circuit.t]: the oracle the simulator's
   instruction tape (and through it the bit-sliced batch backend) is
   checked against.

   It shares no code or state with [Sim].  Values live in its own table,
   reached through its own signal-id map; every node of [Circuit.nodes]
   is evaluated in that order on every settle, with no constant folding,
   aliasing or merging; registers latch in two phases (all next states
   from the settled values, then ram writes, then commit); rams, inputs
   and stuck-at forces are its own copies.  The semantics are the DSL's
   ({!Signal}): arithmetic wraps to the node's width, [Slt]/[Sra] read
   their operand as two's complement, and a ram read past the end
   yields 0, as does a write past the end (dropped). *)

open Tensorlib

type t = {
  circuit : Circuit.t;
  nodes : Signal.t array;  (** [Circuit.nodes] order *)
  index : (int, int) Hashtbl.t;  (** signal id -> position in [nodes] *)
  args : int array array;
      (** operand positions, in the node's field order; for a register
          [d], [enable], [clear] with -1 for an absent control *)
  values : int array;
  regs : int array;  (** positions of the registers *)
  inputs : (string, int) Hashtbl.t;  (** declared input -> current value *)
  rams : (int, int array) Hashtbl.t;  (** ram id -> contents *)
  mutable forces : (int * int * int) list;
      (** (position, and mask, or mask) in installation order *)
}

let create circuit =
  let nodes = Circuit.nodes circuit in
  let index = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i (s : Signal.t) -> Hashtbl.replace index s.Signal.id i)
    nodes;
  let at (s : Signal.t) = Hashtbl.find index s.Signal.id in
  let opt = function Some s -> at s | None -> -1 in
  let args =
    Array.map
      (fun (s : Signal.t) ->
        match s.Signal.node with
        | Signal.Input _ | Signal.Const _ -> [||]
        | Signal.Unop (_, a)
        | Signal.Repl (a, _)
        | Signal.Select (a, _, _)
        | Signal.Ram_read (_, a) ->
          [| at a |]
        | Signal.Binop (_, a, b) | Signal.Concat (a, b) -> [| at a; at b |]
        | Signal.Mux (c, x, y) -> [| at c; at x; at y |]
        | Signal.Wire r -> [| at (Option.get !r) |]
        | Signal.Reg r ->
          [| at r.Signal.d; opt r.Signal.enable; opt r.Signal.clear |])
      nodes
  in
  let values =
    Array.map
      (fun (s : Signal.t) ->
        match s.Signal.node with
        | Signal.Const c -> c
        | Signal.Reg r -> r.Signal.init
        | _ -> 0)
      nodes
  in
  let regs =
    List.filter
      (fun i ->
        match nodes.(i).Signal.node with Signal.Reg _ -> true | _ -> false)
      (List.init (Array.length nodes) Fun.id)
    |> Array.of_list
  in
  let inputs = Hashtbl.create 8 in
  List.iter (fun (name, _) -> Hashtbl.replace inputs name 0)
    (Circuit.inputs circuit);
  let rams = Hashtbl.create 8 in
  List.iter
    (fun (r : Signal.ram) ->
      Hashtbl.replace rams r.Signal.ram_id (Array.copy r.Signal.init_data))
    (Circuit.rams circuit);
  { circuit; nodes; index; args; values; regs; inputs; rams; forces = [] }

let position t (s : Signal.t) = Hashtbl.find t.index s.Signal.id
let contents t (r : Signal.ram) = Hashtbl.find t.rams r.Signal.ram_id

let set_input t name v =
  let w = List.assoc name (Circuit.inputs t.circuit) in
  Hashtbl.replace t.inputs name (Signal.mask_to_width w v)

let eval t i =
  let s = t.nodes.(i) in
  let arg k = t.values.(t.args.(i).(k)) in
  let m = Signal.mask_to_width s.Signal.width in
  let bool b = if b then 1 else 0 in
  match s.Signal.node with
  | Signal.Const c -> c
  | Signal.Reg _ -> t.values.(i)
  | Signal.Input name -> Hashtbl.find t.inputs name
  | Signal.Unop (Signal.Not, _) -> m (lnot (arg 0))
  | Signal.Binop (op, a, _) -> (
    let x = arg 0 and y = arg 1 in
    let signed = Signal.to_signed a.Signal.width in
    match op with
    | Signal.Add -> m (x + y)
    | Signal.Sub -> m (x - y)
    | Signal.Mul -> m (x * y)
    | Signal.And -> x land y
    | Signal.Or -> x lor y
    | Signal.Xor -> x lxor y
    | Signal.Eq -> bool (x = y)
    | Signal.Ult -> bool (x < y)
    | Signal.Slt -> bool (signed x < signed y)
    | Signal.Shl n -> m (x lsl n)
    | Signal.Shr n -> x lsr n
    | Signal.Sra n -> m (signed x asr n))
  | Signal.Mux _ -> if arg 0 <> 0 then arg 1 else arg 2
  | Signal.Concat (_, lo) -> m ((arg 0 lsl lo.Signal.width) lor arg 1)
  | Signal.Repl (a, n) ->
    let v = arg 0 and acc = ref 0 in
    for _ = 1 to n do
      acc := (!acc lsl a.Signal.width) lor v
    done;
    m !acc
  | Signal.Select (_, _, lo) -> m (arg 0 lsr lo)
  | Signal.Wire _ -> arg 0
  | Signal.Ram_read (r, _) ->
    let a = arg 0 in
    if a < r.Signal.size then (contents t r).(a) else 0

let apply_forces t =
  List.iter
    (fun (i, am, om) -> t.values.(i) <- (t.values.(i) land am) lor om)
    t.forces

let settle t =
  apply_forces t;
  for i = 0 to Array.length t.nodes - 1 do
    t.values.(i) <- eval t i
  done

let latch t =
  let v k = if k < 0 then None else Some t.values.(k) in
  let next =
    Array.map
      (fun i ->
        let a = t.args.(i) in
        match (t.nodes.(i).Signal.node, v a.(2), v a.(1)) with
        | Signal.Reg r, Some c, _ when c <> 0 -> r.Signal.clear_to
        | _, _, Some 0 -> t.values.(i)
        | _ -> t.values.(a.(0)))
      t.regs
  in
  List.iter
    (fun (r : Signal.ram) ->
      match r.Signal.write_port with
      | None -> ()
      | Some wp ->
        let value s = t.values.(position t s) in
        let addr = value wp.Signal.waddr in
        if value wp.Signal.we <> 0 && addr < r.Signal.size then
          (contents t r).(addr) <- value wp.Signal.wdata)
    (Circuit.rams t.circuit);
  Array.iteri (fun k i -> t.values.(i) <- next.(k)) t.regs;
  apply_forces t

let cycle t =
  settle t;
  latch t

let cycles t n =
  for _ = 1 to n do
    cycle t
  done

let peek t s = t.values.(position t s)

let output t name = peek t (List.assoc name (Circuit.outputs t.circuit))

let ram_contents t r = Array.copy (contents t r)

let load_ram t (r : Signal.ram) data =
  if Array.length data <> r.Signal.size then
    invalid_arg "Refsim.load_ram: size mismatch";
  Array.iteri
    (fun a v -> (contents t r).(a) <- Signal.mask_to_width r.Signal.ram_width v)
    data

(* Fault hooks with the meaning [Sim]'s have: [poke] overwrites a value
   until it is next computed or latched, [poke_ram] one cell, and [force]
   holds a register's bits at [(q land and_mask) lor or_mask] around
   every settle and latch. *)

let poke t (s : Signal.t) v =
  t.values.(position t s) <- Signal.mask_to_width s.Signal.width v

let poke_ram t (r : Signal.ram) addr v =
  (contents t r).(addr) <- Signal.mask_to_width r.Signal.ram_width v

let force t (s : Signal.t) ~and_mask ~or_mask =
  (match s.Signal.node with
  | Signal.Reg _ -> ()
  | _ -> invalid_arg "Refsim.force: not a register");
  let m = Signal.mask_to_width s.Signal.width in
  t.forces <- t.forces @ [ (position t s, m and_mask, m or_mask) ];
  apply_forces t

(* ------------------------------------------------------------------ *)
(* Checking a tape run.                                                *)

(* Every place where [t] and [sim] disagree: each ram, register and
   output (so [done], [error_detected] and counter ports).  Registers are
   never merged by the tape compiler, so [Sim.peek] reads their own
   value. *)
let differences t sim =
  let rams =
    List.filter_map
      (fun (r : Signal.ram) ->
        if ram_contents t r = Sim.ram_contents sim r then None
        else Some ("ram " ^ r.Signal.ram_name))
      (Circuit.rams t.circuit)
  in
  let regs =
    Array.to_list t.regs
    |> List.filter_map (fun i ->
        let s = t.nodes.(i) in
        if t.values.(i) = Sim.peek sim s then None
        else Some ("register " ^ Signal.blame s))
  in
  let outputs =
    List.filter_map
      (fun (name, _) ->
        if output t name = Sim.output sim name then None
        else Some ("output " ^ name))
      (Circuit.outputs t.circuit)
  in
  rams @ regs @ outputs

(* Run [sim] and a reference started from its memories for [n] cycles;
   the places where they end up different (empty when they agree).  The
   reference's registers start at their power-on values, so call this on
   a fresh simulator or right after [Accel.load_program] (which resets),
   once the memories hold what the run should start from. *)
let run_against circuit sim n =
  let t = create circuit in
  List.iter (fun r -> load_ram t r (Sim.ram_contents sim r))
    (Circuit.rams circuit);
  Sim.cycles sim n;
  cycles t n;
  differences t sim

(* ------------------------------------------------------------------ *)
(* Checking a control-slice recording.                                 *)

(* Every way [run], a [Stream.record] of [slice] (built over [circuit]),
   disagrees with a reference run from power-on for [run.cycles] cycles
   whose inputs all take fresh values from [rng] on every cycle: each
   recorded signal at the first cycle its stream differs, then the
   [saturation] and the [repeat] recomputed from the reference's slice
   registers.  Empty when they agree.  Random inputs also catch a slice
   node that depends on an input. *)
let stream_differences circuit slice ~rng (run : Absint.Stream.run) =
  let module S = Absint.Stream in
  let t = create circuit in
  let streams =
    List.map (fun (id, arr) -> (Hashtbl.find t.index id, arr)) run.S.streams
  in
  let regs =
    Array.of_list
      (List.filter
         (fun i -> S.in_slice slice t.nodes.(i))
         (Array.to_list t.regs))
  in
  let n = run.S.cycles in
  (* slice register state entering each cycle, and after the last *)
  let states = Array.make (n + 1) [||] in
  let diffs = ref [] in
  let diverged = Hashtbl.create 8 in
  for c = 0 to n - 1 do
    states.(c) <- Array.map (fun i -> t.values.(i)) regs;
    List.iter
      (fun (name, _) -> set_input t name (Random.State.full_int rng max_int))
      (Circuit.inputs circuit);
    settle t;
    List.iter
      (fun (i, arr) ->
        if t.values.(i) <> arr.(c) && not (Hashtbl.mem diverged i) then begin
          Hashtbl.replace diverged i ();
          diffs :=
            Printf.sprintf "%s at cycle %d: recorded %d, reference %d"
              (Signal.blame t.nodes.(i)) c arr.(c) t.values.(i)
            :: !diffs
        end)
      streams;
    latch t
  done;
  states.(n) <- Array.map (fun i -> t.values.(i)) regs;
  (* the least [c] in [0, hi) such that [p c] *)
  let first hi p =
    let rec go c = if c >= hi then None else if p c then Some c else go (c + 1) in
    go 0
  in
  let saturation = first n (fun c -> states.(c) = states.(c + 1)) in
  (* the first state to recur, and the cycle it first occurred *)
  let repeat =
    let earlier c2 = first c2 (fun c1 -> states.(c1) = states.(c2)) in
    Option.map
      (fun c2 -> (Option.get (earlier c2), c2))
      (first n (fun c2 -> earlier c2 <> None))
  in
  let check what show recorded reference =
    let show = function None -> "none" | Some v -> show v in
    if recorded = reference then []
    else
      [ Printf.sprintf "%s: recorded %s, reference %s" what (show recorded)
          (show reference) ]
  in
  List.rev !diffs
  @ check "saturation" string_of_int run.S.saturation saturation
  @ check "repeat"
      (fun (c1, c2) -> Printf.sprintf "(%d, %d)" c1 c2)
      run.S.repeat repeat
