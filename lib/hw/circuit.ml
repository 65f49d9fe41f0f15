type t = {
  name : string;
  outputs : (string * Signal.t) list;
  nodes : Signal.t array;
  inputs : (string * int) list;
  rams : Signal.ram list;
}

type stats = {
  nodes : int;
  regs : int;
  reg_bits : int;
  adders : int;
  multipliers : int;
  muxes : int;
  logic_ops : int;
  rams : int;
  ram_bits : int;
  inputs : int;
  outputs : int;
}

exception Combinational_cycle of string
exception Unassigned_wire of string

let describe (s : Signal.t) =
  match s.Signal.name with
  | Some n -> Printf.sprintf "%s (id %d)" n s.Signal.id
  | None -> Printf.sprintf "id %d" s.Signal.id

(* Children that must be *reachable* (sequential deps included). *)
let all_children (s : Signal.t) =
  match s.Signal.node with
  | Signal.Input _ | Signal.Const _ -> []
  | Signal.Unop (_, a) -> [ a ]
  | Signal.Binop (_, a, b) -> if a == b then [ a ] else [ a; b ]
  | Signal.Mux (c, a, b) -> [ c; a; b ]
  | Signal.Concat (a, b) -> [ a; b ]
  | Signal.Repl (a, _) -> [ a ]
  | Signal.Select (a, _, _) -> [ a ]
  | Signal.Reg r ->
    (r.Signal.d :: Option.to_list r.Signal.enable)
    @ Option.to_list r.Signal.clear
  | Signal.Wire r -> (
    match !r with
    | Some d -> [ d ]
    | None -> raise (Unassigned_wire (describe s)))
  | Signal.Ram_read (ram, addr) ->
    addr
    :: (match ram.Signal.write_port with
        | None -> []
        | Some w -> [ w.Signal.we; w.Signal.waddr; w.Signal.wdata ])

(* Children a node depends on *combinationally* (same cycle). *)
let comb_children (s : Signal.t) =
  match s.Signal.node with
  | Signal.Reg _ -> []
  | Signal.Ram_read (_, addr) -> [ addr ]
  | Signal.Input _ | Signal.Const _ | Signal.Unop _ | Signal.Binop _
  | Signal.Mux _ | Signal.Concat _ | Signal.Repl _ | Signal.Select _
  | Signal.Wire _ ->
    all_children s

let create ~name ~outputs =
  (* duplicate output names *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (n, _) ->
      if Hashtbl.mem seen n then
        invalid_arg ("Circuit.create: duplicate output " ^ n);
      Hashtbl.add seen n ())
    outputs;
  (* reachability *)
  let visited : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let collected = ref [] in
  let rec visit ~out_name stack s =
    if not (Hashtbl.mem visited s.Signal.id) then begin
      Hashtbl.add visited s.Signal.id ();
      let children =
        try all_children s
        with Unassigned_wire _ ->
          (* [s] is the unassigned wire; name the nearest user-named
             signal on the path from the output so the wire can be found *)
          let named =
            List.find_opt (fun p -> p.Signal.name <> None) stack
          in
          raise
            (Unassigned_wire
               (Printf.sprintf "%s (in the cone of output %S%s)"
                  (describe s) out_name
                  (match named with
                   | Some p ->
                     ", nearest named signal " ^ describe p
                   | None -> "")))
      in
      List.iter (visit ~out_name (s :: stack)) children;
      collected := s :: !collected
    end
  in
  List.iter (fun (out_name, s) -> visit ~out_name [] s) outputs;
  let all = List.rev !collected in
  (* combinational topological sort with cycle detection *)
  let color : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let order = ref [] in
  let rec dfs stack s =
    match Hashtbl.find_opt color s.Signal.id with
    | Some 2 -> ()
    | Some 1 ->
      (* [stack] holds the grey path back to [s]; data flows from each
         child to its parent, so the cycle reads s -> ... -> s *)
      let rec upto acc = function
        | [] -> acc
        | p :: rest -> if p == s then acc else upto (p :: acc) rest
      in
      let through = List.rev (upto [] stack) in
      raise
        (Combinational_cycle
           (String.concat " -> "
              (List.map describe ((s :: through) @ [ s ]))))
    | Some _ | None ->
      Hashtbl.replace color s.Signal.id 1;
      List.iter (dfs (s :: stack)) (comb_children s);
      Hashtbl.replace color s.Signal.id 2;
      order := s :: !order
  in
  List.iter (dfs []) all;
  let nodes = Array.of_list (List.rev !order) in
  (* inputs *)
  let input_table = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      match s.Signal.node with
      | Signal.Input n -> (
        match Hashtbl.find_opt input_table n with
        | None -> Hashtbl.add input_table n s.Signal.width
        | Some w when w = s.Signal.width -> ()
        | Some w ->
          invalid_arg
            (Printf.sprintf
               "Circuit.create: input %s declared with widths %d and %d" n w
               s.Signal.width))
      | _ -> ())
    nodes;
  let inputs =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) input_table [])
  in
  (* rams *)
  let ram_table = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      match s.Signal.node with
      | Signal.Ram_read (r, _) ->
        if not (Hashtbl.mem ram_table r.Signal.ram_id) then
          Hashtbl.add ram_table r.Signal.ram_id r
      | _ -> ())
    nodes;
  let rams =
    List.sort
      (fun a b -> compare a.Signal.ram_id b.Signal.ram_id)
      (Hashtbl.fold (fun _ r acc -> r :: acc) ram_table [])
  in
  { name; outputs; nodes; inputs; rams }

let name (t : t) = t.name
let outputs (t : t) = t.outputs
let inputs (t : t) = t.inputs
let nodes (t : t) = t.nodes
let rams (t : t) = t.rams

let stats (t : t) =
  let regs = ref 0 and reg_bits = ref 0 and adders = ref 0 in
  let multipliers = ref 0 and muxes = ref 0 and logic_ops = ref 0 in
  Array.iter
    (fun s ->
      match s.Signal.node with
      | Signal.Reg _ ->
        incr regs;
        reg_bits := !reg_bits + s.Signal.width
      | Signal.Binop ((Signal.Add | Signal.Sub), _, _) -> incr adders
      | Signal.Binop (Signal.Mul, _, _) -> incr multipliers
      | Signal.Binop _ | Signal.Unop _ -> incr logic_ops
      | Signal.Mux _ -> incr muxes
      | Signal.Input _ | Signal.Const _ | Signal.Concat _ | Signal.Repl _
      | Signal.Select _ | Signal.Wire _ | Signal.Ram_read _ -> ())
    t.nodes;
  { nodes = Array.length t.nodes;
    regs = !regs;
    reg_bits = !reg_bits;
    adders = !adders;
    multipliers = !multipliers;
    muxes = !muxes;
    logic_ops = !logic_ops;
    rams = List.length t.rams;
    ram_bits =
      List.fold_left
        (fun acc r -> acc + (r.Signal.size * r.Signal.ram_width))
        0 t.rams;
    inputs = List.length t.inputs;
    outputs = List.length t.outputs }

let default_delay (s : Signal.t) =
  match s.Signal.node with
  | Signal.Binop (Signal.Mul, _, _) -> 4
  | Signal.Binop ((Signal.Add | Signal.Sub | Signal.Ult | Signal.Slt), _, _)
    -> 2
  | Signal.Binop (_, _, _) | Signal.Unop _ | Signal.Mux _ -> 1
  | Signal.Ram_read _ -> 2
  | Signal.Input _ | Signal.Const _ | Signal.Concat _ | Signal.Repl _
  | Signal.Select _ | Signal.Reg _ | Signal.Wire _ -> 0

let critical_path (t : t) =
  (* nodes are already in combinational topological order; registers and
     inputs start paths at depth 0 *)
  let depth : (int, int) Hashtbl.t = Hashtbl.create (Array.length t.nodes) in
  let get s =
    match Hashtbl.find_opt depth s.Signal.id with Some d -> d | None -> 0
  in
  Array.iter
    (fun s ->
      let arrival =
        match s.Signal.node with
        | Signal.Reg _ | Signal.Input _ | Signal.Const _ -> 0
        | _ ->
          List.fold_left (fun acc c -> max acc (get c)) 0 (comb_children s)
          + default_delay s
      in
      Hashtbl.replace depth s.Signal.id arrival)
    t.nodes;
  (* path endpoints: register/ram-write inputs and circuit outputs *)
  let worst = ref 0 in
  let visit e = if get e > !worst then worst := get e in
  Array.iter
    (fun s ->
      match s.Signal.node with
      | Signal.Reg r ->
        List.iter visit
          ((r.Signal.d :: Option.to_list r.Signal.enable)
           @ Option.to_list r.Signal.clear)
      | _ -> ())
    t.nodes;
  List.iter
    (fun (r : Signal.ram) ->
      match r.Signal.write_port with
      | None -> ()
      | Some wp ->
        List.iter visit [ wp.Signal.we; wp.Signal.waddr; wp.Signal.wdata ])
    t.rams;
  List.iter (fun (_, s) -> visit s) t.outputs;
  !worst

let pp_stats ppf s =
  Format.fprintf ppf
    "@[nodes=%d regs=%d (%d bits) adders=%d muls=%d muxes=%d logic=%d \
     rams=%d (%d bits) io=%d/%d@]"
    s.nodes s.regs s.reg_bits s.adders s.multipliers s.muxes s.logic_ops
    s.rams s.ram_bits s.inputs s.outputs
