open Tl_hw

type t = {
  circuit : Circuit.t;
  tainted : (int, unit) Hashtbl.t;  (* node id -> depends on inputs/ram *)
}

let opaque unknown (r : Signal.ram) = r.Signal.write_port <> None || unknown r

(* dependencies for the taint pass: sequential edges included, reads of
   opaque rams excluded (such a read is tainted directly) *)
let taint_children unknown (s : Signal.t) =
  match s.Signal.node with
  | Signal.Reg r ->
    (r.Signal.d :: Option.to_list r.Signal.enable)
    @ Option.to_list r.Signal.clear
  | Signal.Ram_read (r, addr) -> if opaque unknown r then [] else [ addr ]
  | Signal.Wire w -> ( match !w with Some d -> [ d ] | None -> [])
  | Signal.Input _ | Signal.Const _ -> []
  | Signal.Unop (_, a) | Signal.Repl (a, _) | Signal.Select (a, _, _) -> [ a ]
  | Signal.Binop (_, a, b) | Signal.Concat (a, b) -> [ a; b ]
  | Signal.Mux (c, a, b) -> [ c; a; b ]

let build ?(unknown = fun _ -> false) circuit =
  let nodes = Circuit.nodes circuit in
  let tainted : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let taint (s : Signal.t) = Hashtbl.replace tainted s.Signal.id () in
  let is_tainted (s : Signal.t) = Hashtbl.mem tainted s.Signal.id in
  (* seed *)
  Array.iter
    (fun (s : Signal.t) ->
      match s.Signal.node with
      | Signal.Input _ -> taint s
      | Signal.Ram_read (r, _) when opaque unknown r -> taint s
      | _ -> ())
    nodes;
  (* propagate to a fixpoint; register back-edges need repeated passes *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (s : Signal.t) ->
        if
          (not (is_tainted s))
          && List.exists is_tainted (taint_children unknown s)
        then begin
          taint s;
          changed := true
        end)
      nodes
  done;
  { circuit; tainted }

let in_slice t (s : Signal.t) = not (Hashtbl.mem t.tainted s.Signal.id)

type run = {
  cycles : int;
  streams : (int * int array) list;
  saturation : int option;
  repeat : (int * int) option;
}

(* The slice depends on no input and no opaque ram, so the tape run with
   its inputs left at 0 computes it exactly.  Slice registers are read at
   their slots, which the tape never aliases or merges. *)
let record t ~cycles ~track =
  let sim = Sim.create t.circuit in
  let slot (s : Signal.t) =
    match Sim.slot sim s with
    | Some i when in_slice t s -> i
    | _ ->
      invalid_arg
        (Printf.sprintf
           "Stream.record: signal %d is not a node of the control slice"
           s.Signal.id)
  in
  let regs =
    Array.to_list (Circuit.nodes t.circuit)
    |> List.filter_map (fun (s : Signal.t) ->
        match s.Signal.node with
        | Signal.Reg _ when in_slice t s -> Some (slot s)
        | _ -> None)
    |> Array.of_list
  in
  let tracked = Array.of_list (List.map slot track) in
  let streams =
    List.map (fun (s : Signal.t) -> (s.Signal.id, Array.make cycles 0)) track
  in
  let arrays = Array.of_list (List.map snd streams) in
  let state () = Array.map (Sim.read_slot sim) regs in
  let saturation = ref None in
  let repeat = ref None in
  let seen : (int array, int) Hashtbl.t = Hashtbl.create 64 in
  for c = 0 to cycles - 1 do
    let entry = state () in
    if !repeat = None then begin
      match Hashtbl.find_opt seen entry with
      | Some c1 -> repeat := Some (c1, c)
      | None -> Hashtbl.add seen entry c
    end;
    Sim.settle sim;
    Array.iteri (fun k i -> arrays.(k).(c) <- Sim.read_slot sim i) tracked;
    Sim.latch sim;
    if !saturation = None && state () = entry then saturation := Some c
  done;
  { cycles; streams; saturation = !saturation; repeat = !repeat }

let values run (s : Signal.t) = List.assoc_opt s.Signal.id run.streams
