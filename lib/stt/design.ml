type role = Input | Output

type tensor_info = {
  access : Tl_ir.Access.t;
  role : role;
  dataflow : Dataflow.t;
}

type t = {
  transform : Transform.t;
  tensors : tensor_info list;
  name : string;
}

let of_dataflows transform dataflows =
  let stmt = transform.Transform.stmt in
  let roles =
    List.map (fun a -> (Input, a)) stmt.Tl_ir.Stmt.inputs
    @ [ (Output, stmt.Tl_ir.Stmt.output) ]
  in
  let tensors =
    List.map2 (fun (role, access) dataflow -> { access; role; dataflow })
      roles dataflows
  in
  let letters =
    String.of_seq
      (Seq.map (fun ti -> Dataflow.letter ti.dataflow) (List.to_seq tensors))
  in
  let name = Transform.selection_label transform ^ "-" ^ letters in
  { transform; tensors; name }

let accesses stmt = stmt.Tl_ir.Stmt.inputs @ [ stmt.Tl_ir.Stmt.output ]

(* the classifier every sweep runs, one prepared null space per tensor *)
let analyze transform =
  let selected = transform.Transform.selected in
  of_dataflows transform
    (List.map
       (fun a ->
         Reuse.classify_matrix (Reuse.prepare ~selected a)
           transform.Transform.imatrix)
       (accesses transform.Transform.stmt))

let letters d =
  String.init (List.length d.tensors) (fun i ->
      Dataflow.letter (List.nth d.tensors i).dataflow)

let output_info d =
  match List.rev d.tensors with
  | out :: _ -> out
  | [] -> assert false (* Stmt.v guarantees at least two tensors *)

let input_infos d =
  List.filter (fun ti -> ti.role = Input) d.tensors

let find_tensor d name =
  List.find (fun ti -> String.equal ti.access.Tl_ir.Access.tensor name)
    d.tensors

let netlist_supported d =
  List.for_all
    (fun ti ->
      match (ti.role, ti.dataflow) with
      | _, Dataflow.Reuse_full -> false
      | Output, Dataflow.Reuse2d (Dataflow.Systolic_multicast _) -> false
      | Output, Dataflow.Reuse2d Dataflow.Broadcast -> false
      | _, _ -> true)
    d.tensors

let pp ppf d = Format.fprintf ppf "%s" d.name

let pp_report ppf d =
  Format.fprintf ppf "@[<v>design %s on %s@,%a@," d.name
    d.transform.Transform.stmt.Tl_ir.Stmt.name Transform.pp d.transform;
  List.iter
    (fun ti ->
      Format.fprintf ppf "  %s %-3s: %a@,"
        (match ti.role with Input -> "in " | Output -> "out")
        ti.access.Tl_ir.Access.tensor Dataflow.pp ti.dataflow)
    d.tensors;
  Format.fprintf ppf "@]"
