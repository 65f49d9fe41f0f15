(* Einsum-to-descriptor compiler: lower a new design onto an existing
   programmable netlist (see Tl_templates.Accel, ~programmable) without
   re-elaborating hardware.  Compilation re-runs scheduling in software
   (Tl_templates.Layout), checks compatibility against the target's
   recorded structure and capacity envelope, and emits a program —
   descriptor-memory images plus data-memory layout — that
   [Accel.load_program] installs in a few memory writes.

   Every rejection is a typed [error]; a successful compile never yields
   a program the loader would refuse. *)

open Tl_templates

type error =
  | Not_programmable
  | Unsupported_design of string
  | Tensor_mismatch of { target : int; requested : int }
  | Dataflow_mismatch of { position : int; target : string; requested : string }
  | Structure_mismatch
  | Capacity_exceeded of { what : string; need : int; capacity : int }
  | Width_overflow of { mem : string; value : int; width : int }

let error_to_string = function
  | Not_programmable -> "target accelerator is not programmable"
  | Unsupported_design msg -> "unsupported design: " ^ msg
  | Tensor_mismatch { target; requested } ->
    Printf.sprintf "tensor count mismatch: target has %d, request has %d"
      target requested
  | Dataflow_mismatch { position; target; requested } ->
    Printf.sprintf
      "dataflow class mismatch at tensor %d: target %s, request %s" position
      target requested
  | Structure_mismatch ->
    "netlist structure mismatch: the schedules differ beyond table contents"
  | Capacity_exceeded { what; need; capacity } ->
    Layout.overflow_to_string { Layout.what; need; capacity }
  | Width_overflow { mem; value; width } ->
    Printf.sprintf "image %s: value %d overflows the generated %d-bit port"
      mem value width

let ( let* ) = Result.bind

let dataflow_check (target : Tl_stt.Design.t) (request : Tl_stt.Design.t) =
  let td = target.Tl_stt.Design.tensors
  and rd = request.Tl_stt.Design.tensors in
  let tn = List.length td and rn = List.length rd in
  if tn <> rn then Error (Tensor_mismatch { target = tn; requested = rn })
  else
    let rec go i = function
      | [], [] -> Ok ()
      | (t : Tl_stt.Design.tensor_info) :: ts,
        (r : Tl_stt.Design.tensor_info) :: rs ->
        let ts' = Tl_stt.Dataflow.to_string t.Tl_stt.Design.dataflow in
        let rs' = Tl_stt.Dataflow.to_string r.Tl_stt.Design.dataflow in
        if ts' <> rs' then
          Error
            (Dataflow_mismatch { position = i; target = ts'; requested = rs' })
        else go (i + 1) (ts, rs)
      | _ -> assert false
    in
    go 0 (td, rd)

(* positional tensor renaming: request tensor i → target tensor i (the
   structure check makes any deeper mismatch fail anyway) *)
let rename_of (target : Tl_stt.Design.t) (request : Tl_stt.Design.t) =
  let name (ti : Tl_stt.Design.tensor_info) =
    ti.Tl_stt.Design.access.Tl_ir.Access.tensor
  in
  let pairs =
    List.map2
      (fun t r -> (name r, name t))
      target.Tl_stt.Design.tensors request.Tl_stt.Design.tensors
  in
  fun n -> match List.assoc_opt n pairs with Some n' -> n' | None -> n

let capacity = function
  | None -> Ok ()
  | Some { Layout.what; need; capacity } ->
    Error (Capacity_exceeded { what; need; capacity })

(* [Layout.build] costs time in proportion to the schedule's events
   (passes times the selected box), which a request's extents can make
   arbitrarily many.  The schedule length and pass count come from the
   schedule's geometry and the input sizes from the access shapes, all
   without events and equal to what [Layout.build] records, so rejecting
   here only moves a rejection [Layout.overflow] would make anyway. *)
let precheck (env : Layout.envelope) (request : Tl_stt.Design.t) ~rows ~cols =
  let* total, passes =
    try Ok (Layout.schedule_size request ~rows ~cols)
    with Layout.Unsupported msg -> Error (Unsupported_design msg)
  in
  let stmt = request.Tl_stt.Design.transform.Tl_stt.Transform.stmt in
  let elems =
    List.map
      (fun (a : Tl_ir.Access.t) ->
        (a.Tl_ir.Access.tensor,
         Array.fold_left ( * ) 1 (Tl_ir.Access.shape a stmt.Tl_ir.Stmt.iters)))
      stmt.Tl_ir.Stmt.inputs
  in
  capacity (Layout.exceeds env ~total ~passes ~elems ~banks:[])

(* belt-and-suspenders: with the capacity checks above every image value
   fits its envelope-derived port width, but verify against the widths
   the target actually elaborated so a compile success is a load
   guarantee *)
let width_check (pi : Accel.prog_info) (l : Layout.t) =
  List.fold_left
    (fun acc (name, (ram : Tl_hw.Signal.ram)) ->
      let* () = acc in
      match
        List.find_opt (fun (m : Layout.mem) -> m.Layout.m_name = name)
          l.Layout.l_mems
      with
      | None -> Error Structure_mismatch
      | Some m ->
        let w = ram.Tl_hw.Signal.ram_width in
        let lim = if w >= Sys.int_size - 1 then max_int else 1 lsl w in
        let bad = ref None in
        Array.iter
          (fun v -> if (v < 0 || v >= lim) && !bad = None then bad := Some v)
          m.Layout.m_image;
        (match !bad with
         | Some value -> Error (Width_overflow { mem = name; value; width = w })
         | None -> Ok ()))
    (Ok ()) pi.Accel.pi_mems

let compile ~(target : Accel.t) (request : Tl_stt.Design.t) =
  let* pi =
    match target.Accel.prog with
    | Some pi -> Ok pi
    | None -> Error Not_programmable
  in
  let* () =
    if Tl_stt.Design.netlist_supported request then Ok ()
    else
      Error
        (Unsupported_design
           ("no netlist template for " ^ request.Tl_stt.Design.name))
  in
  let* () = dataflow_check target.Accel.design request in
  let* () =
    precheck pi.Accel.pi_envelope request ~rows:target.Accel.rows
      ~cols:target.Accel.cols
  in
  let rename = rename_of target.Accel.design request in
  let* l =
    try Ok (Layout.build ~rename request ~rows:target.Accel.rows
              ~cols:target.Accel.cols)
    with Layout.Unsupported msg -> Error (Unsupported_design msg)
  in
  let* () =
    if l.Layout.l_structure = pi.Accel.pi_structure then Ok ()
    else Error Structure_mismatch
  in
  let* () = capacity (Layout.overflow pi.Accel.pi_envelope l) in
  let* () = width_check pi l in
  Ok (Layout.to_program l)

let find_design ?(budget = Tl_resil.Budget.unlimited) ~(target : Accel.t)
    stmt =
  let candidates = Tl_stt.Search.all_designs ~budget stmt in
  let rec go errs = function
    | [] -> Error (List.rev errs)
    | (name, design) :: rest -> (
      Tl_resil.Budget.check budget;
      match compile ~target design with
      | Ok p -> Ok (design, p)
      | Error e -> go ((name, e) :: errs) rest)
  in
  go [] candidates

(* The descriptor memories sized to [headroom] times [design]'s own
   schedule, so every compatible einsum within that envelope loads
   without re-elaboration. *)
let target ~rows ~cols ~data_width ~acc_width ~headroom design =
  let envelope = Layout.envelope ~headroom (Layout.build design ~rows ~cols) in
  let stmt = design.Tl_stt.Design.transform.Tl_stt.Transform.stmt in
  ( Accel.generate ~rows ~cols ~data_width ~acc_width ~programmable:envelope
      design (Tl_ir.Exec.alloc_inputs stmt),
    envelope )

(* ------------------------------------------------------------------ *)
(* Program codec: a versioned one-line JSON document.  Decoding
   revalidates everything it can without the target (schema, types,
   non-negative addresses, digest integrity), so a program that parses
   is well-formed; target-dependent checks happen at load time.         *)

module Json = Tl_store.Json

let schema = "tensorlib-program/1"

let json_int n = Json.Num (float_of_int n)

let json_ints l = Json.List (List.map json_int l)

let json_int_array a = Json.List (Array.to_list a |> List.map json_int)

let program_to_value (p : Layout.program) =
  let images =
    List.map
      (fun (name, (domain, data)) ->
        Json.Obj
          [ ("mem", Json.Str name);
            ("domain", Json.Str (Layout.domain_string domain));
            ("data", json_int_array data) ])
      p.Layout.p_images
  in
  let inputs =
    List.map
      (fun (i : Layout.input) ->
        Json.Obj
          [ ("tensor", Json.Str i.Layout.in_tensor);
            ("mem", Json.Str i.Layout.in_mem);
            ("elems", json_int i.Layout.in_elems);
            ("shape", json_int_array i.Layout.in_shape) ])
      p.Layout.p_inputs
  in
  let out =
    List.map
      (fun (idx, (bank, addr)) ->
        Json.Obj
          [ ("index", json_ints idx);
            ("bank", Json.Str bank);
            ("addr", json_int addr) ])
      p.Layout.p_out
  in
  Json.Obj
    [ ("schema", Json.Str schema);
      ("name", Json.Str p.Layout.p_name);
      ("structure_digest",
       Json.Str (Layout.structure_digest p.Layout.p_structure));
      ("structure", Json.Str p.Layout.p_structure);
      ("total", json_int p.Layout.p_total);
      ("passes", json_int p.Layout.p_passes);
      ("events", json_int p.Layout.p_events);
      ("images", Json.List images);
      ("inputs", Json.List inputs);
      ("out", Json.List out);
      ("out_shape", json_int_array p.Layout.p_out_shape) ]

let program_to_json p = Json.to_string (program_to_value p)

let ( let+ ) r f = Result.map f r

let field j name =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "program: missing field %S" name)

let as_string name j =
  match Json.string_opt j with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "program: field %S must be a string" name)

let as_nat name j =
  match Json.int_opt j with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (Printf.sprintf "program: field %S must be a non-negative int" name)

let as_list name j =
  match j with
  | Json.List l -> Ok l
  | _ -> Error (Printf.sprintf "program: field %S must be a list" name)

let nat_array name j =
  let* l = as_list name j in
  List.fold_left
    (fun acc v ->
      let* acc = acc in
      let* n = as_nat name v in
      Ok (n :: acc))
    (Ok []) l
  |> Result.map (fun l -> Array.of_list (List.rev l))

let str_field j name =
  let* v = field j name in
  as_string name v

let nat_field j name =
  let* v = field j name in
  as_nat name v

let map_result f l =
  List.fold_left
    (fun acc v ->
      let* acc = acc in
      let+ r = f v in
      r :: acc)
    (Ok []) l
  |> Result.map List.rev

let program_of_json s =
  let* j = Json.parse s in
  let* sch = str_field j "schema" in
  let* () =
    if sch = schema then Ok ()
    else Error (Printf.sprintf "program: unknown schema %S (want %S)" sch schema)
  in
  let* name = str_field j "name" in
  let* structure = str_field j "structure" in
  let* digest = str_field j "structure_digest" in
  let* () =
    if Layout.structure_digest structure = digest then Ok ()
    else Error "program: structure digest mismatch (corrupt document)"
  in
  let* total = nat_field j "total" in
  let* passes = nat_field j "passes" in
  let* events = nat_field j "events" in
  let* images_j = field j "images" in
  let* images_l = as_list "images" images_j in
  let* images =
    map_result
      (fun ij ->
        let* mem = str_field ij "mem" in
        let* dom_s = str_field ij "domain" in
        let* domain =
          match dom_s with
          | "cycle" -> Ok Layout.Cycle
          | "pass" -> Ok Layout.Pass
          | d -> Error (Printf.sprintf "program: unknown image domain %S" d)
        in
        let* data_j = field ij "data" in
        let* data = nat_array "data" data_j in
        let* () =
          (* cycle images must cover the whole run the loader will time *)
          if domain = Layout.Cycle && Array.length data <> total then
            Error
              (Printf.sprintf
                 "program: image %s has %d entries, expected total %d" mem
                 (Array.length data) total)
          else if domain = Layout.Pass && Array.length data <> passes + 1 then
            Error
              (Printf.sprintf
                 "program: image %s has %d entries, expected passes+1 = %d"
                 mem (Array.length data) (passes + 1))
          else Ok ()
        in
        Ok (mem, (domain, data)))
      images_l
  in
  let* inputs_j = field j "inputs" in
  let* inputs_l = as_list "inputs" inputs_j in
  let* inputs =
    map_result
      (fun ij ->
        let* in_tensor = str_field ij "tensor" in
        let* in_mem = str_field ij "mem" in
        let* in_elems = nat_field ij "elems" in
        let* shape_j = field ij "shape" in
        let* in_shape = nat_array "shape" shape_j in
        let* () =
          if Array.fold_left ( * ) 1 in_shape = in_elems then Ok ()
          else
            Error
              (Printf.sprintf "program: tensor %s shape/elems disagree"
                 in_tensor)
        in
        Ok { Layout.in_tensor; in_mem; in_elems; in_shape })
      inputs_l
  in
  let* out_j = field j "out" in
  let* out_l = as_list "out" out_j in
  let* out =
    map_result
      (fun oj ->
        let* idx_j = field oj "index" in
        let* idx = nat_array "index" idx_j in
        let* bank = str_field oj "bank" in
        let* addr = nat_field oj "addr" in
        Ok (Array.to_list idx, (bank, addr)))
      out_l
  in
  let* out_shape_j = field j "out_shape" in
  let* p_out_shape = nat_array "out_shape" out_shape_j in
  let p =
    { Layout.p_name = name; p_structure = structure; p_total = total;
      p_passes = passes; p_events = events; p_images = images;
      p_inputs = inputs; p_out = out; p_out_shape }
  in
  match Layout.out_defect p with
  | Some msg -> Error ("program: " ^ msg)
  | None -> Ok p
