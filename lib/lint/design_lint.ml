open Tl_stt

let tensor_name (ti : Design.tensor_info) = ti.Design.access.Tl_ir.Access.tensor

(* Footprint bounding box over the selected domain, as [Schedule.v]
   sizes it: the first space row indexes array rows, the second (when
   present) array columns. *)
let footprint_dims transform =
  let ext = Transform.selected_extents transform in
  Array.init (Transform.space_dims transform) (fun i ->
      let lo, hi = Transform.row_bounds transform ext i in
      hi - lo + 1)

let check_design ?(rows = 16) ?(cols = 16) ?(suppress = []) design =
  let target = design.Design.name in
  let transform = design.Design.transform in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* L102: PE bounds; a footprint past [max_int] fits no array *)
  let l102 msg =
    add (Finding.v ~rule:"L102" ~target ~subject:"space footprint" msg)
  in
  (match footprint_dims transform with
   | exception Transform.Overflow msg -> l102 msg
   | dims ->
     let fits =
       match Array.length dims with
       | 1 -> dims.(0) <= rows
       | 2 -> dims.(0) <= rows && dims.(1) <= cols
       | _ -> false
     in
     if not fits then
       l102
         (Printf.sprintf "footprint %s exceeds the %dx%d PE array"
            (String.concat "x"
               (Array.to_list (Array.map string_of_int dims)))
            rows cols));
  (* L103: output accumulations must be separated in time or reduced by a
     tree; a reuse plane perpendicular to the time axis (or full reuse)
     makes every PE update the same element in the same cycle. *)
  let out = Design.output_info design in
  (match out.Design.dataflow with
   | Dataflow.Reuse2d Dataflow.Broadcast ->
     add
       (Finding.v ~rule:"L103" ~target ~subject:(tensor_name out)
          "output reuse plane is perpendicular to the time axis: all PEs \
           accumulate the same element in the same cycle with no \
           reduction-tree realisation")
   | Dataflow.Reuse_full ->
     add
       (Finding.v ~rule:"L103" ~target ~subject:(tensor_name out)
          "output ignores every selected iterator: the whole array \
           accumulates one element every cycle")
   | _ -> ());
  (* L104: raw reuse directions with dt < 0 (classification normalises the
     orientation, but the raw transform maps reuse backwards in time),
     each direction primitive with its first nonzero entry positive *)
  List.iter
    (fun (ti : Design.tensor_info) ->
      let prep =
        Reuse.prepare ~selected:transform.Transform.selected ti.Design.access
      in
      Array.iter
        (fun ints ->
          let dt = ints.(Array.length ints - 1) in
          if dt < 0 then
            add
              (Finding.v ~rule:"L104" ~target ~subject:(tensor_name ti)
                 (Printf.sprintf
                    "raw reuse direction [%s] points backwards in time \
                     (dt = %d); normalised during classification"
                    (String.concat "; "
                       (Array.to_list (Array.map string_of_int ints)))
                    dt)))
        (Reuse.directions prep transform.Transform.imatrix))
    design.Design.tensors;
  (* L105: dataflows without a structural RTL template *)
  if not (Design.netlist_supported design) then
    List.iter
      (fun (ti : Design.tensor_info) ->
        let unsupported =
          match (ti.Design.role, ti.Design.dataflow) with
          | _, Dataflow.Reuse_full -> true
          | Design.Output, Dataflow.Reuse2d (Dataflow.Systolic_multicast _)
          | Design.Output, Dataflow.Reuse2d Dataflow.Broadcast -> true
          | _, _ -> false
        in
        if unsupported then
          add
            (Finding.v ~rule:"L105" ~target ~subject:(tensor_name ti)
               (Format.asprintf
                  "no netlist template for %s dataflow %a"
                  (match ti.Design.role with
                   | Design.Input -> "input"
                   | Design.Output -> "output")
                  Dataflow.pp ti.Design.dataflow)))
      design.Design.tensors;
  Finding.suppress ~rules:suppress (List.rev !findings)

let check_matrix ?rows ?cols ?(suppress = []) stmt ~selected ~matrix =
  match Transform.check stmt ~selected ~matrix with
  | Ok transform ->
    let design = Design.analyze transform in
    (check_design ?rows ?cols ~suppress design, Some design)
  | Error problems ->
    let target =
      Printf.sprintf "stt[%s]"
        (String.concat ","
           (Array.to_list (Array.map string_of_int selected)))
    in
    let finding problem =
      let rule, subject =
        match problem with
        | Transform.Singular | Transform.Determinant_overflow ->
          ("L101", "matrix")
        | _ -> ("L100", "selection/matrix")
      in
      Finding.v ~rule ~target ~subject (Transform.describe problem)
    in
    (Finding.suppress ~rules:suppress (List.map finding problems), None)
