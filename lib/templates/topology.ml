type link_kind =
  | Chain of { dp : int array; dt : int }
  | Bus of { dp : int array }
  | Tree of { dp : int array; depth : int }
  | Global_bus
  | Direct
  | Stage_load
  | Drain of { length : int }

type tensor_topology = {
  tensor : string;
  role : Tl_stt.Design.role;
  links : link_kind list;
  lines : int;
  banks : int;
}

type t = {
  design_name : string;
  rows : int;
  cols : int;
  tensors : tensor_topology list;
}

let line_count = Tl_stt.Dataflow.line_count

let line_length rows cols d =
  let total = rows * cols in
  total / line_count rows cols d

let tree_depth n =
  let rec go n acc = if n <= 1 then acc else go ((n + 1) / 2) (acc + 1) in
  go n 0

let describe ?(rows = 16) ?(cols = 16) (design : Tl_stt.Design.t) =
  let tensor (ti : Tl_stt.Design.tensor_info) =
    let name = ti.Tl_stt.Design.access.Tl_ir.Access.tensor in
    let role = ti.Tl_stt.Design.role in
    let mk links lines banks = { tensor = name; role; links; lines; banks } in
    match (role, ti.Tl_stt.Design.dataflow) with
    | _, Tl_stt.Dataflow.Unicast -> mk [ Direct ] (rows * cols) (rows * cols)
    | Tl_stt.Design.Input, Tl_stt.Dataflow.Stationary _ ->
      mk [ Stage_load ] (rows * cols) 1
    | Tl_stt.Design.Output, Tl_stt.Dataflow.Stationary _ ->
      mk [ Stage_load; Drain { length = rows } ] cols cols
    | _, Tl_stt.Dataflow.Systolic { dp; dt } ->
      let lines = line_count rows cols dp in
      mk [ Chain { dp; dt } ] lines lines
    | Tl_stt.Design.Input, Tl_stt.Dataflow.Multicast { dp } ->
      let lines = line_count rows cols dp in
      mk [ Bus { dp } ] lines lines
    | Tl_stt.Design.Output, Tl_stt.Dataflow.Multicast { dp } ->
      let lines = line_count rows cols dp in
      mk [ Tree { dp; depth = tree_depth (line_length rows cols dp) } ] lines
        lines
    | _, Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast ->
      mk [ Global_bus ] 1 1
    | Tl_stt.Design.Input,
      Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Multicast_stationary { multicast })
      ->
      let lines = line_count rows cols multicast in
      mk [ Bus { dp = multicast }; Stage_load ] lines lines
    | Tl_stt.Design.Output,
      Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Multicast_stationary { multicast })
      ->
      let lines = line_count rows cols multicast in
      mk
        [ Tree { dp = multicast;
                 depth = tree_depth (line_length rows cols multicast) };
          Stage_load ]
        lines lines
    | _,
      Tl_stt.Dataflow.Reuse2d
        (Tl_stt.Dataflow.Systolic_multicast { multicast; systolic }) ->
      let lines = line_count rows cols multicast in
      mk
        [ Bus { dp = multicast };
          Chain { dp = systolic.Tl_stt.Dataflow.dp;
                  dt = systolic.Tl_stt.Dataflow.dt } ]
        lines lines
    | _, Tl_stt.Dataflow.Reuse_full -> mk [ Global_bus; Stage_load ] 1 1
  in
  { design_name = design.Tl_stt.Design.name;
    rows;
    cols;
    tensors = List.map tensor design.Tl_stt.Design.tensors }

let direction_name d =
  match (d.(0), d.(1)) with
  | 0, (1 | -1) -> "horizontal"
  | (1 | -1), 0 -> "vertical"
  | (1 | -1), (1 | -1) -> "diagonal"
  | r, c -> Printf.sprintf "(%d,%d)" r c

let pp_link ppf = function
  | Chain { dp; dt } ->
    Format.fprintf ppf "systolic chain, %s, %d reg%s/hop" (direction_name dp)
      dt
      (if dt = 1 then "" else "s")
  | Bus { dp } -> Format.fprintf ppf "multicast bus, %s" (direction_name dp)
  | Tree { dp; depth } ->
    Format.fprintf ppf "reduction tree, %s, depth %d" (direction_name dp)
      depth
  | Global_bus -> Format.fprintf ppf "array-wide broadcast"
  | Direct -> Format.fprintf ppf "per-PE bank port"
  | Stage_load -> Format.fprintf ppf "double-buffer stage load"
  | Drain { length } -> Format.fprintf ppf "drain chain, length %d" length

let pp ppf t =
  Format.fprintf ppf "@[<v>interconnect of %s on %dx%d:@," t.design_name
    t.rows t.cols;
  List.iter
    (fun tt ->
      Format.fprintf ppf "  %s %-3s (%d lines, %d banks):"
        (match tt.role with
         | Tl_stt.Design.Input -> "in "
         | Tl_stt.Design.Output -> "out")
        tt.tensor tt.lines tt.banks;
      List.iter (fun l -> Format.fprintf ppf "@,      %a" pp_link l) tt.links;
      Format.fprintf ppf "@,")
    t.tensors;
  Format.fprintf ppf "@]"

(* ---- Fig. 4-style ASCII diagrams ---- *)

let arrow dp =
  match (dp.(0), dp.(1)) with
  | 0, c when c > 0 -> ('>', ' ')   (* horizontal flow: between cols *)
  | 0, _ -> ('<', ' ')
  | r, 0 when r > 0 -> (' ', 'v')   (* vertical flow: between rows *)
  | _, 0 -> (' ', '^')
  | r, c when r * c > 0 -> (' ', '\\')
  | _ -> (' ', '/')

let diagram_of_tensor ~rows ~cols (ti : Tl_stt.Design.tensor_info) =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b ("      " ^ s ^ "\n")) fmt in
  let grid ~cell ~hsep ~vsep =
    for r = 0 to rows - 1 do
      let row =
        String.concat hsep (List.init cols (fun c -> cell r c))
      in
      line "%s" row;
      if r < rows - 1 && vsep <> "" then
        line "%s"
          (String.concat "   "
             (List.init cols (fun _ -> vsep)))
    done
  in
  (match ti.Tl_stt.Design.dataflow with
   | Tl_stt.Dataflow.Systolic { dp; dt = _ } ->
     let h, v = arrow dp in
     let hsep = if h = ' ' then "   " else Printf.sprintf " %c " h in
     let vsep = if v = ' ' then "" else String.make 1 v in
     grid ~cell:(fun _ _ -> "o") ~hsep ~vsep
   | Tl_stt.Dataflow.Multicast { dp } ->
     if ti.Tl_stt.Design.role = Tl_stt.Design.Output then begin
       (* reduction tree per line *)
       if dp.(0) = 0 then
         grid ~cell:(fun _ _ -> "o") ~hsep:"-+-" ~vsep:"" |> fun () ->
         line "%s" (String.make ((4 * cols) - 3) '-' ^ "> [SUM] per row")
       else begin
         grid ~cell:(fun _ _ -> "o") ~hsep:"   " ~vsep:"|";
         line "%s" (String.concat "   " (List.init cols (fun _ -> "+")));
         line "[SUM] per column"
       end
     end
     else if dp.(0) = 0 then begin
       line "[bank] == broadcast along each row";
       grid ~cell:(fun _ _ -> "o") ~hsep:"==" ~vsep:""
     end
     else if dp.(1) = 0 then begin
       line "[bank] per column, broadcast downward";
       grid ~cell:(fun _ _ -> "o") ~hsep:"   " ~vsep:"|"
     end
     else begin
       line "[bank] per diagonal, broadcast along %s"
         (direction_name dp);
       grid ~cell:(fun _ _ -> "o") ~hsep:"   " ~vsep:"\\"
     end
   | Tl_stt.Dataflow.Stationary _ ->
     (if ti.Tl_stt.Design.role = Tl_stt.Design.Output then
        line "accumulates in place; drained by column at stage end"
      else line "held in PE for the whole stage (double-buffered)");
     grid ~cell:(fun _ _ -> "[o]") ~hsep:" " ~vsep:""
   | Tl_stt.Dataflow.Unicast ->
     line "private bank port per PE";
     grid ~cell:(fun _ _ -> "o*") ~hsep:" " ~vsep:""
   | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast ->
     line "one value to every PE each cycle";
     grid ~cell:(fun _ _ -> "o") ~hsep:"=" ~vsep:""
   | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Multicast_stationary { multicast }) ->
     line "broadcast along %s, then held in PE" (direction_name multicast);
     grid ~cell:(fun _ _ -> "[o]") ~hsep:"=" ~vsep:""
   | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Systolic_multicast { multicast; systolic }) ->
     line "broadcast along %s into chains along %s"
       (direction_name multicast)
       (direction_name systolic.Tl_stt.Dataflow.dp);
     grid ~cell:(fun _ _ -> "o") ~hsep:" > " ~vsep:""
   | Tl_stt.Dataflow.Reuse_full ->
     line "single element broadcast once";
     grid ~cell:(fun _ _ -> "o") ~hsep:" " ~vsep:"");
  Buffer.contents b

let pp_diagram ?(rows = 4) ?(cols = 4) ppf (design : Tl_stt.Design.t) =
  Format.fprintf ppf "@[<v>%s on a %dx%d array:@,"
    design.Tl_stt.Design.name rows cols;
  List.iter
    (fun (ti : Tl_stt.Design.tensor_info) ->
      Format.fprintf ppf "  %s %s: %s@,"
        (match ti.Tl_stt.Design.role with
         | Tl_stt.Design.Input -> "input "
         | Tl_stt.Design.Output -> "output")
        ti.Tl_stt.Design.access.Tl_ir.Access.tensor
        (Tl_stt.Dataflow.to_string ti.Tl_stt.Design.dataflow);
      Format.pp_print_string ppf (diagram_of_tensor ~rows ~cols ti))
    design.Tl_stt.Design.tensors;
  Format.fprintf ppf "@]"
