type t = {
  stmt : Tl_ir.Stmt.t;
  selected : int array;
  imatrix : int array array;
}

(* Closed-form determinant for the 2×2/3×3 matrices every STT uses; avoids
   a rational Gaussian elimination per candidate in the enumeration sweep. *)
let int_det_small rows =
  match rows with
  | [| [| a; b |]; [| c; d |] |] -> Some ((a * d) - (b * c))
  | [| [| a; b; c |]; [| d; e; f |]; [| g; h; i |] |] ->
    Some ((a * ((e * i) - (f * h))) - (b * ((d * i) - (f * g)))
          + (c * ((d * h) - (e * g))))
  | _ -> None

let v stmt ~selected ~matrix =
  let n = Array.length selected in
  let depth = Tl_ir.Stmt.depth stmt in
  if n < 2 then invalid_arg "Transform.v: need at least 2 selected iterators";
  Array.iter
    (fun i ->
      if i < 0 || i >= depth then
        invalid_arg "Transform.v: selected iterator out of range")
    selected;
  let sorted = Array.copy selected in
  Array.sort compare sorted;
  for i = 0 to n - 2 do
    if sorted.(i) = sorted.(i + 1) then
      invalid_arg "Transform.v: duplicate selected iterator"
  done;
  let imatrix = Array.of_list (List.map Array.of_list matrix) in
  if Array.length imatrix <> n
     || Array.exists (fun r -> Array.length r <> n) imatrix
  then invalid_arg "Transform.v: matrix must be n*n for n selected iterators";
  let singular =
    match int_det_small imatrix with
    | Some d -> d = 0
    | None -> Tl_linalg.(Rat.is_zero (Mat.det (Mat.of_int_rows matrix)))
  in
  if singular then
    invalid_arg "Transform.v: STT matrix must be full rank (one-to-one)";
  { stmt; selected; imatrix }

let by_names stmt names ~matrix =
  let selected =
    Array.of_list
      (List.map (Tl_ir.Iter.index_of stmt.Tl_ir.Stmt.iters) names)
  in
  v stmt ~selected ~matrix

let space_dims t = Array.length t.imatrix - 1

let selected_iters t =
  let iters = Array.of_list t.stmt.Tl_ir.Stmt.iters in
  Array.to_list (Array.map (fun i -> iters.(i)) t.selected)

let selected_extents t =
  Array.of_list (List.map (fun i -> i.Tl_ir.Iter.extent) (selected_iters t))

let unselected_iters t =
  let chosen = Array.to_list t.selected in
  List.filteri
    (fun i _ -> not (List.mem i chosen))
    t.stmt.Tl_ir.Stmt.iters

let label_of stmt selected =
  let iters = Array.of_list stmt.Tl_ir.Stmt.iters in
  String.init (Array.length selected) (fun j ->
      Char.uppercase_ascii iters.(selected.(j)).Tl_ir.Iter.name.[0])

let selection_label t = label_of t.stmt t.selected

(* [m · adj m = det m · I], so [m⁻¹ v = adj m · v / det m] stays in
   integers *)
let adjugate t =
  let adj =
    match t.imatrix with
    | [| [| a; b |]; [| c; d |] |] -> [| [| d; -b |]; [| -c; a |] |]
    | [| [| a; b; c |]; [| d; e; f |]; [| g; h; i |] |] ->
      [| [| (e * i) - (f * h); (c * h) - (b * i); (b * f) - (c * e) |];
         [| (f * g) - (d * i); (a * i) - (c * g); (c * d) - (a * f) |];
         [| (d * h) - (e * g); (b * g) - (a * h); (a * e) - (b * d) |] |]
    | _ -> invalid_arg "Transform.adjugate: only 2x2 and 3x3 matrices"
  in
  (adj, Option.get (int_det_small t.imatrix))

(* Each row of [T] is linear, so its extrema over the box domain are
   attained coordinate-wise: column [j] contributes the min/max of
   {0, c_j * (ext_j - 1)}. *)
let row_bounds t i =
  let ext = selected_extents t in
  let lo = ref 0 and hi = ref 0 in
  Array.iteri
    (fun j c ->
      let contrib = c * (ext.(j) - 1) in
      if contrib >= 0 then hi := !hi + contrib else lo := !lo + contrib)
    t.imatrix.(i);
  (!lo, !hi)

(* the rows as [Mat.pp] prints a matrix, one [[a, b, c]] box per row *)
let pp_rows ppf rows =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_array ~pp_sep:Format.pp_print_cut (fun ppf row ->
         Format.fprintf ppf "[@[%a@]]"
           (Format.pp_print_array
              ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
              Format.pp_print_int)
           row))
    rows

let pp ppf t =
  Format.fprintf ppf "@[<v>STT %s of %s:@,%a@]" (selection_label t)
    t.stmt.Tl_ir.Stmt.name pp_rows t.imatrix
