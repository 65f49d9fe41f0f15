open Tl_linalg

type t = {
  stmt : Tl_ir.Stmt.t;
  selected : int array;
  matrix : Mat.t;
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
  let m = Mat.of_int_rows matrix in
  let singular =
    match int_det_small imatrix with
    | Some d -> d = 0
    | None -> Rat.is_zero (Mat.det m)
  in
  if singular then
    invalid_arg "Transform.v: STT matrix must be full rank (one-to-one)";
  { stmt; selected; matrix = m; imatrix }

let by_names stmt names ~matrix =
  let selected =
    Array.of_list
      (List.map (Tl_ir.Iter.index_of stmt.Tl_ir.Stmt.iters) names)
  in
  v stmt ~selected ~matrix

let space_dims t = Mat.rows t.matrix - 1

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

let apply t x_sel =
  let n = Array.length t.selected in
  if Array.length x_sel <> n then invalid_arg "Transform.apply: bad point";
  let xv = Array.map Rat.of_int x_sel in
  let st = Mat.mul_vec t.matrix xv in
  let p = Array.init (n - 1) (fun i -> Rat.to_int st.(i)) in
  (p, Rat.to_int st.(n - 1))

let inverse t =
  match Mat.inverse t.matrix with
  | Some inv -> inv
  | None -> assert false (* full rank checked in [v] *)

let inverse_apply t p time =
  let n = Array.length t.selected in
  if Array.length p <> n - 1 then
    invalid_arg "Transform.inverse_apply: bad space point";
  let st =
    Array.init n (fun i ->
        if i < n - 1 then Rat.of_int p.(i) else Rat.of_int time)
  in
  Mat.mul_vec (inverse t) st

let restricted_access t (a : Tl_ir.Access.t) =
  let full = Tl_ir.Access.to_mat a in
  Mat.make ~rows:(Mat.rows full) ~cols:(Array.length t.selected)
    (fun i j -> Mat.get full i t.selected.(j))

(* The schedule is linear, so its extrema over the box domain are attained
   coordinate-wise: each column contributes min/max of {0, c*(ext-1)}. *)
let time_bounds t =
  let n = Array.length t.selected in
  let ext = selected_extents t in
  let lo = ref 0 and hi = ref 0 in
  for j = 0 to n - 1 do
    let c = Rat.to_int (Mat.get t.matrix (n - 1) j) in
    let contrib = c * (ext.(j) - 1) in
    if contrib >= 0 then hi := !hi + contrib else lo := !lo + contrib
  done;
  (!lo, !hi)

let space_footprint t =
  let ext = selected_extents t in
  let n = Array.length ext in
  let seen = Hashtbl.create 64 in
  let x = Array.make n 0 in
  let rec go d =
    if d = n then begin
      let p, _ = apply t x in
      if not (Hashtbl.mem seen p) then Hashtbl.add seen p ()
    end
    else
      for v = 0 to ext.(d) - 1 do
        x.(d) <- v;
        go (d + 1)
      done
  in
  go 0;
  seen

let pp ppf t =
  Format.fprintf ppf "@[<v>STT %s of %s:@,%a@]" (selection_label t)
    t.stmt.Tl_ir.Stmt.name Mat.pp t.matrix
