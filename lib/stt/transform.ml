exception Overflow of string

type t = {
  stmt : Tl_ir.Stmt.t;
  selected : int array;
  imatrix : int array array;
  det : int;
}

type problem =
  | Too_few_selected
  | Out_of_range of { index : int; depth : int }
  | Selected_twice
  | Not_square of int
  | Singular
  | Determinant_overflow

let describe = function
  | Too_few_selected -> "need at least 2 selected iterators"
  | Out_of_range { index; depth } ->
    Printf.sprintf "selected iterator %d out of range [0, %d)" index depth
  | Selected_twice -> "duplicate selected iterator"
  | Not_square n ->
    Printf.sprintf "matrix must be %dx%d for %d selected iterators" n n n
  | Singular -> "STT matrix must be full rank (one-to-one)"
  | Determinant_overflow ->
    "the determinant of the STT matrix overflows a native int"

(* Every integer fact about [T] is computed with [Rat]'s checked
   arithmetic; the entry points turn its [Rat.Overflow] into [Overflow]
   naming what overflowed. *)
let add = Tl_linalg.Rat.add_check
let mul = Tl_linalg.Rat.mul_check
let neg = Tl_linalg.Rat.neg_check
let sub a b = add a (neg b)

(* an exact quotient: [min_int / -1] is the one that wraps *)
let div a b = if b = -1 then neg a else a / b

let checked what f =
  try f ()
  with Tl_linalg.Rat.Overflow ->
    raise (Overflow (what ^ " overflows a native int"))

(* Fraction-free (Bareiss) elimination: after step [k] every entry right
   of and below the pivot is a minor of order [k + 2], so each division
   by the previous pivot is exact and no fraction is formed.  A row swap
   flips the sign. *)
let eliminate rows =
  let m = Array.map Array.copy rows in
  let n = Array.length m in
  let rec step k prev sign =
    let pivot = ref k in
    while !pivot < n && m.(!pivot).(k) = 0 do
      incr pivot
    done;
    if !pivot = n then 0
    else begin
      let sign =
        if !pivot = k then sign
        else begin
          let row = m.(k) in
          m.(k) <- m.(!pivot);
          m.(!pivot) <- row;
          -sign
        end
      in
      let p = m.(k).(k) in
      if k = n - 1 then if sign > 0 then p else neg p
      else begin
        for i = k + 1 to n - 1 do
          for j = k + 1 to n - 1 do
            m.(i).(j) <-
              div (sub (mul m.(i).(j) p) (mul m.(i).(k) m.(k).(j))) prev
          done
        done;
        step (k + 1) p sign
      end
    end
  in
  step 0 1 1

(* closed forms, with no division, for the 2×2 and 3×3 matrices every
   sweep builds *)
let det rows =
  checked "the determinant of the STT matrix" @@ fun () ->
  match rows with
  | [| [| a; b |]; [| c; d |] |] -> sub (mul a d) (mul b c)
  | [| [| a; b; c |]; [| d; e; f |]; [| g; h; i |] |] ->
    add
      (sub (mul a (sub (mul e i) (mul f h))) (mul b (sub (mul d i) (mul f g))))
      (mul c (sub (mul d h) (mul e g)))
  | _ -> eliminate rows

let check stmt ~selected ~matrix =
  let n = Array.length selected in
  let depth = Tl_ir.Stmt.depth stmt in
  let sorted = Array.copy selected in
  Array.sort compare sorted;
  let twice = ref false in
  for i = 0 to n - 2 do
    if sorted.(i) = sorted.(i + 1) then twice := true
  done;
  let shape =
    List.concat
      [ (if n < 2 then [ Too_few_selected ] else []);
        List.filter_map
          (fun index ->
            if index < 0 || index >= depth then
              Some (Out_of_range { index; depth })
            else None)
          (Array.to_list selected);
        (if !twice then [ Selected_twice ] else []);
        (if
           List.length matrix <> n
           || List.exists (fun row -> List.length row <> n) matrix
         then [ Not_square n ]
         else []) ]
  in
  if shape <> [] then Error shape
  else
    let imatrix = Array.of_list (List.map Array.of_list matrix) in
    match det imatrix with
    | 0 -> Error [ Singular ]
    | det -> Ok { stmt; selected; imatrix; det }
    | exception Overflow _ -> Error [ Determinant_overflow ]

let v stmt ~selected ~matrix =
  match check stmt ~selected ~matrix with
  | Ok t -> t
  | Error problems ->
    invalid_arg ("Transform.v: " ^ describe (List.hd problems))

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
    checked "the adjugate of the STT matrix" @@ fun () ->
    match t.imatrix with
    | [| [| a; b |]; [| c; d |] |] -> [| [| d; neg b |]; [| neg c; a |] |]
    | [| [| a; b; c |]; [| d; e; f |]; [| g; h; i |] |] ->
      let cof x y z w = sub (mul x y) (mul z w) in
      [| [| cof e i f h; cof c h b i; cof b f c e |];
         [| cof f g d i; cof a i c g; cof c d a f |];
         [| cof d h e g; cof b g a h; cof a e b d |] |]
    | _ -> invalid_arg "Transform.adjugate: only 2x2 and 3x3 matrices"
  in
  (adj, t.det)

(* Each row of [T] is linear, so its extrema over the box are attained
   coordinate-wise: column [j] contributes the min/max of
   {0, c_j * (ext_j - 1)}.  [lo <= 0 <= hi], and the span [hi - lo + 1]
   must fit too. *)
let row_bounds t ext i =
  let lo = ref 0 and hi = ref 0 in
  try
    Array.iteri
      (fun j c ->
        let contrib = mul c (ext.(j) - 1) in
        if contrib >= 0 then hi := add !hi contrib else lo := add !lo contrib)
      t.imatrix.(i);
    ignore (add (sub !hi !lo) 1);
    (!lo, !hi)
  with Tl_linalg.Rat.Overflow ->
    raise
      (Overflow
         (Printf.sprintf
            "the span of STT row %d over the iteration domain overflows a \
             native int"
            i))

(* the rows as rational matrices print, one [[a, b, c]] box per row *)
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
