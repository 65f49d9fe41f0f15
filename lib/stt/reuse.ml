open Tl_linalg

exception Overflow of string

(* Every step that can leave native ints is checked with [Rat]'s
   arithmetic; the entry points turn its [Rat.Overflow] into [Overflow]
   naming what overflowed. *)
let add = Rat.add_check
let mul = Rat.mul_check
let abs_checked a = if a = min_int then raise Rat.Overflow else abs a

let checked what f =
  try f ()
  with Rat.Overflow -> raise (Overflow (what ^ " overflows a native int"))

let of_tensor tensor = "the reuse analysis of tensor " ^ tensor

(* [null(A_sel)] depends only on the selection and the access, not on the
   STT matrix, so sweeps compute it once per (selection, tensor) and
   classify each candidate matrix in integers.  The basis vectors are the
   exact [Mat.null_space] output scaled to primitive integers
   ([Vec.to_integer]); per-vector scaling and sign are invisible to the
   normalisations below.  A tensor that reuses along every selected
   direction, or along two of four, is [Reuse_full] whatever the matrix,
   and its classification reads no image. *)

type prepared = {
  tensor : string;
  null : Vec.t list;
  null_int : int array array option;  (** [None] when a vector does not fit *)
  full : bool;
}

let prepare ~selected (access : Tl_ir.Access.t) =
  let am = access.Tl_ir.Access.matrix in
  let tensor = access.Tl_ir.Access.tensor in
  let n = Array.length selected in
  checked (of_tensor tensor) @@ fun () ->
  let a_sel =
    Mat.make ~rows:(Array.length am) ~cols:n (fun i j ->
        Rat.of_int am.(i).(selected.(j)))
  in
  let null = Mat.null_space a_sel in
  { tensor;
    null;
    null_int =
      (try Some (Array.of_list (List.map Vec.to_integer null))
       with Rat.Overflow -> None);
    full =
      (match null with [] | [ _ ] -> false | [ _; _ ] -> n <> 3 | _ -> true) }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* divided by the gcd of its entries, first nonzero entry positive *)
let primitive v =
  let g = Array.fold_left (fun acc x -> gcd (abs_checked x) acc) 0 v in
  let v = if g > 1 then Array.map (fun x -> x / g) v else v in
  match Array.find_opt (fun x -> x <> 0) v with
  | Some x when x < 0 -> Array.map (fun x -> -x) v
  | _ -> v

(* A primitive vector oriented with [dt > 0] when nonzero (else first
   nonzero dp positive, as [primitive] leaves it); split into
   [(dp, dt)]. *)
let normalize v =
  let n = Array.length v in
  let v = if v.(n - 1) < 0 then Array.map (fun x -> -x) v else v in
  (Array.sub v 0 (n - 1), v.(n - 1))

(* [f k = ‖dp − k·m‖₁] is convex in [k], so a unit-step descent from 0
   stops at 0 clamped into the integer argmin [[a, b]].  Entry [i] adds
   to the slope [f (k + 1) − f k]: [−|mᵢ|] while [k + 1 <= dpᵢ / mᵢ],
   [+|mᵢ|] once [k >= dpᵢ / mᵢ], [|mᵢ| − 2 |dpᵢ − k·mᵢ|] in between.
   The slope changes only at the floor or the ceiling of a ratio, so [a]
   (the first [k] of slope [>= 0]) and [b] (the first of slope [> 0]) are
   among them.  A term lies in [[−|mᵢ|, |mᵢ|]], so wrapping arithmetic
   computes it exactly; only the result is checked. *)
let reduce ~multicast dp =
  let bounds d m =
    let q = d / m in
    if d mod m = 0 then (q, q) else if (d < 0) = (m < 0) then (q, q + 1)
    else (q - 1, q)
  in
  let term i k =
    let m = multicast.(i) and d = dp.(i) in
    if m = 0 then 0
    else begin
      let lo, hi = bounds d m in
      if k < lo then -abs m
      else if k >= hi then abs m
      else abs m - (2 * abs (d - (k * m)))
    end
  in
  (* the sign of the slope at [k], without adding the terms *)
  let slope k = compare (term 0 k) (-term 1 k) in
  let ks =
    List.concat_map
      (fun i ->
        if multicast.(i) = 0 then []
        else
          let lo, hi = bounds dp.(i) multicast.(i) in
          [ lo; hi ])
      [ 0; 1 ]
  in
  let first p = List.fold_left min max_int (List.filter p ks) in
  let a = first (fun k -> slope k >= 0) and b = first (fun k -> slope k > 0) in
  let k = if a > 0 then a else if b < 0 then b else 0 in
  Array.mapi (fun i d -> add d (mul (-k) multicast.(i))) dp

let reduce_against ~multicast dp =
  checked "Reuse.reduce_against" (fun () ->
      Array.iter (fun x -> ignore (abs_checked x)) (Array.append dp multicast);
      reduce ~multicast dp)

let image m v =
  Array.map
    (fun row ->
      let acc = ref 0 in
      Array.iteri (fun j x -> acc := add !acc (mul row.(j) x)) v;
      !acc)
    m

let images prep m =
  checked (of_tensor prep.tensor) (fun () ->
      match prep.null_int with
      | Some vs -> Array.map (image m) vs
      | None -> raise Rat.Overflow)

(* The primitive direction of each image, all that the classification
   reads of [m].  [T·v] may pass [max_int] while its primitive part fits
   (their ratio divides [det T]); that image is then the exact rational
   product of Eq. 2, scaled by [Vec.to_integer], which refuses only where
   the rational analysis does. *)
let directions_unchecked prep m =
  let exact v =
    let t = Mat.of_int_rows (Array.to_list (Array.map Array.to_list m)) in
    Vec.to_integer (Mat.mul_vec t v)
  in
  Array.of_list
    (List.mapi
       (fun k v ->
         match prep.null_int with
         | Some vs -> (
           try primitive (image m vs.(k)) with Rat.Overflow -> exact v)
         | None -> exact v)
       prep.null)

let directions prep m =
  checked (of_tensor prep.tensor) (fun () -> directions_unchecked prep m)

let classify_directions directions =
  match directions with
  | [||] -> Dataflow.Unicast
  | [| r |] ->
    let n = Array.length r in
    let dp, dt = normalize r in
    (* 1-D arrays pad directions to 2-D: the second (unused) array
       dimension never moves *)
    let dp = if n = 2 then [| dp.(0); 0 |] else dp in
    if Array.for_all (fun x -> x = 0) dp then Dataflow.Stationary { dt }
    else if dt = 0 then Dataflow.Multicast { dp }
    else Dataflow.Systolic { dp; dt }
  | [| r1; r2 |] ->
    (* a plane of three selected iterators.  Scaling a basis vector
       moves neither the plane nor any ray below, so primitive ones keep
       every product small. *)
    let t1 = r1.(2) and t2 = r2.(2) in
    if t1 = 0 && t2 = 0 then Dataflow.Reuse2d Dataflow.Broadcast
    else begin
      (* plane /\ {dt = 0} is spanned by w = t2*r1 - t1*r2 (nonzero since
         r1, r2 are independent and not both have zero time) *)
      let w i = add (mul t2 r1.(i)) (mul (-t1) r2.(i)) in
      let multicast = primitive [| w 0; w 1 |] in
      (* e_t ∈ span(r1, r2) iff the spatial projections of the two
         (independent) basis vectors are linearly dependent *)
      if mul r1.(0) r2.(1) = mul r1.(1) r2.(0) then
        Dataflow.Reuse2d (Dataflow.Multicast_stationary { multicast })
      else begin
        let dp, dt = normalize (if t1 = 0 then r2 else r1) in
        Dataflow.Reuse2d
          (Dataflow.Systolic_multicast
             { multicast;
               systolic = { Dataflow.dp = reduce ~multicast dp; dt } })
      end
    end
  | _ -> Dataflow.Reuse_full

let classify_matrix prep m =
  if prep.full then Dataflow.Reuse_full
  else
    checked (of_tensor prep.tensor) (fun () ->
        classify_directions (directions_unchecked prep m))
