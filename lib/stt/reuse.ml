open Tl_linalg

let reuse_basis t access =
  let a_sel = Transform.restricted_access t access in
  let null = Mat.null_space a_sel in
  List.map (fun v -> Mat.mul_vec t.Transform.matrix v) null

let projector t access =
  let a_sel = Transform.restricted_access t access in
  let at = Mat.mul a_sel (Transform.inverse t) in
  let n = Mat.cols at in
  Mat.sub (Mat.identity n) (Mat.mul (Mat.pseudo_inverse at) at)

(* Normalise a rational space-time vector to a primitive integer vector with
   dt >= 0 (and first nonzero dp positive when dt = 0). *)
let normalize v =
  let ints = Vec.to_integer v in
  let n = Array.length ints in
  let dt = ints.(n - 1) in
  let ints = if dt < 0 then Array.map (fun x -> -x) ints else ints in
  (Array.sub ints 0 (n - 1), ints.(n - 1))

(* Reduce a systolic direction by integer multiples of the multicast
   direction to obtain a canonical small representative. *)
let reduce_against ~multicast (dp, dt) =
  let l1 a = Array.fold_left (fun acc x -> acc + abs x) 0 a in
  let sub k = Array.mapi (fun i x -> x - (k * multicast.(i))) dp in
  let rec improve best =
    let better =
      List.find_opt
        (fun k -> l1 (sub k) < l1 (sub best))
        [ best - 1; best + 1 ]
    in
    match better with Some k -> improve k | None -> best
  in
  let k = improve 0 in
  (sub k, dt)

let classify t access =
  let basis = reuse_basis t access in
  let sd = Transform.space_dims t in
  (* 1-D arrays are handled uniformly by padding directions to 2-D: the
     second (unused) array dimension never moves *)
  let pad dp = if sd = 1 then [| dp.(0); 0 |] else dp in
  match basis with
  | [] -> Dataflow.Unicast
  | [ r ] ->
    let dp, dt = normalize r in
    let dp = pad dp in
    if Array.for_all (fun x -> x = 0) dp then Dataflow.Stationary { dt }
    else if dt = 0 then Dataflow.Multicast { dp }
    else Dataflow.Systolic { dp; dt }
  | [ r1; r2 ] when sd = 2 ->
    let time_of v = v.(Vec.dim v - 1) in
    let t1 = time_of r1 and t2 = time_of r2 in
    if Rat.is_zero t1 && Rat.is_zero t2 then Dataflow.Reuse2d Dataflow.Broadcast
    else begin
      (* plane /\ {dt = 0} is spanned by w = t2*r1 - t1*r2 (nonzero since
         r1, r2 are independent and not both have zero time). *)
      let w = Vec.sub (Vec.scale t2 r1) (Vec.scale t1 r2) in
      let multicast, _ = normalize w in
      (* e_t in plane <=> [r1 r2] c = e_t solvable *)
      let n = Vec.dim r1 in
      let plane =
        Mat.make ~rows:n ~cols:2 (fun i j -> if j = 0 then r1.(i) else r2.(i))
      in
      let e_t = Vec.basis n (n - 1) in
      match Mat.solve plane e_t with
      | Some _ ->
        Dataflow.Reuse2d (Dataflow.Multicast_stationary { multicast })
      | None ->
        let base = if Rat.is_zero t1 then r2 else r1 in
        let dp, dt = reduce_against ~multicast (normalize base) in
        Dataflow.Reuse2d
          (Dataflow.Systolic_multicast
             { multicast; systolic = { Dataflow.dp; dt } })
    end
  | _ -> Dataflow.Reuse_full

(* ------------------------------------------------------------------ *)
(* Prepared fast path.

   [null(A_sel)] depends only on the selection and the access — not on the
   STT matrix — so enumeration sweeps can compute it once per
   (selection, tensor) and classify each candidate matrix with pure
   integer arithmetic.  The basis vectors are the exact [Mat.null_space]
   output pre-scaled to primitive integers ([Vec.to_integer]); per-vector
   scaling and sign are invisible to [classify]'s normalisations, so
   {!classify_prepared} returns structurally identical dataflows to
   {!classify} (the property suite checks this differentially). *)

type prepared = { null_int : int array array }

let prepare ~selected (access : Tl_ir.Access.t) =
  let am = access.Tl_ir.Access.matrix in
  let a_sel =
    Mat.make ~rows:(Array.length am) ~cols:(Array.length selected) (fun i j ->
        Rat.of_int am.(i).(selected.(j)))
  in
  { null_int =
      Array.of_list (List.map Vec.to_integer (Mat.null_space a_sel)) }

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* Same contract as [normalize] on the rational ray spanned by [v]:
   primitive, [dt > 0] when nonzero, else first nonzero dp positive. *)
let normalize_int v =
  let n = Array.length v in
  let g = Array.fold_left (fun acc x -> gcd_int (abs x) acc) 0 v in
  let v = if g > 1 then Array.map (fun x -> x / g) v else v in
  let dt = v.(n - 1) in
  let flip =
    if dt <> 0 then dt < 0
    else begin
      let rec first i = if v.(i) <> 0 then v.(i) < 0 else first (i + 1) in
      first 0
    end
  in
  let v = if flip then Array.map (fun x -> -x) v else v in
  (Array.sub v 0 (n - 1), v.(n - 1))

(* [T·v] for each integer null-basis vector [v]: the only thing
   [classify_images] reads of the matrix. *)
let images prep m =
  let n = Array.length m in
  Array.map
    (fun v ->
      Array.init n (fun i ->
          let row = m.(i) in
          let acc = ref 0 in
          Array.iteri (fun j x -> acc := !acc + (row.(j) * x)) v;
          !acc))
    prep.null_int

let classify_images images =
  match images with
  | [||] -> Dataflow.Unicast
  | [| r |] ->
    let n = Array.length r in
    let dp, dt = normalize_int r in
    (* 1-D arrays pad directions to 2-D, as [classify] does *)
    let dp = if n = 2 then [| dp.(0); 0 |] else dp in
    if Array.for_all (fun x -> x = 0) dp then Dataflow.Stationary { dt }
    else if dt = 0 then Dataflow.Multicast { dp }
    else Dataflow.Systolic { dp; dt }
  | [| r1; r2 |] when Array.length r1 = 3 ->
    let t1 = r1.(2) and t2 = r2.(2) in
    if t1 = 0 && t2 = 0 then Dataflow.Reuse2d Dataflow.Broadcast
    else begin
      let w = Array.init 3 (fun i -> (t2 * r1.(i)) - (t1 * r2.(i))) in
      let multicast, _ = normalize_int w in
      (* e_t ∈ span(r1, r2) iff the spatial projections of the two
         (independent) basis vectors are linearly dependent — the exact
         condition [Mat.solve plane e_t] tests on the rational path. *)
      if (r1.(0) * r2.(1)) - (r1.(1) * r2.(0)) = 0 then
        Dataflow.Reuse2d (Dataflow.Multicast_stationary { multicast })
      else begin
        let base = if t1 = 0 then r2 else r1 in
        let dp, dt = reduce_against ~multicast (normalize_int base) in
        Dataflow.Reuse2d
          (Dataflow.Systolic_multicast
             { multicast; systolic = { Dataflow.dp; dt } })
      end
    end
  | _ -> Dataflow.Reuse_full

let classify_matrix prep m = classify_images (images prep m)

let classify_prepared prep (t : Transform.t) =
  classify_matrix prep t.Transform.imatrix

let reuses_same_element t access x1 x2 =
  let a_sel = Transform.restricted_access t access in
  let diff =
    Array.init (Array.length x1) (fun i -> Rat.of_int (x1.(i) - x2.(i)))
  in
  Vec.is_zero (Mat.mul_vec a_sel diff)
