(* Canonical design signatures, statement fingerprints and evaluation-cache
   keys.

   Two designs whose interconnects differ only by a rotation/reflection of
   the square PE array are the same hardware; signatures are canonicalised
   under the dihedral group D4 acting on every direction vector at once.
   Rendering goes through one reused [Buffer] (no [Format]): signature
   construction is the inner loop of {!Tl_dse.Enumerate.design_space}. *)

(* A D4 element as data: [new_r = sr * (swap ? c : r)],
   [new_c = sc * (swap ? r : c)]. *)
type sym = { swap : bool; sr : int; sc : int }

let identity = { swap = false; sr = 1; sc = 1 }

let d4 =
  [ identity;
    { swap = true; sr = 1; sc = 1 };
    { swap = false; sr = -1; sc = 1 };
    { swap = false; sr = 1; sc = -1 };
    { swap = false; sr = -1; sc = -1 };
    { swap = true; sr = -1; sc = 1 };
    { swap = true; sr = 1; sc = -1 };
    { swap = true; sr = -1; sc = -1 } ]

(* The subgroup preserving the row/col axes — the symmetries of a
   rectangular (non-square) array. *)
let axis_syms = List.filter (fun s -> not s.swap) d4

let map_vec s v =
  if s == identity then v
  else if s.swap then [| s.sr * v.(1); s.sc * v.(0) |]
  else [| s.sr * v.(0); s.sc * v.(1) |]

let map_dataflow s (df : Dataflow.t) : Dataflow.t =
  if s == identity then df
  else
    match df with
    | Dataflow.Unicast | Dataflow.Stationary _ | Dataflow.Reuse_full
    | Dataflow.Reuse2d Dataflow.Broadcast -> df
    | Dataflow.Systolic { dp; dt } ->
      Dataflow.Systolic { dp = map_vec s dp; dt }
    | Dataflow.Multicast { dp } -> Dataflow.Multicast { dp = map_vec s dp }
    | Dataflow.Reuse2d (Dataflow.Multicast_stationary { multicast }) ->
      Dataflow.Reuse2d
        (Dataflow.Multicast_stationary { multicast = map_vec s multicast })
    | Dataflow.Reuse2d (Dataflow.Systolic_multicast { multicast; systolic })
      ->
      Dataflow.Reuse2d
        (Dataflow.Systolic_multicast
           { multicast = map_vec s multicast;
             systolic = { systolic with Dataflow.dp = map_vec s systolic.Dataflow.dp } })

let render_tensors buf s (d : Design.t) =
  List.iter
    (fun ti ->
      Buffer.add_char buf '|';
      Buffer.add_string buf ti.Design.access.Tl_ir.Access.tensor;
      Buffer.add_char buf ':';
      Dataflow.render buf (map_dataflow s ti.Design.dataflow))
    d.Design.tensors

let min_render ~syms ~prefix render =
  let buf = Buffer.create 96 in
  let one s =
    Buffer.clear buf;
    Buffer.add_string buf prefix;
    render buf s;
    Buffer.contents buf
  in
  match syms with
  | [] -> invalid_arg "Signature.min_render: empty symmetry group"
  | s0 :: rest ->
    List.fold_left
      (fun best s ->
        let x = one s in
        if String.compare x best < 0 then x else best)
      (one s0) rest

let signature_under syms (d : Design.t) =
  let prefix = Transform.selection_label d.Design.transform in
  min_render ~syms ~prefix (fun buf s -> render_tensors buf s d)

let signature d = signature_under d4 d

(* One buffer-render with the identity element: a cheap non-canonical key
   whose equality implies canonical-signature equality.  Deduplicating on
   it first means the 8-fold canonical render only runs on survivors. *)
let identity_signature (d : Design.t) =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (Transform.selection_label d.Design.transform);
  render_tensors buf identity d;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Fingerprints for cache keys.                                        *)

let add_int_array buf a =
  Array.iter
    (fun v ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v))
    a

let add_access ~full buf (a : Tl_ir.Access.t) =
  if full then Buffer.add_string buf a.Tl_ir.Access.tensor;
  Buffer.add_char buf '[';
  Array.iter
    (fun row ->
      add_int_array buf row;
      Buffer.add_char buf ';')
    a.Tl_ir.Access.matrix;
  Buffer.add_char buf ']'

(* Everything the analyses read from a statement: iterator names/extents
   and the exact access matrices, output last (the position [Design.analyze]
   gives it).  Two statements with equal fingerprints are interchangeable
   for classification, scheduling and cost. *)
let fingerprint ~full (stmt : Tl_ir.Stmt.t) =
  let buf = Buffer.create 128 in
  if full then Buffer.add_string buf stmt.Tl_ir.Stmt.name;
  Buffer.add_char buf '{';
  List.iter
    (fun it ->
      let name = it.Tl_ir.Iter.name in
      if full then begin
        Buffer.add_string buf name;
        Buffer.add_char buf '=';
        Buffer.add_string buf (string_of_int it.Tl_ir.Iter.extent)
      end
      else Buffer.add_char buf (Char.uppercase_ascii name.[0]);
      Buffer.add_char buf ' ')
    stmt.Tl_ir.Stmt.iters;
  List.iter (fun a -> add_access ~full buf a; Buffer.add_char buf ' ')
    stmt.Tl_ir.Stmt.inputs;
  add_access ~full buf stmt.Tl_ir.Stmt.output;
  Buffer.add_char buf '}';
  Buffer.contents buf

let stmt_fingerprint = fingerprint ~full:true

(* A dataflow name reads the selected iterators' upper-cased initials and
   the access matrices by position, so the statement name, the extents,
   the rest of each iterator name and the tensor names are left out. *)
let structure_fingerprint = fingerprint ~full:false

(* Render [d]'s STT matrix with the spatial rows transformed by [s]:
   [s] permutes/negates the two space rows and fixes the time row, i.e. it
   renders the matrix of the same design re-expressed in the transformed
   array coordinates. *)
let render_matrix buf s (d : Design.t) =
  let m = d.Design.transform.Transform.matrix in
  let n = Tl_linalg.Mat.rows m in
  let src_row i =
    if n >= 3 && i = 0 then (if s.swap then 1 else 0)
    else if n >= 3 && i = 1 then (if s.swap then 0 else 1)
    else i
  in
  let row_sign i =
    if n >= 3 && i = 0 then s.sr else if n >= 3 && i = 1 then s.sc else 1
  in
  for i = 0 to n - 1 do
    let r = src_row i and sg = row_sign i in
    for j = 0 to Tl_linalg.Mat.cols m - 1 do
      let v = Tl_linalg.Mat.get m r j in
      Buffer.add_char buf ',';
      Buffer.add_string buf
        (Tl_linalg.Rat.to_string (if sg < 0 then Tl_linalg.Rat.neg v else v))
    done;
    Buffer.add_char buf ';'
  done

(* A key that pins everything {!Tl_perf} and {!Tl_cost} read from a design:
   the statement, the selection, and the (matrix, dataflows) pair
   canonicalised under the symmetries that provably leave the evaluation
   invariant — the full D4 group when the array is square, only the
   axis-preserving subgroup when [rows <> cols] (a transpose would swap the
   row/col feasibility checks). *)
(* Stable 32-hex-char content digest of a key string.  MD5 of the exact
   bytes, so it is identical across processes and sessions — the
   persistent design store names its entry files with it. *)
let key_digest s = Digest.to_hex (Digest.string s)

let eval_key ~square (d : Design.t) =
  let t = d.Design.transform in
  let syms =
    if Tl_linalg.Mat.rows t.Transform.matrix <> 3 then [ identity ]
    else if square then d4
    else axis_syms
  in
  let prefix =
    let buf = Buffer.create 160 in
    Buffer.add_string buf (stmt_fingerprint t.Transform.stmt);
    Buffer.add_string buf "#sel";
    add_int_array buf t.Transform.selected;
    Buffer.add_char buf '#';
    Buffer.contents buf
  in
  min_render ~syms ~prefix (fun buf s ->
      render_matrix buf s d;
      render_tensors buf s d)
