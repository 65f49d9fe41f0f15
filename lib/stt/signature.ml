(* Canonical design signatures and statement fingerprints.

   Two designs whose interconnects differ only by a rotation/reflection of
   the square PE array are the same hardware; signatures are canonicalised
   under the dihedral group D4 acting on every direction vector at once.
   Rendering goes through one reused [Buffer] (no [Format]): every point
   {!Tl_dse.Enumerate.design_space} keeps is rendered eight times. *)

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

(* The lexicographic minimum over [d4] of the rendered label and
   dataflows, one [Buffer] for all eight renders. *)
let signature (d : Design.t) =
  let prefix = Transform.selection_label d.Design.transform in
  let buf = Buffer.create 96 in
  let one s =
    Buffer.clear buf;
    Buffer.add_string buf prefix;
    render_tensors buf s d;
    Buffer.contents buf
  in
  List.fold_left
    (fun best s ->
      let x = one s in
      if String.compare x best < 0 then x else best)
    (one identity) (List.tl d4)

(* ------------------------------------------------------------------ *)
(* Statement fingerprints.                                             *)

(* The bytes of [string_of_int v].  Access coefficients are mostly single
   digits, which skip the formatted conversion: serve fingerprints every
   einsum request. *)
let add_int buf v =
  if v >= 0 && v < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + v))
  else Buffer.add_string buf (string_of_int v)

let add_int_array buf a =
  Array.iter
    (fun v ->
      Buffer.add_char buf ',';
      add_int buf v)
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
        add_int buf it.Tl_ir.Iter.extent
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

(* Stable 32-hex-char content digest of a key string.  MD5 of the exact
   bytes, so it is identical across processes and sessions: the
   persistent design store names its entry files with it. *)
let key_digest s = Digest.to_hex (Digest.string s)
