(** Reuse-subspace analysis (§IV, Eq. 2–3, Table I).

    Two selected iteration points access the same element of tensor [A] iff
    their difference lies in [null(A_sel)]; in space-time coordinates the
    reuse subspace is therefore [T · null(A_sel)].  Its dimension and
    orientation w.r.t. the time axis determine the tensor's dataflow. *)

val reuse_basis : Transform.t -> Tl_ir.Access.t -> Tl_linalg.Vec.t list
(** Basis of the reuse subspace in space-time coordinates (possibly empty). *)

val projector : Transform.t -> Tl_ir.Access.t -> Tl_linalg.Mat.t
(** The literal Eq. 3 operator [E − (A·T⁻¹)⁺(A·T⁻¹)]: the orthogonal-style
    projector whose image is the reuse subspace.  Provided for fidelity with
    the paper; {!reuse_basis} computes the same space directly. *)

val classify : Transform.t -> Tl_ir.Access.t -> Dataflow.t
(** Table-I classification of the tensor's movement.  Only 2-D PE arrays
    (three selected iterators) support the 2-D reuse-shape sub-cases.
    Direction vectors are primitive and oriented with [dt >= 0]. *)

val reuses_same_element : Transform.t -> Tl_ir.Access.t ->
  int array -> int array -> bool
(** Brute-force oracle: do two selected iteration points access the same
    tensor element?  Used by property tests to validate {!classify}. *)

type prepared
(** The selection/access-dependent part of classification — the integer
    null-space basis of [A_sel] — hoisted out of the per-matrix loop. *)

val prepare : selected:int array -> Tl_ir.Access.t -> prepared

val classify_prepared : prepared -> Transform.t -> Dataflow.t
(** [classify_prepared (prepare ~selected access) t] equals
    [classify t access] for every [t] with that selection, computed with
    pure integer arithmetic (no rational null space per candidate). *)

val images : prepared -> int array array -> int array array
(** [images prep m] is [m · v] for each integer null-basis vector [v] of
    the prepared access, in basis order: all that {!classify_matrix}
    reads of [m], so matrices with equal images classify alike.  [m]
    must be square with one row per selected iterator. *)

val classify_matrix : prepared -> int array array -> Dataflow.t
(** [classify_matrix prep m] classifies the tensor from [images prep m];
    it is [classify_prepared prep t] for the transform [t] whose integer
    matrix is [m], without building [t]. *)
