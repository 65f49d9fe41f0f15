(** Reuse-subspace analysis (§IV, Eq. 2–3, Table I).

    Two selected iteration points access the same element of tensor [A] iff
    their difference lies in [null(A_sel)]; in space-time coordinates the
    reuse subspace is therefore [T · null(A_sel)], spanned by the images
    [T·v] of the integer null-basis vectors [v].  Its dimension and
    orientation w.r.t. the time axis determine the tensor's dataflow.

    Every sum and product that can leave native ints is checked: a
    classification is exact or raises {!Overflow}, and it never wraps.
    Its cost is bounded by the matrix size alone, whatever the
    entries. *)

exception Overflow of string
(** A message naming the tensor whose analysis does not fit a native
    int. *)

type prepared
(** The selection/access-dependent part of classification — the integer
    null-space basis of [A_sel] — hoisted out of the per-matrix loop. *)

val prepare : selected:int array -> Tl_ir.Access.t -> prepared
(** The exact rational null space of the access restricted to the
    [selected] iterator columns, each basis vector scaled to a primitive
    integer vector.  @raise Overflow when the null space does not fit
    native-int rationals. *)

val images : prepared -> int array array -> int array array
(** [images prep m] is [m · v] for each integer null-basis vector [v] of
    the prepared access, in basis order: {!classify_matrix} reads [m]
    only through them, so matrices with equal images classify alike.
    [m] must be square with one row per selected iterator.
    @raise Overflow when an entry does not fit. *)

val directions : prepared -> int array array -> int array array
(** [directions prep m] is the primitive integer vector on the line of
    each image, first nonzero entry positive: the space-time reuse
    directions that {!classify_matrix} reads.  Exact also where an image
    passes [max_int] but its direction fits.
    @raise Overflow when a direction does not fit. *)

val classify_matrix : prepared -> int array array -> Dataflow.t
(** [classify_matrix prep m] is the Table-I classification of the tensor
    under the STT matrix [m], read from [directions prep m].  Only 2-D PE
    arrays (three selected iterators) support the 2-D reuse-shape
    sub-cases.  Direction vectors are primitive and oriented with
    [dt >= 0].  @raise Overflow when a step does not fit. *)

val reduce_against : multicast:int array -> int array -> int array
(** [reduce_against ~multicast dp] is [dp − k·multicast] for the integer
    [k] that a unit-step descent of the l1 norm from [k = 0] reaches: [0]
    clamped into the interval of integers minimising
    [‖dp − k·multicast‖₁], found in closed form from the floors and
    ceilings of [dpᵢ / multicastᵢ].  Both vectors have two entries and
    [multicast] is nonzero.  @raise Overflow when an entry of the result
    does not fit. *)
