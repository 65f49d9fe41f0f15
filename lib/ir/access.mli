(** Affine tensor access functions.

    An access reads/writes tensor element [I = A x] where [x] is the loop
    iteration vector and [A] the access matrix (tensor rank × nest depth).
    All Table-II workloads are purely linear (entries in {0,1}, no constant
    offsets), but arbitrary integer entries are supported. *)

type t = {
  tensor : string;        (** tensor name, e.g. "A" *)
  matrix : int array array;  (** [rank × depth] access matrix *)
}

val v : string -> int array array -> t
(** @raise Invalid_argument on an empty or ragged matrix. *)

val of_terms : string -> depth:int -> int list list -> t
(** [of_terms name ~depth rows] builds the matrix from per-dimension lists of
    iterator positions, each contributing coefficient 1.  E.g. Conv2D input
    [A[c, y+p, x+q]] over iterators [k;c;y;x;p;q] is
    [of_terms "A" ~depth:6 [[1]; [2; 4]; [3; 5]]]. *)

val rank : t -> int
(** Number of tensor dimensions. *)

val depth : t -> int
(** Loop-nest depth the access was built for. *)

val index : t -> int array -> int array
(** [index a x] evaluates [A x]. *)

val shape : t -> Iter.t list -> int array
(** Tensor extents implied by the iteration domain: for each dimension the
    maximum reachable index + 1 (entries may be negative; the minimum
    reachable index must be 0 for the dense golden executor).
    @raise Invalid_argument if some index can go negative, or the largest
    one exceeds [max_int - 1] (no sum wraps). *)

val pp : Format.formatter -> t -> unit
(** Prints e.g. [A[c, y+p, x+q]] given no iterator names are available;
    indices are rendered from matrix rows using [i0..in] placeholders. *)

val pp_with : Iter.t list -> Format.formatter -> t -> unit
(** Pretty-print with real iterator names. *)
