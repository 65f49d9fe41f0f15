(** Space-Time Transformations (STT).

    An STT selects [n] iterators of a loop nest (for a 2-D PE array, three:
    two space dimensions and one time) and maps the selected iteration
    sub-vector [x] to [[p; t] = T x] where [T] is a full-rank integer
    matrix whose first [n-1] rows are the space projection and whose last
    row is the schedule.  The remaining (unselected) loops run sequentially
    outside the array. *)

type t = private {
  stmt : Tl_ir.Stmt.t;
  selected : int array;   (** ordered indices of the selected iterators *)
  matrix : Tl_linalg.Mat.t; (** n×n, full rank; last row = time *)
  imatrix : int array array;
      (** the same matrix as native integers (every STT matrix is integer);
          the fast path for per-candidate analysis avoids rational
          arithmetic entirely *)
}

val v : Tl_ir.Stmt.t -> selected:int array -> matrix:int list list -> t
(** @raise Invalid_argument if the selection is out of range or has
    duplicates, the matrix is not [n×n] with [n] the selection size, or the
    matrix is singular (the mapping must be one-to-one, §II). *)

val by_names : Tl_ir.Stmt.t -> string list -> matrix:int list list -> t
(** Select iterators by name, e.g. [by_names stmt ["k"; "c"; "x"] ...].
    @raise Not_found on an unknown iterator. *)

val space_dims : t -> int
(** Number of space rows (array dimensionality); [n - 1]. *)

val selected_iters : t -> Tl_ir.Iter.t list
val selected_extents : t -> int array
val unselected_iters : t -> Tl_ir.Iter.t list

val selection_label : t -> string
(** Upper-cased initials of the selected iterator names, e.g. ["KCX"]. *)

val label_of : Tl_ir.Stmt.t -> int array -> string
(** [label_of stmt selected] is the {!selection_label} of any transform
    of [stmt] with that selection. *)

val apply : t -> int array -> int array * int
(** [apply t x_sel] is [(p, time)] for a selected-iterator point. *)

val inverse : t -> Tl_linalg.Mat.t
(** Exact rational [T⁻¹]. *)

val inverse_apply : t -> int array -> int -> Tl_linalg.Vec.t
(** [inverse_apply t p time] recovers the (rational) iteration point mapped
    to space-time position [(p, time)].  An iteration point exists there iff
    the result is integral and within bounds. *)

val restricted_access : t -> Tl_ir.Access.t -> Tl_linalg.Mat.t
(** The access matrix restricted to the selected iterator columns (the
    matrix [A] of Eq. 2 in the selected subspace). *)

val time_bounds : t -> int * int
(** Minimum and maximum schedule value over the full selected iteration
    domain (inclusive); the per-tile latency span used by the performance
    model. *)

val space_footprint : t -> (int array, unit) Hashtbl.t
(** The set of PE coordinates actually used by the selected domain. *)

val pp : Format.formatter -> t -> unit
