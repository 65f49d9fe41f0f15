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
  imatrix : int array array;  (** n×n, full rank; last row = time *)
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

val selected_extents : t -> int array
val unselected_iters : t -> Tl_ir.Iter.t list

val selection_label : t -> string
(** Upper-cased initials of the selected iterator names, e.g. ["KCX"]. *)

val label_of : Tl_ir.Stmt.t -> int array -> string
(** [label_of stmt selected] is the {!selection_label} of any transform
    of [stmt] with that selection. *)

val adjugate : t -> int array array * int
(** [(adj T, det T)] in native integers: [T · adj T = det T · I], so
    [T⁻¹ v = adj T · v / det T] needs no rational arithmetic.
    @raise Invalid_argument unless [n] is 2 or 3. *)

val row_bounds : t -> int -> int * int
(** [row_bounds t i] is the minimum and maximum of row [i] of [T] over
    the full selected iteration domain (inclusive), in closed form.  The
    space rows give the PE footprint; the last row, the schedule, gives
    the per-tile latency span used by the performance model. *)

val pp : Format.formatter -> t -> unit
