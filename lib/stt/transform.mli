(** Space-Time Transformations (STT).

    An STT selects [n] iterators of a loop nest (for a 2-D PE array, three:
    two space dimensions and one time) and maps the selected iteration
    sub-vector [x] to [[p; t] = T x] where [T] is a full-rank integer
    matrix whose first [n-1] rows are the space projection and whose last
    row is the schedule.  The remaining (unselected) loops run sequentially
    outside the array.

    This module owns the integer facts about [T]: its rank, adjugate and
    footprint are computed in checked native ints, exact or refused with
    {!Overflow}, never wrapped. *)

exception Overflow of string
(** A message naming the quantity of [T] that does not fit a native
    int. *)

type t = private {
  stmt : Tl_ir.Stmt.t;
  selected : int array;   (** ordered indices of the selected iterators *)
  imatrix : int array array;  (** n×n, full rank; last row = time *)
  det : int;  (** [det T], nonzero *)
}

(** Why a selection and a matrix name no transform. *)
type problem =
  | Too_few_selected  (** fewer than 2 selected iterators *)
  | Out_of_range of { index : int; depth : int }
  | Selected_twice
  | Not_square of int  (** the matrix is not [n×n] for [n] selected *)
  | Singular  (** the mapping is not one-to-one (§II) *)
  | Determinant_overflow
      (** [det T] does not fit a native int, so the rank is not
          decided *)

val describe : problem -> string

val check :
  Tl_ir.Stmt.t -> selected:int array -> matrix:int list list ->
  (t, problem list) result
(** The one verdict on a selection and a matrix: every selection and
    shape problem, in the order of {!problem}'s constructors, or when
    there is none the rank, from {!det}.  An [Error] list is never
    empty. *)

val v : Tl_ir.Stmt.t -> selected:int array -> matrix:int list list -> t
(** {!check}, raising its first problem.
    @raise Invalid_argument with ["Transform.v: "] and {!describe} of
    that problem. *)

val by_names : Tl_ir.Stmt.t -> string list -> matrix:int list list -> t
(** Select iterators by name, e.g. [by_names stmt ["k"; "c"; "x"] ...].
    @raise Not_found on an unknown iterator. *)

val det : int array array -> int
(** The determinant of a square integer matrix: closed forms for 2×2 and
    3×3, fraction-free elimination above.  Exact wherever it answers.
    @raise Overflow when it or an intermediate does not fit. *)

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
    @raise Overflow when an entry of [adj T] does not fit.
    @raise Invalid_argument unless [n] is 2 or 3. *)

val row_bounds : t -> int array -> int -> int * int
(** [row_bounds t ext i] is the minimum and maximum of row [i] of [T]
    over the selected box [\[0, ext)] (inclusive), in closed form: over
    {!selected_extents} for the whole domain, over a tile's extents for
    one tile.  The space rows give the PE footprint; the last row, the
    schedule, gives the latency span of one pass.
    @raise Overflow when the span [max - min + 1] passes [max_int]. *)

val pp : Format.formatter -> t -> unit
