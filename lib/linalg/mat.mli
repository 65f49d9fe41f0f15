(** Dense rational matrices with the exact algorithms the STT analysis
    needs: Gauss–Jordan reduction, rank, inverse, null space, linear solve,
    and Moore–Penrose pseudo-inverse (exact over the rationals). *)

type t
(** Row-major rational matrix. *)

val make : rows:int -> cols:int -> (int -> int -> Rat.t) -> t
val of_int_rows : int list list -> t
(** Build from integer entries, one inner list per row.
    @raise Invalid_argument on ragged rows or the empty matrix. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Rat.t
val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val to_int_rows : t -> int list list
(** @raise Invalid_argument if an entry is not an integer. *)

val identity : int -> t
val zero : rows:int -> cols:int -> t
val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : Rat.t -> t -> t
val mul : t -> t -> t
val mul_vec : t -> Vec.t -> Vec.t
val equal : t -> t -> bool

val rref : t -> t * int list
(** Reduced row-echelon form and the list of pivot column indices. *)

val rank : t -> int
val det : t -> Rat.t
(** @raise Invalid_argument on a non-square matrix. *)

val inverse : t -> t option
(** [None] when singular. *)

val null_space : t -> Vec.t list
(** A basis of the right null space [{x | Ax = 0}]; empty list when the
    matrix has full column rank.  Basis vectors come from the RREF free
    columns, so they are deterministic. *)

val solve : t -> Vec.t -> Vec.t option
(** [solve a b] finds one [x] with [a x = b], or [None] if inconsistent. *)

val pseudo_inverse : t -> t
(** Exact Moore–Penrose pseudo-inverse via full-rank decomposition
    [A = C F], [A⁺ = Fᵀ (F Fᵀ)⁻¹ (Cᵀ C)⁻¹ Cᵀ].  For the zero matrix the
    pseudo-inverse is the zero matrix of transposed shape. *)

val hcat : t -> t -> t
val vcat : t -> t -> t
val map : (Rat.t -> Rat.t) -> t -> t
val pp : Format.formatter -> t -> unit
