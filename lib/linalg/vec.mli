(** Rational vectors (dense, immutable in practice). *)

type t = Rat.t array

val make : int -> Rat.t -> t
val of_ints : int list -> t
val of_list : Rat.t list -> t
val dim : t -> int
val get : t -> int -> Rat.t

val add : t -> t -> t
val sub : t -> t -> t
val scale : Rat.t -> t -> t
val dot : t -> t -> Rat.t
val neg : t -> t

val is_zero : t -> bool
val equal : t -> t -> bool

val basis : int -> int -> t
(** [basis n i] is the [i]-th standard basis vector of dimension [n]. *)

val to_integer : t -> int array
(** Scale a rational vector by the lcm of denominators and divide by the gcd
    of numerators, producing the primitive integer vector spanning the same
    ray.  The sign convention makes the first nonzero entry positive.
    @raise Invalid_argument on the zero vector.
    @raise Rat.Overflow when the scaled entries do not fit a native int. *)

val pp : Format.formatter -> t -> unit
