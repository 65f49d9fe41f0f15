(** Exact rational arithmetic over native integers.

    All STT matrices handled by TensorLib are tiny (at most 6×6) with small
    entries, so native [int] numerators/denominators normalised by gcd are
    exact for every computation the framework performs.  Arithmetic that
    would overflow raises {!Overflow} instead of wrapping silently. *)

type t = private { num : int; den : int }
(** A rational [num/den] with [den > 0] and [gcd |num| den = 1]. *)

exception Overflow
(** Raised when an intermediate product would exceed native-int range. *)

val mul_check : int -> int -> int
val add_check : int -> int -> int
val neg_check : int -> int
(** Native-int product, sum and negation.  @raise Overflow instead of
    wrapping. *)

exception Division_by_zero

val make : int -> int -> t
(** [make num den] is the normalised rational [num/den].
    @raise Division_by_zero if [den = 0].
    @raise Overflow if the normalised fraction does not fit, as
    [make 1 min_int] does not. *)

val of_int : int -> t

val zero : t
val one : t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is {!zero}. *)

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Overflow on a numerator of [min_int], whose negation and
    (as a denominator) whose inverse do not fit.
    @raise Division_by_zero on {!zero} ([inv]). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val to_int : t -> int
(** @raise Invalid_argument if the value is not an integer. *)

val to_float : t -> float

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
val ( = ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
