(** Einsum-style tensor statements: a perfect loop nest computing

    [out[A_out x] += in1[A_1 x] * in2[A_2 x] * ...]

    which covers every Table-II workload (MTTKRP and TTMc have three
    inputs). *)

type t = {
  name : string;
  iters : Iter.t list;      (** nest order; defines the iteration vector *)
  output : Access.t;
  inputs : Access.t list;   (** at least one *)
}

val v : string -> iters:Iter.t list -> output:Access.t ->
  inputs:Access.t list -> t
(** @raise Invalid_argument if the access depths disagree with the nest
    depth, [inputs] is empty, or the iteration domain has more than
    [max_int] points. *)

val depth : t -> int
val extents : t -> int array
val domain_size : t -> int
(** Total number of iteration points (= number of MACs). *)

val tensors : t -> Access.t list
(** Output first, then inputs. *)

val iter_domain : t -> (int array -> unit) -> unit
(** Enumerate every iteration point in lexicographic nest order.  The array
    passed to the callback is reused; copy it if retained. *)

val pp : Format.formatter -> t -> unit
(** Formula rendering comparable to Table II, e.g.
    [C[m, n] += A[m, k] * B[n, k]]. *)
