(** Dense integer tensors with row-major layout.

    Used by the golden executor and as the data source/sink when driving
    generated accelerators.  Values are native ints; the hardware datapath
    width (e.g. INT16 inputs, INT32 accumulators) is enforced by the netlist
    simulator, not here. *)

type t

val max_elements : int
(** The most elements a tensor may hold: 2^24 (128 MiB of words), fixed.
    It lies far above every tensor the tests, examples, bench sections
    and perfbench workloads allocate (the largest is 64 × 64, 4 096
    elements, for [-w gemm]) and far below what one array could hold
    ([Sys.max_array_length]), so an oversized request is refused before
    anything is allocated instead of exhausting memory. *)

val fits : int array -> bool
(** Every extent is positive and their product is at most
    {!max_elements}; the product is formed saturating, so it cannot
    wrap. *)

val create : int array -> t
(** Zero-filled tensor of the given shape. @raise Invalid_argument on an
    empty shape, a non-positive extent or a shape that does not
    {!fits}. *)

val init : int array -> (int array -> int) -> t
val shape : t -> int array
val size : t -> int
val get : t -> int array -> int
val set : t -> int array -> int -> unit
val flat_get : t -> int -> int
val flat_set : t -> int -> int -> unit
val offset : t -> int array -> int
(** Row-major linear offset of a multi-index. @raise Invalid_argument when
    out of bounds. *)

val strides : t -> int array

val data : t -> int array
(** The row-major storage itself, not a copy: element [idx] is at
    [offset t idx], and a write to the array is a write to the tensor. *)

val fill : t -> int -> unit
val copy : t -> t
val equal : t -> t -> bool
val map : (int -> int) -> t -> t
val iteri : (int array -> int -> unit) -> t -> unit
(** The index array is reused across calls; copy it if retained. *)

val pp : Format.formatter -> t -> unit
