(** Golden (reference) executor for tensor statements.

    Walks the statement's full loop nest over the tensors' flat arrays, by
    strides; every generated accelerator is verified element-wise against
    this. *)

type env = (string * Dense.t) list
(** Tensor name → storage. *)

val alloc_inputs : ?seed:int -> Stmt.t -> env
(** Allocate every input tensor of the statement with deterministic
    pseudo-random small values (range [-8, 8] so INT16 accumulation never
    saturates in the test sizes). *)

val alloc_output : Stmt.t -> Dense.t

val run : Stmt.t -> env -> Dense.t
(** Execute the statement: fresh zero output, accumulate the product of the
    inputs over the whole iteration domain.  Products and sums are native
    ints and wrap as such.
    @raise Not_found if an input tensor is missing from the environment.
    @raise Invalid_argument naming the tensor, before anything is
    written, if a tensor's rank differs from its access's, some extent
    is below what the access reaches, or {!Access.shape} refuses the
    access (an index that can go negative or past [max_int - 1]); a
    larger tensor is read through its own strides. *)

val run_with : Stmt.t -> env -> Dense.t -> unit
(** Same, accumulating into an existing output tensor, which the same
    check covers: on [Invalid_argument] the output is unchanged. *)
