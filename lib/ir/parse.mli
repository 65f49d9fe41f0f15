(** Einsum-style workload parser: the textual front-end.

    [stmt "C[m,n] += A[m,k] * B[n,k]" ~extents:[("m",64);("n",64);("k",64)]]
    builds the corresponding {!Stmt.t}.  Index expressions are sums of
    iterators with optional positive integer coefficients:

    {v
      C[k, y, x] += A[c, y+p, x+q] * B[k, c, p, q]       (Conv2D)
      C[k, y, x] += A[c, 2y+p, 2x+q] * B[k, c, p, q]     (stride 2)
      D[i, j] += A[i, k, l] * B[k, j] * C[l, j]          (MTTKRP)
    v}

    Iterators are single lower-case identifiers; the nest order is the
    order of [extents].  Whitespace is insignificant. *)

exception Parse_error of string

val stmt : ?name:string -> string -> extents:(string * int) list -> Stmt.t
(** @raise Parse_error on malformed input (with a description), including
    iterators used in the formula but missing from [extents], and
    [extents] that bind an iterator twice, to a non-positive extent or
    to an empty name, and a coefficient (its digits, or the sum of an
    iterator's terms in one index) or a tensor extent ({!Access.shape})
    that does not fit in an int. *)

(** {2 Names and numbers at the input boundary} *)

val decimal : string -> int option
(** An optional [-], then decimal digits, as an int; [None] for anything
    else (an OCaml literal such as [0x9], [1_000] or [+5]) and for a value
    past an int. *)

val extents : string -> (string * int) list
(** [m=64,n=64,k=64] as bindings in nest order, each value read by
    {!decimal}: the syntax of [--extents] and of a served request's
    ["extents"].  @raise Parse_error ["bad extent binding: k=x"] naming a
    binding that is not [name=int]. *)

val suggest : valid:string list -> string -> string
(** The did-you-mean fragment for an unknown name: ["; did you mean
    \"tape\"?"] naming the canonical spelling of the closest of [valid]
    within two edits, compared case-insensitively; [""] when none is
    that close or [s] is blank. *)
