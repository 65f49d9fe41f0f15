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
    to an empty name. *)
