(** Canonical design signatures, statement fingerprints and cache keys.

    The fast-path replacement for per-design [Format] rendering: one reused
    [Buffer], D4 canonicalisation as data, and a cheap identity pre-key so
    enumeration only pays the 8-fold canonical render for designs that
    survive first-stage deduplication. *)

type sym = { swap : bool; sr : int; sc : int }
(** A dihedral-group element acting on array coordinates:
    [new_r = sr * (swap ? c : r)], [new_c = sc * (swap ? r : c)]. *)

val identity : sym

val d4 : sym list
(** All eight symmetries of the square array; [identity] first. *)

val axis_syms : sym list
(** The subgroup with [swap = false] — the symmetries of a rectangular
    array (row/col axes preserved). *)

val map_vec : sym -> int array -> int array
(** Transform a length-2 direction vector.  Returns the argument itself
    (physically) under {!identity}. *)

val map_dataflow : sym -> Dataflow.t -> Dataflow.t
(** Transform every direction vector inside a dataflow. *)

val signature : Design.t -> string
(** Canonical textual form of the architecture: lexicographic minimum over
    {!d4} of [selection_label ^ "|" ^ tensor:dataflow ^ ...].  Identical
    strings to the historical [Enumerate.signature]. *)

val signature_under : sym list -> Design.t -> string
(** {!signature} restricted to a given symmetry group. *)

val identity_signature : Design.t -> string
(** One render with {!identity} only.  Equal identity signatures imply
    equal canonical signatures, so this is a sound (and ~8x cheaper)
    first-stage dedup key. *)

val stmt_fingerprint : Tl_ir.Stmt.t -> string
(** Pins everything the analyses read from a statement: name, iterator
    names/extents, and exact access matrices (output last). *)

val structure_fingerprint : Tl_ir.Stmt.t -> string
(** What a dataflow name reads from a statement: the upper-cased initial
    of each iterator and the exact access matrices, positionally (output
    last).  Statement name, extents, full iterator names and tensor names
    are left out.  Statements with equal structure fingerprints realise
    the same dataflow name with the same (selection, matrix). *)

val key_digest : string -> string
(** Stable 32-hex-char MD5 digest of a key string — identical across
    processes and sessions for identical bytes.  The persistent design
    store addresses its entries with [key_digest (cache key)]. *)

val eval_key : square:bool -> Design.t -> string
(** Memoisation key for performance/cost evaluation: statement fingerprint,
    selection, and the (STT matrix, dataflows) pair canonicalised under the
    symmetries that leave evaluation invariant — full {!d4} when [square],
    {!axis_syms} otherwise, and no symmetry at all for non-2-D arrays. *)
