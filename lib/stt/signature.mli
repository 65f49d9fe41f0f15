(** Canonical design signatures, statement fingerprints and key digests.

    The fast-path replacement for per-design [Format] rendering: one reused
    [Buffer] and D4 canonicalisation as data ({!d4}, {!map_dataflow}),
    which enumeration also uses to deduplicate on numbered dataflows, so
    it renders only the designs it keeps. *)

type sym = { swap : bool; sr : int; sc : int }
(** A dihedral-group element acting on array coordinates:
    [new_r = sr * (swap ? c : r)], [new_c = sc * (swap ? r : c)]. *)

val d4 : sym list
(** All eight symmetries of the square array; the identity first. *)

val map_dataflow : sym -> Dataflow.t -> Dataflow.t
(** Transform every direction vector inside a dataflow. *)

val signature : Design.t -> string
(** Canonical textual form of the architecture: lexicographic minimum over
    {!d4} of [selection_label ^ "|" ^ tensor:dataflow ^ ...].  Identical
    strings to the historical [Enumerate.signature]. *)

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
    store names each entry by [key_digest] of its
    {!Tl_dse.Network.shape_key}. *)
