(** Searching the STT matrix space.

    The generator's design space is parameterised by (a) which iterators are
    selected and (b) the transformation matrix.  Matrices with entries in
    {-1, 0, 1} cover every dataflow discussed in the paper (including the
    diagonal Eyeriss-style multicast); this module enumerates them, and
    resolves the paper's dataflow names ("KCX-SST") back to a concrete
    transformation. *)

val candidate_matrices : n:int -> int list list list
(** All full-rank [n×n] matrices with entries in {-1,0,1}, ordered by
    ascending absolute-entry weight (so searches prefer simple matrices,
    e.g. near-identity ones).  Cached after the first call per [n]. *)

val selections : Tl_ir.Stmt.t -> n:int -> int array list
(** All [n]-combinations of iterator indices in nest order. *)

val selection_of_label : Tl_ir.Stmt.t -> string -> int array
(** ["KCX"] → indices of iterators k, c, x (matched on upper-cased first
    letter). @raise Not_found on unknown initials,
    @raise Invalid_argument on ambiguity. *)

val design_matches : loose:bool -> Design.t -> string -> bool
(** Do the design's per-tensor dataflows spell the given letters?  With
    [loose], a 2-D-reuse tensor also matches the letter of either of its
    1-D components (the paper's informal naming, e.g. Conv2D "XYP-MST"). *)

val matching_designs : Tl_ir.Stmt.t -> string -> Design.t list
(** Every candidate-matrix design whose analysis matches the dataflow name
    (strict letter matching if any matrix achieves it, loose otherwise),
    simplest matrices first.  Empty when unrealisable. *)

val find_design : Tl_ir.Stmt.t -> string -> Design.t option
(** [find_design stmt "KCX-SST"] searches for the simplest transformation
    whose analysis yields exactly that name.  [None] when the dataflow
    letter combination is not realisable by any candidate matrix. *)

val find_design_exn : Tl_ir.Stmt.t -> string -> Design.t
(** @raise Not_found when unrealisable. *)

val all_designs : ?budget:Tl_resil.Budget.t -> ?selection:int array ->
  Tl_ir.Stmt.t -> (string * Design.t) list
(** Every distinct dataflow name reachable over the candidate matrices (for
    the given selection, or all selections), with the simplest realising
    design for each: the first (selection, matrix) in search order, built
    against [stmt].  Names are returned sorted.

    Cost: one sweep of every candidate matrix per statement {e structure}
    ({!Signature.structure_fingerprint} and [selection]: iterator
    initials and access matrices, not the names or the extents),
    memoised in the ["stt.search_plan"] {!Tl_par.Cache}; each later call
    on that structure only builds its O(names) designs.  The cache holds
    at most 256 plans and starts over when full, so a process that sees
    more distinct structures pays the sweep again for them.  The
    sweep classifies integer matrices directly
    ({!Reuse.classify_matrix}) and polls [budget] (default unlimited)
    once per candidate; {!Tl_resil.Budget.Expired} aborts it without
    leaving a plan behind.  A memoised plan costs no budget polls.

    @raise Invalid_argument on a selection with out-of-range or duplicate
    indices, or fewer than two. *)
