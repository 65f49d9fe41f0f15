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
    e.g. near-identity ones).  Cached after the first call per [n].
    @raise Invalid_argument unless [n] is 2 or 3. *)

val selections : Tl_ir.Stmt.t -> n:int -> int array list
(** All [n]-combinations of iterator indices in nest order. *)

val selection_of_label : Tl_ir.Stmt.t -> string -> int array
(** ["KCX"] → indices of iterators k, c, x (matched on upper-cased first
    letter). @raise Not_found on unknown initials,
    @raise Invalid_argument on ambiguity. *)

(** {1 The classification sweep} *)

val sweep : budget:Tl_resil.Budget.t -> Tl_ir.Stmt.t -> selected:int array ->
  (int list list -> int array -> Dataflow.t array -> unit) -> unit
(** [sweep stmt ~selected f] calls [f m ids dfs] for every matrix [m] of
    [candidate_matrices ~n] in order, [n] the selection size.  [dfs.(i)]
    is the dataflow of tensor [i] (inputs in formula order, output last)
    under [m], exactly [Reuse.classify_matrix]'s, and [ids.(i)] numbers
    it: two matrices give tensor [i] equal dataflows iff equal ids.  Both
    arrays are reused between calls, so [f] copies what it keeps; the
    dataflow values themselves are shared and never change.

    Cost: a tensor is classified once per distinct set of images of its
    null-basis vectors ({!Reuse.images}); every other candidate costs it
    an add per matrix row (the images, packed from per-row tables) and
    one table lookup.  [budget] is polled once per candidate;
    {!Tl_resil.Budget.Expired} aborts the sweep.
    @raise Invalid_argument unless [selected] names 2 or 3 distinct
    iterators of [stmt].
    @raise Reuse.Overflow when a tensor's classification under some
    candidate does not fit native ints; so do the sweeps below. *)

val distinct_flows : budget:Tl_resil.Budget.t -> Tl_ir.Stmt.t ->
  selected:int array -> (int list list * Dataflow.t list) list
(** The first matrix of each distinct per-tensor dataflow list over one
    {!sweep}, in matrix order, with that list. *)

(** {1 Dataflow names} *)

val matching_designs : Tl_ir.Stmt.t -> string -> Design.t list
(** Every candidate-matrix design whose per-tensor dataflows spell the
    letters of the dataflow name, simplest matrices first: strict letter
    matching if any matrix achieves it, loose otherwise.  With loose
    matching a 2-D-reuse tensor also matches the letter of either of its
    1-D components (the paper's informal naming, e.g. Conv2D "XYP-MST").
    Empty when unrealisable, an initial names no iterator, or the letter
    count is not the tensor count.  One {!sweep} per (statement, name),
    memoised; designs are built only for the matching matrices.
    @raise Invalid_argument on a malformed name: no [-], or a selection
    that is not 2 or 3 distinct iterators (e.g. ["MMK-SST"]). *)

val find_design : Tl_ir.Stmt.t -> string -> Design.t option
(** [find_design stmt "KCX-SST"] searches for the simplest transformation
    whose analysis yields exactly that name.  [None] when the dataflow
    letter combination is not realisable by any candidate matrix.
    @raise Invalid_argument on a malformed name, as {!matching_designs}. *)

val find_design_exn : Tl_ir.Stmt.t -> string -> Design.t
(** @raise Not_found when unrealisable. *)

val all_designs : ?budget:Tl_resil.Budget.t -> ?selection:int array ->
  Tl_ir.Stmt.t -> (string * Design.t) list
(** Every distinct dataflow name reachable over the candidate matrices (for
    the given selection, or all selections), with the simplest realising
    design for each: the first (selection, matrix) in search order, built
    against [stmt].  Names are returned sorted.

    Cost: one {!sweep} per selection per statement {e structure}
    ({!Signature.structure_fingerprint} and [selection]: iterator
    initials and access matrices, not the names or the extents),
    memoised with each name's dataflows in the ["stt.search_plan"]
    {!Tl_par.Cache}; each later call on that structure only builds its
    O(names) designs, classifying nothing.  The cache holds at most 256
    plans and starts over when full, so a process that sees more
    distinct structures pays the sweep again for them.  [budget]
    (default unlimited) is polled once per candidate;
    {!Tl_resil.Budget.Expired} aborts the sweep without leaving a plan
    behind.  A memoised plan costs no budget polls.

    @raise Invalid_argument, before any sweep, unless [selection] names 2
    or 3 distinct iterators of [stmt]. *)
