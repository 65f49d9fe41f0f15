(** Design-space enumeration (Fig. 6).

    A design point is a distinct hardware architecture: the loop selection
    plus every tensor's dataflow class {i including} its direction vectors
    (two systolic designs with different flow directions are different
    interconnects).  Enumeration sweeps all loop selections and all
    candidate STT matrices, and keeps one representative transformation
    per canonical signature: the first in (selection, matrix) order. *)

type point = {
  design : Tl_stt.Design.t;
  signature : string;
}

val signature : Tl_stt.Design.t -> string
(** Canonical textual form of the architecture (selection label + each
    tensor's dataflow with direction vectors). *)

val design_space : ?exclude_unicast:bool -> ?domains:int ->
  ?budget:Tl_resil.Budget.t -> Tl_ir.Stmt.t -> point list
(** All distinct design points reachable with {-1,0,1} transformation
    matrices over every 3-loop selection, as the paper's Fig. 6 spaces
    are.  Points with [Reuse_full] tensors are excluded (no hardware
    mapping), and so, on request, are points with a [Unicast] tensor.

    Cost: one {!Tl_stt.Search.sweep} per selection, which classifies
    each candidate by integer table lookups; an exclusion is decided once
    per distinct dataflow list, and the D4 deduplication compares
    numbered dataflows.  Only the kept points pay for a transform, a
    design and the canonical signature.  The per-selection sweeps run on
    a {!Tl_par} pool ([?domains], default auto-detected); the result set
    and order are identical to the serial enumeration.
    [budget] (default unlimited) is polled once per candidate matrix;
    expiry raises {!Tl_resil.Budget.Expired} — cooperative, so a caller
    catching it has lost nothing but the un-enumerated tail. *)

val pareto_min : ('a -> float * float) -> 'a list -> 'a list
(** Pareto frontier minimising both objectives, in input order; points
    with equal projections are all kept.  O(n log n). *)
