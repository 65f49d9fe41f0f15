(** Design lint: rule-based validity checks over space-time transformations.

    Where {!Tl_stt.Transform.v} raises the first problem of a malformed,
    singular or unrepresentable STT, this front end reports every problem
    of the same verdict ({!Tl_stt.Transform.check}) as a rule-tagged
    finding (L100/L101) and goes on to check properties elaboration would
    only discover later: the PE-array bounds (L102), schedule causality
    of output accumulation (L103), raw reuse directions pointing
    backwards in time (L104), and dataflows the structural RTL backend
    has no template for (L105).

    See docs/LINT.md for the rule catalog. *)

val check_matrix : ?rows:int -> ?cols:int -> ?suppress:string list ->
  Tl_ir.Stmt.t -> selected:int array -> matrix:int list list ->
  Finding.t list * Tl_stt.Design.t option
(** Validate a raw selection + matrix.  The problems of
    {!Tl_stt.Transform.check} are reported instead of raised: selection
    and shape as L100, a singular matrix or one whose determinant
    overflows as L101.  When the transformation is well-formed the
    analysed design is returned together with its {!check_design}
    findings.  Defaults: 16×16 array, no suppressions. *)

val check_design : ?rows:int -> ?cols:int -> ?suppress:string list ->
  Tl_stt.Design.t -> Finding.t list
(** Rules L102–L105 over an analysed design.  A space row whose span
    passes [max_int] is an L102 finding. *)
