(** PE-array geometry helpers: grid membership and interconnect lines.

    A "line" is an equivalence class of PE coordinates under translation by
    a direction vector — the set of PEs sharing one multicast bus or one
    systolic chain. *)

type pos = int * int

val in_grid : rows:int -> cols:int -> pos -> bool

val back : pos -> int array -> pos
(** [back p d] is [p - d]. *)

val line_rep : rows:int -> cols:int -> dir:int array -> pos -> pos
(** Canonical representative of the line through [p] along [dir]: the
    position reached by walking backwards while staying inside the grid.
    @raise Invalid_argument if [dir] is the zero vector. *)
