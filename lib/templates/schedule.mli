(** Elaboration-time execution schedule.

    Maps every iteration of the full loop nest to a (PE, cycle) slot: the
    selected iterators go through the STT, the unselected iterators are
    serialised into passes of [span] cycles each.  Space coordinates are
    translated so the footprint starts at (0,0); elaboration fails if the
    footprint exceeds the array.

    Cycle layout: [preload] cycles of stationary-data preload, then
    [passes × span] compute cycles (pass [s] spans
    [preload + s*span .. preload + (s+1)*span - 1]).

    {!t} is the geometry alone, in closed form from the rows of the STT
    over the selected box; {!by_pe} materialises the events. *)

exception Unsupported of string

type event = {
  cycle : int;
  pass : int;
  pe : Geometry.pos;
  x : int array;  (** full iteration vector (copy, nest order) *)
}

type t = private {
  design : Tl_stt.Design.t;
  rows : int;
  cols : int;
  extents : int array;  (** the selected box [\[0, extents)], selection order *)
  offset : int array;  (** translation added to raw space coordinates *)
  t_min : int;
  span : int;   (** schedule length of one pass *)
  passes : int; (** product of unselected extents; 1 for a {!tile} *)
  preload : int;
  compute_end : int;  (** preload + passes * span *)
  event_count : int;  (** passes × the box's volume *)
}

val v : Tl_stt.Design.t -> rows:int -> cols:int -> t
(** The schedule of [design] over its own selected box, one pass per point
    of the unselected loops.
    @raise Unsupported when the space footprint does not fit the array,
    or a row of the STT spans more than [max_int] over the box. *)

val tile : Tl_stt.Design.t -> rows:int -> cols:int -> int array -> t
(** [tile design ~rows ~cols e] is one pass of [design]'s STT over the
    selected box [\[0, e)]: the schedule of a tile of the statement, its
    selected loops shrunk to [e] and every unselected loop to one point.
    @raise Unsupported as {!v}.
    @raise Invalid_argument unless [e] has one extent per selected loop. *)

val by_pe : t -> event list array array
(** Every event of the schedule, [[rows][cols]], each PE's in ascending
    cycle: passes in lexicographic order of the unselected loops, each
    over the selected box in lexicographic order, a later event after an
    earlier one of the same cycle.  One allocation per event. *)
