(** Elaboration-time execution schedule.

    Maps every iteration of the full loop nest to a (PE, cycle) slot: the
    selected iterators go through the STT, the unselected iterators are
    serialised into passes of [span] cycles each.  Space coordinates are
    translated so the footprint starts at (0,0); elaboration fails if the
    footprint exceeds the array.

    Cycle layout: [preload] cycles of stationary-data preload, then
    [passes × span] compute cycles (pass [s] spans
    [preload + s*span .. preload + (s+1)*span - 1]). *)

exception Unsupported of string

type event = {
  cycle : int;
  pass : int;
  pe : Geometry.pos;
  x : int array;  (** full iteration vector (copy, nest order) *)
}

type t = {
  design : Tl_stt.Design.t;
  rows : int;
  cols : int;
  offset : int array;  (** translation added to raw space coordinates *)
  t_min : int;
  span : int;   (** schedule length of one pass *)
  passes : int; (** product of unselected extents *)
  preload : int;
  compute_end : int;  (** preload + passes * span *)
  by_pe : event list array array;  (** [rows][cols], ascending cycle *)
  event_count : int;
}

val build : Tl_stt.Design.t -> rows:int -> cols:int -> t
(** @raise Unsupported when the space footprint does not fit the array,
    or a row of the STT spans more than [max_int] over the domain. *)

type frame = private {
  f_design : Tl_stt.Design.t;
  f_rows : int;
  f_cols : int;
  f_offset : int array;
  f_t_min : int;
  f_span : int;
  f_passes : int;
  f_preload : int;
  f_compute_end : int;
  f_event_count : int;
}
(** The geometry of a schedule without its events: everything {!t} carries
    except [by_pe].  Identical field values to the corresponding {!build}. *)

val frame : Tl_stt.Design.t -> rows:int -> cols:int -> frame
(** @raise Unsupported under exactly the conditions of {!build}. *)

val events : t -> event list
(** All events sorted by cycle (ties by PE). *)

val pe_active : t -> Geometry.pos -> bool
