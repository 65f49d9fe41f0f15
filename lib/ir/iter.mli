(** Loop iterators of a perfect nest.

    Every Table-II tensor algebra is a perfect loop nest over iterators with
    rectangular bounds [0, extent).  Iterators are referred to by name
    (lower-case in the IR; the paper's dataflow names use the upper-cased
    initial, e.g. the [KCX] in [KCX-SST]). *)

type t = { name : string; extent : int }

val v : string -> int -> t
(** [v name extent] is an iterator. @raise Invalid_argument if [extent <= 0]
    or [name] is empty. *)

val pp : Format.formatter -> t -> unit

val index_of : t list -> string -> int
(** Position of the named iterator in a nest. @raise Not_found. *)
