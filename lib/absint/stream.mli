(** Exact evaluation of the control slice.

    The {e control slice} of a circuit is the set of nodes whose value
    never depends on an input port or on an {e opaque} memory (a writable
    one, or one the caller declares unknown): constants, reads of the
    other read-only memories, and registers fed only by such nodes.  In
    generated accelerators this covers the whole controller — cycle /
    pass counters, schedule ROMs, write-enable and address streams,
    validity bitmaps — so recording it on the simulator gives {e exact}
    per-cycle value streams, turning schedule properties (bank-conflict
    freedom, address bounds, termination) into decidable checks. *)

type t

val build : ?unknown:(Tl_hw.Signal.ram -> bool) -> Tl_hw.Circuit.t -> t
(** Classify every node of the circuit.  A read-only ram for which
    [unknown] holds (default: none) is opaque like a writable one: its
    contents are not taken to be its power-on image, so its reads leave
    the slice.  No simulation happens yet. *)

val in_slice : t -> Tl_hw.Signal.t -> bool
(** Is the node's value input-independent (deterministic per cycle)? *)

type run = {
  cycles : int;                    (** settles performed *)
  streams : (int * int array) list;  (** tracked signal id -> per-cycle value *)
  saturation : int option;
      (** first settle index [c] such that latching after [c] left every
          slice register unchanged — from then on the slice repeats state
          [c] forever (the controller's terminal fixpoint) *)
  repeat : (int * int) option;
      (** first [(c1, c2)] such that the full slice register state entering
          cycle [c2] equals the state entering cycle [c1 < c2]: the slice
          is periodic from [c1] with period [c2 - c1], so every recorded
          stream repeats that window forever.  A terminal fixpoint shows up
          as period 1. *)
}

val record : t -> cycles:int -> track:Tl_hw.Signal.t list -> run
(** Run the circuit on the {!Tl_hw.Sim} tape for [cycles] settle/latch
    steps, with every input held at 0 and every ram at its power-on
    image, recording the settled per-cycle values of each tracked
    signal.  Tracked signals must be nodes of the circuit in the slice,
    whose values these stimuli cannot change.
    @raise Invalid_argument if a tracked signal is outside the slice or
    the circuit. *)

val values : run -> Tl_hw.Signal.t -> int array option
(** The recorded stream of a tracked signal. *)
