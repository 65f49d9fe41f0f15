(** The PE-internal module templates of Fig. 3 (a)–(f).

    Each tensor of a design contributes one of these modules to the PE,
    independent of the others; the PE is assembled by instantiating one
    module per tensor around the computation cell (§V-A).  All builders are
    pure netlist combinators over {!Tl_hw.Signal}. *)

open Tl_hw

val systolic_input : dt:int -> din:Signal.t -> Signal.t * Signal.t
(** Fig. 3 (a): tensor data enters, is used combinationally by the cell this
    cycle and leaves for the neighbouring PE after [dt] cycles.
    Returns [(use, dout)]. *)

val systolic_output : dt:int -> psum_in:Signal.t -> contribution:Signal.t ->
  Signal.t
(** Fig. 3 (b): the partial sum from the upstream PE is combined with this
    PE's contribution and forwarded after [dt] cycles. *)

val stationary_input : load:Signal.t -> next:Signal.t -> Signal.t
(** Fig. 3 (c): double-buffered stationary operand.  [next] is the value
    distributed for the upcoming execution stage; it is latched into the
    active register when [load] fires (stage boundary), and held for the
    whole stage. *)

type stationary_output = {
  acc : Signal.t;       (** the in-PE accumulator *)
  shadow : Signal.t;    (** drain register (double buffer) *)
}

val stationary_output : valid:Signal.t -> stage_start:Signal.t ->
  capture:Signal.t -> drain_shift:Signal.t -> contribution:Signal.t ->
  shadow_in:Signal.t -> stationary_output
(** Fig. 3 (d): accumulate [contribution] while [valid]; on [capture]
    (stage boundary) the total moves to the [shadow] register and the
    accumulator restarts; while [drain_shift] the shadow registers shift
    toward the array edge ([shadow_in] is the upstream neighbour's shadow),
    overlapping the next stage's computation. *)

val direct_input : bus:Signal.t -> Signal.t
(** Fig. 3 (e): multicast / unicast input — data is consumed straight off
    the bus (or bank port). *)

val tree_contribution : valid:Signal.t -> contribution:Signal.t -> Signal.t
(** Fig. 3 (f): multicast output — the PE exposes its (validity-gated)
    partial result to the reduction tree. *)
