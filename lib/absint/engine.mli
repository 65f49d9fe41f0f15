(** Fixpoint dataflow engine over elaborated circuits.

    Computes, for every node of a {!Tl_hw.Circuit.t}, an abstract value
    ({!Av.t}) covering the node's simulated value on {e every} cycle of
    {e every} run, for any input stimulus admitted by the configuration
    (inputs default to top, i.e. arbitrary values every cycle).

    Registers and writable rams carry state: their abstract value is the
    join over all reachable cycles, iterated to a post-fixpoint with
    power-of-two interval widening after [widen_after] rounds.  Ram reads
    join over the cells the address can reach — exactly, via
    {!Av.enumerate}, when the address set is small — and include 0 whenever
    the address may leave the ram, mirroring the simulator's semantics
    (out-of-range reads return 0, out-of-range writes are dropped).

    [reg_clamps] / [ram_clamps] install independently-proven invariants
    (e.g. schedule-unrolled accumulator bounds from {!Proof}): the state is
    met with the clamp after every update. *)

type config = {
  input_av : string -> int -> Av.t;
      (** abstract value assumed for an input, per cycle (name, width) *)
  ram_override : Tl_hw.Signal.ram -> Av.t option;
      (** content summary replacing the ram's own (e.g. declared workload
          data bounds for an input data memory) *)
  widen_after : int;  (** plain-join rounds before widening kicks in *)
  hard_cap : int;     (** rounds before still-changing state goes to top *)
}

val default_config : config
(** Inputs top, no overrides, [widen_after = 32], [hard_cap = 160]. *)

type t

val run : ?config:config -> ?reg_clamps:(int * Av.t) list ->
  ?ram_clamps:(int * Av.t) list -> Tl_hw.Circuit.t -> t
(** Clamp lists are keyed by signal id (registers) / ram id. *)

val value : t -> Tl_hw.Signal.t -> Av.t
(** Abstract value of any node of the analysed circuit (top of the node's
    width for nodes outside it). *)
