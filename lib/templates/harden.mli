(** Hardened template variants (resilience options for generated
    accelerators).

    Three orthogonal mechanisms, selected per-design through {!config}
    and threaded into {!Accel.generate}:

    - {b TMR controller}: every controller state register (cycle / pass
      counters, stage strobes, drain counter) is triplicated and its
      readers see the bitwise majority vote.  All three copies latch the
      same next-state computed from the {e voted} feedback, so a single
      upset copy self-heals at the next clock edge.
    - {b Parity memories}: each memory bank and input data memory gains
      a 1-bit parity companion; every scheduled read re-checks parity
      and a sticky flag drives an [error_detected] output port.
    - {b ABFT} (algorithm-based fault tolerance) is a data-level
      row/column-checksum wrapper and lives in {!Tl_fault.Abft}; it
      needs no netlist support beyond a larger array.

    Fault-free behaviour is bit-identical to the unhardened design; the
    cost is area/energy, quantified through {!Tl_cost.Asic} by the
    campaign tooling. *)

type config = {
  tmr_controller : bool;
  parity_banks : bool;
}

val none : config
val tmr_only : config
val parity_only : config
val full : config

val is_none : config -> bool
val label : config -> string
(** ["none"], ["tmr"], ["parity"] or ["tmr+parity"]. *)

type applied = {
  config : config;
  tmr_regs : string list;  (** voted controller registers (base names) *)
  parity_pairs : (Tl_hw.Signal.ram * Tl_hw.Signal.ram) list;
      (** (protected ram, 1-bit parity companion) — campaign runners
          sweep these after a run to catch corrupted write-once cells *)
}

val tmr_reg :
  name:string ->
  ?enable:Tl_hw.Signal.t ->
  ?clear:Tl_hw.Signal.t ->
  ?clear_to:int ->
  ?init:int ->
  Tl_hw.Signal.t ->
  Tl_hw.Signal.t
(** Triplicated register: three copies (named [name_tmr0..2]) of the
    same next-state function, returning the majority vote of their
    outputs.  Feed the vote back into the next-state computation so a
    corrupted copy is rewritten with the voted value. *)

val parity_of : Tl_hw.Signal.t -> Tl_hw.Signal.t
(** XOR-reduction of all bits (even-parity bit). *)

val parity_bit : int -> int
(** Host-side reference: parity of an [int]'s set bits. *)
