(** Analysis-driven rewriting: feed the engine's proven bit facts to
    {!Tl_hw.Rewrite.circuit_with_facts}.

    Registers and operators whose high bits are proven constant are
    recomputed at the width of their unknown low bits; fully-proven nodes
    (constant registers, constant ram reads) fold away.  The rewrite is
    simulation-equivalent for every stimulus admitted by the engine
    configuration the facts were computed under — with
    {!Engine.default_config} (inputs top) that is {e every} stimulus, which
    is what the differential fuzz oracle exercises. *)

type savings = {
  cells_before : int;
  cells_after : int;   (** adders+multipliers+muxes+logic+regs *)
  reg_bits_before : int;
  reg_bits_after : int;
  nodes_before : int;
  nodes_after : int;
}

val circuit : ?engine:Engine.t -> Tl_hw.Circuit.t ->
  Tl_hw.Circuit.t * (Tl_hw.Signal.ram * Tl_hw.Signal.ram) list * savings
(** Narrow a circuit using [engine]'s facts (a fresh default-config
    fixpoint is computed when omitted).  Returns the rewritten circuit, the
    (old, new) ram pairs, and the size deltas. *)

val pp_savings : Format.formatter -> savings -> unit
