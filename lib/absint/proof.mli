(** Proof rules: the L2xx lint family, driven by the fixpoint engine
    ({!Engine}) and the exact control-slice streams ({!Stream}).

    {!analyze} runs a multi-phase campaign:

    + a first fixpoint over the circuit (inputs/data per the config);
    + accumulator registers are detected structurally
      ([reg d = mux sel reset (self + term)] up to wires, or a plain
      [self + term] with enable/clear) and their {e mathematical} value is
      walked over the schedule, cycle by cycle, using exact control streams
      for select/enable/clear and interval bounds for the data term.  An
      accumulator whose mathematical envelope fits its register width is
      proven wrap-free; the envelope is installed as a clamp and the
      fixpoint re-runs.  Unproven accumulators raise {b L200}.
    + read-modify-write memory banks ([wdata = ram[waddr] + v] with
      ROM-scheduled [we]/[waddr]) are bounded by counting per-cell writes
      in the exact write schedule; proven banks clamp the ram contents and
      the fixpoint runs a final time.
    + remaining rules fire on the final fixpoint: {b L201} out-of-range
      addresses (error for dropped writes, info for reads — the simulator
      returns 0), {b L202} write schedules that fail to quiesce at the
      controller's terminal state (a stuck strobe re-accumulates forever),
      {b L203} registers proven constant, {b L204} provably-constant high
      bits (the narrowing opportunity {!Narrow} exploits). *)

type result = {
  findings : Tl_lint.Finding.t list;
  proofs : string list;
      (** positive facts established (wrap-free accumulators, in-range
          address streams, quiescing schedules, termination) *)
  engine : Engine.t;  (** final fixpoint, accumulator/bank clamps applied *)
  cycles : int;       (** schedule length the control slice was run for *)
  saturation : int option;
      (** terminal settle index of the control slice, when it was run *)
}

val analyze : ?config:Engine.config -> ?cycles:int -> ?target:string ->
  Tl_hw.Circuit.t -> result
(** [cycles] is the schedule length to evaluate the control slice for
    (default 1024; pass the accelerator's planned run length).  [target]
    names the circuit in findings (defaults to the circuit's name). *)

val gate : Tl_lint.Finding.t list -> Tl_lint.Finding.t list
(** The subset of findings that gate a build: L200, L201 and L202 at
    warning severity or above (info-level L201 read notes are harmless by
    simulator semantics). *)
