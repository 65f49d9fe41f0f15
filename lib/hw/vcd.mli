(** VCD (Value Change Dump) waveform capture.

    Wraps a {!Sim} run and records the named signals (inputs, outputs and
    every signal given a {!Signal.set_name} label) into the standard IEEE
    1364 VCD text format, viewable in GTKWave & co.  Useful when debugging
    a generated accelerator's schedule. *)

type t

val create : ?signals:Signal.t list -> Sim.t -> Circuit.t -> t
(** Trace the circuit's inputs, outputs, and named signals (or exactly
    [signals] when given).  Labels are sanitised to legal VCD identifiers
    (mirroring the Verilog namer: non-alphanumerics become ['_'], leading
    digits are prefixed) and colliding labels are uniquified with [_1],
    [_2], … suffixes.  Each traced signal is resolved once through the
    simulator's canonical storage slot ({!Sim.slot}), so wires the tape
    compiler aliased or CSE-merged dump the correct merged value; signals
    not present in the simulated circuit are silently dropped.  The first
    {!record} emits a full [$dumpvars] snapshot at its timestamp, so
    signals that hold their reset value for the whole run still appear.
    @raise Invalid_argument on a [`Batch] simulator (one VCD stream
    cannot represent 62 interleaved trials). *)

val cycles : t -> int -> unit
(** Advance the simulator [n] clock cycles, recording changes. *)

val contents : t -> string
(** The VCD document for everything recorded so far. *)

val write_file : string -> t -> unit
