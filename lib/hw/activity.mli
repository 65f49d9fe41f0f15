(** Switching-activity probe.

    Drives a {!Sim} run while counting per-register toggles (popcount of
    the latch-edge XOR) and per-ram access events, to replace the assumed
    activity factors in the ASIC power model with {e measured} ones.

    Runs on the [`Tape] simulator: registers are observed at their
    canonical dense slots (never aliased by the tape compiler), ram read
    ports count an access per settled address change, and write ports
    count exactly the cycles the simulator commits a write (enable high,
    address in range).  The test suite takes the same three counts on
    the reference interpreter and compares. *)

type t

type report = {
  cycles : int;
  reg_count : int;
  reg_bits : int;        (** total state bits observed *)
  reg_toggles : int;     (** sum over cycles of popcount(old lxor new) *)
  read_ports : int;
  write_ports : int;
  ram_reads : int;       (** read-address-change events *)
  ram_writes : int;      (** committed write events *)
  per_reg : (string * int) list;  (** toggles per {e named} register *)
}

val create : Sim.t -> Circuit.t -> t
(** Attach a probe.  Registers' initial values are captured immediately,
    so create the probe before running any cycles.
    @raise Invalid_argument on a [`Batch] simulator: a bit-sliced run
    interleaves up to 62 independent trials, so a single toggle count
    would be meaningless. *)

val cycles : t -> int -> unit
(** [cycles t n] runs [n] full clock cycles ({!Sim.settle} +
    {!Sim.latch}) with observation interleaved: ram ports are sampled
    post-settle, register toggles are accumulated across the latch edge.
    Drive the simulation through the probe (don't mix with {!Sim.cycle})
    or toggle counts will miss edges. *)

val report : t -> report

val alpha_reg : report -> float
(** Measured register activity factor: toggles / (bits x cycles); 0 on an
    empty probe. *)

val alpha_mem : report -> float
(** Measured memory port activity factor:
    (reads + writes) / (ports x cycles); 0 on an empty probe. *)
