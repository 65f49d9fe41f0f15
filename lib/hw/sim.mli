(** Cycle-accurate netlist simulator.

    Two-phase semantics per clock cycle: all combinational nodes are
    evaluated in topological order ({i settle}), then registers and ram
    write ports latch their next values ({i latch}).  This matches the
    standard synchronous-RTL evaluation model used by Verilog simulators on
    the single-clock subset the DSL generates.

    Two execution backends implement these semantics:

    - [`Tape] (default): the netlist is compiled at {!create} time into a
      flat int-array instruction tape (opcode, dense operand indices,
      pre-computed masks) evaluated by a tight match loop, and the
      sequential phase is pre-resolved to dense indices so {!cycle}
      performs no hashing and no allocation.
    - [`Batch]: a bit-sliced evaluator over the same compiled tape,
      packing up to {!max_lanes} independent trials into the bit lanes of
      each native int and executing all of them in one pass.  Width-1
      slots are {e packed} (bit [l] of one int is lane [l], so bitwise
      control logic vectorizes for free); wider slots are {e word
      batched} (one int per lane, the instruction decoded once per
      batch).  Lane [l] of every API below is bit-identical to a scalar
      simulation fed lane [l]'s stimuli.

    The test suite and the fuzzer check both, cycle for cycle, against a
    reference interpreter over {!Circuit.t} that shares none of this
    module's state (test/refsim.ml). *)

type t

type backend = [ `Tape | `Batch ]

val max_lanes : int
(** Maximum number of lanes a [`Batch] simulator can carry: 62 (OCaml
    ints are 63-bit; the packed representation needs one bit per lane
    with headroom to stay within non-negative range). *)

val create : ?backend:backend -> ?lanes:int -> Circuit.t -> t
(** Compile the circuit for the chosen backend (default [`Tape]).
    Registers start at their [init] value, rams at their [init_data].
    [?lanes] (default {!max_lanes}) selects the batch width and is only
    accepted with [~backend:`Batch].
    @raise Invalid_argument if [lanes] is outside [1 .. max_lanes] or
    given with a scalar backend. *)

val backend : t -> backend

val lanes : t -> int
(** Number of parallel trials this simulator carries: the [~lanes] given
    at {!create} for [`Batch], [1] for [`Tape]. *)

val packed_fraction : t -> float
(** Fraction of batch instructions that execute fully packed (one
    bitwise op covering all lanes at once, no per-lane loop).  [0.] on
    [`Tape]. *)

val reset : t -> unit
(** Restore registers, rams, inputs and the clock counter to their
    power-on state.  The compiled program is reused as-is. *)

val set_input : t -> string -> int -> unit
(** @raise Not_found on an unknown input.  The value is masked to the
    input's width.  On a [`Batch] simulator the value is broadcast to
    every lane. *)

(** {1 Per-lane access}

    Each function takes the lane index directly after [t] and raises
    [Invalid_argument] when it is outside [0 .. lanes t - 1].  On
    [`Tape] (where [lanes t = 1]) lane [0] is accepted and the call
    behaves exactly like its scalar counterpart, so batch-aware drivers
    run unchanged on either backend. *)

val set_input_lane : t -> int -> string -> int -> unit
(** [set_input_lane t lane name v] drives one lane's copy of an input. *)

val output_lane : t -> int -> string -> int

val output_packed : t -> string -> int
(** All lanes of a width-1 output in one word: bit [l] is lane [l]'s
    value.  The cheap way to scan for per-lane completion ([done]) or
    sticky error flags across a whole batch.
    @raise Invalid_argument on [`Tape] or an output wider than one
    bit. *)

val peek_lane : t -> int -> Signal.t -> int
val ram_contents_lane : t -> int -> Signal.ram -> int array

val ram_reader : t -> Signal.ram -> int -> int -> int
(** [ram_reader t r] resolves [r]'s slot once and returns
    [fun lane addr -> cell]: one cell of one lane, without copying the
    whole ram — the allocation-free read fault campaigns use to compare a
    lane's output cells against the golden run.  Stays valid across
    {!reset} (contents are refilled in place). *)

val settle : t -> unit
(** Recompute all combinational values from current inputs and state. *)

val cycle : t -> unit
(** {!settle} then latch: one full clock cycle. *)

val latch : t -> unit
(** The sequential half of {!cycle} alone: registers and ram write ports
    capture the values computed by the last {!settle}.  Exposed so probes
    (waveform dumpers, {!Activity} counters) can observe the settled
    combinational state {e before} it is clocked away. *)

val cycles : t -> int -> unit

val output : t -> string -> int
(** Value of a named output after the last {!settle}/{!cycle}.  Output
    names are resolved to dense indices once at {!create} time, so this is
    cheap enough for testbench polling loops.
    @raise Not_found on an unknown output. *)

val output_signed : t -> string -> int

val peek : t -> Signal.t -> int
(** Value of any signal in the circuit (post-settle).
    @raise Not_found if the signal is not part of the circuit. *)

val slot : t -> Signal.t -> int option
(** The canonical dense storage slot a signal resolves to, {e after} the
    tape compiler's alias redirection and CSE merging — i.e. the slot
    {!peek} reads.  [None] when the signal is not part of the circuit.
    Two signals the tape compiler merged share a slot.  Stable for the
    lifetime of [t]. *)

val read_slot : t -> int -> int
(** Value currently held in a dense slot returned by {!slot}.  Cheaper
    than {!peek} in per-cycle probe loops (no hashing). *)

val ram_contents : t -> Signal.ram -> int array
(** Snapshot of a ram's current contents. *)

val load_ram_prefix : t -> Signal.ram -> int array -> unit
(** [load_ram_prefix t r data] writes [data] to addresses
    [0 .. length data - 1] and zero-fills the rest, without requiring the
    caller to materialise a full-size padded image.  This is the
    configuration fast path for programmable accelerators, whose
    envelope-sized memories hold a natural-size image followed by a zero
    tail.  Values are masked to the ram width; a read-only ram loaded
    this way is restored by {!reset}.
    @raise Invalid_argument if [data] is larger than the ram. *)

val load_ram_prefix_lane : t -> int -> Signal.ram -> int array -> unit
(** Per-lane {!load_ram_prefix} (batch backend); lane must be 0 on
    [`Tape]. *)

val cycle_count : t -> int

(** {1 Fault-injection hooks}

    Backdoors used by {!Tl_fault} to corrupt architectural state: a
    register's value or a memory cell.  Register slots are never aliased
    or CSE-merged by the tape compiler (a [Reg] node emits no
    instruction), so a write to a register's slot is seen by exactly its
    readers, as in the netlist.  Only registers and memory cells are
    injectable for this reason — arbitrary combinational wires may be
    aliased away by the tape compiler. *)

val poke : t -> Signal.t -> int -> unit
(** Overwrite the current value of a signal's slot (masked to its
    width).  Intended for {e register} slots, where the write models a
    transient bit upset that persists until the register next latches.
    @raise Not_found if the signal is not part of the circuit. *)

val poke_ram : t -> Signal.ram -> int -> int -> unit
(** [poke_ram t ram addr v] corrupts one memory cell (masked to the ram
    width).  Read-only rams are marked dirty so {!reset} restores them.
    @raise Invalid_argument on an out-of-range address,
    @raise Not_found if the ram is not part of the circuit. *)

val force : t -> Signal.t -> and_mask:int -> or_mask:int -> unit
(** Install a persistent stuck-at force on a register's output:
    every {!settle} and {!latch} re-applies
    [(value land and_mask) lor or_mask] to the register's slot, so all
    its readers observe the stuck bits.  Stuck-at-0 on bit
    [b] is [~and_mask:(lnot (1 lsl b)) ~or_mask:0]; stuck-at-1 is
    [~and_mask:(-1) ~or_mask:(1 lsl b)].  Forces accumulate until
    {!clear_forces} or {!reset}.
    @raise Invalid_argument if the signal is not a register. *)

val poke_lane : t -> int -> Signal.t -> int -> unit
(** Lane-targeted {!poke}: corrupt one lane's copy of a register slot,
    leaving the other lanes' trials untouched. *)

val poke_ram_lane : t -> int -> Signal.ram -> int -> int -> unit
(** Lane-targeted {!poke_ram}. *)

val force_lane : t -> int -> Signal.t -> and_mask:int -> or_mask:int -> unit
(** Lane-targeted {!force}: the stuck-at masks compose into that lane's
    per-lane force state only, so up to [lanes t] independent stuck-at
    plans run side by side.  On a [`Batch] simulator the plain {!force}
    broadcasts its masks to every lane. *)

val clear_forces : t -> unit
(** Remove all forces installed by {!force} / {!force_lane}.  {!reset}
    also drops them (scalar and per-lane alike), so a reused simulator
    can never leak stuck bits into the next batch of trials. *)
