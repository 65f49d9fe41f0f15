(** Complete accelerator generation (§V).

    Given a design (statement + STT) and concrete input data, elaborates the
    full spatial accelerator:

    - one PE per array position, assembled from the Fig.-3 modules selected
      by each tensor's dataflow class;
    - the interconnect implied by each reuse direction (systolic chains,
      multicast buses, diagonal lines, reduction trees, drain chains);
    - schedule-table memory feeders: boundary injection ROMs derived from
      [A·T⁻¹] at elaboration time (the "flexible memory module template"
      of §V-B) — data enters the array only at reuse-chain entry points,
      which for full-utilisation dataflows are exactly the array edges;
    - accumulate-in-place output banks (one per collector: a column drain
      port, a systolic exit, a reduction-tree root, or a unicast PE port);
    - a controller providing the cycle counter, stage (pass) bookkeeping,
      stationary-load and drain-shift strobes.

    Everything that follows from the schedule — table images, the
    data-memory layout, collector cell allocation, the output-bank map,
    counter increments and the schedule-dependent wiring choices — comes
    from one {!Layout.build}; this module only creates and wires the
    hardware.  The result simulates cycle-accurately ({!execute}) and
    emits Verilog ({!Tl_hw.Verilog}).  Functional correctness is checked
    against the golden executor in the test suite. *)

exception Unsupported of string
(** Bound to {!Layout.Unsupported}: one exception under two names, so a
    handler for either catches both.  Raised when the design has no
    netlist or does not fit the [programmable] envelope. *)

exception Bad_program of string
(** Raised by {!load_program} / {!execute_program} when a program cannot
    run on the target netlist: the target is not programmable, the
    structure strings differ, an image is missing / names an unknown
    memory / exceeds a memory's capacity, a value overflows the
    generated port width, or the output map does not fit the output
    shape ({!Layout.out_defect}) or names a bank or address the target
    lacks.  Validation is strict and happens before
    anything is written, so a rejected program never half-configures the
    array. *)

exception Simulation_timeout of { design : string; cycles : int }
(** Raised by the [execute] functions when, after the bounded run, the
    controller's [done] flag is not asserted — either the caller's
    [max_cycles] cut the schedule short ({!execute}), or (under fault
    injection) a corrupted controller failed to reach its terminal count.  The
    simulation itself is always bounded, so a wedged controller is
    reported as a clean timeout instead of garbage output. *)

type prog_info = {
  pi_envelope : Layout.envelope;
  pi_structure : string;
      (** canonical netlist-shape string of the generating design
          ({!Layout.field-l_structure}); a program loads iff it matches *)
  pi_mems : (string * Tl_hw.Signal.ram) list;
      (** writable descriptor memories by name, in elaboration order *)
}
(** Metadata of a programmable netlist (see {!generate}'s [programmable]). *)

type t = {
  design : Tl_stt.Design.t;
  rows : int;
  cols : int;
  data_width : int;
  acc_width : int;
  schedule : Schedule.t;  (** the schedule's geometry *)
  circuit : Tl_hw.Circuit.t;
  total_cycles : int;
  out_locs : (int list, Tl_hw.Signal.ram * int) Hashtbl.t;
      (** output tensor index → (bank, address) *)
  banks : (string * Tl_hw.Signal.ram) list;
  input_rams : (string * Tl_hw.Signal.ram) list;
      (** per-tensor linear data memories (row-major, as a DMA engine would
          fill them); the schedule-table feeders read through these, so the
          same accelerator re-runs on fresh data via {!execute_with} *)
  hardening : Harden.applied;
      (** which resilience options were elaborated in, plus the parity
          ram pairs and voted register names they created *)
  counter_ports : string list;
      (** read-out port names of the performance counters elaborated by
          [~counters] (see {!generate}), in output order: [ctr_cycles],
          [ctr_active_pe_cycles], one [ctr_rd_<tensor>] per input memory,
          one [ctr_wr_<bank>] per collector bank, [ctr_link_systolic] and
          [ctr_link_multicast].  Empty when counters are off. *)
  prog : prog_info option;
      (** [Some _] iff generated with [~programmable]: schedule tables are
          envelope-sized writable descriptor memories and the accelerator
          accepts {!load_program} / {!execute_program} *)
}

val generate : ?rows:int -> ?cols:int -> ?data_width:int -> ?acc_width:int ->
  ?harden:Harden.config -> ?counters:bool ->
  ?programmable:Layout.envelope -> Tl_stt.Design.t ->
  Tl_ir.Exec.env -> t
(** Defaults: 4×4 array, 16-bit data, 32-bit accumulators, no hardening,
    no counters, schedule tables baked into ROMs.
    With [programmable], every schedule table (feeder address streams,
    stage tables, validity/injection bitmaps, collector write-enable and
    address streams, the controller's done/tick streams, and — with
    [counters] — the increment tables) becomes a writable descriptor
    memory sized by the envelope, and every data memory / collector bank
    is sized to [env_elems] / [env_bank].  The netlist is otherwise
    structurally identical to the ROM variant and powers on configured
    for [design]; {!load_program} retargets it to any compatible design
    fitting the envelope (see {!Tl_compile}).  Raises {!Unsupported} when
    [design] itself does not fit the envelope.
    With [harden], controller registers are TMR-voted and/or every
    memory gains a parity companion plus an [error_detected] output (see
    {!Harden}); fault-free behaviour is bit-identical either way.
    With [counters], synthesizable performance counters are elaborated
    alongside the datapath and exposed as extra output ports
    ({!field-counter_ports}): a total-cycle counter, a MAC-enable popcount
    accumulator (active-PE-cycles), per-input-memory useful-read and
    per-collector-bank write counters (increment-ROM + accumulator,
    cross-checkable against {!Tl_perf}'s schedule statistics), and
    aggregate systolic-hop / multicast-bus link-transfer counters.  With
    [counters] off the generated netlist is bit-identical to one built
    without the option (same discipline as [harden]).
    Generation runs {!Layout.build} once and checks [env] against it:
    every tensor the design reads must be present at the shape of its
    access, because the data memories are addressed row-major over that
    shape.
    @raise Unsupported when the design needs an unimplemented template
    (see {!Tl_stt.Design.netlist_supported}), the footprint exceeds the
    array, a stationary output's stage is shorter than the drain chain,
    or the design does not fit [programmable].
    @raise Invalid_argument when [env] lacks a tensor the design reads
    ("missing tensor …") or holds one of another shape ("shape mismatch
    for …"). *)

val execute : ?backend:Tl_hw.Sim.backend -> ?max_cycles:int -> t ->
  Tl_ir.Dense.t
(** Simulate the netlist to completion and reassemble the output tensor
    from the collector banks.  [backend] selects the simulator backend
    (default the compiled instruction tape; see {!Tl_hw.Sim}).
    [max_cycles] caps the run at [min max_cycles (planned_cycles t)]
    cycles; if the controller has not asserted [done] by then —
    impossible for a healthy design given the full budget, but routine
    under fault injection — {!Simulation_timeout} is raised.
    @raise Simulation_timeout as above,
    @raise Invalid_argument if [max_cycles < 1]. *)

val execute_with : t -> Tl_ir.Exec.env -> Tl_ir.Dense.t
(** Re-run the {i same} generated accelerator on different input data by
    rewriting the input data memories (no re-elaboration), for
    {!planned_cycles} on the default backend.
    @raise Invalid_argument on a missing tensor or shape mismatch.
    @raise Simulation_timeout (see {!execute}). *)

val execute_batch : t -> Tl_ir.Exec.env list -> Tl_ir.Dense.t list
(** Run up to [Tl_hw.Sim.max_lanes] independent input environments
    through {e one} bit-sliced simulation pass ([`Batch] backend, one
    lane per environment).  Results arrive in input order, each
    bit-identical to a scalar [execute_with] on that environment.
    [done] is checked {e per lane}: any lane that has not asserted it
    raises {!Simulation_timeout}.
    @raise Invalid_argument on an empty list, more than
    [Tl_hw.Sim.max_lanes] environments, a missing tensor or a shape
    mismatch. *)

(** {2 Campaign-runner hooks}

    Lower-level pieces of {!execute_with}, exposed so fault-injection
    campaigns ({!Tl_fault}) can drive the cycle loop themselves. *)

val planned_cycles : t -> int
(** Number of cycles {!execute} simulates ([total_cycles + 1]). *)

val read_counters : t -> Tl_hw.Sim.t -> (string * int) list
(** Read every counter port of a live simulator instance (normally after
    the full bounded run), in {!field-counter_ports} order.  Empty when
    the accelerator was generated without [~counters]. *)

val load_env : t -> Tl_hw.Sim.t -> Tl_ir.Exec.env -> unit
(** Rewrite the input data memories of a live simulator instance.
    @raise Invalid_argument on a missing tensor or shape mismatch. *)

(** {2 Runtime programming}

    A programmable accelerator ({!generate} with [~programmable]) is
    retargeted at runtime by loading a {!Layout.program} — descriptor
    images plus a data-memory layout, normally produced by
    {!Tl_compile.compile} against this accelerator. *)

val load_program : t -> Tl_hw.Sim.t -> Layout.program -> Tl_ir.Exec.env ->
  unit
(** Reset the simulator (restoring power-on state, banks included), then
    write every descriptor-memory image and prefix-load each input tensor
    at the program's layout (zero tail, parity companions kept coherent
    on hardened variants).  Program images for memories the target did
    not elaborate (e.g. counter increments on a counters-off netlist) are
    ignored, so one program serves every option variant of a structure.
    Every image, data memory, output-map entry and [env] tensor is
    checked before the reset, so a rejected program leaves the simulator
    as it was.
    @raise Bad_program on any validation failure (see {!Bad_program});
    @raise Invalid_argument on a missing tensor or shape mismatch in
    [env] (mirroring {!load_env}). *)

val execute_program : ?sim:Tl_hw.Sim.t -> t -> Layout.program ->
  Tl_ir.Exec.env -> Tl_ir.Dense.t
(** {!load_program} into [sim] (default: a fresh simulator on the default
    backend), run the program's [p_total + 1] cycles, check [done], and
    reassemble the output tensor via the program's own bank map.  Pass [sim] to amortise one compiled
    simulator across many programs — the serving fast path.
    @raise Bad_program, @raise Simulation_timeout, @raise Invalid_argument
    as {!load_program} / {!execute}. *)

val read_program_output : t -> Tl_hw.Sim.t -> Layout.program -> Tl_ir.Dense.t
(** Reassemble a program's output tensor from a live simulator (no
    cycling, no [done] check) — {!read_output} for programmed runs.
    [p] is the program {!load_program} accepted: its output map is not
    checked again. *)

val check_done : t -> Tl_hw.Sim.t -> unit
(** @raise Simulation_timeout if the [done] output is not asserted — on
    a [`Batch] simulator, if {e any} lane's [done] is not asserted. *)

val read_output : t -> Tl_hw.Sim.t -> Tl_ir.Dense.t
(** Reassemble the output tensor from the collector banks of a live
    simulator instance (no cycling, no [done] check). *)

val read_output_lane : t -> Tl_hw.Sim.t -> int -> Tl_ir.Dense.t
(** Lane-targeted {!read_output} for [`Batch] simulators. *)

val golden_cells :
  t -> Tl_ir.Dense.t -> (Tl_hw.Signal.ram * int * int) list
(** Flatten a golden output tensor into raw (bank, addr, expected-value)
    triples, precomputed once per campaign so {!output_checker} can
    test a lane without allocating. *)

val output_checker :
  t -> Tl_hw.Sim.t -> (Tl_hw.Signal.ram * int * int) list -> int -> bool
(** Does lane [l]'s output equal the golden flattened by {!golden_cells}?
    Allocation-free equivalent of
    [Tl_ir.Dense.equal (read_output_lane t sim l) golden], with the bank
    slots pre-resolved against one simulator; build it once per
    simulator, then call it per lane. *)

val verilog : t -> string

val verilog_testbench : t -> expected:Tl_ir.Dense.t -> string
(** Self-checking Verilog testbench: instantiates the generated module,
    clocks it through the full schedule, then sweeps the probe port over
    every output-bank address and compares against [expected] (normally
    the golden executor's result).  Prints PASS or a mismatch count, so
    the emitted RTL can be validated under any external simulator. *)
