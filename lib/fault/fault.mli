(** Fault models over a netlist's architectural state.

    A {e fault site} is a piece of state the simulator ({!Tl_hw.Sim})
    corrupts exactly as the netlist would: a register (its dense value
    slot is never aliased or CSE-merged by the tape compiler) or a memory
    cell.  Arbitrary combinational wires are {e not} injectable — the
    tape compiler may alias or merge them, so a wire-level upset could
    reach readers the netlist does not connect.  Stuck-at faults on
    "wires" are therefore realised as stuck bits on register outputs,
    which is where a synthesised netlist latches them anyway.

    Three fault models:
    - {b transient register bit-flip}: one bit of one register inverted
      at one cycle, persisting until the register next latches;
    - {b stuck-at-0/1}: one register output bit forced for the whole
      run (the simulator re-applies the force around every settle and
      latch);
    - {b memory-cell corruption}: one bit of one ram cell inverted at
      one cycle (at cycle 0 for the stuck-at kind: a cell corrupted
      before the run, persisting until overwritten).

    Plans are deterministic: trial [i] of [plan ~seed] draws from
    [Random.State.make [| seed; i |]], so any (seed, trial) pair can be
    replayed in isolation. *)

type module_class = Controller | Pe | Interconnect | Memory | Rom
(** Vulnerability-report buckets.  Generated accelerators name their
    registers so sites classify structurally: controller counters and
    strobes ([cycle_ctr], [pass_ctr], ...), systolic chain registers
    ([*_sysin]/[*_sysout] — interconnect), everything else in a PE's
    datapath ([Pe], the default for unnamed registers).  Rams split into
    data/bank memories and their parity companions ([Memory]) versus
    schedule-table ROMs ([Rom]) — including a bank's write-address /
    write-enable tables, whose corruption misdirects writes and is
    therefore a control fault, not a data fault. *)

val class_label : module_class -> string
val all_classes : module_class list

type target = Reg of Tl_hw.Signal.t | Mem of Tl_hw.Signal.ram
type site = { target : target; cls : module_class }

val site_name : site -> string

type table = {
  circuit : Tl_hw.Circuit.t;
  sites : site list;  (** deterministic order: registers in topological
                          order, then rams in declaration order *)
  total_bits : int;
}

val table : ?classes:module_class list -> Tl_hw.Circuit.t -> table
(** Enumerate the injectable state of a circuit.  [classes] restricts
    the table to the given module classes (default: everything). *)

val injectable_reg : table -> Tl_hw.Signal.t -> bool
(** Is this register in the table?  (Feeds the L014 lint rule.) *)

type kind = Transient | Stuck_at

type fault =
  | Flip_reg of
      { reg : Tl_hw.Signal.t; cls : module_class; bit : int; cycle : int }
  | Stuck_reg of
      { reg : Tl_hw.Signal.t; cls : module_class; bit : int; value : int }
  | Flip_mem of
      { ram : Tl_hw.Signal.ram;
        cls : module_class;
        addr : int;
        bit : int;
        cycle : int }

val fault_class : fault -> module_class
val fault_label : fault -> string
(** Human-readable one-liner, stable across runs (used for report
    determinism checks). *)

val site_ord : fault -> (int * int) * int
(** Structural-locality sort key: faults that compare close hit the same
    or a neighbouring state element, so their fan-out cones overlap.
    Bit-sliced campaigns sort the plan by this key before packing lanes
    so each 62-lane pass stays mostly lane-uniform. *)

val plan : seed:int -> trials:int -> ?kinds:kind list -> cycles:int ->
  table -> fault list
(** [trials] faults, uniform over the table's state {e bits} (so a
    32-bit accumulator is 32× as likely as a 1-bit strobe, matching a
    uniform physical upset model).  Transient faults strike at a
    uniform cycle in [\[0, cycles)].
    @raise Invalid_argument on an empty table or [trials < 0]. *)

(** {2 Applying a fault to a live simulator} *)

val install : Tl_hw.Sim.t -> fault -> unit
(** Install the persistent part of a fault ({!Stuck_reg} forces).
    Transient faults are a no-op here — fire them with {!trigger} at
    {!trigger_cycle}. *)

val trigger_cycle : fault -> int option
(** The cycle a transient fault strikes at; [None] for stuck-at. *)

val trigger : Tl_hw.Sim.t -> fault -> unit
(** Flip the targeted bit now (reads current state, xors, writes back).
    No-op for {!Stuck_reg}. *)

val install_lane : Tl_hw.Sim.t -> int -> fault -> unit
(** Lane-targeted {!install} for [`Batch] simulators: the stuck-at force
    lands on one lane only, so up to [Sim.lanes] independent fault plans
    run side by side.  Lane 0 on a scalar simulator behaves like
    {!install}. *)

val trigger_lane : Tl_hw.Sim.t -> int -> fault -> unit
(** Lane-targeted {!trigger}. *)
