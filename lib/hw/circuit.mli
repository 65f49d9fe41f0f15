(** Elaborated circuits.

    A circuit is the transitive fan-in of a set of named outputs.  Building
    one validates the netlist: all wires assigned, no combinational cycles,
    consistent input declarations.  The node list is returned in
    combinational topological order (registers and ram reads act as
    sequential sources; their data inputs are ordinary nodes evaluated
    within the same cycle and latched at the clock edge). *)

type t

type stats = {
  nodes : int;
  regs : int;
  reg_bits : int;
  adders : int;     (** Add/Sub nodes *)
  multipliers : int;
  muxes : int;
  logic_ops : int;  (** And/Or/Xor/Not/compare/shift *)
  rams : int;
  ram_bits : int;
  inputs : int;
  outputs : int;
}

exception Combinational_cycle of string
exception Unassigned_wire of string

val create : name:string -> outputs:(string * Signal.t) list -> t
(** @raise Unassigned_wire, @raise Combinational_cycle,
    @raise Invalid_argument on duplicate output names or inputs redeclared
    at different widths. *)

val name : t -> string
val outputs : t -> (string * Signal.t) list
val inputs : t -> (string * int) list
(** Distinct input names with widths, sorted. *)

val nodes : t -> Signal.t array
(** All reachable nodes in topological (evaluation) order. *)

val rams : t -> Signal.ram list

val all_children : Signal.t -> Signal.t list
(** A node's inputs, sequential ones included: a register's data, enable
    and clear, a wire's driver, and a memory read's address and the
    memory's write port.  @raise Unassigned_wire on an unassigned wire. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val critical_path : t -> int
(** Longest register-to-register combinational path, in delay units.  The
    delay model charges multipliers 4, adders/subtractors and
    comparators 2, muxes and logic 1, wiring/selection 0 — a coarse
    gate-level proxy good enough to compare dataflow families (reduction
    trees and long fan-in cones show up as deeper paths and therefore lower
    achievable frequency). *)
