(** Hardware module inventory of a design.

    Counts the modules the generator instantiates for each tensor's
    dataflow class on an [rows × cols] array — the same selection logic as
    the netlist backend, kept analytic so the full design space (Fig. 6)
    can be costed without elaborating 181 netlists.  Units:

    - register counts are in {i bits};
    - [wire_units] approximates interconnect length in PE pitches (a
      systolic hop is 1 unit per PE, a multicast line of length L driven
      every cycle contributes L units, a broadcast spans the array). *)

type t = {
  pes : int;
  multipliers : int;       (** one per extra input operand per PE *)
  mac_adders : int;        (** accumulator adders (stationary/systolic out) *)
  tree_adders : int;       (** reduction-tree adders *)
  dw_reg_bits : int;       (** pipeline/hold registers at data width *)
  aw_reg_bits : int;       (** registers at accumulator width *)
  mux_bits : int;
  wire_units : float;
  banks : int;
  bank_ports : int;        (** simultaneous scratchpad ports needed *)
  stationary_tensors : int;
  has_unicast : bool;
}

val of_design : ?rows:int -> ?cols:int -> ?data_width:int -> ?acc_width:int ->
  Tl_stt.Design.t -> t
(** Defaults: 16×16, 16-bit data, 32-bit accumulators. *)

val pp : Format.formatter -> t -> unit
