(** ASIC area/power model (Fig. 6).

    Charges each design exactly the modules its dataflows instantiate
    ({!Inventory}), with per-module area/energy coefficients calibrated to
    the paper's 55 nm synthesis ranges (GEMM 16×16 INT16 at 320 MHz:
    ~35–63 mW, ~1.8× energy spread, ~1.16× area spread).  Absolute numbers
    are a calibrated model, not a synthesis run (see DESIGN.md); the
    *relative* structure — which dataflows cost more and why — comes
    entirely from the module inventory. *)

type report = {
  design_name : string;
  area : float;        (** arbitrary units (about kGE/10 per multiplier) *)
  power_mw : float;
  breakdown : (string * float) list;  (** power by category *)
}

val evaluate : ?rows:int -> ?cols:int -> ?data_width:int -> ?acc_width:int ->
  Tl_stt.Design.t -> report
(** Cost a design from its {!Inventory.of_design} at the given geometry
    with the paper's calibrated coefficients. *)

type activity = {
  alpha_compute : float;  (** MAC datapath activity (multipliers, adders) *)
  alpha_reg : float;      (** register/mux switching activity *)
  alpha_mem : float;      (** memory port access activity *)
}
(** Per-category switching-activity factors scaling the dynamic terms of
    {!evaluate_netlist}; the control/base term is treated as static.
    Measured factors come from a {!Tl_hw.Activity} probe run
    (see [Tl_obs.Power]); the default assumes full activity. *)

val full_activity : activity
(** All factors 1.0 — the assumption the un-instrumented model makes. *)

val evaluate_netlist : ?activity:activity -> Tl_hw.Circuit.t -> report
(** Cost an {i elaborated} circuit from its actual cell counts (registers,
    adders, multipliers, muxes, memory bits) with the same coefficients —
    a cross-check of the analytic {!Inventory}-based model against the
    generated netlist (interconnect length is not recoverable from a flat
    netlist and is priced at zero here).  With [activity] (default
    {!full_activity}, numerically identical to the historical behaviour)
    the compute / register / memory power categories are scaled by their
    measured activity factors; area is unaffected. *)

val pp_report : Format.formatter -> report -> unit
