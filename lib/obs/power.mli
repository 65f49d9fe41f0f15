(** Measured-activity power reporting.

    Runs an accelerator to completion under a {!Tl_hw.Activity} probe,
    converts the observed register toggles and memory accesses into
    per-category activity factors, and evaluates the {!Tl_cost.Asic}
    netlist power model under assumed (full) and measured activity side
    by side.  Works with or without [~counters] — the probe observes
    simulator state, not read-out ports. *)

type comparison = {
  p_design : string;
  p_cycles : int;
  probe : Tl_hw.Activity.report;
  alpha : Tl_cost.Asic.activity;
      (** measured factors: register toggles / (bits x cycles), memory
          accesses / (ports x cycles), and schedule MAC events /
          (PEs x cycles) for the compute category *)
  modeled : Tl_cost.Asic.report;   (** assumed full activity *)
  measured : Tl_cost.Asic.report;  (** scaled by [alpha] *)
}

val measure : Tl_templates.Accel.t -> comparison
(** @raise Tl_templates.Accel.Simulation_timeout if [done] never rises. *)

val to_json : comparison -> Tl_store.Json.t

val pp : Format.formatter -> comparison -> unit
