(** Measured-vs-modeled counter validation.

    Reads the hardware performance counters of an accelerator generated
    with [Accel.generate ~counters:true] after a full simulated run and
    compares them against {!Tl_perf.Perf_model}'s closed-form schedule
    statistics.  The hardware side counts real valid strobes, write
    enables and feeder fetches; the model side counts events
    analytically from the schedule geometry — equality validates both. *)

type expected = {
  e_cycles : int;
      (** model-side total cycles: the controller's schedule length,
          {!Tl_templates.Layout.schedule_size} *)
  e_active_pe_cycles : int;
      (** [passes x active_pe_cycles] from the model's statistics *)
  e_reads : (string * int) list;
      (** useful reads per input memory: [per_tensor x passes] *)
  e_writes_total : int;
      (** aggregate collector-bank writes: output [per_tensor x passes] *)
}

type check = { c_name : string; measured : int; modeled : int }

type validation = {
  v_design : string;
  v_counters : (string * int) list;  (** every raw counter read-out *)
  v_checks : check list;
  v_ok : bool;  (** all checks measured = modeled *)
}

val validate : Tl_templates.Accel.t -> validation
(** Run the accelerator to completion on a fresh tape simulator and
    cross-check.  The JSON report's [backend] key reads ["tape"].
    @raise Invalid_argument if the accelerator was generated without
    [~counters],
    @raise Tl_templates.Accel.Simulation_timeout if [done] never rises. *)

val to_json : validation -> Tl_store.Json.t

val pp : Format.formatter -> validation -> unit
