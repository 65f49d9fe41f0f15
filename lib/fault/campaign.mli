(** Monte-Carlo fault-injection campaigns over a generated accelerator.

    A campaign first runs the accelerator fault-free once on the tape,
    recording for every ram cell the last cycle at which a read port
    addresses it.  Each trial then installs / fires one fault from a
    deterministic {!Fault.plan} on a reset, long-lived simulator, runs
    the full bounded schedule and classifies the result:

    - [Hang]: the controller never asserted [done] — the cycle watchdog
      caught a wedged control path;
    - [Masked]: the output is bit-identical to the fault-free golden
      run;
    - [Detected]: the output is wrong {e and} a checker flagged it — the
      [error_detected] parity port, the end-of-run parity sweep over the
      hardened memories, or the ABFT checksum verification;
    - [Sdc]: silent data corruption — wrong output, no flag.

    A trial is not simulated when it is {!prunable}: a memory flip at
    cycle [c] of a cell that the fault-free run never reads at or after
    [c] and that is not an output cell.  It is recorded [Masked] (with
    [detected_by = None]), which is what the full run would find, and
    counted in [pruned].  The rule applies only when the fault-free run
    ends with [done] = 1 and an output equal to [golden].

    Every trial lands in exactly one bucket.  Simulated trials fan out
    over the {!Tl_par} domain pool in contiguous chunks (one simulator
    per chunk); results are independent of the pool width. *)

type outcome = Masked | Sdc | Detected | Hang

val outcome_label : outcome -> string

type config = {
  trials : int;
  seed : int;
  kinds : Fault.kind list;
  classes : Fault.module_class list option;
      (** restrict injection to these module classes *)
  backend : Tl_hw.Sim.backend;
  abft : bool;
      (** the accelerator computes a checksum-augmented problem (see
          {!Abft.augment}); verify the checksums of faulty outputs *)
  domains : int option;  (** pool width; default {!Tl_par.n_domains} *)
}

val default_config : config
(** 1000 trials, seed 42, both fault kinds, all classes, tape backend,
    no ABFT. *)

type trial = {
  fault : Fault.fault;
  outcome : outcome;
  detected_by : string option;
      (** ["watchdog"], ["parity"], ["parity-sweep"] or ["abft"] *)
}

type class_stats = {
  cls : Fault.module_class;
  total : int;
  masked : int;
  sdc : int;
  detected : int;
  hang : int;
}

type report = {
  design : string;
  hardening : string;  (** {!Tl_templates.Harden.label} of the design *)
  backend : string;
  trials : int;
  seed : int;
  masked : int;
  sdc : int;
  detected : int;
  hang : int;
  pruned : int;
      (** trials recorded [Masked] without simulation ({!prunable});
          already counted in [masked] *)
  sdc_rate : float;
  per_class : class_stats list;  (** only classes with at least one trial *)
  results : trial list;  (** per-trial detail, in plan order *)
}

val run : ?config:config -> ?golden:Tl_ir.Dense.t -> Tl_templates.Accel.t ->
  report
(** Plan [config.trials] faults over the accelerator's fault-site table
    and run them.  [golden] is the fault-free reference output; computed
    with a clean run on the tape when omitted (pass it when the
    accelerator was generated on rewritten data memories). *)

val run_faults : ?config:config -> ?golden:Tl_ir.Dense.t ->
  Tl_templates.Accel.t -> Fault.fault list -> report
(** Run an explicit fault list (targeted experiments, replays).  The
    fault-free run supplies [golden] when it is omitted.
    @raise Tl_templates.Accel.Simulation_timeout when [golden] is omitted
    and the fault-free run does not assert [done]. *)

val prunable : ?golden:Tl_ir.Dense.t -> Tl_templates.Accel.t ->
  Fault.fault -> bool
(** The decision {!run_faults} prunes by.  [prunable ?golden acc] runs
    [acc] fault-free once on the tape; the function it returns holds
    [true] exactly for a {!Fault.Flip_mem} at cycle [c] on a cell that
    is not one of {!Tl_templates.Accel.golden_cells}, whose ram's read
    ports all have a resolvable address slot, and that no read port
    addresses at cycle [c] or later — provided the fault-free run ends
    with [done] = 1 and an output equal to [golden] (its own output when
    omitted).  Such a flip cannot reach other state, so the trial ends
    [Masked].  Apply it to [acc] once and reuse the result per fault.
    @raise Tl_templates.Accel.Simulation_timeout as {!run_faults}. *)

val pp : Format.formatter -> report -> unit
(** Human-readable summary table. *)

val to_json : ?extra:(string * Tl_store.Json.t) list -> report ->
  Tl_store.Json.t
(** The report (without per-trial detail) as a JSON object.  [extra]
    fields are appended to the top-level object — the CLI uses this for
    hardening-overhead figures. *)
