(** Cycle-level performance model (Fig. 5).

    Estimates execution cycles of a design on a fixed PE array under a
    bandwidth budget, reproducing the §VI-A observations:

    - the per-tile latency is the exact time span of the tile's space-time
      image (computed from the schedule), which charges systolic fill/drain
      automatically and explains why multicast dataflows beat systolic ones
      on raw cycles;
    - PE under-utilisation from small loop bounds (Conv2D p=3 → 15/16 rows)
      appears because the footprint of the best legal tile covers only part
      of the array;
    - unicast dataflows are throttled cycle-by-cycle when their memory
      traffic exceeds the array's bandwidth (the MTTKRP/TTMc effect);
    - stationary tensors add a drain/fill tail per pass.

    Tiling: selected loops are tiled so the footprint fits the array; the
    model searches candidate tile shapes (bounding-box feasibility, then
    exact evaluation of the best few) and reports the best. *)

type config = {
  rows : int;
  cols : int;
  freq_mhz : float;
  bandwidth_gbps : float;  (** array ↔ scratchpad *)
  elem_bytes : int;
  scratchpad_kbytes : float;  (** bounds the tile working set *)
}

val default_config : config
(** 16×16, 320 MHz, 32 GB/s, INT16 — the paper's Fig. 5 setup. *)

type result = {
  design_name : string;
  tile : int array;          (** chosen tile of the selected loops *)
  selected_passes : int;     (** number of tiles over the selected loops *)
  total_passes : int;        (** including unselected sequential loops *)
  span : int;                (** cycles of one pass (fill/drain included) *)
  tail : int;                (** end-of-run drain cycles *)
  cycles : float;            (** bandwidth-throttled total *)
  macs : int;                (** total multiply-accumulates *)
  utilization : float;       (** active PE-cycles / (array × compute cycles) *)
  normalized_perf : float;   (** macs / (rows*cols*cycles): 1.0 = peak *)
  bw_stall_factor : float;   (** cycles inflation due to bandwidth, ≥ 1 *)
  words_per_cycle : float;   (** average memory words demanded per cycle *)
  runtime_us : float;
  gops : float;              (** 2·macs / runtime *)
  pipelined_cycles : float;
      (** steady-state cycles when consecutive passes overlap in the array
          (per-pass skew paid once); the sustained-throughput figure used
          for Table III *)
  pipelined_perf : float;
  traffic_words : (string * float) list;
      (** scratchpad ↔ array word transfers over the whole run, per tensor
          (reuse already exploited by the interconnect) *)
}

type tile_stats = {
  t_span : int;
  active_pes : int;
  active_pe_cycles : int;
  busiest_pe : int;   (** events at the most-loaded PE *)
  demand : float array;  (** memory words demanded per schedule cycle *)
  per_tensor : (string * float) list;  (** words per pass, by tensor *)
}
(** Exact per-tile schedule statistics. *)

val tile_statistics : Tl_templates.Schedule.t -> tile_stats
(** The statistics of one pass of a schedule geometry (a design's own box
    from {!Tl_templates.Schedule.v}, or a tile's from
    {!Tl_templates.Schedule.tile}), in closed form: counts over the
    selected box [0, e) binned by window cycle [τ·x - t_min], with no
    event of the schedule visited.
    - Occupancy per cycle is a convolution of one comb per selected loop
      (step [|τ_d|], [e_d] teeth), O(span · n).
    - A systolic tensor with step [(dp, dt)] fetches at [x] iff [x - u]
      leaves the box, [u = T⁻¹(dp, dt)], or [u] is not integral: the
      occupancy minus that of the sub-box [box ∩ (box + u)].  This is
      exact because [T] is injective: the slot [(pe - dp, cycle - dt)]
      holds an event iff [x - u] is in the box, and [u] lies in the
      access's null space, so that event reads the same element.
    - A multicast (line, cycle) group is one chain of the box along [w],
      the primitive integer vector parallel to [T⁻¹(dp, 0)], counted at
      its head: again box minus sub-box.
    - Active PEs are [|box| - |box ∩ (box + k)|], [k] the primitive
      kernel of the space rows, and the busiest PE holds
      [min over k_d ≠ 0 of ⌈e_d / |k_d|⌉] events per pass.
    - Multicast-stationary line counts and systolic-multicast groups walk
      the chain heads; a group counts iff one of its chain's two ends is
      a systolic entry.
    [T⁻¹] is applied in integers through {!Tl_stt.Transform.adjugate}.
    Bit-identical, float [demand] included, to the statistics counted
    over a materialised schedule, which the tests keep as the oracle. *)

val evaluate : ?config:config -> Tl_stt.Design.t -> result
(** Evaluate a design: a branch-and-bound search for the three tiles with
    the best analytic estimate, then {!tile_statistics} of each.  The
    search precomputes the rows of [|T|] and of every tensor's access
    matrix over the selected loops and keeps their extents per depth; a
    binary search finds where each candidate list stops fitting, so a
    node costs a few integer operations and allocates nothing.  Nothing
    is memoised: the persistent store keeps whole swept shapes.
    @raise Invalid_argument for non-2-D space transformations. *)

val config_fingerprint : config -> string
(** Stable textual form of a config (ints + hex floats): equal strings
    iff the configs evaluate identically.  Part of
    {!Tl_dse.Network.shape_key}, the persistent store's key, so its text
    is a store format. *)

val result_to_string : result -> string
(** Versioned exact codec (hex floats): [result_of_string (result_to_string
    r) = Some r] with structural equality, bit-for-bit on every float. *)

val result_of_string : string -> result option
(** [None] on version mismatch or any malformed field — corrupted store
    payloads degrade to a miss, never a crash. *)

val counters : unit -> (string * int) list
(** Cumulative tile-search counters: [tile_nodes], [tile_leaves],
    [tile_pruned], [tiles_evaluated]. *)

val reset_counters : unit -> unit

val evaluate_name : ?config:config -> Tl_ir.Stmt.t -> string -> result option
(** Resolve a paper-style dataflow name then evaluate. *)

val pp_result : Format.formatter -> result -> unit

(** {2 Program-aware estimates}

    For a compiled descriptor program ({!Tl_compile}) the schedule is
    already fully resolved, so the estimate is exact arithmetic over the
    program header — no tile search, no schedule elaboration. *)

type program_estimate = {
  pe_name : string;
  pe_cycles : int;         (** simulated cycles, [p_total + 1] *)
  pe_macs : int;           (** MAC events ([p_events]) *)
  pe_utilization : float;  (** macs / (rows·cols·cycles) *)
  pe_program_words : int;  (** descriptor words {!Tl_templates.Accel.load_program} writes *)
  pe_runtime_us : float;   (** at [config.freq_mhz] *)
  pe_gops : float;         (** 2·macs / runtime *)
}

val estimate_program : ?config:config -> rows:int -> cols:int ->
  Tl_templates.Layout.program -> program_estimate
(** Exact performance of [program] on a [rows]×[cols] programmable array
    (only [config.freq_mhz] is read — a loaded program is never
    bandwidth-throttled, its feeders replay from on-array memories). *)
