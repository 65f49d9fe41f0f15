(** Whole-accelerator analysis reports.

    Runs the proof campaign ({!Proof.analyze}) over a circuit or a
    generated accelerator, narrows it with the proven facts ({!Narrow})
    and prices the saving with the ASIC cost model — the user-facing
    product behind [tensorlib analyze] and the [bench-absint] gate. *)

type t = {
  target : string;
  findings : Tl_lint.Finding.t list;
  proofs : string list;
  cycles : int;          (** schedule length the control slice was run for *)
  saturation : int option;
  safe : bool;           (** no L200/L201/L202 finding at warning or above *)
  stats_before : Tl_hw.Circuit.stats;
  stats_after : Tl_hw.Circuit.stats;
  savings : Narrow.savings;
  area_before : float;   (** {!Tl_cost.Asic} area units *)
  area_after : float;
}

val of_accel : ?data_bound:int -> Tl_templates.Accel.t -> t
(** Analyse a generated accelerator over its planned schedule length.  The
    pre-loaded input data memories give the engine exact data bounds; pass
    [data_bound] to instead assume every input element lies in
    [-data_bound .. data_bound] (proofs then transfer to {e any} data a
    DMA engine may load within that bound, not just the baked-in arrays). *)

val pp : Format.formatter -> t -> unit
val to_json : t -> string
