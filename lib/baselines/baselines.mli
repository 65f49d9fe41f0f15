(** Baseline generator models: PolySA (ICCAD'18) and Susy (ICCAD'20).

    Both are systolic-array-only generators (§VI-C): their design space is
    the subset of TensorLib's where every tensor moves systolically or
    stays stationary — no multicast buses, reduction trees, unicast ports,
    or 2-D reuse planes.  [supports] implements that restriction, which is
    what makes them unable to generate hardware for e.g. Depthwise
    convolution (no large reduction dimension ⇒ no good systolic design).

    Their Table-III resource/frequency/throughput rows are the numbers
    published for those tools (we cannot run closed external generators;
    see DESIGN.md), exposed as {!Tl_cost.Fpga.report} values so the bench
    prints one homogeneous table. *)

type t = {
  name : string;
  device : Tl_cost.Fpga.device;
  supports : Tl_stt.Design.t -> bool;
      (** Reads the design's dataflows only. *)
  published : workload:string -> Tl_cost.Fpga.report option;
      (** Published Table-III row for "MM" or "Conv". *)
}

val polysa : t
val all : t list

val systolic_only : Tl_stt.Design.t -> bool
(** The dataflow-space restriction shared by both baselines. *)

val best_supported_design :
  Tl_ir.Stmt.t -> t -> (Tl_stt.Design.t * Tl_perf.Perf_model.result) option
(** Best-performing design (by the cycle model) within the baseline's
    restricted space, or [None] when the space is empty for this workload
    — the Depthwise-Conv case. *)
