(** FPGA resource / frequency / throughput model (Table III).

    Structure (MAC count, bank count, interconnect class) comes from the
    design; unit costs and fabric characteristics are per-device and
    per-generator-style constants calibrated against published numbers
    (Vivado is not available in this environment — see DESIGN.md).  The
    headline comparison (TensorLib ≈ +21% Gop/s over the best baseline
    generator) emerges from the frequency model (RTL vs HLS styles) and the
    MAC budget each generator reaches. *)

type device = {
  dev_name : string;
  luts : int;
  dsps : int;
  brams : int;
  fabric_mhz : float;  (** achievable fmax for hand-tuned RTL *)
  dsp_per_fp32_mac : float;
  dsp_per_int16_mac : float;
}

val vu9p : device
val arria10 : device

type style = {
  style_name : string;
  freq_factor : float;      (** fraction of fabric fmax the flow reaches *)
  lut_per_mac : float;
  lut_per_pe_ctrl : float;
  bram_per_bank : float;
  bram_buffer : float;      (** double-buffered tile storage *)
}

val rtl_style : style
(** TensorLib: generated Chisel/Verilog RTL. *)

val rtl_floorplanned : style
(** TensorLib + AutoBridge-style floorplanning (§VI-C: MM → 328 MHz). *)

type datatype = Fp32 | Int16

type report = {
  generator : string;
  device : string;
  workload : string;
  macs : int;
  lut_pct : float;
  dsp_pct : float;
  bram_pct : float;
  mhz : float;
  gops : float;
}

val evaluate : ?style:style -> ?buffer_scale:float -> device:device ->
  rows:int -> cols:int -> vec:int -> datatype:datatype -> efficiency:float ->
  workload:string -> Tl_stt.Design.t -> report
(** [vec] is the per-PE vectorisation degree (the paper uses 8);
    [efficiency] is sustained/peak throughput (take it from
    {!Tl_perf.Perf_model.result.pipelined_perf} for TensorLib designs);
    [buffer_scale] scales the double-buffered tile storage (convolutions
    hold halos and weights: ≈1.45). *)
