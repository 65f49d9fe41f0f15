type device = {
  dev_name : string;
  luts : int;
  dsps : int;
  brams : int;
  fabric_mhz : float;
  dsp_per_fp32_mac : float;
  dsp_per_int16_mac : float;
}

let vu9p =
  { dev_name = "VU9P"; luts = 1_182_000; dsps = 6840; brams = 2160;
    fabric_mhz = 350.; dsp_per_fp32_mac = 4.; dsp_per_int16_mac = 1. }

let arria10 =
  { dev_name = "Arria-10"; luts = 854_400; dsps = 1518; brams = 2713;
    fabric_mhz = 300.; dsp_per_fp32_mac = 1.; dsp_per_int16_mac = 1. }

type style = {
  style_name : string;
  freq_factor : float;
  lut_per_mac : float;
  lut_per_pe_ctrl : float;
  bram_per_bank : float;
  bram_buffer : float;
}

let rtl_style =
  { style_name = "tensorlib-rtl"; freq_factor = 0.87; lut_per_mac = 560.;
    lut_per_pe_ctrl = 600.; bram_per_bank = 8.; bram_buffer = 880. }

let rtl_floorplanned = { rtl_style with style_name = "tensorlib-rtl+floorplan"; freq_factor = 0.94 }

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

(* long fan-out nets and deep trees lower achievable frequency *)
let dataflow_freq_factor (design : Tl_stt.Design.t) =
  let penalty =
    List.fold_left
      (fun acc (ti : Tl_stt.Design.tensor_info) ->
        match ti.Tl_stt.Design.dataflow with
        | Tl_stt.Dataflow.Multicast _ -> acc *. 0.96
        | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast -> acc *. 0.92
        | Tl_stt.Dataflow.Reuse2d _ -> acc *. 0.96
        | Tl_stt.Dataflow.Unicast -> acc *. 0.95
        | Tl_stt.Dataflow.Systolic _ | Tl_stt.Dataflow.Stationary _
        | Tl_stt.Dataflow.Reuse_full -> acc)
      1.0 design.Tl_stt.Design.tensors
  in
  penalty

let evaluate ?(style = rtl_style) ?(buffer_scale = 1.0) ~device ~rows ~cols
    ~vec ~datatype ~efficiency ~workload design =
  let inv =
    Inventory.of_design ~rows ~cols
      ~data_width:(match datatype with Fp32 -> 32 | Int16 -> 16)
      design
  in
  let pes = rows * cols in
  let macs = pes * vec in
  let dsp_per_mac =
    match datatype with
    | Fp32 -> device.dsp_per_fp32_mac
    | Int16 -> device.dsp_per_int16_mac
  in
  let dsps = float_of_int macs *. dsp_per_mac in
  let luts =
    (float_of_int macs *. style.lut_per_mac)
    +. (float_of_int pes *. style.lut_per_pe_ctrl)
    +. (float_of_int inv.Inventory.banks *. 120.)
  in
  let brams =
    (float_of_int inv.Inventory.banks *. style.bram_per_bank)
    +. (style.bram_buffer *. buffer_scale)
  in
  let bram_frac = brams /. float_of_int device.brams in
  (* memory-macro congestion lowers fmax for RTL flows; baselines publish
     flat frequencies *)
  let mhz =
    device.fabric_mhz *. style.freq_factor
    *. dataflow_freq_factor design
    *. (if style.style_name = "tensorlib-rtl" then 1. -. (0.268 *. bram_frac)
        else 1.)
  in
  let gops = 2. *. float_of_int macs *. mhz *. 1e6 *. efficiency /. 1e9 in
  { generator = style.style_name;
    device = device.dev_name;
    workload;
    macs;
    lut_pct = 100. *. luts /. float_of_int device.luts;
    dsp_pct = 100. *. dsps /. float_of_int device.dsps;
    bram_pct = 100. *. brams /. float_of_int device.brams;
    mhz;
    gops }
