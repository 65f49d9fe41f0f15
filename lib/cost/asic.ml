(* The calibrated per-module coefficients *)
type params = {
  p_mult : float;        (* mW per 16-bit multiplier at full activity *)
  p_mac_adder : float;
  p_tree_adder : float;
  p_reg_bit : float;
  p_mux_bit : float;
  p_wire_unit : float;
  p_bank : float;
  p_bank_port : float;
  p_stationary_ctrl : float;  (* stage control per stationary tensor *)
  p_base : float;             (* controller + clock tree *)
  a_mult : float;        (* area units (≈ kGE/10) per module *)
  a_adder : float;
  a_reg_bit : float;
  a_mux_bit : float;
  a_wire_unit : float;
  a_bank : float;
  a_stationary_ctrl : float;
  a_base : float;
}

let default_params =
  { p_mult = 0.040;
    p_mac_adder = 0.018;
    p_tree_adder = 0.015;
    p_reg_bit = 0.00045;
    p_mux_bit = 0.00020;
    p_wire_unit = 0.015;
    p_bank = 0.015;
    p_bank_port = 0.030;
    p_stationary_ctrl = 1.5;
    p_base = 4.0;
    a_mult = 1.00;
    a_adder = 0.22;
    a_reg_bit = 0.0025;
    a_mux_bit = 0.0028;
    a_wire_unit = 0.010;
    a_bank = 1.20;
    a_stationary_ctrl = 4.0;
    a_base = 30.0 }

type report = {
  design_name : string;
  area : float;
  power_mw : float;
  breakdown : (string * float) list;
}

let evaluate ?rows ?cols ?data_width ?acc_width design =
  let inv = Inventory.of_design ?rows ?cols ?data_width ?acc_width design in
  let f = float_of_int in
  let p = default_params in
  let breakdown =
    [ ("compute",
       (f inv.Inventory.multipliers *. p.p_mult)
       +. (f inv.Inventory.mac_adders *. p.p_mac_adder)
       +. (f inv.Inventory.tree_adders *. p.p_tree_adder));
      ("registers",
       (f inv.Inventory.dw_reg_bits *. p.p_reg_bit)
       +. (f inv.Inventory.aw_reg_bits *. p.p_reg_bit)
       +. (f inv.Inventory.mux_bits *. p.p_mux_bit));
      ("interconnect", inv.Inventory.wire_units *. p.p_wire_unit);
      ("memory",
       (f inv.Inventory.banks *. p.p_bank)
       +. (f inv.Inventory.bank_ports *. p.p_bank_port));
      ("control",
       (f inv.Inventory.stationary_tensors *. p.p_stationary_ctrl)
       +. p.p_base) ]
  in
  let power_mw = List.fold_left (fun acc (_, v) -> acc +. v) 0. breakdown in
  let area =
    (f inv.Inventory.multipliers *. p.a_mult)
    +. (f (inv.Inventory.mac_adders + inv.Inventory.tree_adders) *. p.a_adder)
    +. (f (inv.Inventory.dw_reg_bits + inv.Inventory.aw_reg_bits)
        *. p.a_reg_bit)
    +. (f inv.Inventory.mux_bits *. p.a_mux_bit)
    +. (inv.Inventory.wire_units *. p.a_wire_unit)
    +. (f inv.Inventory.banks *. p.a_bank)
    +. (f inv.Inventory.stationary_tensors *. p.a_stationary_ctrl)
    +. p.a_base
  in
  { design_name = design.Tl_stt.Design.name; area; power_mw; breakdown }

type activity = {
  alpha_compute : float;
  alpha_reg : float;
  alpha_mem : float;
}

let full_activity = { alpha_compute = 1.; alpha_reg = 1.; alpha_mem = 1. }

let evaluate_netlist ?(activity = full_activity) circuit =
  let st = Tl_hw.Circuit.stats circuit in
  let f = float_of_int in
  let p = default_params in
  (* dynamic categories scale with their measured (or assumed) switching
     activity; the control/base term is treated as static *)
  let breakdown =
    [ ("compute",
       activity.alpha_compute
       *. ((f st.Tl_hw.Circuit.multipliers *. p.p_mult)
           +. (f st.Tl_hw.Circuit.adders *. p.p_mac_adder)));
      ("registers",
       activity.alpha_reg
       *. ((f st.Tl_hw.Circuit.reg_bits *. p.p_reg_bit)
           +. (f st.Tl_hw.Circuit.muxes *. 16. *. p.p_mux_bit)));
      ("memory",
       activity.alpha_mem
       *. ((f st.Tl_hw.Circuit.rams *. p.p_bank)
           +. (f st.Tl_hw.Circuit.ram_bits *. 0.00001)));
      ("control", p.p_base) ]
  in
  let power_mw = List.fold_left (fun acc (_, v) -> acc +. v) 0. breakdown in
  let area =
    (f st.Tl_hw.Circuit.multipliers *. p.a_mult)
    +. (f st.Tl_hw.Circuit.adders *. p.a_adder)
    +. (f st.Tl_hw.Circuit.reg_bits *. p.a_reg_bit)
    +. (f st.Tl_hw.Circuit.muxes *. 16. *. p.a_mux_bit)
    +. (f st.Tl_hw.Circuit.rams *. p.a_bank)
    +. p.a_base
  in
  { design_name = Tl_hw.Circuit.name circuit; area; power_mw; breakdown }

let pp_report ppf r =
  Format.fprintf ppf "@[%-12s area=%.1f power=%.1fmW (%s)@]" r.design_name
    r.area r.power_mw
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%.1f" k v) r.breakdown))
