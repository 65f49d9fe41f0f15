type t = {
  pes : int;
  multipliers : int;
  mac_adders : int;
  tree_adders : int;
  dw_reg_bits : int;
  aw_reg_bits : int;
  mux_bits : int;
  wire_units : float;
  banks : int;
  bank_ports : int;
  stationary_tensors : int;
  has_unicast : bool;
}

let line_count = Tl_stt.Dataflow.line_count

let of_design ?(rows = 16) ?(cols = 16) ?(data_width = 16) ?(acc_width = 32)
    (design : Tl_stt.Design.t) =
  let pes = rows * cols in
  let n_inputs = List.length (Tl_stt.Design.input_infos design) in
  let inv =
    ref
      { pes;
        multipliers = pes * max 1 (n_inputs - 1);
        mac_adders = 0;
        tree_adders = 0;
        dw_reg_bits = 0;
        aw_reg_bits = 0;
        mux_bits = 0;
        wire_units = 0.;
        banks = 0;
        bank_ports = 0;
        stationary_tensors = 0;
        has_unicast = false }
  in
  let add f = inv := f !inv in
  let boundary dp =
    (* number of chain-entry PEs for a systolic direction *)
    line_count rows cols dp
  in
  let input_tensor (df : Tl_stt.Dataflow.t) =
    match df with
    | Tl_stt.Dataflow.Unicast ->
      add (fun i ->
          { i with banks = i.banks + pes; bank_ports = i.bank_ports + pes;
            has_unicast = true })
    | Tl_stt.Dataflow.Stationary _ ->
      add (fun i ->
          { i with
            dw_reg_bits = i.dw_reg_bits + (2 * pes * data_width);
            mux_bits = i.mux_bits + (pes * data_width);
            stationary_tensors = i.stationary_tensors + 1;
            banks = i.banks + 1;
            bank_ports = i.bank_ports + 1 })
    | Tl_stt.Dataflow.Systolic { dp; dt } ->
      let feeders = boundary dp in
      add (fun i ->
          { i with
            dw_reg_bits = i.dw_reg_bits + (dt * pes * data_width);
            wire_units = i.wire_units +. float_of_int pes;
            banks = i.banks + feeders;
            bank_ports = i.bank_ports + feeders })
    | Tl_stt.Dataflow.Multicast { dp } ->
      (* long fan-out nets: heavier switching per pitch than systolic hops *)
      let lines = line_count rows cols dp in
      add (fun i ->
          { i with
            wire_units = i.wire_units +. (4.0 *. float_of_int pes);
            banks = i.banks + lines;
            bank_ports = i.bank_ports + lines })
    | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast ->
      add (fun i ->
          { i with
            wire_units = i.wire_units +. (4.5 *. float_of_int pes);
            banks = i.banks + 1;
            bank_ports = i.bank_ports + 1 })
    | Tl_stt.Dataflow.Reuse2d
        (Tl_stt.Dataflow.Multicast_stationary { multicast }) ->
      let lines = line_count rows cols multicast in
      add (fun i ->
          { i with
            dw_reg_bits = i.dw_reg_bits + (2 * pes * data_width);
            mux_bits = i.mux_bits + (pes * data_width);
            wire_units = i.wire_units +. float_of_int pes;
            stationary_tensors = i.stationary_tensors + 1;
            banks = i.banks + lines;
            bank_ports = i.bank_ports + lines })
    | Tl_stt.Dataflow.Reuse2d
        (Tl_stt.Dataflow.Systolic_multicast { multicast; systolic }) ->
      let lines = line_count rows cols multicast in
      add (fun i ->
          { i with
            dw_reg_bits =
              i.dw_reg_bits
              + (systolic.Tl_stt.Dataflow.dt * pes * data_width);
            wire_units = i.wire_units +. (2. *. float_of_int pes);
            banks = i.banks + lines;
            bank_ports = i.bank_ports + lines })
    | Tl_stt.Dataflow.Reuse_full ->
      add (fun i ->
          { i with
            dw_reg_bits = i.dw_reg_bits + (pes * data_width);
            wire_units = i.wire_units +. (1.5 *. float_of_int pes);
            banks = i.banks + 1;
            bank_ports = i.bank_ports + 1 })
  in
  let output_tensor (df : Tl_stt.Dataflow.t) =
    match df with
    | Tl_stt.Dataflow.Unicast ->
      add (fun i ->
          { i with
            mac_adders = i.mac_adders + pes;
            banks = i.banks + pes;
            bank_ports = i.bank_ports + pes;
            has_unicast = true })
    | Tl_stt.Dataflow.Stationary _ ->
      add (fun i ->
          { i with
            mac_adders = i.mac_adders + pes;
            aw_reg_bits = i.aw_reg_bits + (2 * pes * acc_width);
            mux_bits = i.mux_bits + (pes * acc_width);
            stationary_tensors = i.stationary_tensors + 1;
            banks = i.banks + cols;
            bank_ports = i.bank_ports + cols })
    | Tl_stt.Dataflow.Systolic { dp; dt } ->
      let exits = boundary dp in
      add (fun i ->
          { i with
            mac_adders = i.mac_adders + pes;
            aw_reg_bits = i.aw_reg_bits + (dt * pes * acc_width);
            wire_units = i.wire_units +. (2. *. float_of_int pes);
            banks = i.banks + exits;
            bank_ports = i.bank_ports + exits })
    | Tl_stt.Dataflow.Multicast { dp } ->
      let lines = line_count rows cols dp in
      add (fun i ->
          { i with
            tree_adders = i.tree_adders + (pes - lines);
            wire_units = i.wire_units +. (2. *. float_of_int pes);
            banks = i.banks + lines;
            bank_ports = i.bank_ports + lines })
    | Tl_stt.Dataflow.Reuse2d
        (Tl_stt.Dataflow.Multicast_stationary { multicast }) ->
      let lines = line_count rows cols multicast in
      add (fun i ->
          { i with
            tree_adders = i.tree_adders + (pes - lines);
            mac_adders = i.mac_adders + lines;
            aw_reg_bits = i.aw_reg_bits + (lines * acc_width);
            wire_units = i.wire_units +. (2. *. float_of_int pes);
            stationary_tensors = i.stationary_tensors + 1;
            banks = i.banks + lines;
            bank_ports = i.bank_ports + lines })
    | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast ->
      add (fun i ->
          { i with
            tree_adders = i.tree_adders + (pes - 1);
            wire_units = i.wire_units +. (3. *. float_of_int pes);
            banks = i.banks + 1;
            bank_ports = i.bank_ports + 1 })
    | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Systolic_multicast { multicast; systolic }) ->
      let lines = line_count rows cols multicast in
      add (fun i ->
          { i with
            tree_adders = i.tree_adders + (pes - lines);
            aw_reg_bits =
              i.aw_reg_bits + (systolic.Tl_stt.Dataflow.dt * lines * acc_width);
            wire_units = i.wire_units +. (4.0 *. float_of_int pes);
            banks = i.banks + lines;
            bank_ports = i.bank_ports + lines })
    | Tl_stt.Dataflow.Reuse_full ->
      add (fun i ->
          { i with
            tree_adders = i.tree_adders + (pes - 1);
            aw_reg_bits = i.aw_reg_bits + acc_width;
            wire_units = i.wire_units +. (3. *. float_of_int pes);
            banks = i.banks + 1;
            bank_ports = i.bank_ports + 1 })
  in
  List.iter
    (fun (ti : Tl_stt.Design.tensor_info) ->
      match ti.Tl_stt.Design.role with
      | Tl_stt.Design.Input -> input_tensor ti.Tl_stt.Design.dataflow
      | Tl_stt.Design.Output -> output_tensor ti.Tl_stt.Design.dataflow)
    design.Tl_stt.Design.tensors;
  !inv

let pp ppf i =
  Format.fprintf ppf
    "@[pes=%d mul=%d macadd=%d treeadd=%d dwregs=%db awregs=%db mux=%db \
     wires=%.0f banks=%d ports=%d stationary=%d%s@]"
    i.pes i.multipliers i.mac_adders i.tree_adders i.dw_reg_bits
    i.aw_reg_bits i.mux_bits i.wire_units i.banks i.bank_ports
    i.stationary_tensors
    (if i.has_unicast then " unicast" else "")
