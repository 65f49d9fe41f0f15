type t = {
  name : string;
  device : Tl_cost.Fpga.device;
  supports : Tl_stt.Design.t -> bool;
  published : workload:string -> Tl_cost.Fpga.report option;
}

let systolic_only (design : Tl_stt.Design.t) =
  List.for_all
    (fun (ti : Tl_stt.Design.tensor_info) ->
      match ti.Tl_stt.Design.dataflow with
      | Tl_stt.Dataflow.Systolic _ | Tl_stt.Dataflow.Stationary _ -> true
      | Tl_stt.Dataflow.Unicast | Tl_stt.Dataflow.Multicast _
      | Tl_stt.Dataflow.Reuse2d _ | Tl_stt.Dataflow.Reuse_full -> false)
    design.Tl_stt.Design.tensors

let row ~generator ~device ~workload ~macs ~lut ~dsp ~bram ~mhz ~gops =
  { Tl_cost.Fpga.generator; device; workload; macs; lut_pct = lut;
    dsp_pct = dsp; bram_pct = bram; mhz; gops }

let polysa =
  { name = "PolySA";
    device = Tl_cost.Fpga.vu9p;
    supports = systolic_only;
    published =
      (fun ~workload ->
        match workload with
        | "MM" ->
          Some
            (row ~generator:"PolySA" ~device:"VU9P" ~workload:"MM"
               ~macs:1522 ~lut:49. ~dsp:89. ~bram:89. ~mhz:229. ~gops:555.)
        | "Conv" ->
          Some
            (row ~generator:"PolySA" ~device:"VU9P" ~workload:"Conv"
               ~macs:1522 ~lut:49. ~dsp:89. ~bram:71. ~mhz:229. ~gops:548.)
        | _ -> None) }

let susy =
  { name = "Susy";
    device = Tl_cost.Fpga.arria10;
    supports = systolic_only;
    published =
      (fun ~workload ->
        match workload with
        | "MM" ->
          Some
            (row ~generator:"Susy" ~device:"Arria-10" ~workload:"MM"
               ~macs:1412 ~lut:40. ~dsp:93. ~bram:32. ~mhz:202. ~gops:547.)
        | "Conv" ->
          Some
            (row ~generator:"Susy" ~device:"Arria-10" ~workload:"Conv"
               ~macs:1275 ~lut:35. ~dsp:84. ~bram:30. ~mhz:220. ~gops:551.)
        | _ -> None) }

let all = [ susy; polysa ]

let best_supported_design stmt baseline =
  (* the first supported design of each name in search order; [supports]
     reads dataflows only, so the first matrix of each dataflow list
     stands for every matrix with that list *)
  let seen = Hashtbl.create 32 in
  let distinct =
    List.concat_map
      (fun selected ->
        List.filter_map
          (fun (matrix, dfs) ->
            let d =
              Tl_stt.Design.of_dataflows
                (Tl_stt.Transform.v stmt ~selected ~matrix)
                dfs
            in
            let name = d.Tl_stt.Design.name in
            if baseline.supports d && not (Hashtbl.mem seen name) then begin
              Hashtbl.add seen name ();
              Some d
            end
            else None)
          (Tl_stt.Search.distinct_flows ~budget:Tl_resil.Budget.unlimited
             stmt ~selected))
      (Tl_stt.Search.selections stmt ~n:3)
  in
  List.fold_left
    (fun best d ->
      let r = Tl_perf.Perf_model.evaluate d in
      match best with
      | None -> Some (d, r)
      | Some (_, rb) ->
        if r.Tl_perf.Perf_model.cycles < rb.Tl_perf.Perf_model.cycles then
          Some (d, r)
        else best)
    None distinct
