(* Measured-activity power: run the accelerator under an Activity probe,
   convert the observed toggle/access counts into per-category activity
   factors, and report the ASIC power model's answer under assumed
   (full) and measured activity side by side. *)

open Tl_hw
open Tl_templates

type comparison = {
  p_design : string;
  p_cycles : int;
  probe : Activity.report;
  alpha : Tl_cost.Asic.activity;
  modeled : Tl_cost.Asic.report;   (* assumed full activity *)
  measured : Tl_cost.Asic.report;  (* measured activity factors *)
}

let measure (acc : Accel.t) =
  let sim = Sim.create acc.Accel.circuit in
  let probe = Activity.create sim acc.Accel.circuit in
  Activity.cycles probe (Accel.planned_cycles acc);
  Accel.check_done acc sim;
  let rep = Activity.report probe in
  (* MAC activity from the schedule: events per PE-cycle over the whole
     array and run — the same quantity the hardware's active-PE-cycle
     counter accumulates, normalised by capacity *)
  let capacity = acc.Accel.rows * acc.Accel.cols * acc.Accel.total_cycles in
  let alpha =
    { Tl_cost.Asic.alpha_compute =
        (if capacity = 0 then 0.
         else
           float_of_int acc.Accel.schedule.Schedule.event_count
           /. float_of_int capacity);
      alpha_reg = Activity.alpha_reg rep;
      alpha_mem = Activity.alpha_mem rep }
  in
  { p_design = acc.Accel.design.Tl_stt.Design.name;
    p_cycles = rep.Activity.cycles;
    probe = rep;
    alpha;
    modeled = Tl_cost.Asic.evaluate_netlist acc.Accel.circuit;
    measured = Tl_cost.Asic.evaluate_netlist ~activity:alpha acc.Accel.circuit }

let to_json c =
  let open Tl_store.Json in
  let int n = Num (float_of_int n) in
  let breakdown (r : Tl_cost.Asic.report) =
    Obj (List.map (fun (k, v) -> (k, Num v)) r.Tl_cost.Asic.breakdown)
  in
  Obj
    [ ("design", Str c.p_design);
      ("backend", Str "tape");
      ("cycles", int c.p_cycles);
      ("probe",
       Obj
         [ ("reg_bits", int c.probe.Activity.reg_bits);
           ("reg_toggles", int c.probe.Activity.reg_toggles);
           ("ram_reads", int c.probe.Activity.ram_reads);
           ("ram_writes", int c.probe.Activity.ram_writes);
           ("read_ports", int c.probe.Activity.read_ports);
           ("write_ports", int c.probe.Activity.write_ports) ]);
      ("alpha",
       Obj
         [ ("compute", Num c.alpha.Tl_cost.Asic.alpha_compute);
           ("reg", Num c.alpha.Tl_cost.Asic.alpha_reg);
           ("mem", Num c.alpha.Tl_cost.Asic.alpha_mem) ]);
      ("modeled_power_mw", Num c.modeled.Tl_cost.Asic.power_mw);
      ("measured_power_mw", Num c.measured.Tl_cost.Asic.power_mw);
      ("modeled_breakdown", breakdown c.modeled);
      ("measured_breakdown", breakdown c.measured) ]

let pp ppf c =
  Fmt.pf ppf
    "@[<v>%s (tape): %d cycles@,\
     activity: compute=%.3f reg=%.3f mem=%.3f@,\
     power: modeled=%.2f mW, measured=%.2f mW@]"
    c.p_design c.p_cycles c.alpha.Tl_cost.Asic.alpha_compute
    c.alpha.Tl_cost.Asic.alpha_reg c.alpha.Tl_cost.Asic.alpha_mem
    c.modeled.Tl_cost.Asic.power_mw c.measured.Tl_cost.Asic.power_mw
