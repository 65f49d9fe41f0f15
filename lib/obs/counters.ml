(* Measured-vs-modeled cross-check: read the hardware performance
   counters of an instrumented accelerator after a full run and compare
   them, count for count, against Perf_model's closed-form schedule
   statistics.  The two sides share nothing below the schedule geometry —
   the hardware counts real valid strobes, write enables and feeder
   fetches; the model counts events analytically — so equality is a
   genuine validation of both. *)

open Tl_hw
open Tl_templates

type expected = {
  e_cycles : int;
  e_active_pe_cycles : int;
  e_reads : (string * int) list;   (* per input memory *)
  e_writes_total : int;            (* aggregate over collector banks *)
}

let iround f = int_of_float (Float.round f)

let expected (acc : Accel.t) =
  let design = acc.Accel.design in
  let rows = acc.Accel.rows and cols = acc.Accel.cols in
  let sched = acc.Accel.schedule in
  let stats = Tl_perf.Perf_model.tile_statistics sched in
  let passes = sched.Schedule.passes in
  let per_tensor name =
    match List.assoc_opt name stats.Tl_perf.Perf_model.per_tensor with
    | Some words -> iround (words *. float_of_int passes)
    | None -> 0
  in
  let e_reads =
    List.map
      (fun (ti : Tl_stt.Design.tensor_info) ->
        let t = ti.Tl_stt.Design.access.Tl_ir.Access.tensor in
        (t, per_tensor t))
      (Tl_stt.Design.input_infos design)
  in
  let out =
    (Tl_stt.Design.output_info design).Tl_stt.Design.access
      .Tl_ir.Access.tensor
  in
  (* the schedule length the generator sizes the controller by *)
  { e_cycles = fst (Layout.schedule_size design ~rows ~cols);
    e_active_pe_cycles =
      passes * stats.Tl_perf.Perf_model.active_pe_cycles;
    e_reads;
    e_writes_total = per_tensor out }

type check = { c_name : string; measured : int; modeled : int }

type validation = {
  v_design : string;
  v_counters : (string * int) list;  (** every raw counter read-out *)
  v_checks : check list;
  v_ok : bool;
}

(* Run the accelerator to completion on the tape and compare its
   counters against the model. *)
let validate (acc : Accel.t) =
  if acc.Accel.counter_ports = [] then
    invalid_arg "Obs.Counters: accelerator generated without ~counters";
  let sim = Sim.create acc.Accel.circuit in
  Sim.cycles sim (Accel.planned_cycles acc);
  Accel.check_done acc sim;
  let counters = Accel.read_counters acc sim in
  let e = expected acc in
  let get name = try List.assoc name counters with Not_found -> -1 in
  let writes_total =
    List.fold_left
      (fun sum (name, v) ->
        if String.length name >= 7 && String.sub name 0 7 = "ctr_wr_" then
          sum + v
        else sum)
      0 counters
  in
  let checks =
    { c_name = "cycles"; measured = get "ctr_cycles"; modeled = e.e_cycles }
    :: { c_name = "active_pe_cycles";
         measured = get "ctr_active_pe_cycles";
         modeled = e.e_active_pe_cycles }
    :: { c_name = "writes_total"; measured = writes_total;
         modeled = e.e_writes_total }
    :: List.map
         (fun (t, exp) ->
           { c_name = "reads_" ^ t; measured = get ("ctr_rd_" ^ t);
             modeled = exp })
         e.e_reads
  in
  { v_design = acc.Accel.design.Tl_stt.Design.name;
    v_counters = counters;
    v_checks = checks;
    v_ok = List.for_all (fun c -> c.measured = c.modeled) checks }

let to_json v =
  let open Tl_store.Json in
  let int n = Num (float_of_int n) in
  Obj
    [ ("design", Str v.v_design);
      ("backend", Str "tape");
      ("ok", Bool v.v_ok);
      ("counters", Obj (List.map (fun (n, x) -> (n, int x)) v.v_counters));
      ("checks",
       List
         (List.map
            (fun c ->
              Obj
                [ ("name", Str c.c_name); ("measured", int c.measured);
                  ("modeled", int c.modeled);
                  ("ok", Bool (c.measured = c.modeled)) ])
            v.v_checks)) ]

let pp ppf v =
  Fmt.pf ppf "@[<v>%s (tape) counters %s@," v.v_design
    (if v.v_ok then "OK" else "MISMATCH");
  List.iter
    (fun c ->
      Fmt.pf ppf "  %-24s measured=%-8d modeled=%-8d %s@," c.c_name
        c.measured c.modeled
        (if c.measured = c.modeled then "ok" else "MISMATCH"))
    v.v_checks;
  Fmt.pf ppf "@]"
