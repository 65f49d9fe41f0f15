(* Fault-injection subsystem: zero-fault transparency of the hardened
   variants, campaign determinism and total classification, the tape
   against the reference interpreter under injection, ABFT checksum
   coverage, TMR masking, and the cycle watchdog. *)

open Tensorlib

let check msg b = Alcotest.(check bool) msg true b

let gen ?(harden = Harden.none) ?(rows = 8) ?(cols = 8) stmt dname =
  let design = Search.find_design_exn stmt dname in
  let env = Exec.alloc_inputs stmt in
  let acc = Accel.generate ~rows ~cols ~harden design env in
  (acc, Exec.run stmt env)

let small_gemm () = Workloads.gemm ~m:4 ~n:4 ~k:4

(* the four tier-1 designs *)
let tier1 =
  [ (Workloads.gemm ~m:4 ~n:4 ~k:5, "MNK-SST");
    (Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3, "KCX-SST");
    (Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3, "XYP-MMM");
    (Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4, "IKL-UBBB") ]

(* ---------------- hardening is transparent when fault-free ------------ *)

let test_zero_fault_golden () =
  List.iter
    (fun (stmt, dname) ->
      List.iter
        (fun harden ->
          let acc, golden = gen ~harden stmt dname in
          let label = dname ^ "/" ^ Harden.label harden in
          check (label ^ " zero-fault matches golden")
            (Dense.equal golden (Accel.execute acc));
          Alcotest.(check (list string))
            (label ^ " reference = tape")
            []
            (Oracle.Refsim.run_against acc.Accel.circuit
               (Sim.create acc.Accel.circuit)
               (Accel.planned_cycles acc)))
        [ Harden.none; Harden.full ])
    tier1

let test_hardened_interface () =
  let acc, _ = gen ~harden:Harden.full ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  check "tmr register list non-empty"
    (acc.Accel.hardening.Harden.tmr_regs <> []);
  check "parity pairs non-empty"
    (acc.Accel.hardening.Harden.parity_pairs <> []);
  let sim = Sim.create acc.Accel.circuit in
  Sim.cycles sim (Accel.planned_cycles acc);
  check "error_detected quiet on a clean run"
    (Sim.output sim "error_detected" = 0)

(* ---------------- campaigns: determinism + total classification ------- *)

let trial_sig (t : Campaign.trial) =
  ( Fault.fault_label t.Campaign.fault,
    Campaign.outcome_label t.Campaign.outcome,
    t.Campaign.detected_by )

let test_campaign_deterministic () =
  let acc, golden = gen ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  let config =
    { Campaign.default_config with trials = 300; domains = Some 1 }
  in
  let r1 = Campaign.run ~config ~golden acc in
  (* a different pool width must not change results or their order *)
  let r2 = Campaign.run ~config:{ config with domains = Some 3 } ~golden acc in
  check "plan + outcomes independent of pool width"
    (List.map trial_sig r1.Campaign.results
    = List.map trial_sig r2.Campaign.results);
  check "every trial classified"
    (r1.Campaign.masked + r1.Campaign.sdc + r1.Campaign.detected
     + r1.Campaign.hang
    = r1.Campaign.trials);
  check "per-class totals partition the trials"
    (List.fold_left
       (fun a (c : Campaign.class_stats) -> a + c.Campaign.total)
       0 r1.Campaign.per_class
    = r1.Campaign.trials);
  check "trial count as configured" (r1.Campaign.trials = 300)

(* Every fault of a 150-trial plan, run on one reused tape simulator
   through [Fault.install]/[Fault.trigger] and on a fresh reference
   interpreter that applies the fault through its own hooks: both must
   end in the same rams, registers and outputs. *)
let test_backend_differential () =
  let acc, _ = gen ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  let circuit = acc.Accel.circuit in
  let planned = Accel.planned_cycles acc in
  let faults =
    Fault.plan ~seed:Campaign.default_config.Campaign.seed ~trials:150
      ~cycles:planned (Fault.table circuit)
  in
  let sim = Sim.create circuit in
  let strike r = function
    | Fault.Flip_reg { reg; bit; _ } ->
      Oracle.Refsim.poke r reg (Oracle.Refsim.peek r reg lxor (1 lsl bit))
    | Fault.Flip_mem { ram; addr; bit; _ } ->
      Oracle.Refsim.poke_ram r ram addr
        ((Oracle.Refsim.ram_contents r ram).(addr) lxor (1 lsl bit))
    | Fault.Stuck_reg _ -> ()
  in
  List.iter
    (fun fault ->
      Sim.reset sim;
      Fault.install sim fault;
      let r = Oracle.Refsim.create circuit in
      (match fault with
      | Fault.Stuck_reg { reg; bit; value; _ } ->
        if value = 0 then
          Oracle.Refsim.force r reg ~and_mask:(lnot (1 lsl bit)) ~or_mask:0
        else Oracle.Refsim.force r reg ~and_mask:(-1) ~or_mask:(1 lsl bit)
      | Fault.Flip_reg _ | Fault.Flip_mem _ -> ());
      for c = 0 to planned - 1 do
        if Fault.trigger_cycle fault = Some c then begin
          Fault.trigger sim fault;
          strike r fault
        end;
        Sim.cycle sim;
        Oracle.Refsim.cycle r
      done;
      Alcotest.(check (list string))
        (Fault.fault_label fault ^ ": reference = tape")
        []
        (Oracle.Refsim.differences r sim))
    faults

(* The bit-sliced backend runs the same plan 62 trials per pass; every
   trial must classify exactly as the scalar tape did.  This exercises
   parity hardening + ABFT so Detected outcomes (and their attribution)
   cross the batch path too. *)
let test_batch_campaign_differential () =
  let stmt = small_gemm () in
  let env = Exec.alloc_inputs stmt in
  let stmt', env' = Option.get (Abft.augment stmt env) in
  let design = Search.find_design_exn stmt' "MNK-SST" in
  let acc =
    Accel.generate ~rows:5 ~cols:5 ~harden:Harden.parity_only design env'
  in
  let base =
    { Campaign.default_config with trials = 200; abft = true }
  in
  let rt = Campaign.run ~config:{ base with backend = `Tape } acc in
  let rb = Campaign.run ~config:{ base with backend = `Batch } acc in
  Alcotest.(check string) "report labelled batch" "batch" rb.Campaign.backend;
  check "batch classifies every fault exactly as the scalar tape"
    (List.map trial_sig rt.Campaign.results
    = List.map trial_sig rb.Campaign.results);
  check "batch saw hangs or detections too"
    (rb.Campaign.detected + rb.Campaign.hang > 0)

(* Reusing one simulator across campaigns must not leak the previous
   group's per-lane force masks: two identical batch campaigns (which
   internally reuse each domain's simulator across ⌈trials/62⌉ groups,
   including Stuck_reg forces) must agree with a fresh scalar run. *)
let test_batch_campaign_reuse () =
  let acc, golden = gen ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  let config =
    { Campaign.default_config with
      trials = 150;
      backend = `Batch;
      kinds = [ Fault.Stuck_at ];
      domains = Some 1 }
  in
  let r1 = Campaign.run ~config ~golden acc in
  let r2 = Campaign.run ~config ~golden acc in
  check "two batch campaigns agree (no cross-group force leakage)"
    (List.map trial_sig r1.Campaign.results
    = List.map trial_sig r2.Campaign.results);
  let rt = Campaign.run ~config:{ config with backend = `Tape } ~golden acc in
  check "stuck-at outcomes match the scalar tape"
    (List.map trial_sig rt.Campaign.results
    = List.map trial_sig r1.Campaign.results)

(* ---------------- pruned campaigns = unpruned campaigns --------------- *)

let trial_sigs (r : Campaign.report) = List.map trial_sig r.Campaign.results

(* A campaign on each tier-1 build at 4x4, plain and fully hardened, on
   both backends: trial for trial what [Oracle.campaign] finds by
   simulating every fault, with some trials pruned in each build and
   [pruned] counting the faults [Campaign.prunable] holds for. *)
let test_pruned_campaign_differential () =
  List.iter
    (fun (stmt, dname) ->
      List.iter
        (fun harden ->
          let acc, golden = gen ~harden ~rows:4 ~cols:4 stmt dname in
          let label = dname ^ "/" ^ Harden.label harden in
          let faults =
            Fault.plan ~seed:5 ~trials:124 ~cycles:(Accel.planned_cycles acc)
              (Fault.table acc.Accel.circuit)
          in
          let reference =
            List.map trial_sig (Oracle.campaign acc ~golden faults)
          in
          let dead = List.filter (Campaign.prunable ~golden acc) faults in
          check (label ^ ": some trial is pruned") (dead <> []);
          List.iter
            (fun backend ->
              let config =
                { Campaign.default_config with backend; domains = Some 2 }
              in
              let r = Campaign.run_faults ~config ~golden acc faults in
              let tag = label ^ "/" ^ r.Campaign.backend in
              Alcotest.(check int) (tag ^ ": pruned") (List.length dead)
                r.Campaign.pruned;
              Alcotest.(check (list (triple string string (option string))))
                (tag ^ " = the unpruned campaign") reference (trial_sigs r))
            [ `Tape; `Batch ])
        [ Harden.none; Harden.full ])
    tier1

(* For each ram cell, the last cycle a read port addresses it and the
   last cycle a write lands on it, in a fault-free run of the reference
   interpreter *)
let last_reads_and_writes (acc : Accel.t) =
  let circuit = acc.Accel.circuit in
  let r = Oracle.Refsim.create circuit in
  let reads = Hashtbl.create 64 and writes = Hashtbl.create 64 in
  let ports =
    Array.to_list (Circuit.nodes circuit)
    |> List.filter_map (fun (s : Signal.t) ->
        match s.Signal.node with
        | Signal.Ram_read (ram, addr) -> Some (ram, addr)
        | _ -> None)
  in
  for c = 0 to Accel.planned_cycles acc - 1 do
    Oracle.Refsim.settle r;
    List.iter
      (fun ((ram : Signal.ram), addr) ->
        Hashtbl.replace reads (ram.Signal.ram_id, Oracle.Refsim.peek r addr) c)
      ports;
    List.iter
      (fun (ram : Signal.ram) ->
        match ram.Signal.write_port with
        | Some wp when Oracle.Refsim.peek r wp.Signal.we <> 0 ->
          Hashtbl.replace writes
            (ram.Signal.ram_id, Oracle.Refsim.peek r wp.Signal.waddr) c
        | Some _ | None -> ())
      (Circuit.rams circuit);
    Oracle.Refsim.latch r
  done;
  (reads, writes)

(* Flips that must be simulated: an output cell flipped after its last
   write, and an input cell flipped at its last read or the cycle before
   (the cycle after is pruned); and every flip, when the golden passed in
   is not what the fault-free run computes. *)
let test_pruning_boundaries () =
  let acc, golden = gen ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  let planned = Accel.planned_cycles acc in
  let reads, writes = last_reads_and_writes acc in
  let flip (ram : Signal.ram) addr cycle =
    Fault.Flip_mem { ram; cls = Fault.Memory; addr; bit = 0; cycle }
  in
  let out_ram, out_addr, written =
    List.find_map
      (fun ((bank : Signal.ram), addr, _) ->
        match Hashtbl.find_opt writes (bank.Signal.ram_id, addr) with
        | Some w when w + 1 < planned -> Some (bank, addr, w)
        | Some _ | None -> None)
      (Accel.golden_cells acc golden)
    |> Option.get
  in
  let in_ram, in_addr, read =
    List.find_map
      (fun (_, (ram : Signal.ram)) ->
        List.find_map
          (fun addr ->
            match Hashtbl.find_opt reads (ram.Signal.ram_id, addr) with
            | Some l when l >= 1 && l + 1 < planned -> Some (ram, addr, l)
            | Some _ | None -> None)
          (List.init ram.Signal.size Fun.id))
      acc.Accel.input_rams
    |> Option.get
  in
  let kept =
    [ flip out_ram out_addr (written + 1); flip in_ram in_addr read;
      flip in_ram in_addr (read - 1) ]
  in
  let dead = flip in_ram in_addr (read + 1) in
  let prunable = Campaign.prunable ~golden acc in
  List.iter
    (fun f -> check (Fault.fault_label f ^ " is simulated") (not (prunable f)))
    kept;
  check (Fault.fault_label dead ^ " is pruned") (prunable dead);
  let faults = dead :: kept in
  let r = Campaign.run_faults ~golden acc faults in
  Alcotest.(check int) "one pruned" 1 r.Campaign.pruned;
  Alcotest.(check (list (triple string string (option string))))
    "= the unpruned campaign"
    (List.map trial_sig (Oracle.campaign acc ~golden faults))
    (trial_sigs r);
  let wrong = Dense.copy golden in
  Dense.flat_set wrong 0 (Dense.flat_get wrong 0 + 1);
  check "a wrong golden prunes nothing"
    (not (Campaign.prunable ~golden:wrong acc dead));
  let plan =
    Fault.plan ~seed:3 ~trials:62 ~cycles:planned
      (Fault.table acc.Accel.circuit)
  in
  List.iter
    (fun backend ->
      let r =
        Campaign.run_faults
          ~config:{ Campaign.default_config with backend }
          ~golden:wrong acc (dead :: plan)
      in
      Alcotest.(check int) (r.Campaign.backend ^ ": none pruned") 0
        r.Campaign.pruned;
      Alcotest.(check (list (triple string string (option string))))
        (r.Campaign.backend ^ ": = the unpruned campaign")
        (List.map trial_sig (Oracle.campaign acc ~golden:wrong (dead :: plan)))
        (trial_sigs r))
    [ `Tape; `Batch ]

(* ---------------- ABFT ----------------------------------------------- *)

let test_abft_detects_single_bit () =
  let rng = Random.State.make [| 2026 |] in
  for _ = 1 to 3 do
    let d () = 2 + Random.State.int rng 3 in
    let m = d () and n = d () and k = d () in
    let stmt = Workloads.gemm ~m ~n ~k in
    let env = Exec.alloc_inputs stmt in
    match Abft.augment stmt env with
    | None -> Alcotest.fail "gemm must be ABFT-supported"
    | Some (stmt', env') ->
      let out = Exec.run stmt' env' in
      check "augmented golden passes the checksum test"
        (Abft.check ~acc_width:32 out);
      check "strip recovers the original result"
        (Dense.equal (Abft.strip out) (Exec.run stmt env));
      (* every single-bit corruption of every output element must break
         at least one row or column checksum *)
      for idx = 0 to Dense.size out - 1 do
        for bit = 0 to 31 do
          let bad = Dense.copy out in
          Dense.flat_set bad idx (Dense.flat_get bad idx lxor (1 lsl bit));
          if Abft.check ~acc_width:32 bad then
            Alcotest.failf "undetected corruption at element %d bit %d" idx
              bit
        done
      done
  done

let test_abft_rejects_non_gemm () =
  let stmt = Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3 in
  check "depthwise is not ABFT-supported" (not (Abft.supported stmt));
  check "augment returns None"
    (Abft.augment stmt (Exec.alloc_inputs stmt) = None)

(* ---------------- TMR ------------------------------------------------- *)

let test_tmr_masks_controller_flips () =
  let acc, golden =
    gen ~harden:Harden.tmr_only ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST"
  in
  let table = Fault.table ~classes:[ Fault.Controller ] acc.Accel.circuit in
  check "controller sites exist" (table.Fault.sites <> []);
  let faults =
    List.concat_map
      (fun (s : Fault.site) ->
        match s.Fault.target with
        | Fault.Mem _ -> []
        | Fault.Reg r ->
          List.concat_map
            (fun cycle ->
              List.init (Signal.width r) (fun bit ->
                  Fault.Flip_reg { reg = r; cls = s.Fault.cls; bit; cycle }))
            [ 0; 3; 17 ])
      table.Fault.sites
  in
  let r = Campaign.run_faults ~golden acc faults in
  check "every single controller-bit flip is masked by the TMR vote"
    (r.Campaign.masked = r.Campaign.trials)

(* ---------------- watchdog / timeout ---------------------------------- *)

let test_watchdog_classifies_hang () =
  let acc, golden = gen ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  let table = Fault.table ~classes:[ Fault.Controller ] acc.Accel.circuit in
  let reg, cls =
    List.find_map
      (fun (s : Fault.site) ->
        match s.Fault.target with
        | Fault.Reg r when Fault.site_name s = "cycle_ctr" ->
          Some (r, s.Fault.cls)
        | _ -> None)
      table.Fault.sites
    |> Option.get
  in
  (* stuck-at-0 on a set bit of the terminal count: the counter can never
     reach it, [done] stays low, and the watchdog must classify a Hang *)
  let terminal = acc.Accel.total_cycles - 1 in
  let bit =
    let rec lowest b = if terminal land (1 lsl b) <> 0 then b else lowest (b + 1) in
    lowest 0
  in
  let fault = Fault.Stuck_reg { reg; cls; bit; value = 0 } in
  let r = Campaign.run_faults ~golden acc [ fault ] in
  (match r.Campaign.results with
  | [ t ] ->
    check "stuck cycle counter classified as hang"
      (t.Campaign.outcome = Campaign.Hang);
    check "hang attributed to the watchdog"
      (t.Campaign.detected_by = Some "watchdog")
  | _ -> Alcotest.fail "expected exactly one trial");
  check "hang counted in the report" (r.Campaign.hang = 1)

let test_max_cycles_timeout () =
  let acc, _ = gen ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  (match Accel.execute ~max_cycles:5 acc with
  | _ -> Alcotest.fail "truncated run must raise Simulation_timeout"
  | exception Accel.Simulation_timeout { cycles; _ } ->
    check "timeout reports the cycles actually run" (cycles = 5));
  (* a max_cycles at least as large as the schedule is harmless *)
  let golden = Accel.execute acc in
  check "generous max_cycles still completes"
    (Dense.equal golden
       (Accel.execute ~max_cycles:(10 * Accel.planned_cycles acc) acc));
  (match Accel.execute ~max_cycles:0 acc with
  | _ -> Alcotest.fail "max_cycles 0 must be rejected"
  | exception Invalid_argument _ -> ())

(* ---------------- parity hardening ------------------------------------ *)

let test_parity_covers_memory_faults () =
  let acc, golden =
    gen ~harden:Harden.parity_only ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST"
  in
  let config =
    { Campaign.default_config with
      trials = 400;
      classes = Some [ Fault.Memory ] }
  in
  let r = Campaign.run ~config ~golden acc in
  check "no silent corruption from memory faults under parity"
    (r.Campaign.sdc = 0);
  check "parity actually fired at least once" (r.Campaign.detected > 0)

let test_hardened_campaign_sdc_free () =
  (* full hardening + ABFT: the acceptance-criteria configuration *)
  let stmt = small_gemm () in
  let env = Exec.alloc_inputs stmt in
  let stmt', env' = Option.get (Abft.augment stmt env) in
  let design = Search.find_design_exn stmt' "MNK-SST" in
  let acc = Accel.generate ~rows:5 ~cols:5 ~harden:Harden.full design env' in
  let config =
    { Campaign.default_config with trials = 250; abft = true }
  in
  let r = Campaign.run ~config acc in
  check "hardened accelerator has zero SDC" (r.Campaign.sdc = 0);
  check "every trial classified"
    (r.Campaign.masked + r.Campaign.detected + r.Campaign.hang
    = r.Campaign.trials)

(* ---------------- sim hooks ------------------------------------------- *)

let test_force_rejects_non_reg () =
  let acc, _ = gen ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  let sim = Sim.create acc.Accel.circuit in
  let w = Signal.input "bogus" 4 in
  (match Sim.force sim w ~and_mask:(-1) ~or_mask:1 with
  | _ -> Alcotest.fail "force on a non-register must be rejected"
  | exception Invalid_argument _ -> ())

let test_fault_plan_deterministic () =
  let acc, _ = gen ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  let table = Fault.table acc.Accel.circuit in
  let plan () = Fault.plan ~seed:7 ~trials:100 ~cycles:50 table in
  check "same seed, same plan"
    (List.map Fault.fault_label (plan ())
    = List.map Fault.fault_label (plan ()));
  let other = Fault.plan ~seed:8 ~trials:100 ~cycles:50 table in
  check "different seed, different plan"
    (List.map Fault.fault_label (plan ())
    <> List.map Fault.fault_label other)

(* ---------------- lint rules ------------------------------------------ *)

let test_lint_fault_surface () =
  let acc, _ = gen ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  let full = Fault.table acc.Accel.circuit in
  let none =
    Lint.Netlist.check_fault_surface
      ~injectable:(Fault.injectable_reg full) acc.Accel.circuit
  in
  check "full table leaves no L014 findings" (none = []);
  let restricted = Fault.table ~classes:[ Fault.Memory ] acc.Accel.circuit in
  let gaps =
    Lint.Netlist.check_fault_surface
      ~injectable:(Fault.injectable_reg restricted) acc.Accel.circuit
  in
  check "restricted table flags uncovered registers" (gaps <> [])

let test_lint_hardening () =
  let bare, _ = gen ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST" in
  let unprotected =
    Lint.Netlist.check_hardening ~protected:(fun _ -> false)
      bare.Accel.circuit
  in
  check "bare banks flagged by L015" (unprotected <> []);
  let hard, _ =
    gen ~harden:Harden.parity_only ~rows:4 ~cols:4 (small_gemm ()) "MNK-SST"
  in
  let pairs = hard.Accel.hardening.Harden.parity_pairs in
  let protected (r : Signal.ram) =
    List.exists
      (fun ((d : Signal.ram), (p : Signal.ram)) ->
        d.Signal.ram_id = r.Signal.ram_id || p.Signal.ram_id = r.Signal.ram_id)
      pairs
  in
  let covered =
    Lint.Netlist.check_hardening ~protected hard.Accel.circuit
  in
  check "parity-hardened design is L015-clean" (covered = [])

let suite =
  [ Alcotest.test_case "zero-fault golden (backends x hardening)" `Quick
      test_zero_fault_golden;
    Alcotest.test_case "hardened interface" `Quick test_hardened_interface;
    Alcotest.test_case "campaign determinism + classification" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "tape vs reference under faults" `Quick
      test_backend_differential;
    Alcotest.test_case "batch campaign = scalar campaign" `Quick
      test_batch_campaign_differential;
    Alcotest.test_case "batch campaign reuse leaks no forces" `Quick
      test_batch_campaign_reuse;
    Alcotest.test_case "pruned campaign = unpruned (tier-1, both backends)"
      `Quick test_pruned_campaign_differential;
    Alcotest.test_case "pruning boundaries" `Quick test_pruning_boundaries;
    Alcotest.test_case "abft detects single-bit corruption" `Quick
      test_abft_detects_single_bit;
    Alcotest.test_case "abft rejects non-gemm" `Quick
      test_abft_rejects_non_gemm;
    Alcotest.test_case "tmr masks controller flips" `Quick
      test_tmr_masks_controller_flips;
    Alcotest.test_case "watchdog classifies hang" `Quick
      test_watchdog_classifies_hang;
    Alcotest.test_case "execute max_cycles timeout" `Quick
      test_max_cycles_timeout;
    Alcotest.test_case "parity covers memory faults" `Quick
      test_parity_covers_memory_faults;
    Alcotest.test_case "hardened+abft campaign is sdc-free" `Quick
      test_hardened_campaign_sdc_free;
    Alcotest.test_case "force rejects non-register" `Quick
      test_force_rejects_non_reg;
    Alcotest.test_case "fault plans deterministic" `Quick
      test_fault_plan_deterministic;
    Alcotest.test_case "lint L014 fault surface" `Quick
      test_lint_fault_surface;
    Alcotest.test_case "lint L015 hardening" `Quick test_lint_hardening ]
