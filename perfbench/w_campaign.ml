(* campaign: seeded bit-sliced ([`Batch]) fault campaigns at 8x8 on the
   four tier-1 designs, each in a plain and a fully hardened build.

   Chosen because batch simulation plus outcome classification are
   nearly all of its time, while generate and serve barely simulate. *)

open Tensorlib
open Common

let designs =
  [ ("gemm", Workloads.gemm ~m:4 ~n:4 ~k:5, "MNK-SST");
    ("conv2d", Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3, "KCX-SST");
    ("depthwise", Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3, "XYP-MMM");
    ("mttkrp", Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4, "IKL-UBBB") ]

let hardenings = [ ("plain", Harden.none); ("hardened", Harden.full) ]

(* trials per campaign: 40 bit-sliced passes of 62 lanes *)
let trials = 40 * Sim.max_lanes

type build = {
  label : string;
  acc : Accel.t;
  golden : Dense.t;
  table : Fault.table;
  golden_ok : bool;  (** the fault-free run equals [Exec.run] *)
}

(* Set-up: elaborate every build, run it fault-free, tabulate its sites. *)
let setup ~seed =
  List.concat
    (List.mapi
       (fun i (name, stmt, dname) ->
         let design =
           Spans.span "stt.search" (fun () -> Search.find_design_exn stmt dname)
         in
         let env = Exec.alloc_inputs ~seed:(Gen.input_seed ~seed ~case:i) stmt in
         let expected = Spans.span "verify.golden" (fun () -> Exec.run stmt env) in
         List.map
           (fun (hname, harden) ->
             let acc =
               Spans.span "elaborate" (fun () ->
                   Accel.generate ~rows:8 ~cols:8 ~harden design env)
             in
             let golden = tape_run acc in
             let table = Spans.span "fault.plan" (fun () -> Fault.table acc.Accel.circuit) in
             { label = name ^ "/" ^ hname;
               acc;
               golden;
               table;
               golden_ok = Spans.span "verify.check" (fun () -> Dense.equal golden expected) })
           hardenings)
       designs)

(* One campaign on one build; returns its outcome digest, or [None]
   when the outcome buckets do not add up to the trial count. *)
let campaign ~seed ~round b =
  Spans.with_id b.label @@ fun () ->
  let config =
    { Campaign.default_config with
      trials;
      seed = Gen.plan_seed ~seed ~round ~build:b.label;
      backend = `Batch;
      domains = Some width }
  in
  let faults =
    Spans.span "fault.plan" (fun () ->
        Fault.plan ~seed:config.Campaign.seed ~trials ~kinds:config.Campaign.kinds
          ~cycles:(Accel.planned_cycles b.acc) b.table)
  in
  let r =
    Spans.span "fault.run" (fun () ->
        Campaign.run_faults ~config ~golden:b.golden b.acc faults)
  in
  Spans.count "fault.trials" r.Campaign.trials;
  Spans.count "fault.masked" r.Campaign.masked;
  Spans.count "fault.sdc" r.Campaign.sdc;
  Spans.count "fault.detected" r.Campaign.detected;
  Spans.count "fault.hang" r.Campaign.hang;
  let total = r.Campaign.masked + r.Campaign.sdc + r.Campaign.detected + r.Campaign.hang in
  if total <> trials || r.Campaign.trials <> trials then None
  else
    Some
      (md5
         (String.concat ""
            (List.map
               (fun (t : Campaign.trial) -> Campaign.outcome_label t.Campaign.outcome)
               r.Campaign.results)))

(* One round: a campaign on every build, each campaign a timed operation.
   Returns the round digest, which covers every build's digest, the
   number of failed campaigns and the seconds of each campaign. *)
let round ?(clock = wall) ~seed ~round builds =
  let ds = List.map (fun b -> clock.timed (fun () -> campaign ~seed ~round b)) builds in
  ( md5 (String.concat "," (List.map (fun (d, _) -> Option.value ~default:"failed" d) ds)),
    List.length (List.filter (fun (d, _) -> Option.is_none d) ds),
    List.map snd ds )

let model_cycles builds =
  List.fold_left (fun a b -> a +. float_of_int (Accel.planned_cycles b.acc)) 0. builds

let setup_failures builds = List.length (List.filter (fun b -> not b.golden_ok) builds)

let min_rounds = 3

(* Every round is preceded by a throw-away set-up, timed as a set-up
   sample, so the samples spread over the whole run. *)
let run ~seed ~seconds =
  let builds, setup0 = scaled.timed (fun () -> setup ~seed) in
  let setups = ref [ setup0 ] in
  let t_start = now () in
  let lat = ref [] and digests = ref [] in
  let failed = ref (setup_failures builds) in
  let r = ref 0 in
  while !r < min_rounds || now () -. t_start < seconds do
    let extra, s = scaled.timed (fun () -> setup ~seed) in
    setups := s :: !setups;
    failed := !failed + setup_failures extra;
    let (d, f, times) = round ~clock:scaled ~seed ~round:!r builds in
    lat := times @ !lat;
    failed := !failed + f;
    (* rounds two apart replay the same fault plans *)
    (match List.nth_opt !digests 1 with
    | Some d2 when d2 <> d -> incr failed
    | _ -> ());
    digests := d :: !digests;
    incr r
  done;
  let campaigns = !r * List.length builds in
  let total_trials = float_of_int (campaigns * trials) in
  let busy = List.fold_left ( +. ) 0. !lat in
  { setup = !setups;
    latencies = !lat;
    work = total_trials;
    busy;
    model_cycles = model_cycles builds;
    attempted = campaigns + (List.length !setups * List.length builds);
    failed = !failed;
    rss_mb = self_rss_mb ();
    scoped = [ ("campaign.trials_per_s", total_trials /. busy) ];
    facts =
      [ ("rounds", Json.Num (float_of_int !r));
        ("trials_per_campaign", Json.Num (float_of_int trials));
        ("round0_digest", Json.Str (List.nth !digests (!r - 1))) ] }

(* Set-up plus round 0 as a warm-up, untraced, then traced; digests must
   agree. *)
let traced ~seed =
  let once () =
    let builds = setup ~seed in
    let (d, f, _), s = time (fun () -> round ~seed ~round:0 builds) in
    ((d, f), s, builds)
  in
  ignore (once ());
  let ((ref_d, ref_f), ref_round_s, ref_builds), wall_off = time once in
  let ((d, f), _, builds), wall_on = Spans.traced "campaign" once in
  let packed =
    List.fold_left
      (fun a b ->
        a +. Sim.packed_fraction
               (Sim.create ~backend:`Batch ~lanes:Sim.max_lanes b.acc.Accel.circuit))
      0. builds
    /. float_of_int (List.length builds)
  in
  let n = List.length builds in
  { wall_off;
    wall_on;
    t_attempted = 2 * n;
    t_failed =
      ref_f + f + setup_failures builds + setup_failures ref_builds
      + (if d = ref_d then 0 else 1);
    t_scoped =
      [ ("campaign.trials_per_s", float_of_int (n * trials) /. ref_round_s);
        ("sim.packed_fraction", packed) ];
    t_facts = [ ("round0_digest", Json.Str d) ] }
